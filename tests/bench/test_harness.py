"""The experiment harness itself: formatting, paper data, runner contracts,
and the registry's paper checks (run on paper numbers, no simulation)."""

import pytest

from repro.bench import paper_data
from repro.bench.experiments import EXPERIMENTS
from repro.bench.tables import format_comparison_table, human_bytes, ratio


class TestTables:
    def test_basic_table(self):
        text = format_comparison_table(
            "title",
            [("row1", {"a": 1.5, "b": 2})],
            [("a", "col-a", ".1f"), ("b", "col-b", "d")],
        )
        assert "title" in text
        assert "col-a" in text
        assert "1.5" in text

    def test_missing_values_render_as_dash(self):
        text = format_comparison_table(
            "t", [("row", {"a": None})], [("a", "A", ".1f"), ("b", "B", "d")]
        )
        assert "-" in text

    def test_ratio(self):
        assert ratio(50, 100) == 0.5
        assert ratio(None, 100) is None
        assert ratio(50, 0) is None

    def test_human_bytes(self):
        assert human_bytes(512) == "512B"
        assert human_bytes(8 << 10) == "8KB"
        assert human_bytes(4 << 20) == "4MB"
        assert human_bytes(1 << 30) == "1GB"


class TestPaperData:
    def test_improvements_consistent_with_cycle_counts(self):
        v = paper_data.VCPU_SWITCH
        computed = 100 * (1 - v["entry_with_shared"] / v["entry_without_shared"])
        assert abs(computed - v["entry_improvement_pct"]) < 0.1
        s = paper_data.SWITCH_PATH
        computed = 100 * (1 - s["exit_short_path"] / s["exit_long_path"])
        assert abs(computed - s["exit_improvement_pct"]) < 0.35

    def test_rv8_average_matches_rows(self):
        rows = paper_data.RV8_TABLE_I.values()
        average = sum(r["overhead_pct"] for r in rows) / len(paper_data.RV8_TABLE_I)
        assert abs(average - paper_data.RV8_AVERAGE_OVERHEAD_PCT) < 0.03

    def test_coremark_drop_consistent(self):
        c = paper_data.COREMARK
        computed = 100 * (1 - c["cvm_score"] / c["normal_score"])
        assert abs(computed - c["overhead_pct"]) < 0.1

    def test_page_fault_average_plausible(self):
        p = paper_data.PAGE_FAULT
        # The reported average must sit between stages 1 and 2 (cache hits
        # dominate) -- the internal consistency the paper itself argues.
        assert p["cvm_stage1"] < p["cvm_average"] < p["cvm_stage2"]

    def test_iozone_grid_shape(self):
        assert len(paper_data.IOZONE["file_sizes"]) == 7
        assert paper_data.IOZONE["record_sizes"] == [8 << 10, 128 << 10, 512 << 10]

    def test_platform_constants(self):
        assert paper_data.PLATFORM["clock_hz"] == 100_000_000
        assert paper_data.PLATFORM["memory_bytes"] == 1 << 30


class TestRunnerContracts:
    def test_micro_runners_return_required_keys(self):
        from repro.bench.microbench import run_vcpu_switch_experiment

        result = run_vcpu_switch_experiment(iterations=3)
        for key in ("entry_with_shared", "exit_with_shared",
                    "entry_improvement_pct", "exit_improvement_pct"):
            assert key in result

    def test_rv8_runner_subset(self):
        from repro.bench.macro import run_rv8_experiment

        result = run_rv8_experiment(scale=0.001, benchmarks=["qsort"])
        assert set(result["benchmarks"]) == {"qsort"}
        assert "average_overhead_pct" in result


def _paper_result(name: str) -> dict:
    """A registry result built from the paper's own numbers."""
    return dict({
        "E1": paper_data.VCPU_SWITCH,
        "E2": paper_data.SWITCH_PATH,
        "E3": paper_data.PAGE_FAULT,
        "E5": paper_data.COREMARK,
    }[name])


class TestRegistry:
    ENTRIES = {entry.name: entry for entry in EXPERIMENTS}

    def test_names_unique(self):
        names = [entry.name for entry in EXPERIMENTS]
        assert len(names) == len(set(names))
        assert len({name.lower() for name in names}) == len(names)

    @pytest.mark.parametrize("name", ["E1", "E2", "E3", "E5"])
    @pytest.mark.parametrize("full", [False, True])
    def test_paper_numbers_pass_check(self, name, full):
        self.ENTRIES[name].check(_paper_result(name), full)

    @pytest.mark.parametrize("name, key, value", [
        # the optimization stops paying
        ("E1", "entry_with_shared", paper_data.VCPU_SWITCH["entry_without_shared"] + 1),
        # an absolute count leaves the 15% band
        ("E1", "exit_without_shared", paper_data.VCPU_SWITCH["exit_without_shared"] * 1.2),
        ("E2", "exit_short_path", paper_data.SWITCH_PATH["exit_long_path"] + 1),
        ("E2", "entry_improvement_pct", paper_data.SWITCH_PATH["entry_improvement_pct"] + 7),
        # stage 3 stops being the slow path
        ("E3", "cvm_stage3", paper_data.PAGE_FAULT["normal_vm"] - 1),
        # the average drifts away from stage 1
        ("E3", "cvm_average", paper_data.PAGE_FAULT["cvm_stage1"] * 1.06),
        ("E5", "overhead_pct", paper_data.COREMARK["overhead_pct"] + 0.6),
        ("E5", "cvm_score", paper_data.COREMARK["cvm_score"] * 0.94),
    ])
    def test_value_past_its_bound_fails_check(self, name, key, value):
        result = _paper_result(name)
        result[key] = value
        with pytest.raises(AssertionError):
            self.ENTRIES[name].check(result, False)
