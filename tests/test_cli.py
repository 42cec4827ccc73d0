"""CLI smoke tests (python -m repro)."""

import pytest

from repro.__main__ import main


def test_stats_command(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "total cycles" in out
    assert "CVM 1" in out


def test_attack_command_all_blocked(capsys):
    assert main(["attack"]) == 0
    out = capsys.readouterr().out
    assert "SUCCEEDED" not in out
    assert out.count("blocked") == 5


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "report verified: True" in out


def test_experiments_subset(capsys):
    assert main(["experiments", "--only", "E1"]) == 0
    out = capsys.readouterr().out
    assert "E1 shared vCPU" in out
    assert "E3" not in out


def test_experiments_only_is_case_insensitive(capsys):
    assert main(["experiments", "--only", "e1"]) == 0
    assert "E1 shared vCPU" in capsys.readouterr().out


@pytest.mark.parametrize("only", ["E99", "E1,E99", "bogus"])
def test_experiments_unknown_name_rejected(capsys, only):
    assert main(["experiments", "--only", only]) == 2
    out = capsys.readouterr().out
    assert "unknown experiments:" in out
    assert "E1 shared vCPU" not in out  # nothing ran


def test_experiments_failing_check_exits_1(capsys, monkeypatch):
    import dataclasses

    from repro.bench import experiments, paper_data

    # E1's paper numbers with the optimization made to cost cycles.
    doctored = dict(paper_data.VCPU_SWITCH, entry_with_shared=6_000)
    registry = tuple(
        dataclasses.replace(e, run=lambda **_: doctored) if e.name == "E1" else e
        for e in experiments.EXPERIMENTS
    )
    monkeypatch.setattr(experiments, "EXPERIMENTS", registry)
    assert main(["experiments", "--only", "E1,E2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL E1" in out
    assert 'result["entry_with_shared"] < result["entry_without_shared"]' in out
    assert "E2 switch path" in out  # the failure did not stop the run
    assert "1 failing (E1)" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_faults_seams_subset(capsys):
    assert main(["faults", "--seeds", "1", "--seams", "channel"]) == 0
    assert "campaign:" in capsys.readouterr().out


def test_faults_unknown_seam_rejected(capsys):
    assert main(["faults", "--seeds", "1", "--seams", "bogus"]) == 2
    assert "unknown fault seam" in capsys.readouterr().out


def test_fleet_smoke(capsys):
    assert main(["fleet", "--hosts", "2", "--cvms", "4", "--seeds", "1",
                 "--epochs", "4", "--rate", "2", "--min-migrations", "2"]) == 0
    out = capsys.readouterr().out
    assert "fleet campaign: 1 seeds, 0 failing" in out
    assert "violations=0" in out


def test_fleet_seed_replay_clean(capsys):
    assert main(["fleet", "--hosts", "2", "--cvms", "4", "--seed", "0",
                 "--epochs", "3", "--rate", "1", "--seams", "none",
                 "--min-migrations", "1", "-v"]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out
    assert "all attestation-checked: True" in out


def test_fleet_min_migrations_gate(capsys):
    # Epochs 0-1 never migrate, so a 2-epoch run cannot reach the floor.
    assert main(["fleet", "--hosts", "2", "--cvms", "4", "--seeds", "1",
                 "--epochs", "2", "--rate", "2", "--seams", "none",
                 "--min-migrations", "1"]) == 1
    assert "TOO FEW MIGRATIONS" in capsys.readouterr().out


def test_fleet_ablation_table(capsys, monkeypatch):
    # The default grid is acceptance-sized; patch in a tiny one.
    import repro.fleet

    real_ablation = repro.fleet.run_fleet_ablation

    def tiny_grid():
        return real_ablation(rates=(1,), sizes=((2, 4),), epochs=3)

    monkeypatch.setattr(repro.fleet, "run_fleet_ablation", tiny_grid)
    assert main(["fleet", "--ablate"]) == 0
    out = capsys.readouterr().out
    assert "downtime mean" in out
    assert "    2     4     1" in out


def test_virtio_batch_smoke(capsys):
    assert main(["virtio-batch", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "iozone" in out and "redis_batch" in out and "doorbells" in out
    assert "FAIL" not in out
