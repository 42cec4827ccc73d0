PYTHON ?= python

.PHONY: install verify test bench bench-full bench-smoke experiments faults perf perf-compare lint lint-changed lint-strict linkcheck redis-cluster fleet virtio-batch examples clean

install:
	pip install -e .

# The exact tier-1 gate CI runs: works from a clean checkout, no install.
verify:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q --ignore=tests/properties

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository benchmark's own tests (zionbench/, ~15 s): fails when a
# src/ refactor breaks a name the benchmark drives or hooks.
bench-smoke:
	$(PYTHON) -m pytest zionbench -q

experiments:
	$(PYTHON) -m repro experiments

# Wall-clock perf suite with cycle-exactness golden check (INTERNALS §11).
perf:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro perf

# Re-run the perf suite and print per-scenario wall/cycle deltas against
# the committed BENCH_PERF.json (read before the report is overwritten).
perf-compare:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro perf --compare BENCH_PERF.json

# zionlint: static trust-boundary/taint/charging analysis (INTERNALS §12).
# Fails on findings that are neither pragma-suppressed nor baselined.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro lint

# Diff-aware pre-commit lint: full-package analysis, findings reported
# only for files that differ from HEAD.
lint-changed:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro lint --changed

# Strict lint: the baseline earns no credit (pragmas still count), plus
# the ratchet check that the committed baseline has not grown.
lint-strict:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro lint --strict
	$(PYTHON) tools/check_baseline_ratchet.py

# Sharded redis over SM channels, one run with stats (docs/DATA_PLANE.md).
redis-cluster:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro redis-cluster

# Fleet orchestrator: multi-host CVM lifecycle + live migration under
# adversarial load, acceptance-sized campaign (docs/FLEET.md).
fleet:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro fleet --hosts 4 --cvms 12 --seeds 3

# Batched-vs-naive virtio data-plane ablation smoke (docs/DATA_PLANE.md):
# fails if MMIO-exit or doorbell reduction drops below 2x.
virtio-batch:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro virtio-batch

# Verify every relative link in README/docs resolves to a real file.
linkcheck:
	$(PYTHON) tools/check_links.py

# Seeded adversarial fault-injection campaign (see docs/INTERNALS.md §10).
faults:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro faults --seeds 25

# Run every example script; fails on the first non-zero exit.
examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
