"""Experiment harness: runners and paper-reference data for E1-E9.

Each experiment in DESIGN.md's per-experiment index has a runner here
returning structured results, plus the paper's reported numbers
(:mod:`repro.bench.paper_data`).  The registry in
:mod:`repro.bench.experiments` gives each runner its quick/full sizes, a
measured-vs-paper report and a paper-bound check; ``python -m repro
experiments`` runs it.  That module is not imported here, so importing
:mod:`repro.bench.paper_data` does not load the ablation runners.
"""

from repro.bench import paper_data
from repro.bench.microbench import (
    run_page_fault_experiment,
    run_switch_path_experiment,
    run_vcpu_switch_experiment,
)
from repro.bench.macro import (
    run_coremark_experiment,
    run_iozone_experiment,
    run_redis_experiment,
    run_rv8_experiment,
)
from repro.bench.ipc import run_ipc_experiment
from repro.bench.tables import format_comparison_table

__all__ = [
    "paper_data",
    "run_vcpu_switch_experiment",
    "run_switch_path_experiment",
    "run_page_fault_experiment",
    "run_rv8_experiment",
    "run_coremark_experiment",
    "run_redis_experiment",
    "run_iozone_experiment",
    "run_ipc_experiment",
    "format_comparison_table",
]
