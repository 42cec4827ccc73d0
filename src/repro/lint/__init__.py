"""zionlint: static analysis for the SM/hypervisor seam.

ZION's security argument is a *code-level* boundary (PAPER.md §Design):
the SM owns secure vCPU state, stage-2 tables and the secure pool; the
hypervisor only ever sees the shared vCPU structure and the shared
subtree; and every value the SM loads from hypervisor-writable memory
must pass Check-after-Load before use.  The `verify.py` sweeps and the
fault campaign probe that boundary dynamically; this package closes the
static half: an AST pass (stdlib ``ast`` only, no dependencies) that
runs at CI time and fails on new violations.

Rule families
-------------
- **ZL1** (:mod:`repro.lint.boundary`) -- trust-boundary: untrusted
  domains (``hyp/``, ``guest/``, ``workloads/``, ``ipc/``) may import
  only the sanctioned ABI surface from ``repro.sm`` and may not
  attribute-access SM-private state.
- **ZL2** (:mod:`repro.lint.dataflow`) -- check-after-load taint:
  hypervisor-supplied ECALL arguments and shared-memory loads are
  tainted until validated; tainted indexes/lengths/addresses/branches
  in SM code are findings.
- **ZL3** (:mod:`repro.lint.charging`) -- charging discipline: SM/mem
  functions that touch raw physical memory or walk page tables must
  charge the :class:`~repro.cycles.ledger.CycleLedger`.
- **ZL4** (:mod:`repro.lint.pairing`) -- PMP/TLB pairing: pool toggles
  and stage-2 mapping changes need a reachable TLB/VMID flush.
- **ZL0** (:mod:`repro.lint.findings`) -- meta: every suppression
  pragma must carry a reason.

Suppressions: ``# zionlint: disable=ZLn <reason>`` on the finding line
or on the enclosing ``def`` line.  Accepted legacy findings live in
``baseline.json`` next to this package.
"""

from repro.lint.findings import Finding, PragmaMap, load_baseline, save_baseline
from repro.lint.engine import LintReport, run_lint

__all__ = [
    "Finding",
    "PragmaMap",
    "LintReport",
    "run_lint",
    "load_baseline",
    "save_baseline",
]
