"""ZL5 -- concurrency discipline for the SMP era.

ROADMAP item 2 (multi-hart SMP) will run SM and hypervisor code on
several simulated harts at once.  The state that must then be protected
is exactly the state that is *shared across objects today*: the
shared-subtree registry, channel registries, scheduler queues, allocator
block lists.  This rule family is the groundwork that
refactor will be held to -- it freezes the single-writer discipline
while the codebase is still single-threaded, so the SMP change cannot
quietly scatter writers.

Two sub-rules:

**Seam discipline.**  Mutating a :data:`GUARDED_ATTRS` attribute on a
*foreign* receiver (anything that is not ``self``/``cls``) is only
allowed inside that attribute's designated seam functions
(:data:`SEAMS`).  ``self.channels[cid] = ch`` is the owner maintaining
its own invariant and always fine; ``manager.channels[cid] = ch`` from
another object is a cross-object write that every future lock scheme
would have to know about, so it must go through a seam method on the
owner.  ``global`` rebinding in SM/hypervisor code is flagged
unconditionally -- module-level mutable state has no owner to lock.

**Determinism.**  Simulated paths (``sm/``, ``hyp/``, ``mem/``,
``isa/``, ``ipc/``, ``guest/``) must not read wall-clock time or host
randomness: cycle-exact goldens and the attestation transcripts are
replayable only because every input is modelled.  Importing ``time``,
``random``, ``secrets``, or ``datetime``, or calling ``os.urandom``,
in a simulated module is a finding.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import dotted_name, iter_functions
from repro.lint.findings import Finding

RULE = "ZL5"

#: Cross-object mutable state the SMP refactor will have to lock, and
#: the seam functions allowed to mutate it on a foreign receiver:
#: attr -> set of (module-path suffix, function qualname).
GUARDED_ATTRS: dict[str, set[tuple[str, str]]] = {
    # per-CVM donated-subtree registry: installed by the SM's link seam,
    # mirrored by the hypervisor's provisioning seam
    "shared_subtrees": {
        ("sm/share.py", "SplitTableManager.link_shared_subtree"),
        ("hyp/hypervisor.py", "Hypervisor._provision_shared_window"),
    },
    # IPC channel registry
    "channels": set(),
    # scheduler run/block queues
    "_blocked": set(),
    "_run_queue": set(),
    # allocator block bookkeeping
    "block": set(),
    "_global_block": set(),
    # the machine's event ring: written only through the ledger's helper
    "_event_ring": {("cycles/ledger.py", "CycleLedger._record")},
}

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem",
    "clear", "update", "setdefault", "add", "discard", "sort",
}

_WHY_STATE = (
    "SMP-readiness: cross-object writes to shared SM/hypervisor state "
    "must go through the owner's seam functions, or the multi-hart "
    "refactor cannot place locks without auditing every caller"
)
_WHY_DETERMINISM = (
    "replayability: simulated paths must not read wall-clock time or "
    "host randomness, or cycle goldens and attestation transcripts "
    "stop being reproducible"
)


def _is_seam(path: str, qualname: str, attr: str) -> bool:
    for suffix, seam_qual in GUARDED_ATTRS.get(attr, ()):
        if qualname == seam_qual and path.replace("\\", "/").endswith(suffix):
            return True
    return False


def _nested_ids(fn: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            out.update(id(sub) for sub in ast.walk(node))
    return out


def _foreign_receiver(expr: ast.AST) -> str | None:
    """Receiver name when ``expr`` is ``<recv>.<attr>`` off a non-self base."""
    if not isinstance(expr, ast.Attribute):
        return None
    base = expr.value
    if isinstance(base, ast.Name):
        return None if base.id in ("self", "cls") else base.id
    name = dotted_name(base)
    return name if name is not None else "<expr>"


def _guarded_writes(stmt: ast.stmt):
    """Yield ``(node, receiver, attr)`` for guarded-state mutations."""
    targets: list[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        attr_node = target
        if isinstance(attr_node, ast.Subscript):
            # ``recv.attr[key] = ...`` mutates the container behind attr
            attr_node = attr_node.value
        if isinstance(attr_node, ast.Attribute) and attr_node.attr in GUARDED_ATTRS:
            recv = _foreign_receiver(attr_node)
            if recv is not None:
                yield target, recv, attr_node.attr
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in GUARDED_ATTRS
        ):
            recv = _foreign_receiver(func.value)
            if recv is not None:
                yield stmt.value, recv, func.value.attr


def check_state(tree: ast.Module, path: str) -> list[Finding]:
    """Seam-discipline sub-rule over one sm/hyp module."""
    findings: list[Finding] = []
    for qualname, fn in iter_functions(tree):
        nested = _nested_ids(fn)
        for node in ast.walk(fn):
            if id(node) in nested:
                continue
            if isinstance(node, ast.Global):
                findings.append(
                    Finding(
                        rule=RULE,
                        path=path,
                        line=node.lineno,
                        func=qualname,
                        message=(
                            "module-level mutable state rebound via "
                            f"'global {', '.join(node.names)}'"
                        ),
                        why=_WHY_STATE,
                        def_line=fn.lineno,
                    )
                )
        for stmt in ast.walk(fn):
            if id(stmt) in nested or not isinstance(stmt, ast.stmt):
                continue
            for node, recv, attr in _guarded_writes(stmt):
                if _is_seam(path, qualname, attr):
                    continue
                findings.append(
                    Finding(
                        rule=RULE,
                        path=path,
                        line=node.lineno,
                        func=qualname,
                        message=(
                            f"guarded shared state '{recv}.{attr}' mutated "
                            "outside its owner's seam functions"
                        ),
                        why=_WHY_STATE,
                        def_line=fn.lineno,
                    )
                )
    return findings


# -- determinism sub-rule ----------------------------------------------------

#: Modules whose import into a simulated path is itself the finding.
NONDET_MODULES = {"time", "random", "secrets", "datetime"}

#: Fully-dotted calls that read host entropy through allowed modules.
NONDET_CALLS = {"os.urandom", "os.getrandom", "uuid.uuid4"}


def check_determinism(tree: ast.Module, path: str) -> list[Finding]:
    """Determinism sub-rule over one simulated-path module."""
    findings: list[Finding] = []

    def flag(node: ast.AST, qualname: str, def_line: int, what: str) -> None:
        findings.append(
            Finding(
                rule=RULE,
                path=path,
                line=node.lineno,
                func=qualname,
                message=f"non-deterministic input in simulated path: {what}",
                why=_WHY_DETERMINISM,
                def_line=def_line,
            )
        )

    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in NONDET_MODULES:
                    flag(node, "<module>", node.lineno, f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in NONDET_MODULES:
                flag(node, "<module>", node.lineno, f"from {node.module} import ...")

    for qualname, fn in iter_functions(tree):
        nested = _nested_ids(fn)
        for node in ast.walk(fn):
            if id(node) in nested or not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in NONDET_CALLS or name.split(".")[0] in NONDET_MODULES:
                flag(node, qualname, fn.lineno, f"call to {name}()")
    return findings
