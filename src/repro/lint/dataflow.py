"""Interprocedural passes for zionlint v2: ZL2 taint, per-path ZL3.

Two analyses share the :class:`repro.lint.callgraph.Project` call graph.

**ZL2 -- check-after-load taint** (:func:`check_taint`).  Paper clause
(PAPER.md §Design, Check-after-Load): the shared vCPU page and every
ECALL argument register are hypervisor-writable, and the hypervisor may
rewrite them *between* the SM's load and its use (the classic
double-fetch/TOCTOU window).  ZION's rule is that the SM validates every
such value immediately after loading it -- bounds, alignment, state --
before it can steer an index, a length, an address, or SM control flow.
:class:`_TaintWalker` makes one linear pass (no fixed point) over a
function body:

- *sources* -- parameters of ``ecall_*`` / ``_host_call`` /
  ``_guest_call`` functions (hypervisor- or guest-supplied registers;
  kind ``arg``), and results of shared-memory load calls
  (:data:`SOURCE_CALLS`: ``sm_read``/``hyp_read`` on the shared vCPU
  page, ring reads; kind ``shared``);
- *propagation* -- assignments, arithmetic, boolean ops, tuple unpacks,
  and ``int.from_bytes`` keep taint.  A modulo (``x % cap``) clamps and
  therefore cleans.  A call result is tainted when the callee's summary
  says so (below); unresolved calls return clean;
- *sanitizers* -- passing a tainted name to a call whose name matches
  :data:`SANITIZER_NAMES` / :data:`SANITIZER_SUBSTRINGS`, or to a
  parameter the callee validates, cleans it, and so does a guard
  statement (``if <test>: raise/return``) over it -- the literal shape
  Check-after-Load takes in this codebase;
- *sinks* -- a tainted subscript index, a tainted *address or length*
  argument to a raw M-mode memory access (``*.dram.read``/``write``/...
  -- written *content* may be guest-chosen by design, e.g. image bytes,
  so only the positions in :data:`RAW_MEM_SINK_ARGS` count), a tainted
  ``range()`` bound, a tainted argument to a callee parameter that
  reaches a sink, and -- for ``shared`` taint only -- a non-guard
  branch condition.  ``x is None`` / ``x is not None`` tests are
  availability checks, not data uses, and never make a branch a sink.

PMP-checked bus accessors (``cpu_read*``/``cpu_write*``/``dma_*``) are
deliberately *not* sinks: hardware validates those addresses, which is
the architectural difference between the checked bus and raw M-mode
access.

Each project function gets a :class:`FunctionSummary` describing how
taint moves across its boundary: does it *return* a shared-memory load
(``@property`` counter reads), does a given parameter flow to its
return value, does it *validate* a parameter (guard or sanitizer over
it), does it pass a parameter to a raw-memory sink unchecked.  So
``pa = self._guest_pa(cvm, gpa)`` cleans ``gpa`` because ``_guest_pa``
guards it, and ``self._read_guest_buffer(addr, n)`` is a finding when
the callee feeds ``addr`` to raw DRAM without checking it.

Summaries are computed by running the same walker in *summary mode*:
once with shared sources live (for ``returns_shared``), then once per
parameter with only that parameter seeded (for flow/validation/sink
facts), so a shared-load sink inside the callee is never attributed to
an innocent parameter.  A cycle in the call graph yields the empty
summary for the function that closed it (conservative).

**Path-sensitive ZL3** (:func:`check_charging`).  The structural
every-path analysis lives in :mod:`repro.lint.charging`; this module
adds type-aware touch detection (bound dram methods like
``self._read_u64``, constructed ``Sv39x4()`` walk receivers) and three
interprocedural resolutions, applied in order to each structurally
uncovered touch:

1. *charged accessor*: a page-table walk whose accessor argument is a
   class whose ``read_u64`` both touches DRAM and charges (the
   translator's ``_RawAccessor`` charges per PTE inside the walker);
2. *bulk-charged accessor*: raw-memory methods of a class that is only
   ever handed to walk ops inside functions that charge (the share
   manager's accessor, migration's local ``Raw`` -- the caller charges
   the whole walk in bulk);
3. *caller-side charging*: every resolvable in-domain call site of the
   function sits in a function that charges.  Call sites outside
   ``sm``/``mem``/``isa`` do not participate in the cycle model and are
   ignored; a function with no in-domain call sites stays flagged.

Anything still uncovered is a finding at the touch line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.astutil import (
    call_name,
    is_guard,
    iter_functions,
    names_in,
    receiver_tail,
)
from repro.lint.callgraph import ClassInfo, FunctionInfo, Project, local_bindings
from repro.lint.charging import (
    RAW_MEM_OPS,
    RAW_MEM_RECEIVERS,
    WALK_OPS,
    WALK_RECEIVERS,
    _WHY as _ZL3_WHY,
    _is_charge,
    touch_covered,
)
from repro.lint.charging import RULE as ZL3_RULE
from repro.lint.findings import Finding

#: Domains whose call sites participate in the ZL3 cycle model.
CHARGED_DOMAIN_DIRS = ("sm", "mem", "isa")


# -- ZL2 vocabulary ----------------------------------------------------------

ZL2_RULE = "ZL2"

#: Functions whose parameters arrive from hypervisor/guest registers.
ENTRY_FUNCTIONS = {"_host_call", "_guest_call"}
ENTRY_PREFIX = "ecall_"
#: Parameters that are simulator plumbing, not guest-controlled data.
UNTAINTED_PARAMS = {"self", "cls", "hart", "monitor", "machine"}

#: Calls whose *result* is a load from hypervisor-writable memory.
#: ``load`` is the shared-context accessor the IPC rings read their
#: counters and event words through (``ctx.load``).
SOURCE_CALLS = {"sm_read", "hyp_read", "try_recv", "_read_wrapped", "load"}

#: Pure converters that preserve taint across a call boundary.
PROPAGATING_CALLS = {"from_bytes"}

#: Exact call names that validate/clamp their arguments.  Project
#: helpers such as ``_guest_pa`` need no entry: their summaries derive
#: the validating effect from their own guards.
SANITIZER_NAMES = {
    "_cvm",
    "require_state",
    "register_region",
    "min",
    "max",
}
#: Name fragments that mark a call as a validator.
SANITIZER_SUBSTRINGS = ("check", "validate", "clamp", "sanitiz")

#: Raw M-mode memory operations (the receiver is the DRAM device),
#: mapped to the positional args that are addresses/lengths -- the
#: positions Check-after-Load must have validated.
RAW_MEM_SINK_ARGS = {
    "read": (0, 1),       # (addr, length)
    "write": (0,),        # (addr, data) -- data content may be guest-chosen
    "read_u64": (0,),     # (addr)
    "write_u64": (0,),    # (addr, value) -- value is data
    "zero_range": (0, 1), # (addr, length)
}

_ZL2_WHY = {
    "index": (
        "Check-after-Load: a hypervisor-controlled index into SM state "
        "reads/writes out of bounds before PMP can object"
    ),
    "range": (
        "Check-after-Load: an unvalidated length bounds SM work "
        "(over-copy or unbounded loop on a guest-chosen value)"
    ),
    "raw-mem": (
        "Check-after-Load: raw M-mode access bypasses PMP, so the SM "
        "itself must validate the address/length first"
    ),
    "branch": (
        "Check-after-Load: branching on an unvalidated shared-memory "
        "value lets the hypervisor steer SM control flow mid-window"
    ),
}


def _is_sanitizer(name: str | None) -> bool:
    if name is None:
        return False
    if name in SANITIZER_NAMES:
        return True
    lowered = name.lower()
    return any(frag in lowered for frag in SANITIZER_SUBSTRINGS)


def _branch_sensitive_names(test: ast.AST) -> set[str]:
    """Names in a branch test, minus pure ``is (not) None`` presence checks."""
    skip: set[int] = set()
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Compare)
            and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and all(
                isinstance(c, ast.Constant) and c.value is None
                for c in node.comparators
            )
        ):
            skip.update(id(sub) for sub in ast.walk(node))
    return {
        node.id
        for node in ast.walk(test)
        if isinstance(node, ast.Name) and id(node) not in skip
    }


# -- function summaries ------------------------------------------------------


def _param_names(fn: ast.AST) -> List[str]:
    args = fn.args
    return [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


def _entry_taint(fn: ast.AST) -> Dict[str, str]:
    """``arg`` taint for an ECALL entry point's register parameters."""
    if not (fn.name.startswith(ENTRY_PREFIX) or fn.name in ENTRY_FUNCTIONS):
        return {}
    args = fn.args
    params = [
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
    ]
    return {p.arg: "arg" for p in params if p.arg not in UNTAINTED_PARAMS}


@dataclass
class FunctionSummary:
    """Boundary-crossing taint facts about one function."""

    param_names: List[str]
    #: the return value is (or may be) a shared-memory load
    returns_shared: bool = False
    #: parameter positions that flow to the return value
    return_taints: Set[int] = field(default_factory=set)
    #: parameter positions the function guards/sanitizes
    validates: Set[int] = field(default_factory=set)
    #: parameter position -> sink kind it reaches unvalidated
    param_sinks: Dict[int, str] = field(default_factory=dict)


class SummaryTable:
    """Memoized on-demand :class:`FunctionSummary` store."""

    def __init__(self, project: Project):
        self.project = project
        self._memo: Dict[Tuple[str, str], FunctionSummary] = {}
        self._in_progress: Set[Tuple[str, str]] = set()

    def summary(self, fi: FunctionInfo) -> FunctionSummary:
        key = (fi.module, fi.qualname)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            # Recursion: break the cycle with the empty (conservative)
            # summary; the memoized result for the outer frame still
            # reflects everything below the back edge.
            return FunctionSummary(param_names=_param_names(fi.node))
        self._in_progress.add(key)
        try:
            result = self._compute(fi)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    def _compute(self, fi: FunctionInfo) -> FunctionSummary:
        names = _param_names(fi.node)
        out = FunctionSummary(param_names=names)

        # Pass 1: shared sources only -- does a shared load reach a return?
        walker = _TaintWalker(fi, self.project, self, summary_mode=True)
        walker.run()
        out.returns_shared = "shared" in walker.returned_kinds

        # Pass 2: one run per parameter, shared sources off, so every
        # fact below is attributable to exactly that parameter.
        for pos, pname in enumerate(names):
            if pname in UNTAINTED_PARAMS:
                continue
            walker = _TaintWalker(fi, self.project, self, summary_mode=True)
            walker.shared_sources = False
            walker.taint = {pname: "arg"}
            walker.run()
            if "arg" in walker.returned_kinds:
                out.return_taints.add(pos)
            if pname in walker.validated_names:
                out.validates.add(pos)
            if walker.sink_hits:
                out.param_sinks[pos] = walker.sink_hits[0]
        return out


class _TaintWalker:
    """Linear ZL2 taint walk over one function body.

    In *summary mode* the walker records sink kinds in ``sink_hits``
    instead of reporting findings, and starts with no taint: the
    caller seeds the one parameter it is asking about.
    """

    def __init__(
        self,
        fi: FunctionInfo,
        project: Project,
        summaries: SummaryTable,
        summary_mode: bool = False,
    ):
        self.fi = fi
        self.project = project
        self.summaries = summaries
        self.summary_mode = summary_mode
        self.locals_ = local_bindings(project, fi.node, fi.module, fi.class_name)
        self.findings: list[Finding] = []
        #: name -> "arg" | "shared"
        self.taint: Dict[str, str] = {} if summary_mode else _entry_taint(fi.node)
        #: whether shared-memory load calls seed taint (per-parameter
        #: summary runs turn this off to isolate one parameter)
        self.shared_sources = True
        self.returned_kinds: Set[str] = set()
        self.validated_names: Set[str] = set()
        self.sink_hits: List[str] = []

    # -- call resolution --------------------------------------------------

    def _resolve(self, node: ast.Call) -> Optional[FunctionInfo]:
        if _is_sanitizer(call_name(node)):
            return None  # handled by _apply_sanitizers, result is clean
        return self.project.resolve_call(
            node, self.fi.module, self.fi.class_name, self.locals_
        )

    def _call_args(self, node: ast.Call, fi: FunctionInfo, s: FunctionSummary):
        """(absolute param position, argument expression) pairs."""
        offset = 1 if fi.class_name else 0
        pairs = []
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            pairs.append((i + offset, arg))
        for kw in node.keywords:
            if kw.arg and kw.arg in s.param_names:
                pairs.append((s.param_names.index(kw.arg), kw.value))
        return pairs

    # -- expression-level taint -------------------------------------------

    def _expr_taint(self, node: ast.AST | None) -> str | None:
        """Taint kind of an expression value, ``None`` when clean."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.taint.get(node.id)
        if isinstance(node, ast.Call):
            fname = call_name(node)
            if fname in SOURCE_CALLS:
                return "shared" if self.shared_sources else None
            if fname in PROPAGATING_CALLS:
                return self._exprs_taint(node.args)
            return self._call_taint(node)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mod):
                return None  # modulo clamps to the divisor's span
            return self._exprs_taint([node.left, node.right])
        if isinstance(node, ast.UnaryOp):
            return self._expr_taint(node.operand)
        if isinstance(node, ast.BoolOp):
            return self._exprs_taint(node.values)
        if isinstance(node, ast.IfExp):
            return self._exprs_taint([node.body, node.orelse])
        if isinstance(node, ast.Compare):
            return self._exprs_taint([node.left, *node.comparators])
        if isinstance(node, ast.Subscript):
            return self._expr_taint(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return self._exprs_taint(node.elts)
        if isinstance(node, ast.Attribute):
            # Attribute loads are fresh objects, not the name's taint --
            # unless they resolve to a @property over shared memory.
            return self._attribute_taint(node)
        if isinstance(node, ast.Starred):
            return self._expr_taint(node.value)
        return None

    def _attribute_taint(self, node: ast.Attribute) -> str | None:
        if not self.shared_sources:
            return None
        prop = self.project.resolve_property(
            node, self.fi.module, self.fi.class_name, self.locals_
        )
        if prop is not None and self.summaries.summary(prop).returns_shared:
            return "shared"
        return None

    def _call_taint(self, node: ast.Call) -> str | None:
        """Taint of a call result, from the callee's summary."""
        callee = self._resolve(node)
        if callee is None:
            return None
        s = self.summaries.summary(callee)
        if s.returns_shared and self.shared_sources:
            return "shared"
        kind = None
        for pos, arg in self._call_args(node, callee, s):
            if pos in s.return_taints:
                k = self._expr_taint(arg)
                if k == "shared":
                    return "shared"
                kind = kind or k
        return kind

    def _exprs_taint(self, nodes) -> str | None:
        kind = None
        for node in nodes:
            k = self._expr_taint(node)
            if k == "shared":
                return "shared"
            kind = kind or k
        return kind

    # -- sinks -------------------------------------------------------------

    def _finding(self, node: ast.AST, sink: str, detail: str) -> None:
        if self.summary_mode:
            self.sink_hits.append(sink)
            return
        self.findings.append(
            Finding(
                rule=ZL2_RULE,
                path=self.fi.module,
                line=node.lineno,
                func=self.fi.qualname,
                message=detail,
                why=_ZL2_WHY[sink],
                def_line=self.fi.node.lineno,
            )
        )

    def _tainted_names(self, node: ast.AST) -> list[str]:
        return sorted(n for n in names_in(node) if n in self.taint)

    def _check_expr_sinks(self, node: ast.AST) -> None:
        """Scan one expression tree for sink patterns."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript) and not isinstance(
                sub.ctx, ast.Del
            ):
                hot = self._tainted_names(sub.slice)
                if hot:
                    self._finding(
                        sub,
                        "index",
                        f"tainted value {', '.join(hot)!s} used as subscript index",
                    )
            elif isinstance(sub, ast.Call):
                fname = call_name(sub)
                if fname == "range":
                    hot = sorted(
                        {n for a in sub.args for n in self._tainted_names(a)}
                    )
                    if hot:
                        self._finding(
                            sub,
                            "range",
                            f"tainted value {', '.join(hot)!s} bounds a range()",
                        )
                elif (
                    fname in RAW_MEM_SINK_ARGS
                    and receiver_tail(sub) in RAW_MEM_RECEIVERS
                ):
                    positions = RAW_MEM_SINK_ARGS[fname]
                    hot = sorted(
                        {
                            n
                            for i, a in enumerate(sub.args)
                            if i in positions
                            for n in self._tainted_names(a)
                        }
                    )
                    if hot:
                        self._finding(
                            sub,
                            "raw-mem",
                            f"tainted value {', '.join(hot)!s} reaches raw "
                            f"M-mode memory access '{fname}'",
                        )
        # Callees whose parameters reach a sink.  A separate pass keeps
        # local sinks first in a summary run's ``sink_hits``.
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            callee = self._resolve(sub)
            if callee is None:
                continue
            s = self.summaries.summary(callee)
            if not s.param_sinks:
                continue
            for pos, arg in self._call_args(sub, callee, s):
                if pos not in s.param_sinks:
                    continue
                hot = self._tainted_names(arg)
                if not hot:
                    continue
                self._finding(
                    sub,
                    s.param_sinks[pos],
                    f"tainted value {', '.join(hot)!s} flows through call "
                    f"'{callee.name}' (parameter '{s.param_names[pos]}') "
                    f"into a {s.param_sinks[pos]} sink",
                )

    def _validated(self, name: str) -> None:
        """One name was validated (guard or sanitizer): clean it.

        ``validated_names`` keeps the explicitly validated names apart
        from ones that merely went unused, for the summary's
        ``validates`` set.
        """
        if name in self.taint:
            self.validated_names.add(name)
        self.taint.pop(name, None)

    def _apply_sanitizers(self, node: ast.AST) -> None:
        """Names passed to validator calls are clean afterwards."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            if _is_sanitizer(call_name(sub)):
                for arg in [*sub.args, *[k.value for k in sub.keywords]]:
                    for name in names_in(arg):
                        self._validated(name)
                continue
            callee = self._resolve(sub)
            if callee is None:
                continue
            s = self.summaries.summary(callee)
            if not s.validates:
                continue
            for pos, arg in self._call_args(sub, callee, s):
                if pos in s.validates:
                    for name in names_in(arg):
                        self._validated(name)

    # -- statement walk ----------------------------------------------------

    def run(self) -> list[Finding]:
        self._walk_body(self.fi.node.body)
        return self.findings

    def _walk_body(self, body) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analysed on their own
        if isinstance(stmt, ast.Assign):
            self._check_expr_sinks(stmt.value)
            kind = self._expr_taint(stmt.value)
            self._apply_sanitizers(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, kind, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._check_expr_sinks(stmt.value)
                kind = self._expr_taint(stmt.value)
                self._apply_sanitizers(stmt.value)
                self._assign_target(stmt.target, kind, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._check_expr_sinks(stmt.value)
            kind = self._expr_taint(stmt.value)
            self._apply_sanitizers(stmt.value)
            if isinstance(stmt.target, ast.Name) and kind is not None:
                self.taint[stmt.target.id] = kind
        elif isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr_sinks(stmt.iter)
            kind = self._expr_taint(stmt.iter)
            self._apply_sanitizers(stmt.iter)
            self._assign_target(stmt.target, kind, stmt.iter)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.While,)):
            self._check_expr_sinks(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_expr_sinks(item.context_expr)
                self._apply_sanitizers(item.context_expr)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Return, ast.Expr, ast.Raise, ast.Assert, ast.Delete)):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                kind = self._expr_taint(stmt.value)
                if kind is not None:
                    self.returned_kinds.add(kind)
            for value in ast.iter_child_nodes(stmt):
                self._check_expr_sinks(value)
                self._apply_sanitizers(value)
        else:
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._check_expr_sinks(value)
                    self._apply_sanitizers(value)

    def _assign_target(self, target: ast.AST, kind: str | None, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if kind is None:
                self.taint.pop(target.id, None)
            else:
                self.taint[target.id] = kind
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Element-wise when shapes line up, else blanket-apply.
            elements = target.elts
            values = value.elts if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(elements) else None
            for i, element in enumerate(elements):
                element_kind = (
                    self._expr_taint(values[i]) if values is not None else kind
                )
                self._assign_target(element, element_kind, value)
        elif isinstance(target, ast.Subscript):
            hot = self._tainted_names(target.slice)
            if hot:
                self._finding(
                    target,
                    "index",
                    f"tainted value {', '.join(hot)!s} used as subscript index",
                )

    def _visit_if(self, stmt: ast.If) -> None:
        self._check_expr_sinks(stmt.test)
        if is_guard(stmt):
            # The Check-after-Load shape itself: testing a tainted value
            # and rejecting on failure validates it for the fall-through.
            for name in names_in(stmt.test):
                self._validated(name)
            self._walk_body(stmt.body)
            return
        hot = sorted(
            n
            for n in _branch_sensitive_names(stmt.test)
            if self.taint.get(n) == "shared"
        )
        if hot:
            self._finding(
                stmt,
                "branch",
                f"non-guard branch on tainted shared-memory value {', '.join(hot)!s}",
            )
        before = dict(self.taint)
        self._walk_body(stmt.body)
        after_body = self.taint
        self.taint = dict(before)
        self._walk_body(stmt.orelse)
        # Conservative join: tainted if tainted on either branch.
        for name, kind in after_body.items():
            self.taint.setdefault(name, kind)


def check_taint(
    project: Project, summaries: SummaryTable, module_key: str
) -> list[Finding]:
    """Run interprocedural ZL2 over one SM/IPC-domain module."""
    mod = project.modules[module_key]
    findings: list[Finding] = []
    for qualname, fn in iter_functions(mod.tree):
        fi = mod.functions.get(qualname) or FunctionInfo(
            module=module_key, qualname=qualname, node=fn
        )
        findings.extend(_TaintWalker(fi, project, summaries).run())
    return findings


# -- path-sensitive ZL3 ------------------------------------------------------


def _is_sv39x4_tag(tag: Optional[str]) -> bool:
    return tag is not None and (tag == "Sv39x4" or tag.endswith("::Sv39x4"))


def _nested_ids(fn: ast.AST) -> Set[int]:
    out: Set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            out.update(id(sub) for sub in ast.walk(node))
    return out


def _collect_touches(
    project: Project,
    fi: FunctionInfo,
    locals_: Dict[str, str],
) -> List[Tuple[ast.Call, str, bool]]:
    """(call, description, is_walk) for raw memory ops and table walks."""
    touches: List[Tuple[ast.Call, str, bool]] = []
    nested = _nested_ids(fi.node)
    for node in ast.walk(fi.node):
        if id(node) in nested or not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        tail = receiver_tail(node)
        op = project.bound_dram_op(node.func, fi.module, fi.class_name, locals_)
        if op is None and name in RAW_MEM_OPS and tail in RAW_MEM_RECEIVERS:
            op = name
        if op is not None:
            touches.append((node, f"raw memory access '{op}'", False))
            continue
        if name in WALK_OPS and isinstance(node.func, ast.Attribute):
            typed = _is_sv39x4_tag(
                project.receiver_type(
                    node.func.value, fi.module, fi.class_name, locals_
                )
            )
            if tail in WALK_RECEIVERS or typed:
                touches.append((node, f"page-table walk '{name}'", True))
    return touches


def _fn_has_charge(fn: ast.AST) -> bool:
    nested = _nested_ids(fn)
    return any(
        isinstance(node, ast.Call) and id(node) not in nested and _is_charge(node)
        for node in ast.walk(fn)
    )


def _in_charged_domain(module_key: str) -> bool:
    parts = module_key.replace("\\", "/").split("/")
    return any(part in CHARGED_DOMAIN_DIRS for part in parts[:-1])


class ChargingAnalysis:
    """Whole-project facts the interprocedural ZL3 resolutions need."""

    def __init__(self, project: Project):
        self.project = project
        self._fn_charges: Dict[Tuple[str, str], bool] = {}
        #: (module, qualname) -> caller FunctionInfos of resolved calls
        self.calls_to: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        #: method name -> caller FunctionInfos of *unresolved* attr calls
        self.calls_by_name: Dict[str, List[FunctionInfo]] = {}
        #: function name -> number of definitions project-wide
        self.name_defs: Dict[str, int] = {}
        #: (module, class name) -> walk-site caller FunctionInfos
        self.walk_accessor_uses: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        self._build()

    def _build(self) -> None:
        for mod in self.project.modules.values():
            for fi in mod.functions.values():
                self.name_defs[fi.name] = self.name_defs.get(fi.name, 0) + 1
        for mod in self.project.modules.values():
            for fi in mod.functions.values():
                self._scan_function(fi)

    def _scan_function(self, fi: FunctionInfo) -> None:
        locals_ = local_bindings(self.project, fi.node, fi.module, fi.class_name)
        nested = _nested_ids(fi.node)
        for node in ast.walk(fi.node):
            if id(node) in nested or not isinstance(node, ast.Call):
                continue
            target = self.project.resolve_call(
                node, fi.module, fi.class_name, locals_
            )
            if target is not None:
                self.calls_to.setdefault(
                    (target.module, target.qualname), []
                ).append(fi)
            elif isinstance(node.func, ast.Attribute):
                self.calls_by_name.setdefault(node.func.attr, []).append(fi)
            name = call_name(node)
            if name in WALK_OPS and node.args:
                tag = self.project.receiver_type(
                    node.args[0], fi.module, fi.class_name, locals_
                )
                cls = self.project._unique_class(tag)
                if cls is not None:
                    self.walk_accessor_uses.setdefault(
                        (cls.module, cls.name), []
                    ).append(fi)

    def fn_charges(self, fi: FunctionInfo) -> bool:
        key = (fi.module, fi.qualname)
        if key not in self._fn_charges:
            self._fn_charges[key] = _fn_has_charge(fi.node)
        return self._fn_charges[key]

    def accessor_self_charges(self, cls: Optional[ClassInfo]) -> bool:
        """Resolution 1: the walk accessor's ``read_u64`` touches + charges."""
        if cls is None:
            return False
        method = cls.methods.get("read_u64")
        if method is None or not self.fn_charges(method):
            return False
        method_locals = local_bindings(
            self.project, method.node, method.module, method.class_name
        )
        return bool(_collect_touches(self.project, method, method_locals))

    def accessor_bulk_charged(self, cls: Optional[ClassInfo]) -> bool:
        """Resolution 2: every walk handing out ``cls`` instances charges."""
        if cls is None:
            return False
        uses = self.walk_accessor_uses.get((cls.module, cls.name), [])
        return bool(uses) and all(self.fn_charges(u) for u in uses)

    def callers_always_charge(self, fi: FunctionInfo) -> bool:
        """Resolution 3: every resolvable in-domain call site charges."""
        sites = list(self.calls_to.get((fi.module, fi.qualname), []))
        if self.name_defs.get(fi.name, 0) == 1:
            # The name is defined exactly once project-wide, so even
            # receiver-untyped ``x.<name>(...)`` sites are its calls.
            sites.extend(self.calls_by_name.get(fi.name, []))
        sites = [s for s in sites if _in_charged_domain(s.module)]
        return bool(sites) and all(self.fn_charges(s) for s in sites)


def check_charging(
    project: Project, analysis: ChargingAnalysis, module_key: str
) -> list[Finding]:
    """Run path-sensitive ZL3 over one sm/mem/isa-domain module."""
    mod = project.modules[module_key]
    findings: list[Finding] = []
    for qualname, fn in iter_functions(mod.tree):
        fi = mod.functions.get(qualname) or FunctionInfo(
            module=module_key, qualname=qualname, node=fn
        )
        locals_ = local_bindings(project, fn, module_key, fi.class_name)
        touches = _collect_touches(project, fi, locals_)
        if not touches:
            continue
        own_cls = (
            mod.classes.get(fi.class_name) if fi.class_name is not None else None
        )
        caller_charged = None  # computed lazily, it is the costliest check
        for node, what, is_walk in touches:
            if touch_covered(fn, node):
                continue
            if is_walk and node.args:
                accessor_cls = project._unique_class(
                    project.receiver_type(
                        node.args[0], module_key, fi.class_name, locals_
                    )
                )
                if analysis.accessor_self_charges(accessor_cls):
                    continue
            if analysis.accessor_bulk_charged(own_cls):
                continue
            if caller_charged is None:
                caller_charged = analysis.callers_always_charge(fi)
            if caller_charged:
                continue
            findings.append(
                Finding(
                    rule=ZL3_RULE,
                    path=module_key,
                    line=node.lineno,
                    func=qualname,
                    message=(
                        f"{what} with no CycleLedger charge on every path "
                        "reaching it"
                    ),
                    why=_ZL3_WHY,
                    def_line=fn.lineno,
                )
            )
    return findings
