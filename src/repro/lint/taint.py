"""ZL2 -- check-after-load taint tracking for SM code.

Paper clause (PAPER.md §Design, Check-after-Load): the shared vCPU page
and every ECALL argument register are hypervisor-writable, and the
hypervisor may rewrite them *between* the SM's load and its use (the
classic double-fetch/TOCTOU window).  ZION's rule is that the SM
validates every such value immediately after loading it -- bounds,
alignment, state -- before it can steer an index, a length, an address,
or SM control flow.

This module is an **intraprocedural** approximation of that rule:

- *sources* -- parameters of ``ecall_*`` / ``_host_call`` /
  ``_guest_call`` functions (hypervisor- or guest-supplied registers;
  kind ``arg``), and results of shared-memory load calls
  (:data:`SOURCE_CALLS`: ``sm_read``/``hyp_read`` on the shared vCPU
  page, ring reads; kind ``shared``);
- *propagation* -- assignments, arithmetic, boolean ops, tuple unpacks,
  and ``int.from_bytes`` keep taint.  A modulo (``x % cap``) clamps and
  therefore cleans; any other call result is untainted (call-boundary
  opacity -- callees are analysed separately);
- *sanitizers* -- passing a tainted name to a call whose name matches
  :data:`SANITIZER_NAMES` / :data:`SANITIZER_SUBSTRINGS` cleans it, and
  so does a guard statement (``if <test>: raise/return``) over it --
  the literal shape Check-after-Load takes in this codebase;
- *sinks* -- a tainted subscript index, a tainted *address or length*
  argument to a raw M-mode memory access (``*.dram.read``/``write``/...
  -- written *content* may be guest-chosen by design, e.g. image bytes,
  so only the positions in :data:`RAW_MEM_SINK_ARGS` count), a tainted
  ``range()`` bound, and -- for ``shared`` taint only -- a non-guard
  branch condition.  ``x is None`` / ``x is not None`` tests are
  availability checks, not data uses, and never make a branch a sink.

PMP-checked bus accessors (``cpu_read*``/``cpu_write*``/``dma_*``) are
deliberately *not* sinks: hardware validates those addresses, which is
the architectural difference between the checked bus and raw M-mode
access.

This module is the **intraprocedural base walker**.  The v2 engine runs
:class:`repro.lint.dataflow._InterTaint` instead, which subclasses
:class:`_FunctionTaint` and fills in the call-boundary hooks
(``_call_taint``/``_attribute_taint``/``_saw_return``/``_validated``)
with function summaries, so taint follows helper calls and ``@property``
reads over shared memory instead of dropping at the boundary.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import call_name, is_guard, names_in, receiver_tail
from repro.lint.findings import Finding

RULE = "ZL2"

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

#: Exact call names that validate/clamp their arguments.  (``_guest_pa``
#: was hardcoded here in v1; v2 derives its validating effect from its
#: own guards via function summaries in :mod:`repro.lint.dataflow`.)
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
RAW_MEM_RECEIVERS = {"dram", "_dram"}

_WHY = {
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


class _FunctionTaint:
    """Linear taint walk over one function body (no fixed point)."""

    def __init__(self, qual: str, fn: ast.AST, path: str):
        self.qual = qual
        self.fn = fn
        self.path = path
        self.findings: list[Finding] = []
        #: name -> "arg" | "shared"
        self.taint: dict[str, str] = {}
        #: whether shared-memory load calls seed taint (summary runs in
        #: :mod:`repro.lint.dataflow` turn this off to isolate one param)
        self.shared_sources = True
        name = fn.name
        if name.startswith(ENTRY_PREFIX) or name in ENTRY_FUNCTIONS:
            args = fn.args
            params = [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
            ]
            for param in params:
                if param.arg not in UNTAINTED_PARAMS:
                    self.taint[param.arg] = "arg"

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
            # unless they resolve to a @property over shared memory (the
            # interprocedural walker overrides this hook).
            return self._attribute_taint(node)
        if isinstance(node, ast.Starred):
            return self._expr_taint(node.value)
        return None

    def _attribute_taint(self, node: ast.Attribute) -> str | None:
        """Hook: taint of an attribute load (default: clean)."""
        return None

    def _call_taint(self, node: ast.Call) -> str | None:
        """Taint of an unrecognised call result.

        The base (v1) walker is call-boundary opaque: any call not in
        :data:`SOURCE_CALLS`/:data:`PROPAGATING_CALLS` returns clean.
        The interprocedural walker in :mod:`repro.lint.dataflow`
        overrides this with function-summary lookups.
        """
        return None

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
        self.findings.append(
            Finding(
                rule=RULE,
                path=self.path,
                line=node.lineno,
                func=self.qual,
                message=detail,
                why=_WHY[sink],
                def_line=self.fn.lineno,
            )
        )

    def _saw_return(self, kind: str | None) -> None:
        """Hook: a ``return <expr>`` whose value has taint ``kind``."""

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

    def _validated(self, name: str) -> None:
        """One name was validated (guard or sanitizer): clean it.

        Split out so the summary walker in :mod:`repro.lint.dataflow`
        can distinguish an *explicitly validated* parameter from one
        that merely went unused.
        """
        self.taint.pop(name, None)

    def _apply_sanitizers(self, node: ast.AST) -> None:
        """Names passed to validator calls are clean afterwards."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _is_sanitizer(call_name(sub)):
                for arg in [*sub.args, *[k.value for k in sub.keywords]]:
                    for name in names_in(arg):
                        self._validated(name)

    # -- statement walk ----------------------------------------------------

    def run(self) -> list[Finding]:
        self._walk_body(self.fn.body)
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
                self._saw_return(self._expr_taint(stmt.value))
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
