"""Layer spans for the traced run, recorded from outside the simulator.

:class:`LayerTracer` wraps, at class level, every public method of every
class and every public module function of the simulator's layers (one
unit per layer, with ``sm.world_switch`` and ``sm.migration`` split out
of ``sm``), before any machine is built, and puts the originals back when
it is removed.  Nothing inside ``repro`` changes: no ``fault_observer``
and no :class:`repro.trace.Tracer`, so the traced run takes the same code
paths and must charge the same simulated cycles.

A call that crosses from one unit into another opens a span (unit, name,
start, end, parent span).  A call that stays inside its caller's unit is
only counted: its time is already inside the caller's span.  A unit's
self time is its span time minus the time covered by its child spans;
that sum is kept exactly, while individual spans are kept in memory up
to a limit and written out when the run ends.

Generators and closures that a wrapped call returns are wrapped too, so
the time a guest workload generator runs when the scheduler resumes it,
or a precompiled cycle-charge closure runs, lands in the unit that
defined it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

#: Module prefix -> unit, most specific first.
UNIT_OF_MODULE = (
    ("repro.sm.world_switch", "sm.world_switch"),
    ("repro.sm.migration", "sm.migration"),
    ("repro.faults.invariants", "verify"),
    ("repro.verify", "verify"),
    ("repro.fleet.workloads", "workloads"),
    ("repro.machine", "machine"),
    ("repro.mem.", "mem"),
    ("repro.sm.", "sm"),
    ("repro.hyp.", "hyp"),
    ("repro.guest.", "guest"),
    ("repro.ipc.", "ipc"),
    ("repro.isa.", "isa"),
    ("repro.cycles.", "cycles"),
    ("repro.fleet.", "fleet"),
    ("repro.workloads.", "workloads"),
)

#: The layers whose self time the benchmark reports (a layer's time
#: includes its split-out sub-units).
LAYERS = (
    "machine", "mem", "sm", "hyp", "guest", "ipc", "isa", "cycles",
    "verify", "fleet", "workloads",
)


def unit_of(module_name: str):
    """The unit a ``repro`` module belongs to, or ``None`` if untraced."""
    for prefix, unit in UNIT_OF_MODULE:
        if module_name == prefix.rstrip(".") or module_name.startswith(prefix):
            return unit
    return None


class _TracedGenerator:
    """Forwards a generator, timing each resumption as a span."""

    __slots__ = ("_gen", "_enter")

    def __init__(self, gen, enter):
        self._gen = gen
        self._enter = enter

    def __iter__(self):
        return self

    def __next__(self):
        return self._enter(self._gen.send, None)

    def send(self, value):
        return self._enter(self._gen.send, value)

    def throw(self, *args):
        return self._enter(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class LayerTracer:
    """Installs the class-level span wrappers; see the module docstring."""

    def __init__(self, span_limit: int = 50_000):
        self.span_limit = span_limit
        #: Wrappers record only while active (the timed section).
        self.active = False
        self._stack: list = []  # [unit, start_ns, child_ns, span_index]
        self.self_ns: dict = defaultdict(int)
        #: Inclusive time per unit (callees counted), outermost spans only.
        self.total_ns: dict = defaultdict(int)
        self._depth: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        #: Outcome tallies from the hooks (see :meth:`hook`).
        self.tally: dict = defaultdict(int)
        self.spans: list = []
        self.spans_dropped = 0
        self._restore: list = []
        self._hooks: dict = {}
        self._private: set = set()

    def hook(self, key: str, fn) -> None:
        """Call ``fn(tracer, result)`` after each active call of ``key``.

        ``key`` is ``"<module>.<qualname>"`` of a wrapped function; hooks
        read outcomes the simulator already returns (a lookup that found
        something, bytes sealed, an empty receive).
        """
        self._hooks[key] = fn

    # -- span bookkeeping --------------------------------------------------

    def _call(self, unit: str, key: str, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == unit:
            return fn(*args, **kwargs)
        parent = stack[-1][3] if stack else -1
        spans = self.spans
        if len(spans) < self.span_limit:
            index = len(spans)
            spans.append(None)  # filled in at exit: children finish first
        else:
            index = -1
        depth = self._depth
        depth[unit] += 1
        frame = [unit, time.perf_counter_ns(), 0, index]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - frame[1]
            self.self_ns[unit] += duration - frame[2]
            depth[unit] -= 1
            if not depth[unit]:
                self.total_ns[unit] += duration
            if stack:
                stack[-1][2] += duration
            if index >= 0:
                spans[index] = (unit, key, frame[1], end, parent)
            else:
                self.spans_dropped += 1

    def _wrap(self, fn, unit: str, key: str):
        tracer = self
        calls = self.calls
        hooks = self._hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            result = tracer._call(unit, key, fn, args, kwargs)
            hook = hooks.get(key)
            if hook is not None:
                hook(tracer, result)
            return tracer._wrap_result(result, unit, key)

        return wrapper

    def _wrap_result(self, result, unit: str, key: str):
        if isinstance(result, types.GeneratorType):
            body = key + ".<resume>"

            def enter(method, *args):
                self.calls[body] += 1
                return self._call(unit, body, method, args, {})

            return _TracedGenerator(result, enter)
        if isinstance(result, types.FunctionType) and "<locals>" in result.__qualname__:
            return self._wrap(result, unit, f"{key}.<{result.__name__}>")
        return result

    # -- install / remove --------------------------------------------------

    def install(self, guest_module=None, guest_names=(), private=()) -> None:
        """Wrap every traced ``repro`` module already imported.

        ``guest_names`` are functions and classes of ``guest_module`` (the
        benchmark's own guest programs and load clients) traced under the
        ``workloads`` unit.  ``private`` names (``module.Class.method``)
        private methods to wrap as well, for outcomes no public call
        returns.  Module functions are rebound in every module that
        imported them by name.
        """
        self._private = set(private)
        targets = [
            (module, unit_of(name), None)
            for name, module in sorted(sys.modules.items())
            if name.startswith("repro.") and unit_of(name) is not None
        ]
        if guest_module is not None:
            targets.append((guest_module, "workloads", set(guest_names)))
        replaced: dict = {}
        for module, unit, only in targets:
            for name, obj in list(vars(module).items()):
                if only is not None and name not in only:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(obj, unit)
                elif isinstance(obj, types.FunctionType) and not name.startswith("_"):
                    wrapped = self._wrap(obj, unit, f"{module.__name__}.{name}")
                    replaced[id(obj)] = (obj, wrapped)
        holders = [m for m in sys.modules.values()
                   if getattr(m, "__name__", "").startswith("repro")]
        if guest_module is not None:
            holders.append(guest_module)
        for holder in holders:
            namespace = vars(holder)
            for name, obj in list(namespace.items()):
                pair = replaced.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._restore.append((holder, name, obj))
                    setattr(holder, name, pair[1])

    def _install_class(self, cls: type, unit: str) -> None:
        if issubclass(cls, BaseException) or "Enum" in {b.__name__ for b in cls.__mro__}:
            return
        for name, attr in list(vars(cls).items()):
            key = f"{cls.__module__}.{cls.__qualname__}.{name}"
            if name.startswith("_") and key not in self._private:
                continue
            if isinstance(attr, types.FunctionType):
                wrapped = self._wrap(attr, unit, key)
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(attr.__func__, unit, key))
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(attr.__func__, unit, key))
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def remove(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def layer_self_seconds(self) -> dict:
        """Self time per layer, sub-units folded into their layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for unit, ns in self.self_ns.items():
            out[unit.split(".")[0]] += ns / 1e9
        return out

    def unit_self_seconds(self, unit: str) -> float:
        return self.self_ns.get(unit, 0) / 1e9

    def unit_total_seconds(self, unit: str) -> float:
        """Time inside ``unit``'s outermost spans, callees included."""
        return self.total_ns.get(unit, 0) / 1e9

    def count(self, *keys) -> int:
        """Active calls summed over ``keys`` (``module.qualname`` strings)."""
        return sum(self.calls.get(key, 0) for key in keys)

    def count_prefix(self, prefix: str) -> int:
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))

    def write_spans(self, path) -> None:
        """Write the kept spans (and how many were dropped) as JSON."""
        with open(path, "w") as handle:
            json.dump({
                "fields": ["unit", "name", "start_ns", "end_ns", "parent"],
                "spans": self.spans,
                "dropped": self.spans_dropped,
            }, handle)
