"""Outside-in tracing of oraclelab's public functions.

``Tracer.install`` wraps the functions and methods listed in ``PROBES``
in place and ``Tracer.uninstall`` puts the original objects back. A
module-level function imported elsewhere with ``from .x import f`` is
patched in every ``oraclelab`` module that binds it; patching only the
defining module would miss the calls made through the other bindings.

Every wrapped call pushes a frame on a stack, so each call knows its
parent. A call's self time is its duration minus the time of the wrapped
calls made inside it. Calls of the same probe nested inside each other
(``IntervalVersionSpace.with_examples`` builds through ``__init__``) fold
into the outermost one. Probes with ``span=False`` are the ones called
more than ~10^4 times per cell; they are timed and counted but record no
span, which keeps the traced run's overhead and memory bounded.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One traced function: where it lives and what it counts.

    ``before(args)`` runs ahead of the call; ``after(counters, args,
    result, before_value)`` adds work counts once the call returned.
    """

    module: str
    path: str  # "func" or "Class.method"
    name: str  # metric prefix "<module>.<function>"
    span: bool = True
    before: Callable | None = None
    after: Callable | None = None


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _classify(c, args, result, _):
    _add(c, "points", len(result[0]))
    _add(c, "breaks", len(args[0].breaks))


def _partition_cached(args):
    return args[0]._partition is not None


def _partition(c, args, result, was_cached):
    _add(c, "hits", int(was_cached))


def _vs_build(c, args, result, _):
    vs = args[0] if result is None else result  # __init__ vs with_examples
    _add(c, "points", len(vs.xs))


def _matrix_cells(c, args, result, _):
    _add(c, "cells", len(result) * len(args[1]))  # hypotheses x points


def _search(c, args, result, _):
    _add(c, "counterexamples", int(result is not None))


def _points(c, args, result, _):
    _add(c, "points", len(result))


def _sal_batch(c, args, result, _):
    _add(c, "points", len(result[0]))
    _add(c, "queried", int(result[1]))


def _sal_step(c, args, result, _):
    _add(c, "points", 1)
    _add(c, "queried", int(result[0][-1].queried))


def _aalarch(c, args, result, _):
    _add(c, "discarded", result.discarded_examples)
    _add(c, "drawn", result.ledger.unlabeled_draws)


H, O = "oraclelab.hypotheses", "oraclelab.oracles"
PROBES = (
    Probe(H, "Partition.classify", "hypotheses.classify", after=_classify),
    Probe(H, "IntervalVersionSpace.partition", "hypotheses.partition",
          before=_partition_cached, after=_partition),
    Probe(H, "MaskedVersionSpace.partition", "hypotheses.partition",
          before=_partition_cached, after=_partition),
    Probe(H, "IntervalVersionSpace.__init__", "hypotheses.vs_build",
          after=_vs_build),
    Probe(H, "IntervalVersionSpace.with_examples", "hypotheses.vs_build",
          after=_vs_build),
    Probe(H, "EnumeratedClass.err_counts", "hypotheses.err_counts",
          after=_matrix_cells),
    Probe(H, "EnumeratedClass.predictions", "hypotheses.predictions",
          span=False, after=_matrix_cells),
    Probe(H, "NestedClassSequence.enumerated_intervals",
          "hypotheses.enumerate"),
    Probe(H, "NestedClassSequence.min_consistent_index",
          "hypotheses.min_consistent_index"),
    Probe(O, "OracleBundle.search_query", "oracles.search", after=_search),
    # label_query delegates to label_query_batch, so the batch call alone
    # sees every LABEL once
    Probe(O, "OracleBundle.label_query_batch", "oracles.label",
          after=_points),
    Probe(O, "OracleBundle.draw", "oracles.draw", span=False, after=_points),
    Probe(O, "OracleBundle.exact_error", "oracles.exact_error"),
    Probe(O, "sal_batch", "oracles.sal_batch", after=_sal_batch),
    Probe(O, "sal_step", "oracles.sal_step", span=False, after=_sal_step),
    Probe("oraclelab.realizable", "run_cal", "realizable.run_cal"),
    Probe("oraclelab.realizable", "run_larch", "realizable.run_larch"),
    Probe("oraclelab.realizable", "run_seabel", "realizable.run_seabel"),
    Probe("oraclelab.agnostic", "run_al", "agnostic.run_al"),
    Probe("oraclelab.agnostic", "run_alarch", "agnostic.run_alarch"),
    Probe("oraclelab.anytime", "run_aalarch", "anytime.run_aalarch",
          after=_aalarch),
    Probe("oraclelab.anytime", "upgrade_version_space",
          "anytime.upgrade_version_space"),
    Probe("oraclelab.bounds", "sigma", "bounds.sigma", span=False),
    Probe("oraclelab.harness", "run_cell", "harness.run_cell"),
    Probe("oraclelab.harness", "build_sequence", "harness.build_sequence"),
)


def module_self_s(self_s: dict[str, float]) -> dict[str, float]:
    """Sum of self time per module, from self time per probe name."""
    out: dict[str, float] = {}
    for name, value in self_s.items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + value
    return out


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Wraps probes, keeps per-probe totals and spans in memory.

    ``cell`` is stamped on every span; the caller sets it before each cell.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.cell: int | None = None
        self._ids = itertools.count()
        self._stack: list[list] = []  # frames: [child time, span id]
        self._active: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.name
        stat = self.stats.setdefault(name, Stat())
        stack, active, spans, ids = (
            self._stack, self._active, self.spans, self._ids,
        )
        clock, before, after, span = (
            self.clock, probe.before, probe.after, probe.span,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in active:  # fold into the enclosing call of this probe
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(ids) if span else parent]
            stack.append(frame)
            active.add(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active.discard(name)
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.s += dur
                stat.self_s += dur - frame[0]
                if span:
                    spans.append((frame[1], parent, name, t0, t1, self.cell))
            if after is not None:
                after(stat.counters, args, result, token)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for probe in PROBES:
            owner = sys.modules[probe.module]
            if "." in probe.path:
                cls_name, attr = probe.path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(probe, raw.__func__))
                else:
                    new = self.wrap(probe, raw)
                self._patch(cls, attr, raw, new)
                continue
            raw = getattr(owner, probe.path)
            new = self.wrap(probe, raw)
            # every module that imported the function binds it under its
            # own name; all of those bindings route through the wrapper
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "oraclelab" and not mod_name.startswith(
                    "oraclelab."
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, attr, raw, new)

    def _patch(self, owner, attr: str, raw, new) -> None:
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading --------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, cell in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "cell": cell,
                }) + "\n")
