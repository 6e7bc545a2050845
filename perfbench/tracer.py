"""Per-layer probes installed around aufwalk's public functions at run time.

Nothing under ``src/`` changes: ``Tracer.install`` replaces every binding of
each probed function (the defining module and every module that imported it
by name) with a wrapper that counts calls and accumulates *self* time, i.e.
the call's duration minus the time spent in probed callees.  Spans also feed
an observer that records sizes (nnz, matrix order, bytes, distinct keys).
Counters are the leaf-only fast path for functions called more than 1e5
times per run; they record calls and time and nothing else.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ALL = frozenset({"walk-dense", "walk-sparse", "audit", "branch"})
WALKS = frozenset({"walk-dense", "walk-sparse"})
BRANCHED = frozenset({"audit", "branch"})


class Stat:
    """Running totals of one probe."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra: dict = {}


@dataclass(frozen=True)
class Probe:
    name: str  # metric prefix, "<layer>.<function>"
    module: str  # module under aufwalk
    target: str  # attribute path in the module, "func" or "Class.member"
    metrics: tuple[str, ...]  # metric suffixes, see METRIC_FNS
    expected: frozenset  # workloads on which the probe must get samples
    leaf: bool = False  # a counter: calls no other probe and takes no observer
    # before(tracer) -> token, then observe(tracer, stat, args, result, token)
    before: Callable | None = field(default=None, compare=False)
    observe: Callable | None = field(default=None, compare=False)


def _max_extra(key: str, value_of: Callable) -> Callable:
    def observe(tracer, stat, args, result, token):
        stat.extra[key] = max(stat.extra.get(key, 0), value_of(args, result))
    return observe


def _distinct(key_of: Callable) -> Callable:
    def observe(tracer, stat, args, result, token):
        stat.extra.setdefault("keys", set()).add(key_of(args))
    return observe


def _bytes_written(tracer, stat, args, result, token):
    stat.extra["bytes"] = stat.extra.get("bytes", 0) + Path(args[0]).stat().st_size


def _normalized_v_calls(tracer):
    return tracer.stats["intertwiners.normalized_V"].calls


def _hit_without_v(tracer, stat, args, result, calls_before):
    # a hit is a call during which normalized_V never ran
    hit = _normalized_v_calls(tracer) == calls_before
    stat.extra["hits"] = stat.extra.get("hits", 0) + hit


PROBES = (
    Probe("words.qdim", "words", "qdim", ("calls", "s"), ALL, leaf=True),
    Probe("words.tree_distance", "words", "tree_distance", ("calls",), ALL, leaf=True),
    Probe("words.ball", "words", "ball", ("s",), ALL),
    Probe("fusion.transition_matrix", "fusion", "transition_matrix", ("s", "nnz"), ALL,
          observe=_max_extra("nnz", lambda args, tm: tm.matrix.nnz)),
    Probe("fusion.uniform_irreducibility_constants", "fusion",
          "uniform_irreducibility_constants", ("s",), WALKS | {"audit"}),
    Probe("fusion.fuse", "fusion", "fuse", ("calls",), ALL, leaf=True),
    Probe("kernels.green_table", "kernels", "green_table", ("s", "calls", "n_max"),
          frozenset({"walk-dense", "audit", "branch"}),
          observe=_max_extra("n_max", lambda args, table: table.size)),
    Probe("kernels.weighted_operator_norm", "kernels", "weighted_operator_norm", ("s",), ALL),
    Probe("kernels.green_rows", "kernels", "green_rows", ("s",), frozenset({"walk-sparse"})),
    Probe("kernels.truncation_error_bound", "kernels", "truncation_error_bound", ("s",), WALKS),
    Probe("kernels.harnack_audit", "kernels", "harnack_audit", ("s",), frozenset({"audit"})),
    Probe("kernels.multiplicativity_audit", "kernels", "multiplicativity_audit", ("s",),
          frozenset({"audit"})),
    Probe("kernels.last_entry_audit", "kernels", "last_entry_audit", ("s",), frozenset({"audit"})),
    Probe("intertwiners.basis", "intertwiners", "IntertwinerEngine.basis", ("s", "distinct"),
          BRANCHED, observe=_distinct(lambda args: args[1])),
    Probe("intertwiners.inclusion_block", "intertwiners", "IntertwinerEngine.inclusion_block",
          ("s",), BRANCHED),
    Probe("intertwiners.vtilde", "intertwiners", "IntertwinerEngine.vtilde", ("calls", "s"),
          BRANCHED),
    Probe("intertwiners.Intertwiner.norm", "intertwiners", "Intertwiner.norm", ("s",), BRANCHED),
    Probe("intertwiners.normalized_V", "intertwiners", "IntertwinerEngine.normalized_V",
          ("calls", "distinct_ratio"), BRANCHED, observe=_distinct(lambda args: args[1:4])),
    Probe("intertwiners.weighted_trace", "intertwiners", "IntertwinerEngine.weighted_trace",
          ("s",), BRANCHED),
    Probe("perturbed.q_matrix", "perturbed", "q_matrix", ("calls", "s"), BRANCHED),
    Probe("perturbed.qhat_entry", "perturbed", "qhat_entry", ("calls", "hit_ratio"), BRANCHED,
          before=_normalized_v_calls, observe=_hit_without_v),
    Probe("perturbed.qhat_oracle", "perturbed", "qhat_oracle", ("s",), frozenset({"audit"})),
    Probe("perturbed.decay_audit", "perturbed", "decay_audit", ("s",), frozenset({"audit"})),
    Probe("perturbed.gdif_audit", "perturbed", "gdif_audit", ("s",), frozenset({"audit"})),
    Probe("perturbed.green_Q", "perturbed", "green_Q", ("s",), BRANCHED),
    Probe("cli.load_config", "cli", "load_config", ("s",), ALL),
    Probe("cli.write_csv", "cli", "write_csv", ("s", "bytes"), WALKS | {"branch"},
          observe=_bytes_written),
    Probe("cli.write_json", "cli", "write_json", ("s",), WALKS | {"audit"}),
    Probe("cli.run_audits", "cli", "run_audits", ("s",), frozenset({"audit"})),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# suffix -> (unit, better, value from the probe's Stat)
METRIC_FNS = {
    "calls": ("count", "lower", lambda st: st.calls),
    "s": ("s", "lower", lambda st: st.self_s),
    "nnz": ("count", "lower", lambda st: st.extra.get("nnz", 0)),
    "n_max": ("count", "lower", lambda st: st.extra.get("n_max", 0)),
    "distinct": ("count", "lower", lambda st: len(st.extra.get("keys", ()))),
    "distinct_ratio": ("ratio", "higher",
                       lambda st: _ratio(len(st.extra.get("keys", ())), st.calls)),
    "hit_ratio": ("ratio", "higher", lambda st: _ratio(st.extra.get("hits", 0), st.calls)),
    "bytes": ("bytes", "lower", lambda st: st.extra.get("bytes", 0)),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a probe yields."""
    return [
        (f"{p.name}.{suffix}", METRIC_FNS[suffix][0], METRIC_FNS[suffix][1])
        for p in PROBES
        for suffix in p.metrics
    ]


class Tracer:
    def __init__(self):
        self.stats = {p.name: Stat() for p in PROBES}
        # time spent in probed callees of the innermost running probe
        self._child_s = [0.0]

    # -- wrappers --------------------------------------------------------------

    def _counter(self, fn, stat):
        clock = time.perf_counter
        child = self._child_s

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stat.calls += 1
            stat.self_s += dt
            child[0] += dt
            return result

        return counted

    def _span(self, fn, stat, before, observe):
        clock = time.perf_counter
        child = self._child_s
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            token = before(tracer) if before is not None else None
            outer = child[0]
            child[0] = 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - child[0]
                stat.calls += 1
                child[0] = outer + dt
            if observe is not None:
                observe(tracer, stat, args, result, token)
            return result

        return spanned

    def _wrap(self, probe: Probe, fn):
        stat = self.stats[probe.name]
        if probe.leaf:
            return self._counter(fn, stat)
        return self._span(fn, stat, probe.before, probe.observe)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every probed function in every aufwalk module that binds it."""
        importlib.import_module("aufwalk.cli")
        modules = [m for n, m in sys.modules.items() if n == "aufwalk" or n.startswith("aufwalk.")]
        for probe in PROBES:
            module = importlib.import_module(f"aufwalk.{probe.module}")
            owner_name, _, attr = probe.target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, property):
                    setattr(owner, attr, property(self._wrap(probe, raw.fget)))
                else:
                    setattr(owner, attr, self._wrap(probe, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(probe, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for p in PROBES:
            st = self.stats[p.name]
            for suffix in p.metrics:
                out[f"{p.name}.{suffix}"] = METRIC_FNS[suffix][2](st)
        return out

    def report(self) -> dict:
        return {
            "metrics": self.metrics(),
            "calls": {name: st.calls for name, st in self.stats.items()},
        }


def missing_samples(calls: dict[str, int], workload: str) -> list[str]:
    """Probes expected on the workload that recorded no call."""
    return [p.name for p in PROBES if workload in p.expected and not calls.get(p.name)]
