"""Span tracing for the traced run, installed from the benchmark's side.

The tracer replaces module attributes that the package looks up at call
time (``mechanisms.build_referral_tree`` and friends) and wraps chosen
instance methods in a forwarding proxy.  Each call records one span:
name, start, end, parent span and op id, kept in flat in-memory arrays
and written out when the run ends.  A name that no longer exists in the
package is reported under ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import os
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterable, Optional

import numpy as np

#: (module, attribute) -> span name.  Two call sites of run_lblev share a span.
MODULE_TARGETS = {
    ("mechanisms", "build_referral_tree"): "network.build_referral_tree",
    ("mechanisms", "subtree_values"): "network.subtree_values",
    ("mechanisms", "run_lblev"): "mechanisms.run_lblev",
    ("mechanisms", "myerson_level_payment"): "mechanisms.myerson_level_payment",
    ("mechanisms", "run_referral_auction"): "mechanisms.run_referral_auction",
    ("network", "filter_subnetwork"): "network.filter_subnetwork",
    ("network", "load_instance"): "network.load_instance",
    ("experiments", "run_lblev"): "mechanisms.run_lblev",
    ("experiments", "activate_edges"): "experiments.activate_edges",
    ("experiments", "sweep_lambda"): "experiments.sweep_lambda",
    ("verify", "verify_mechanism"): "verify.verify_mechanism",
    ("bayes", "estimate_interim"): "bayes.estimate_interim",
}

#: Instance method -> span name, applied through :meth:`Tracer.instrument`.
METHOD_TARGETS = {
    "evaluate": "mechanisms.evaluate",
    "run_on_values": "bayes.run_on_values",
    "winner": "mechanisms.rule.winner",
}

OP_SPAN = "op"


class _Proxy:
    """Forwards every attribute to the target except the timed methods."""

    def __init__(self, target, timed: dict):
        object.__setattr__(self, "_target", target)
        for name, fn in timed.items():
            object.__setattr__(self, name, fn)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        # method spans count as installed unless an instrumented object lacks them
        self.installed: set[str] = set(METHOD_TARGETS.values())
        self.missing: set[str] = set()
        self._tables: set = set()

    # -- recording -----------------------------------------------------
    def _index(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, span: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        idx = self._index(span)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.op.append(self.op_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def run_op(self, fn: Callable):
        """Run one op under a root span with a fresh op id; distinct
        verifier tables are counted per op."""
        self.op_id += 1
        self._tables = set()
        try:
            return self.wrap(OP_SPAN, fn)()
        finally:
            self.add("verify.tables", len(self._tables))

    # -- counters recorded at layer boundaries ---------------------------
    def _count_nodes(self, args, kwargs, tree) -> None:
        self.add("network.build_referral_tree.nodes", len(tree.parent))

    def _count_bytes(self, args, kwargs, result) -> None:
        self.add("network.load_instance.bytes", os.path.getsize(args[0]))

    def _count_samples(self, args, kwargs, result) -> None:
        self.add("bayes.samples", result.samples)

    def _count_table(self, args, kwargs, result) -> None:
        if len(args) >= 3:    # evaluate(net, reports, agent)
            _, reports, agent = args[:3]
            self._tables.add((agent, reports.neighbors(agent)))

    # -- installation --------------------------------------------------
    @contextmanager
    def installed_on(self, modules: dict):
        """Replace the target attributes of ``modules`` for the duration."""
        counts = {
            "network.build_referral_tree": self._count_nodes,
            "network.load_instance": self._count_bytes,
            "bayes.estimate_interim": self._count_samples,
        }
        saved = []
        try:
            for (mod_name, attr), span in MODULE_TARGETS.items():
                mod = modules[mod_name]
                original = getattr(mod, attr, None)
                if original is None:
                    self.missing.add(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span, original, counts.get(span)))
                self.installed.add(span)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def instrument(self, obj, methods: Iterable[str]):
        """Proxy ``obj`` with the named methods timed."""
        timed = {}
        for method in methods:
            span = METHOD_TARGETS[method]
            original = getattr(obj, method, None)
            if original is None:
                self.missing.add(f"{type(obj).__name__}.{method}")
                self.installed.discard(span)
                continue
            count = self._count_table if method == "evaluate" else None
            timed[method] = self.wrap(span, original, count)
        return _Proxy(obj, timed)

    # -- results -------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total ms, self ms).  Self time is the span's
        duration minus the durations of its direct children; spans nest
        without overlap because one thread records them."""
        a = self.arrays()
        if a["name"].size == 0:
            return {}
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child_sum = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        self_ns = dur - child_sum
        out = {}
        for idx, name in enumerate(self.names):
            mask = a["name"] == idx
            out[name] = (int(mask.sum()), float(dur[mask].sum()) / 1e6,
                         float(self_ns[mask].sum()) / 1e6)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, n_ops: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer figures of a traced phase of ``n_ops`` ops.  Metrics whose
    spans were not installed (a renamed target) are left out."""
    totals = tracer.layer_totals()
    have = tracer.installed

    def calls(span):
        return totals.get(span, (0, 0.0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for span in set(MODULE_TARGETS.values()) | set(METHOD_TARGETS.values()):
        if span not in have:
            continue
        n, total_ms, self_ms = totals.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = n / n_ops
        out[f"{span}.self_ms"] = self_ms / n_ops
        out[f"{span}.us_per_call"] = ratio(total_ms * 1e3, n)

    derived = {
        "network.build_referral_tree.nodes_per_call": (
            ("network.build_referral_tree",),
            lambda: ratio(tracer.counters.get("network.build_referral_tree.nodes", 0.0),
                          calls("network.build_referral_tree"))),
        "network.load_instance.bytes": (
            ("network.load_instance",),
            lambda: ratio(tracer.counters.get("network.load_instance.bytes", 0.0),
                          calls("network.load_instance"))),
        "mechanisms.rule_winner_per_payment": (
            ("mechanisms.rule.winner", "mechanisms.myerson_level_payment"),
            lambda: ratio(calls("mechanisms.rule.winner"),
                          calls("mechanisms.myerson_level_payment"))),
        "verify.evaluations_per_instance": (
            ("mechanisms.evaluate", "verify.verify_mechanism"),
            lambda: ratio(calls("mechanisms.evaluate"), calls("verify.verify_mechanism"))),
        "verify.tables_per_instance": (
            ("mechanisms.evaluate", "verify.verify_mechanism"),
            lambda: ratio(tracer.counters.get("verify.tables", 0.0),
                          calls("verify.verify_mechanism"))),
        "verify.tree_builds_per_table": (
            ("mechanisms.evaluate", "network.build_referral_tree"),
            lambda: ratio(calls("network.build_referral_tree"),
                          tracer.counters.get("verify.tables", 0.0))),
        "bayes.mechanism_calls_per_sample": (
            ("bayes.run_on_values", "bayes.estimate_interim"),
            lambda: ratio(calls("bayes.run_on_values"),
                          tracer.counters.get("bayes.samples", 0.0))),
        "experiments.run_lblev_per_draw": (
            ("mechanisms.run_lblev", "experiments.activate_edges"),
            lambda: ratio(calls("mechanisms.run_lblev"),
                          calls("experiments.activate_edges"))),
    }
    for name, (needs, value) in derived.items():
        if all(span in have for span in needs):
            out[name] = value()
    out["trace.spans"] = len(tracer.start) / n_ops
    out["trace.overhead_pct"] = overhead_pct
    return out
