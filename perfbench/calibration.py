"""CPU-speed probe for timings taken on a shared host.

On a shared machine the interpreter's speed swings by a third for tens of
seconds at a time as other tenants load the core, which no run length
averages out.  The probe is a fixed piece of pure-Python work shaped like
the package's hot loops: a twelve-agent auction written out here (frozen
report objects, reachability, first-invite tree, subtree maxima, exponent
ranking).  Timings are reported in *reference milliseconds*: wall time
scaled by ``NOMINAL_S / probe time`` measured next to it, i.e. the time the
work would take on a CPU that runs the probe in ``NOMINAL_S``.  The probe
never calls the package, so a change to the package moves the scaled times
and not the probe.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

#: Probe duration that defines the reference speed (about the fast state
#: of a 2-vCPU Intel Xeon VM).
NOMINAL_S = 1e-3


@dataclass(frozen=True)
class _Report:
    value: float
    neighbors: frozenset
    stamp: int


_rnd = random.Random(0)
_EDGES: dict = {0: {1, 2, 3}}
for _k in range(4, 13):
    _EDGES.setdefault(_rnd.randrange(1, _k), set()).add(_k)
_EDGES = {k: frozenset(v) for k, v in _EDGES.items()}
_REPORTS = {i: _Report(_rnd.random() * 100.0, _EDGES.get(i, frozenset()), i)
            for i in range(1, 13)}
_EXPONENTS = {i: 0.5 + 2.5 * _rnd.random() for i in range(1, 13)}


def _mini_auction(reports: dict) -> float:
    """Reachability, first-invite tree, subtree maxima, exponent ranking."""
    reached: set = set()
    queue = deque(sorted(_EDGES[0]))
    while queue:
        node = queue.popleft()
        if node in reached:
            continue
        reached.add(node)
        for nxt in sorted(reports[node].neighbors & _EDGES.get(node, frozenset())):
            if nxt not in reached:
                queue.append(nxt)
    parent = {i: 0 for i in _EDGES[0]}
    for node in sorted(reached):
        if node not in parent:
            inviters = [k for k in reached if node in reports[k].neighbors]
            parent[node] = min(inviters, key=lambda k: (reports[k].stamp, k))
    children: dict = {}
    for node, par in parent.items():
        children.setdefault(par, []).append(node)
    best: dict = {}
    for node in sorted(parent, reverse=True):
        m = reports[node].value
        for child in children.get(node, ()):
            m = max(m, best[child])
        best[node] = m
    ranked = sorted(children[0], key=lambda i: (-(best[i] ** _EXPONENTS[i]), i))
    return best[ranked[1]] ** (_EXPONENTS[ranked[1]] / _EXPONENTS[ranked[0]])


def _work() -> float:
    total = 0.0
    for x in range(30):
        reports = dict(_REPORTS)
        old = reports[5]
        reports[5] = _Report(2.0 * x, old.neighbors, old.stamp)
        total += _mini_auction(reports)
    return total


def probe() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor turning wall time into reference time."""
    return NOMINAL_S / probe_s
