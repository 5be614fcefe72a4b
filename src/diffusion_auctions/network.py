"""Graph and tree substrate for diffusion auctions.

A diffusion auction runs on a directed graph with a distinguished seller
node.  Agents report a valuation, a subset of their out-neighbors to
forward the auction information to, and carry a system-assigned arrival
timestamp.  This module holds those core types plus the reachability
filter, referral-tree construction, subtree statistics, and instance
file I/O.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

#: Reserved node id for the seller.  Agent ids must be positive.
SELLER = 0

#: Tolerance used for float-equality decisions inside mechanisms.
EQ_TOL = 1e-9


class InstanceError(ValueError):
    """Raised when a network / report-profile input is malformed."""


@dataclass(frozen=True)
class Report:
    """One agent's report: valuation, forwarded neighbors, arrival stamp."""

    value: float
    neighbors: frozenset[int]
    timestamp: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < math.inf:
            raise InstanceError(f"reported valuation {self.value} is not a finite "
                                "non-negative number")
        if self.timestamp < 0:
            raise InstanceError(f"negative timestamp {self.timestamp}")


@dataclass(frozen=True)
class DiffusionNetwork:
    """Directed graph over agents plus the seller.

    ``out_edges[i]`` lists the nodes that *i* can inform.  No edge may
    target the seller, the seller never appears in the agent set, and each
    agent id is a positive ``int``: not a bool, nor the -1 of an unsold row.
    """

    seller: int
    agents: frozenset[int]
    out_edges: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        if self.seller in self.agents:
            raise InstanceError("seller id listed in the agent set")
        if bad := [i for i in self.agents if type(i) is not int or i < 1]:
            raise InstanceError(f"agent id {bad[0]!r} is not a positive integer")
        known = self.agents | {self.seller}
        for src, dsts in self.out_edges.items():
            if src not in known:
                raise InstanceError(f"edge source {src} is not a known node")
            if not self.agents.issuperset(dsts):
                dst = next(d for d in dsts if d not in self.agents)
                raise InstanceError(f"edge {src}->{dst} targets " + (
                    "the seller" if dst == self.seller else "unknown node"))

    def neighbors(self, node: int) -> frozenset[int]:
        return self.out_edges.get(node, frozenset())

    def sorted_agents(self) -> list[int]:
        return sorted(self.agents)


def network_from_edges(edges: Iterable[tuple[int, int]],
                       agents: Optional[Iterable[int]] = None) -> DiffusionNetwork:
    """Build a :class:`DiffusionNetwork` from an edge list, sold by :data:`SELLER`."""
    adj: dict[int, set[int]] = {}
    seen: set[int] = set()
    for src, dst in edges:
        adj.setdefault(src, set()).add(dst)
        seen.add(dst)
        if src != SELLER:
            seen.add(src)
    return DiffusionNetwork(SELLER, frozenset(seen if agents is None else agents),
                            {k: frozenset(v) for k, v in adj.items()})


@dataclass(frozen=True)
class ReportProfile:
    """Immutable per-agent report map."""

    reports: Mapping[int, Report]

    def agents(self) -> Iterable[int]:
        return self.reports.keys()

    def value(self, agent: int) -> float:
        return self.reports[agent].value

    def neighbors(self, agent: int) -> frozenset[int]:
        return self.reports[agent].neighbors

    def timestamp(self, agent: int) -> int:
        return self.reports[agent].timestamp

    def values(self) -> dict[int, float]:
        return {i: r.value for i, r in self.reports.items()}

    def replace(self, agent: int, *, value: Optional[float] = None,
                neighbors: Optional[Iterable[int]] = None) -> "ReportProfile":
        """Copy of the profile with one agent's report altered."""
        old = self.reports[agent]
        return ReportProfile({**self.reports, agent: Report(
            old.value if value is None else float(value),
            old.neighbors if neighbors is None else frozenset(neighbors), old.timestamp)})


def bfs_timestamps(net: DiffusionNetwork) -> dict[int, int]:
    """Arrival order under full forwarding: breadth-first from the seller,
    ties within a layer by ascending id.  Unreachable agents are stamped
    after all reachable ones."""
    order: dict[int, int] = {}
    stamp = 0
    seen = {net.seller}
    frontier = sorted(net.neighbors(net.seller))
    while frontier:
        nxt: set[int] = set()
        for node in frontier:   # distinct, and none seen yet
            seen.add(node)
            order[node] = stamp
            stamp += 1
            nxt |= set(net.neighbors(node))
        frontier = sorted(nxt - seen)
    for node in sorted(net.agents - seen):
        order[node] = stamp
        stamp += 1
    return order


def truthful_profile(net: DiffusionNetwork, values: Mapping[int, float],
                     timestamps: Optional[Mapping[int, int]] = None) -> ReportProfile:
    """Profile where every agent reports its true value and full neighbor set."""
    stamps = dict(timestamps) if timestamps is not None else bfs_timestamps(net)
    return ReportProfile({i: Report(float(values[i]), net.neighbors(i), int(stamps[i]))
                          for i in net.agents})


def _live_walk(net: DiffusionNetwork, reports: ReportProfile) -> dict[int, frozenset[int]]:
    """Breadth-first walk from the seller along live edges.

    Maps every reached agent to its live out-neighbors.  The seller
    always forwards to all its out-neighbors; an agent's edge to ``j`` is
    live only if ``j`` is both in its reported neighbor set and a true
    out-neighbor.  Each reached agent is expanded once, so the walk costs
    O(n + E).
    """
    rep, out, empty = reports.reports, net.out_edges, frozenset()
    live_of: dict[int, frozenset[int]] = {}
    queue = list(out.get(net.seller, empty))
    for node in queue:   # a FIFO queue: the loop reaches what extend appends
        if node not in live_of:
            live_of[node] = live = rep[node].neighbors & out.get(node, empty)
            queue.extend(live)
    return live_of


def filter_subnetwork(net: DiffusionNetwork, reports: ReportProfile) -> frozenset[int]:
    """Agents reachable from the seller along reported forwarding edges
    (see :func:`_live_walk` for which edges are live)."""
    return frozenset(_live_walk(net, reports))


@dataclass(frozen=True)
class ReferralTree:
    """Rooted tree over the reachable agents; root is the seller."""

    root: int
    parent: Mapping[int, int]
    children: Mapping[int, tuple[int, ...]]

    def agents(self) -> frozenset[int]:
        return frozenset(self.parent)

    def subtree(self, node: int) -> Iterator[int]:
        """Iterate over the subtree rooted at ``node`` (inclusive)."""
        stack = [node]
        while stack:
            cur = stack.pop()
            yield cur
            stack.extend(self.children.get(cur, ()))

    def child_tuple(self, node: int) -> tuple[int, ...]:
        return self.children.get(node, ())

    def post_order(self) -> tuple[int, ...]:
        """Agents ordered children-before-parents (root excluded)."""
        cached = getattr(self, "_post_order", None)
        if cached is None:
            pre: list[int] = []
            stack = list(self.children.get(self.root, ()))
            while stack:
                node = stack.pop()
                pre.append(node)
                stack.extend(self.children.get(node, ()))
            cached = tuple(reversed(pre))
            object.__setattr__(self, "_post_order", cached)
        return cached


def build_referral_tree(net: DiffusionNetwork, reports: ReportProfile) -> ReferralTree:
    """First-invite-first-served referral tree.

    The seller's out-neighbors are always its children.  Every other
    reachable agent attaches to the reachable inviter with the smallest
    timestamp, ties broken by ascending id.  Unreachable agents are
    excluded.  Timestamps that would make the parent map cyclic (an
    agent "invited" only by its own descendants) are rejected: such
    stamps cannot arise from a real arrival process.

    One walk over the live edges, then the reached inviters in
    ``(timestamp, id)`` order, the first inviter of a target winning:
    O(n + E) plus sorts of the reached ids.  ``parent`` lists the seller's
    children, then the rest, each in id order, and so does every child tuple.
    """
    live_of, rep = _live_walk(net, reports), reports.reports
    # inviters latest first: the earliest inviter of a target writes last
    first = {j: k for _, k in sorted([(rep[k].timestamp, k) for k in live_of], reverse=True)
             for j in live_of[k]}
    parent = dict.fromkeys(sorted(net.neighbors(net.seller)), net.seller)
    parent.update({j: first[j] for j in sorted(first) if j not in parent})
    children: dict[int, list[int]] = {}
    for node, par in parent.items():
        children.setdefault(par, []).append(node)
    tree = ReferralTree(root=net.seller, parent=parent,
                        children={k: tuple(v) for k, v in children.items()})
    # an agent on a parent cycle is never reached from the seller
    if len(tree.post_order()) != len(parent):
        raise InstanceError("timestamps induce a cyclic parent map")
    return tree


def subtree_values(tree: ReferralTree, values: Mapping[int, float]) -> dict[int, float]:
    """Maximum valuation within each node's subtree (inclusive): the
    node's own value, replaced by a child's entry only when strictly
    larger, children in tree order."""
    best: dict[int, float] = {}
    children = tree.children
    for node in tree.post_order():
        m = values[node]
        for ch in children.get(node, ()):
            if best[ch] > m:
                m = best[ch]
        best[node] = m
    return best


@dataclass(frozen=True)
class Outcome:
    """Joint result of a mechanism: allocation probabilities and signed
    payments (positive means the agent pays).  Both maps are sparse: an
    agent they leave out has 0."""

    allocation: Mapping[int, float]
    payments: Mapping[int, float]
    seller_revenue: float
    winner: Optional[int] = None

    def __post_init__(self) -> None:
        total = 0.0
        for agent, prob in self.allocation.items():
            if prob < -EQ_TOL or prob > 1 + EQ_TOL:
                raise InstanceError(f"allocation[{agent}]={prob} outside [0,1]")
            total += prob
        if total > 1 + 1e-6:
            raise InstanceError(f"allocations sum to {total} > 1")

    def utility(self, agent: int, true_value: float) -> float:
        return true_value * self.allocation.get(agent, 0.0) - self.payments.get(agent, 0.0)

    def to_dict(self, agents: Iterable[int]) -> dict:
        """JSON form that lists each of ``agents``, an absent one with 0."""
        keys = sorted(agents)
        return {
            "winner": self.winner,
            "seller_revenue": self.seller_revenue,
            "allocation": {str(k): self.allocation.get(k, 0.0) for k in keys},
            "payments": {str(k): self.payments.get(k, 0.0) for k in keys},
        }


@dataclass(frozen=True)
class Instance:
    """A network plus a report profile, optionally with fixed exponents."""

    net: DiffusionNetwork
    reports: ReportProfile
    exponents: Optional[Mapping[int, float]] = None


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def exponent_table(exponents: Mapping[int, float], nodes: Iterable[int]) -> dict[int, float]:
    """Every node's exponent, 1 when omitted; non-positive or non-finite
    exponents raise :class:`InstanceError`."""
    table = {i: exponents.get(i, 1.0) for i in nodes}
    for i, t in table.items():
        if not 0 < t < math.inf:
            raise InstanceError(f"exponent t[{i}]={t} must be positive and finite")
    return table


def exponents_from_dict(raw) -> dict[int, float]:
    """A JSON ``{node id: exponent}`` table: each key a positive id in ASCII
    digits without a leading zero, each exponent a positive finite JSON
    number.  Any other key, or a string or bool exponent, raises :class:`InstanceError`."""
    try:
        if not {int, float}.issuperset(map(type, raw.values())):
            bad = [v for v in raw.values() if type(v) is not int and type(v) is not float]
            raise TypeError(f"exponent {bad[0]!r} is not a number")
        if bad := [k for k in raw if not (type(k) is str and k.isascii() and k.isdigit())
                   or k[0] == "0"]:
            raise ValueError(f"key {bad[0]!r} is not the decimal form of a positive id")
        table = {int(k): float(v) for k, v in raw.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed exponent table: {exc}") from exc
    return exponent_table(table, table)


def _whole(x, field: str) -> int:
    """An integral JSON number (not a bool) as an int, else :class:`InstanceError`."""
    if type(x) is int or type(x) is float and x.is_integer():
        return int(x)
    raise InstanceError(f"{field} {x!r} is not an integral number")


def instance_from_dict(raw: Mapping) -> Instance:
    """The instance of a JSON object, in one pass over its agents and edges."""
    try:
        seller, reports = _whole(raw.get("seller", SELLER), "seller"), {}
        for a in raw["agents"]:
            if type(nbrs := a["neighbors"]) is not list:
                raise InstanceError(f"neighbors {nbrs!r} is not a list")
            if type(value := a["valuation"]) is not float and type(value) is not int:
                raise InstanceError(f"valuation {value!r} is not a number")
            if not {int}.issuperset(map(type, nbrs)):
                nbrs = [_whole(x, "neighbor id") for x in nbrs]
            reports[_whole(a["id"], "agent id")] = Report(
                float(value), frozenset(nbrs), _whole(a.get("timestamp", 0), "timestamp"))
        if len(reports) != len(raw["agents"]):
            ids = [a["id"] for a in raw["agents"]]
            dups = sorted(i for i in reports if ids.count(i) > 1)
            raise InstanceError(f"duplicate agent ids {dups}")
        adj: defaultdict[int, set[int]] = defaultdict(set)
        for e in raw["edges"]:
            if type(e) is not list or len(e) != 2:
                raise InstanceError(f"edge {e!r} is not a [source, target] list")
            src, dst = e
            adj[src if type(src) is int else _whole(src, "edge source")].add(
                dst if type(dst) is int else _whole(dst, "edge target"))
        net = DiffusionNetwork(seller, frozenset(reports),
                               {k: frozenset(v) for k, v in adj.items()})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed instance: {exc}") from exc
    exps = raw.get("exponents")
    return Instance(net=net, reports=ReportProfile(reports),
                    exponents=None if exps is None else exponents_from_dict(exps))


def instance_to_dict(inst: Instance) -> dict:
    net, profile = inst.net, inst.reports
    agents = [{"id": i, "valuation": profile.value(i), "neighbors": sorted(profile.neighbors(i)),
               "timestamp": profile.timestamp(i)} for i in net.sorted_agents()]
    edges = [[src, dst] for src in sorted(net.out_edges) for dst in sorted(net.out_edges[src])]
    out = {"seller": net.seller, "agents": agents, "edges": edges}
    if inst.exponents is not None:
        out["exponents"] = {str(k): float(v) for k, v in sorted(inst.exponents.items())}
    return out


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(instance_to_dict(inst), indent=2) + "\n")


def random_tree_instance(n: int, rng: np.random.Generator) -> Instance:
    """Random rooted tree over ``n`` agents with valuations uniform on [0, 100).

    Node ``k``'s parent is drawn uniformly among the seller and the
    earlier agents, so depth and degree stay moderate.
    """
    if n < 1:
        raise InstanceError("need at least one agent")
    edges = []
    for k in range(1, n + 1):
        parent = SELLER if k == 1 else int(rng.integers(0, k))
        edges.append((parent, k))
    net = network_from_edges(edges, agents=range(1, n + 1))
    values = {i: float(rng.uniform(0.0, 100.0)) for i in range(1, n + 1)}
    return Instance(net=net, reports=truthful_profile(net, values))
