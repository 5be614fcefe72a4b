"""Independent reference implementations used to cross-check mechanisms.

These are deliberately naive: plain recursion, no shared code with the
package's level engine, no traces, no outcome objects.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def naive_level_auction(children: dict[int, list[int]], values: dict[int, float],
                        exponents: dict[int, float], root: int = 0):
    """Recursive transliteration of the level-by-level descent.

    Returns (winner or None, {path node: gross payment to its parent}).
    """
    agents = [n for n in values]
    if not agents or all(values[a] == 0 for a in agents):
        return None, {}

    best: dict[int, float] = {}   # each reached node's subtree maximum

    def fill(node):
        m = values[node]
        for c in children.get(node, []):
            m = max(m, fill(c))
        best[node] = m
        return m

    for c in children.get(root, []):
        fill(c)
    pays: dict[int, float] = {}

    def descend(parent, offset, v_parent):
        kids = [(c, best[c] - offset) for c in children.get(parent, [])]
        kids = [(c, max(r, 0.0)) for c, r in kids if r >= -1e-9]
        if len(kids) >= 2:
            order = sorted(kids, key=lambda cr: (-(cr[1] ** exponents.get(cr[0], 1.0)), cr[0]))
            i_star = order[0][0]
            runner, rho_runner = order[1]
            z = rho_runner ** (exponents.get(runner, 1.0) / exponents.get(i_star, 1.0))
        elif len(kids) == 1:
            i_star, z = kids[0][0], 0.0
        else:
            i_star, z = None, 0.0
        if parent != root and v_parent >= offset + z - 1e-9:
            return parent
        if i_star is None:
            return None
        pays[i_star] = offset + z
        return descend(i_star, pays[i_star], values[i_star])

    winner = descend(root, 0.0, 0.0)
    return winner, pays


def exact_level_auction(children: dict[int, list[int]], values: dict[int, float],
                        root: int = 0):
    """The unit-exponent descent in exact rationals, with no tolerance
    anywhere: a child survives a level when its subtree maximum is at
    least the offset, the largest ``rho`` wins with ties to the smaller id
    and pays the runner-up's ``rho`` (0 when alone), and a parent keeps the
    item when its value is at least that price.  All-zero values leave the
    item unsold.  Returns (winner or None, {path node: gross payment to its
    parent}), every payment a :class:`fractions.Fraction`."""
    vals = {i: Fraction(v) for i, v in values.items()}
    if not any(vals.values()):
        return None, {}
    best: dict[int, Fraction] = {}

    def fill(node):
        best[node] = max([vals[node]] + [fill(c) for c in children.get(node, [])])
        return best[node]

    for c in children.get(root, []):
        fill(c)
    pays: dict[int, Fraction] = {}
    parent, offset = root, Fraction(0)
    while True:
        ranked = sorted((offset - best[c], c) for c in children.get(parent, [])
                        if best[c] >= offset)
        if not ranked:   # the tentative winner keeps the item
            return (None if parent == root else parent), pays
        z = -ranked[1][0] if len(ranked) > 1 else Fraction(0)
        if parent != root and vals[parent] >= offset + z:
            return parent, pays
        parent = ranked[0][1]
        offset = pays[parent] = offset + z


def sorted_rank_level(texp: dict[int, float], survivors: list[tuple[int, float]]):
    """The exponential level rule by a full sort: the winner by largest
    ``rho**t``, ties to the smaller id, and the runner-up's ``rho`` raised
    to ``t_runner / t_winner``."""
    ranked = sorted(survivors, key=lambda nr: (-(nr[1] ** texp[nr[0]]), nr[0]))
    i_star = ranked[0][0]
    runner, rho_runner = ranked[1]
    return i_star, rho_runner ** (texp[runner] / texp[i_star])


def naive_net_payments(winner, pays, agents):
    """Per-agent signed payments implied by a payment chain."""
    net = {a: 0.0 for a in agents}
    if winner is None:
        return net, 0.0
    chain = list(pays)
    for idx, node in enumerate(chain):
        received = pays[chain[idx + 1]] if idx + 1 < len(chain) else 0.0
        net[node] = pays[node] - received
    revenue = pays[chain[0]] if chain else 0.0
    return net, revenue


def _forwarding_utility(children: dict[int, list[int]], values: dict[int, float],
                       exponents: dict[int, float], agent: int, withheld):
    """``agent``'s utility as a function of its true value when it
    forwards to all its children except ``withheld``: the tree that
    forwarding choice reaches is built once, and each call runs the naive
    descent on it with the agent reporting its true value."""
    cut = set(withheld)
    kids = dict(children)
    kids[agent] = [c for c in children.get(agent, []) if c not in cut]
    reached, stack = [], list(kids.get(0, []))
    while stack:
        node = stack.pop()
        reached.append(node)
        stack.extend(kids.get(node, []))
    vals = {i: values[i] for i in reached}

    def utility(true_value: float) -> float:
        vals[agent] = true_value
        winner, pays = naive_level_auction(kids, vals, exponents)
        net, _ = naive_net_payments(winner, pays, vals)
        return true_value * (winner == agent) - net[agent]

    return utility


def naive_forwarding_utility(children: dict[int, list[int]], values: dict[int, float],
                             exponents: dict[int, float], agent: int,
                             withheld, true_value: float) -> float:
    """Utility of ``agent`` when it reports ``true_value`` and forwards to
    all its children except ``withheld``, by direct execution of the
    naive descent on the tree that forwarding choice reaches."""
    return _forwarding_utility(children, values, exponents, agent, withheld)(true_value)


def naive_profitable_withholding(children: dict[int, list[int]],
                                 values: dict[int, float],
                                 exponents: dict[int, float],
                                 points, tol: float):
    """Brute-force search for a profitable forwarding deviation.

    Tries every agent, every strict subset of its children, and every
    true value in ``points`` plus the agent's own value.  Returns the
    first ``(agent, withheld, true_value, u_full, u_cut)`` whose cut
    utility beats full forwarding by more than ``tol``, or ``None``.
    Each forwarding choice's tree is built once for all the values.
    """
    for agent in sorted(values):
        kids = sorted(children.get(agent, []))
        xs = sorted(set(points) | {values[agent]})
        full = _forwarding_utility(children, values, exponents, agent, ())
        u_full = {x: full(x) for x in xs}
        for r in range(1, len(kids) + 1):
            for withheld in itertools.combinations(kids, r):
                cut = _forwarding_utility(children, values, exponents, agent, withheld)
                for x in xs:
                    u_cut = cut(x)
                    if u_cut > u_full[x] + tol:
                        return agent, withheld, x, u_full[x], u_cut
    return None


def threshold_by_scan(rule_winner, winner: int, rhos: dict[int, float],
                      steps: int = 200000) -> float:
    """Myerson threshold by brute linear scan over the winner's value."""
    hi = rhos[winner]
    grid = np.linspace(0.0, hi, steps)
    for y in grid:
        trial = dict(rhos)
        trial[winner] = float(y)
        if rule_winner(trial) == winner:
            return float(y)
    return hi


def argmax_winner(values: dict[int, float]):
    """``ArgmaxRule.winner`` as a one-liner: highest value, ties to the smaller id."""
    return min(values, key=lambda i: (-values[i], i), default=None)


def power_winner(exponents: dict[int, float]):
    """``PowerRule(exponents).winner`` as a one-liner: highest ``value**t_i``."""
    return lambda values: min(values, key=lambda i: (-(values[i] ** exponents.get(i, 1.0)), i),
                              default=None)


def reserve_winner(reserve: float):
    """``SecondPriceReserveRule(reserve).winner`` as a one-liner."""
    def winner(values):
        best = min(values, key=lambda i: (-values[i], i), default=None)
        return best if best is not None and values[best] >= reserve else None
    return winner


def copying_level_payment(rule_winner, winner: int, rhos: dict[int, float]) -> float:
    """The Myerson threshold by the same bisection as
    ``myerson_level_payment``, with a fresh copy of the level per probe:
    the bracket is halved until it is two adjacent floats, after a probe
    at twice the largest value and one at 0.  A non-monotone probe raises
    ``ValueError``."""
    rhos = dict(rhos)
    if any(v < 0 for v in rhos.values()) or rule_winner(rhos) != winner:
        raise ValueError("not the winner of a non-negative level")

    def wins(y: float) -> bool:
        trial = dict(rhos)
        trial[winner] = y
        return rule_winner(trial) == winner

    hi_probe = 2.0 * max(rhos.values(), default=0.0)
    if hi_probe > rhos[winner] and not wins(hi_probe):
        raise ValueError("the winner loses when raised")
    if wins(0.0):
        return 0.0
    lo, hi = 0.0, rhos[winner]
    while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):
        if wins(mid):
            hi = mid
        else:
            lo = mid
    for frac in (0.25, 0.5, 0.75):
        y = frac * lo
        if y < lo and wins(y):
            raise ValueError("the winner wins below its threshold")
    return hi


def naive_referral_parents(out_edges, forwards, stamps, seller: int = 0) -> dict[int, int]:
    """Parent map of the first-invite-first-served referral tree by the
    quadratic rule: for each reached node, scan every reached node for
    live edges into it and keep the smallest ``(timestamp, id)`` inviter.

    ``out_edges`` and ``forwards`` map a node to its true and reported
    out-neighbors; an edge is live when it is in both.  The seller's
    out-neighbors are its children.  Raises ``ValueError`` when the
    parent map has a cycle.
    """
    def live(k):
        return set(forwards.get(k, ())) & set(out_edges.get(k, ()))

    reached, stack = set(), list(out_edges.get(seller, ()))
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack.extend(live(node))
    parent = {i: seller for i in out_edges.get(seller, ())}
    for node in sorted(reached):
        if node not in parent:
            inviters = [k for k in reached if node in live(k)]
            parent[node] = min(inviters, key=lambda k: (stamps[k], k))
    for node in parent:
        seen, cur = set(), node
        while cur != seller:
            if cur in seen:
                raise ValueError(f"cyclic parent map through {cur}")
            seen.add(cur)
            cur = parent[cur]
    return parent


def random_tree_children(rng: np.random.Generator, n: int) -> dict[int, list[int]]:
    """Uniform random recursive tree: node k attaches below an earlier node."""
    children: dict[int, list[int]] = {}
    for k in range(1, n + 1):
        parent = 0 if k == 1 else int(rng.integers(0, k))
        children.setdefault(parent, []).append(k)
    return children


def random_dag_edges(rng: np.random.Generator, n: int,
                     extra_edge_prob: float = 0.35) -> list[tuple[int, int]]:
    """Connected random DAG from the seller: every node gets one edge from
    an earlier node plus optional extras (multiple inviters)."""
    edges = []
    for k in range(1, n + 1):
        first = 0 if k == 1 else int(rng.integers(0, k))
        edges.append((first, k))
        for j in range(k):
            if j != first and rng.random() < extra_edge_prob / max(k, 1):
                edges.append((j, k))
    return edges


def round_bisection_table(curve, points, xtol: float) -> np.ndarray:
    """A verifier curve table built the way the verifier once built it:
    the distinct ``points`` priced in one call, then rounds of bisection,
    one ``curve`` call per round with the midpoint of every interval whose
    endpoint allocations differ by more than 1e-12 and that is wider than
    ``xtol``.  ``curve(xs)`` returns one (allocation, payment) per point;
    the result is the rows x, g, p sorted by x."""
    xs = list(dict.fromkeys(float(x) for x in points))
    rows = dict(zip(xs, curve(xs)))

    def splits(pairs):
        return [(a, b) for a, b in pairs
                if b - a > xtol and abs(rows[b][0] - rows[a][0]) > 1e-12]

    xs.sort()
    todo = splits(zip(xs, xs[1:]))
    while todo:
        mids = [0.5 * (a + b) for a, b in todo]
        rows.update(zip(mids, curve(mids)))
        todo = splits(half for (a, b), m in zip(todo, mids) for half in ((a, m), (m, b)))
    order = sorted(rows)
    return np.array([order, [rows[x][0] for x in order], [rows[x][1] for x in order]])
