"""Executable diffusion auctions on referral trees.

The level-by-level engine runs an auction at every level of the tree,
rooted at the seller.  Each level computes *effective valuations* (the
best report in each child's subtree minus the running offset), picks a
tentative winner, charges it the level's threshold price plus the
offset, and descends into its subtree.  The exponential-valuation
auction scores subtrees by ``rho**t_i`` with per-agent exponents; the
referral-auction family plugs in an arbitrary monotone level rule and
prices by the Myerson threshold of that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .network import (
    EQ_TOL,
    DiffusionNetwork,
    InstanceError,
    Outcome,
    ReferralTree,
    Report,
    ReportProfile,
    build_referral_tree,
    subtree_values,
    truthful_profile,
)


class NonMonotoneRuleError(ValueError):
    """A pluggable level rule failed the monotonicity probe."""


def exponent_table(exponents: Mapping[int, float], nodes: Iterable[int]) -> dict[int, float]:
    """Every node's exponent, 1 when omitted; non-positive or non-finite
    exponents raise :class:`InstanceError`."""
    table = {i: exponents.get(i, 1.0) for i in nodes}
    for i, t in table.items():
        if not 0 < t < math.inf:
            raise InstanceError(f"exponent t[{i}]={t} must be positive and finite")
    return table


@dataclass(frozen=True)
class LevelTrace:
    """Record of one level of the descent."""

    parent: int
    offset: float
    survivors: tuple[tuple[int, float], ...]   # (node, effective valuation)
    tentative_winner: Optional[int]
    effective_payment: float                   # z
    actual_payment: Optional[float]            # z + offset; None when the
                                               # parent kept the item


def _run_levels(
    tree: ReferralTree,
    values: Mapping[int, float],
    submax: Mapping[int, float],
    select: Callable[[list[tuple[int, float]]], Optional[tuple[int, float]]],
    start_parent: Optional[int] = None,
    start_offset: float = 0.0,
) -> tuple[Optional[int], dict[int, float], list[LevelTrace]]:
    """Shared descent loop.

    ``select`` receives the surviving (node, rho) pairs of a level with
    at least two entries and returns the tentative winner and its
    effective payment, or ``None`` to decline the level entirely.
    ``start_parent``/``start_offset`` resume the descent below a level
    that was decided by other means.  Returns (winner, {path node:
    payment to its parent}, traces); the start node's own payment is not
    included.
    """
    children = tree.children
    parent = tree.root if start_parent is None else start_parent
    offset = start_offset
    pay: dict[int, float] = {}
    tentative: Optional[int] = None if parent == tree.root else parent
    traces: list[LevelTrace] = []

    while True:
        # rho clipped at 0 as max(rho, 0.0) clips it, a -0.0 kept
        survivors = [(child, rho if rho >= 0.0 else 0.0) for child in children.get(parent, ())
                     if (rho := submax[child] - offset) >= -EQ_TOL]
        chosen = (select(survivors) if len(survivors) >= 2
                  else (survivors[0][0], 0.0) if survivors else None)

        if chosen is None:
            # No child stays in the game: the current tentative winner
            # keeps the item (or the item is unsold at the root).
            traces.append(LevelTrace(parent, offset, tuple(survivors), None, 0.0, None))
            break
        i_star, z = chosen
        if parent != tree.root and values[parent] >= offset + z - EQ_TOL:
            # The parent prefers keeping the item over selling at offset+z.
            traces.append(LevelTrace(parent, offset, tuple(survivors), None, z, None))
            break
        actual = offset + z
        pay[i_star] = actual
        traces.append(LevelTrace(parent, offset, tuple(survivors), i_star, z, actual))
        tentative = i_star
        parent, offset = i_star, actual
        if not children.get(i_star):
            break   # reached a leaf

    return tentative, pay, traces


def _settle(winner: Optional[int], pay: Mapping[int, float]) -> Outcome:
    """The outcome of a descent: the winner gets the item, and each node
    of the payment chain pays its parent and receives the next node's
    payment (``pay`` is in descent order).  The seller gets the first."""
    if winner is None:
        return Outcome({}, {}, 0.0)
    path = list(pay)
    payments = {node: pay[node] - (pay[path[k + 1]] if k + 1 < len(path) else 0.0)
                for k, node in enumerate(path)}
    return Outcome({winner: 1.0}, payments, pay[path[0]], winner)


def _check_values(values: Mapping[int, float]) -> None:
    """A value map must hold finite non-negative numbers."""
    if not all(0 <= v < math.inf for v in values.values()):
        raise InstanceError("valuations must be finite non-negative numbers")


def _check_power_range(texp: Mapping[int, float], top: float) -> None:
    """No ``rho**t`` key or ``rho**(t_r/t_w)`` price of a tree with
    exponents ``texp`` and largest value ``top`` exceeds
    ``max(top, 1)**max(t_max, t_max/t_min)``; where that is not finite,
    raise :class:`InstanceError` naming the agents whose exponents set it."""
    t_max, t_min = max(texp.values(), default=1.0), min(texp.values(), default=1.0)
    try:
        math.pow(max(top, 1.0), power := t_max / min(t_min, 1.0))
    except OverflowError:
        named = sorted(i for i, t in texp.items() if t == t_max or t == t_min < 1.0)
        raise InstanceError(f"values up to {top!r} overflow under the exponents of agents "
                            f"{named}: max(V, 1)**{power!r} is not finite") from None


def _rank_level(texp: Mapping[int, float],
                survivors: list[tuple[int, float]]) -> tuple[int, float]:
    """The exponential level rule on two or more (node, rho) survivors.

    The largest ``rho**t`` wins, ties to the smaller id; its effective
    payment is the runner-up's ``rho`` raised to ``t_runner / t_winner``.
    One pass keeps the leading two under that order.
    """
    (w, w_rho), (r, r_rho) = survivors[0], survivors[1]
    w_key, r_key = w_rho ** texp[w], r_rho ** texp[r]
    if r_key > w_key or (r_key == w_key and r < w):
        w, w_rho, w_key, r, r_rho, r_key = r, r_rho, r_key, w, w_rho, w_key
    for node, rho in survivors[2:]:
        key = rho ** texp[node]
        if key > w_key or (key == w_key and node < w):
            r, r_rho, r_key = w, w_rho, w_key
            w, w_rho, w_key = node, rho, key
        elif key > r_key or (key == r_key and node < r):
            r, r_rho, r_key = node, rho, key
    return w, r_rho ** (texp[r] / texp[w])


def _draw_matrix(ids: Sequence[int], matrix) -> np.ndarray:
    """``matrix`` as a float array of draws, one row per draw and one
    column per id in ``ids``.  A shape that does not fit, a repeated id
    or a negative or non-finite value raises :class:`InstanceError`."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(ids) or len(set(ids)) != len(ids):
        raise InstanceError(f"a draw matrix of shape {matrix.shape} does not give "
                            f"one column to each of the distinct ids {list(ids)}")
    if not np.all(np.isfinite(matrix) & (matrix >= 0)):
        raise InstanceError("valuations must be finite non-negative numbers")
    return matrix


def _columns(ids: Sequence[int], agents: Iterable[int]) -> list[int]:
    """The column of each of ``agents`` in a draw matrix whose columns
    follow ``ids``; an agent without one raises :class:`InstanceError`."""
    where = {a: j for j, a in enumerate(ids)}
    try:
        return [where[a] for a in agents]
    except KeyError as exc:
        raise InstanceError(f"no value column for agent {exc}") from exc


def run_lblev(tree: ReferralTree, values: Mapping[int, float],
              exponents: Mapping[int, float]) -> tuple[Outcome, list[LevelTrace]]:
    """Level-by-level exponential-valuation auction on a referral tree.

    At each level the subtree with the largest ``rho**t`` stays in the
    game and pays the runner-up's ``rho`` raised to the exponent ratio
    ``t_runnerup / t_winner``, on top of the running offset.  Ties break
    toward the smaller node id.  Exponents default to 1 when omitted;
    non-positive or non-finite exponents are rejected, and so is a tree
    that fails :func:`_check_power_range`.  An empty tree or all-zero
    values leave the item unsold.
    """
    _check_values(values)
    texp = exponent_table(exponents, tree.agents())
    submax = subtree_values(tree, values)
    top = max((submax[c] for c in tree.child_tuple(tree.root)), default=0.0)
    _check_power_range(texp, top)
    if top == 0.0:
        return Outcome({}, {}, 0.0), []
    winner, pay, traces = _run_levels(tree, values, submax, partial(_rank_level, texp))
    return _settle(winner, pay), traces


def lblev_seller_revenues(tree: ReferralTree, values: Mapping[int, float],
                          exponent_tables: Sequence[Mapping[int, float]]) -> list[float]:
    """``run_lblev(tree, values, m)[0].seller_revenue`` for many exponent maps.

    ``exponent_tables`` holds :func:`exponent_table` results, which
    checked each map once; every first-level node needs an entry.  The
    seller's revenue is the first-level winner's gross payment, and the
    root level has offset 0 and no keep test, so the descent below the
    first level never changes it.  The values are checked and the
    first-level survivors found once; each table then costs one
    :func:`_rank_level` step with :func:`run_lblev`'s float operations,
    so the revenues are identical.  It ranks only the root level, so it
    rejects only an overflow there, as :class:`InstanceError`, and not
    :func:`run_lblev`'s up-front :func:`_check_power_range`.
    """
    _check_values(values)
    agents = tree.agents()
    if not agents or all(values[i] == 0.0 for i in agents):
        return [0.0] * len(exponent_tables)
    submax = subtree_values(tree, values)
    # The values are non-negative, so every first-level subtree survives
    # the root level with rho = max(submax - 0.0, 0.0) = submax, bit for bit.
    survivors = [(child, submax[child]) for child in tree.child_tuple(tree.root)]
    if len(survivors) < 2:
        return [0.0] * len(exponent_tables)   # a lone survivor pays the offset, 0
    try:
        # 0.0 + z is the root level's offset + z; it also turns a z of -0.0 into 0.0
        return [0.0 + _rank_level(texp, survivors)[1] for texp in exponent_tables]
    except OverflowError:
        raise InstanceError("a first-level rho**t or price overflows") from None


class LevelRule:
    """Deterministic single-winner allocation over one level's effective
    valuations.  Must be monotone: raising the winner's value keeps it
    winning, and raising a loser's value past its threshold makes it win.
    """

    name = "rule"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        raise NotImplementedError


class ArgmaxRule(LevelRule):
    """Highest effective valuation wins; ties break to the smaller id."""

    name = "argmax"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        return min(values, key=lambda i: (-values[i], i), default=None)


class PowerRule(LevelRule):
    """Highest ``value**t_i`` wins; ties break to the smaller id."""

    def __init__(self, exponents: Mapping[int, float]):
        self.exponents = exponent_table(exponents, exponents)
        self.name = "argmax-pow"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        return min(values, key=lambda i: (-(values[i] ** self.exponents.get(i, 1.0)), i),
                   default=None)


class SecondPriceReserveRule(LevelRule):
    """Highest value wins if it clears the reserve; otherwise no winner."""

    def __init__(self, reserve: float = 0.0):
        self.reserve = float(reserve)
        self.name = f"second-price-r{reserve:g}"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        best = min(values, key=lambda i: (-values[i], i), default=None)
        return best if best is not None and values[best] >= self.reserve else None


def myerson_level_payment(rule: LevelRule, winner: int,
                          rhos: Mapping[int, float]) -> float:
    """Threshold payment: the smallest value at which ``winner`` still wins.

    Computed by bisection over the winner's coordinate with everything
    else fixed, until the bracket is two adjacent floats.  Equals ``rho_w -
    integral of the win indicator`` for a deterministic monotone rule.
    Probes that detect a non-monotone rule raise :class:`NonMonotoneRuleError`.
    """
    rhos = dict(rhos)
    if any(v < 0 for v in rhos.values()):
        raise ValueError("effective valuations must be non-negative")
    if rule.winner(rhos) != winner:
        raise ValueError(f"{winner} is not the rule's winner at these values")
    rho_w = rhos[winner]

    def wins(y: float) -> bool:
        trial = dict(rhos)
        trial[winner] = y
        return rule.winner(trial) == winner

    hi_probe = 2.0 * max(rhos.values(), default=0.0)
    if hi_probe > rho_w and not wins(hi_probe):
        raise NonMonotoneRuleError(f"{rule.name}: winner loses when raised to {hi_probe}")
    if wins(0.0):
        return 0.0
    lo, hi = 0.0, rho_w
    while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):   # halves first: no overflow
        if wins(mid):
            hi = mid
        else:
            lo = mid
    for frac in (0.25, 0.5, 0.75):
        y = frac * lo
        if y < lo and wins(y):
            raise NonMonotoneRuleError(f"{rule.name}: wins below its own threshold at {y}")
    return hi


def _myerson_level(rule: LevelRule, survivors: list[tuple[int, float]]
                   ) -> Optional[tuple[int, float]]:
    """A pluggable level rule on two or more (node, rho) survivors: the
    rule's winner and its :func:`myerson_level_payment`, or ``None`` when
    the rule declines the level.  A rule that overflows on the level is
    :class:`InstanceError`."""
    level = dict(survivors)
    try:
        i_star = rule.winner(level)
        return None if i_star is None else (i_star, myerson_level_payment(rule, i_star, level))
    except OverflowError as exc:
        raise InstanceError(f"the {rule.name} rule overflows on effective valuations "
                            f"up to {max(level.values())!r}") from exc


def run_referral_auction(net: DiffusionNetwork, reports: ReportProfile,
                         rule: LevelRule) -> tuple[Outcome, list[LevelTrace]]:
    """Referral auction: first-invite-first-served tree, then the level
    descent with the plugged-in rule and its Myerson threshold payments.

    The rule adjudicates a level only when two or more subtrees survive;
    a lone survivor pays just the offset.  Payments and the final
    netting follow the same accounting as :func:`run_lblev`.
    """
    tree = build_referral_tree(net, reports)
    values = reports.values()
    if all(values[i] == 0.0 for i in tree.agents()):
        return Outcome({}, {}, 0.0), []
    winner, pay, traces = _run_levels(tree, values, subtree_values(tree, values),
                                      partial(_myerson_level, rule))
    return _settle(winner, pay), traces


def transformed_auction_revenue(net: DiffusionNetwork, reports: ReportProfile,
                                rule: LevelRule) -> float:
    """Seller revenue of the transformed auction: replace each first-level
    subtree by a single node holding its best report, then run one round
    of the rule with its Myerson threshold payment."""
    tree = build_referral_tree(net, reports)
    first = tree.child_tuple(tree.root)
    values = reports.values()
    if len(first) < 2 or all(values[i] == 0.0 for i in tree.agents()):
        return 0.0   # a lone survivor pays the offset, 0
    submax = subtree_values(tree, values)
    chosen = _myerson_level(rule, [(i, submax[i]) for i in first])
    return 0.0 if chosen is None else chosen[1]


def rc_example_mechanism(bids: Sequence[float],
                         ids: Sequence[int] = (1, 2, 3)) -> Outcome:
    """Three-bidder randomized residual-claimant auction.

    The item goes to the highest bidder with probability 2/3 and to the
    second highest with probability 1/3.  The highest bidder pays one
    third of the second-highest bid; that amount is handed to the lowest
    bidder, so payments sum to zero and the seller earns nothing.  Ties
    break toward the smaller id.  All-zero bids leave the item unsold.
    """
    if len(bids) != 3 or len(ids) != 3:
        raise ValueError("exactly three bids are required")
    if any(b < 0 for b in bids):
        raise ValueError("bids must be non-negative")
    if all(b == 0 for b in bids):
        return Outcome({}, {}, 0.0)
    order = sorted(zip(ids, bids), key=lambda ib: (-ib[1], ib[0]))
    (hi, _), (mid, mid_bid), (lo, _) = order
    transfer = mid_bid / 3.0
    allocation = {hi: 2.0 / 3.0, mid: 1.0 / 3.0, lo: 0.0}
    payments = {hi: transfer, mid: 0.0, lo: -transfer}
    return Outcome(allocation, payments, 0.0, None)


class Compiled:
    """A mechanism fixed to one network and report profile, as
    :meth:`Mechanism.compile` returns it.  This default makes one
    :meth:`Mechanism.run` call per point of :meth:`curve` and per row of
    :meth:`outcomes`."""

    def __init__(self, mech: "Mechanism", net: DiffusionNetwork, reports: ReportProfile):
        self.mech = mech
        self.net = net
        self.reports = reports

    def curve(self, agent: int, xs: Iterable[float]) -> list[tuple[float, float]]:
        """``agent``'s (allocation, payment) at each own value in ``xs``,
        every other report held fixed."""
        outs = (self.mech.run(self.net, self.reports.replace(agent, value=x)) for x in xs)
        return [(out.allocation.get(agent, 0.0), out.payments.get(agent, 0.0)) for out in outs]

    def outcomes(self, ids: Sequence[int], matrix: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Price every row of ``matrix`` as the values of the agents in
        ``ids``, every other report held fixed.  Returns (winner id, -1
        when unsold [S]; net payments [S, len(ids)]; seller revenue [S])."""
        matrix = _draw_matrix(ids, matrix)
        unknown = set(ids) - self.reports.agents()
        if unknown:
            raise InstanceError(f"agents {sorted(unknown)} are not in the compiled profile")
        winner = np.full(len(matrix), -1)
        payments = np.zeros(matrix.shape)
        revenue = np.zeros(len(matrix))
        reports = dict(self.reports.reports)
        for s, row in enumerate(matrix.tolist()):
            for i, v in zip(ids, row):
                reports[i] = Report(v, reports[i].neighbors, reports[i].timestamp)
            out = self.mech.run(self.net, ReportProfile(dict(reports)))
            winner[s] = -1 if out.winner is None else out.winner
            payments[s] = [out.payments.get(i, 0.0) for i in ids]
            revenue[s] = out.seller_revenue
        return winner, payments, revenue

    def revenues(self, ids: Sequence[int], matrix: np.ndarray) -> np.ndarray:
        """Seller revenue of every row of ``matrix``, as :meth:`outcomes`."""
        return self.outcomes(ids, matrix)[2]


class LblevCurves(Compiled):
    """:class:`LblevAuction` compiled for one report profile.

    The referral tree, the checked exponent table and the subtree maxima
    are built once, and the profile must pass :func:`_check_power_range`.
    While the path child wins, each level of an agent's root path is
    reached at one offset, so all of it but its ``rho`` is constant: the
    first :meth:`curve` call for the agent plans the path, and a point
    then costs one ``rho``, one ``rho**t`` and one comparison per level,
    with :func:`_run_levels`' float operations.
    """

    def __init__(self, mech: "LblevAuction", net: DiffusionNetwork, reports: ReportProfile):
        super().__init__(mech, net, reports)
        self.tree = tree = build_referral_tree(net, reports)
        self._texp = exponent_table(mech.exponents, tree.agents())
        self._values = {i: reports.value(i) for i in tree.agents()}
        self._top = max(self._values.values(), default=0.0)   # the largest checked value
        _check_power_range(self._texp, self._top)
        self._submax = subtree_values(tree, self._values)
        self._plans: dict[int, tuple] = {}

    def _plan(self, agent: int) -> tuple:
        """(are all other values 0, the path levels top-down, the agent's
        own level: its least value that keeps the item, and its net payment
        when it sells).  A level is (child, t, the child's subtree maximum
        leaving out the agent, the best surviving sibling's (rho**t, id,
        rho) or None, the child's payment when it wins or None when the
        parent keeps the item); the plan ends at the first kept level, and
        then no point reaches the own level, which is None."""
        tree, texp, submax, values = self.tree, self._texp, self._submax, self._values
        best = subtree_values(tree, {**values, agent: -math.inf})   # leaving out the agent
        path = [agent]
        while (parent := tree.parent[path[-1]]) != tree.root:
            path.append(parent)
        levels, pay, own = [], 0.0, None
        for node in reversed(path):   # top-down, at each offset
            parent = tree.parent[node]
            rivals = [(s, r if r >= 0.0 else 0.0) for s in tree.child_tuple(parent)
                      if s != node and (r := submax[s] - pay) >= -EQ_TOL]
            rival = min(((r ** texp[s], s, r) for s, r in rivals),
                        key=lambda e: (-e[0], e[1]), default=None)
            z = rival[2] ** (texp[rival[1]] / texp[node]) if rival else 0.0
            pay = None if parent != tree.root and values[parent] >= pay + z - EQ_TOL else pay + z
            levels.append((node, texp[node], best[node], rival, pay))
            if pay is None:
                break   # the parent keeps the item: no point gets below it
        else:
            survivors = [(c, rho if rho >= 0.0 else 0.0) for c in tree.child_tuple(agent)
                         if (rho := submax[c] - pay) >= -EQ_TOL]
            z = _rank_level(texp, survivors)[1] if len(survivors) >= 2 else 0.0
            own = (pay + z - EQ_TOL, pay - (pay + z)) if survivors else (-math.inf, 0.0)
        others_zero = all(v == 0.0 for i, v in values.items() if i != agent)
        self._plans[agent] = (others_zero, levels, own)
        return self._plans[agent]

    def curve(self, agent: int, xs: Iterable[float]) -> list[tuple[float, float]]:
        """As :meth:`Compiled.curve`; an agent outside the reached tree
        gets (0, 0).  Each value is checked as :class:`Report` checks it,
        and the largest against :func:`_check_power_range`."""
        xs = [float(x) for x in xs]
        for x in xs:
            if not 0 <= x < math.inf:
                raise InstanceError(f"reported valuation {x} is not a finite non-negative number")
        if agent not in self._values:
            return [(0.0, 0.0)] * len(xs)
        if (top := max(xs, default=0.0)) > self._top:   # the bound grows with it
            _check_power_range(self._texp, top)
            self._top = top
        others_zero, levels, own = self._plans.get(agent) or self._plan(agent)
        out = []
        for x in xs:
            pay = 0.0
            for child, t, best, rival, price in levels:
                # the child's subtree maximum less the offset; where x ties best,
                # the two differ at most in the sign of a zero, which no price shows
                rho = (best if best > x else x) - pay
                if rho < -EQ_TOL or rival and ((key := (rho if rho >= 0.0 else 0.0) ** t)
                                               < rival[0] or key == rival[0] and child > rival[1]):
                    pay = None   # the child is out of the level, or a sibling outranks it
                    break
                pay = price   # None at a last level whose parent keeps the item
            if pay is None or others_zero and x == 0.0:   # all values 0: unsold
                out.append((0.0, 0.0))
            else:   # only its own level's keep test reads x
                out.append((1.0, pay) if x >= own[0] else (0.0, own[1]))
        return out

    @cached_property
    def _flat(self) -> tuple:
        """The tree as columns, its agents in id order: (agents, exponent
        vector, (node column, child columns sorted by id) of each internal
        node, children first, the root's child columns, and the descent
        levels, parents first, as (node column or None for the root, child
        columns, internal child columns))."""
        tree, agents = self.tree, sorted(self._texp)
        col = {a: k for k, a in enumerate(agents)}

        def kids(node: int) -> np.ndarray:
            return np.array(sorted(col[c] for c in tree.child_tuple(node)), dtype=np.intp)

        post = [(col[a], kids(a)) for a in tree.post_order() if tree.child_tuple(a)]
        first = kids(tree.root)
        internal = {node for node, _ in post}
        levels = [(node, kids_in_order, [c for c in kids_in_order if c in internal])
                  for node, kid_cols in [(None, first)] + post[::-1]
                  if (kids_in_order := kid_cols.tolist())]
        return agents, np.array([self._texp[a] for a in agents]), post, first, levels

    def outcomes(self, ids: Sequence[int], matrix: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`run_lblev` on every row of ``matrix``, whose columns
        follow ``ids``; every tree agent needs a column.  Returns (winner
        id, -1 when unsold [S]; net payments [S, len(ids)], zero for agents
        outside the tree; seller revenue [S]).

        All rows are priced on the columns of :attr:`_flat`, with one numpy
        step per tree node instead of one Python descent per row.  It works
        agent-major, on ``[n, S]`` arrays where each agent's draws are one
        contiguous row, and transposes only the payments back.  Each draw
        carries its own current parent and offset.  A level scans its
        children in id order, one 1-D column each, keeping the top two
        ``rho**t`` per draw; a strict ``>`` keeps the smaller id on ties,
        as argmax's first maximum and :func:`_rank_level` do.  The
        comparisons, ties and tolerances are those of :func:`_run_levels`;
        only ``**`` may round differently from libm in the last ulp.  Each
        ``rho**t`` gets its exponent as a full-length array: a scalar one,
        or one broadcast from length 1, sends numpy's ``**`` down
        sqrt/square fast paths for ``t`` = 0.5 or 2, which round
        differently from its ``power`` loop.  A matrix that fails
        :func:`_check_power_range` raises as a whole.
        """
        agents, texp, post, first, levels = self._flat
        matrix = _draw_matrix(ids, matrix)
        cols = _columns(ids, agents)
        values = matrix.T[cols]     # [n, S]: one contiguous row of draws per agent
        _check_power_range(self._texp, float(values.max(initial=0.0)))
        submax = values.copy()
        for node, kids in post:
            np.maximum(submax[node], submax[kids].max(axis=0), out=submax[node])

        gross = np.zeros(values.shape)       # each path node's payment to its parent
        offset = np.zeros(values.shape[1])
        winner = np.full(values.shape[1], -1)
        pending = {None: np.flatnonzero(values.any(axis=0))}   # all-zero rows: unsold
        for node, kids, inner in levels:
            rows = pending.pop(node, None)
            if rows is None or not rows.size:
                continue
            off = offset[rows]
            # top two rho**t per draw; a dead child (rho < -EQ_TOL) scores -inf
            for k, c in enumerate(kids):
                rho = submax[c, rows] - off
                key = np.where(rho >= -EQ_TOL,
                               np.maximum(rho, 0.0) ** np.full(rows.size, texp[c]), -np.inf)
                if not k:
                    best = runner = np.full(rows.size, c)
                    best_key, runner_key = key, np.full(rows.size, -np.inf)
                    continue
                top = key > best_key
                runner = np.where(top, best, np.where(key > runner_key, c, runner))
                runner_key = np.where(top, best_key, np.maximum(runner_key, key))
                best, best_key = np.where(top, c, best), np.maximum(best_key, key)
            rho = np.maximum(submax[runner, rows] - off, 0.0)
            z = np.where(np.isfinite(runner_key), rho ** (texp[runner] / texp[best]), 0.0)
            price = off + z
            sold = best_key > -np.inf   # the best child is alive
            if node is not None:
                # unless the parent keeps the item rather than sell at offset + z
                sold &= values[node, rows] < price - EQ_TOL
            moved, won, price = rows[sold], best[sold], price[sold]
            gross[won, moved] = price
            offset[moved] = price
            winner[moved] = won
            for child in inner:
                pending[child] = moved[won == child]

        payments = gross.copy()
        for node, kids in post:
            # off-path children carry 0, so the sum is the path child's payment
            payments[node] -= gross[kids].sum(axis=0)
        full = np.zeros(matrix.shape)
        full[:, cols] = payments.T
        # column -1 (unsold) picks the appended -1
        ids_or_unsold = np.array(agents + [-1])
        return ids_or_unsold[winner], full, gross[first].sum(axis=0)


class Mechanism:
    """A diffusion auction runnable on a network plus a report profile.

    ``compile`` is the one per-agent hook: it fixes a report profile, and
    the :class:`Compiled` result prices one agent's (allocation, payment)
    at many own values, which is all the incentive checks read, or many
    value draws for the Monte Carlo estimators.  The default prices each
    point with :meth:`run`.
    """

    name = "mechanism"

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> Compiled:
        return Compiled(self, net, reports)

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        raise NotImplementedError

    def evaluate(self, net: DiffusionNetwork, reports: ReportProfile,
                 agent: int) -> tuple[float, float]:
        """One :meth:`compile` curve point at ``agent``'s report; perfbench traces it."""
        return self.compile(net, reports).curve(agent, [reports.value(agent)])[0]

    def run_on_values(self, net: DiffusionNetwork,
                      values: Mapping[int, float]) -> Outcome:
        """Run under truthful forwarding with the given valuations."""
        return self.run(net, truthful_profile(net, values))


class LblevAuction(Mechanism):
    """Wrapper running the exponential-valuation auction on the reported
    subtree of a tree network.  ``exponents=None`` gives unit exponents,
    i.e. the information-diffusion mechanism."""

    def __init__(self, exponents: Optional[Mapping[int, float]] = None):
        self.exponents = dict(exponents or {})
        self.name = "idm" if exponents is None else "lblev"

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        return self.run_with_traces(net, reports)[0]

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> LblevCurves:
        return LblevCurves(self, net, reports)

    def run_with_traces(self, net: DiffusionNetwork,
                        reports: ReportProfile) -> tuple[Outcome, list[LevelTrace]]:
        return run_lblev(build_referral_tree(net, reports), reports.values(), self.exponents)


class ReferralAuction(Mechanism):
    """Wrapper for the referral-auction family with a pluggable rule."""

    def __init__(self, rule: LevelRule):
        self.rule = rule
        self.name = f"ra:{rule.name}"

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        return self.run_with_traces(net, reports)[0]

    def run_with_traces(self, net: DiffusionNetwork,
                        reports: ReportProfile) -> tuple[Outcome, list[LevelTrace]]:
        return run_referral_auction(net, reports, self.rule)
