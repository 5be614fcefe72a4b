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
from functools import partial
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
    ValuesLike,
    _fill_subtree_max,
    _value_getter,
    build_referral_tree,
    subtree_values,
    truthful_profile,
    unsold_outcome,
)


class NonMonotoneRuleError(ValueError):
    """A pluggable level rule failed the monotonicity probe."""


def unit_exponents(nodes) -> dict[int, float]:
    return {i: 1.0 for i in nodes}


def _exponent(exponents: Mapping[int, float], node: int) -> float:
    t = exponents.get(node, 1.0)
    if not 0 < t < math.inf:
        raise InstanceError(f"exponent t[{node}]={t} must be positive and finite")
    return t


def exponent_table(exponents: Mapping[int, float], nodes: Iterable[int]) -> dict[int, float]:
    """Every node's exponent, 1 when omitted; non-positive or non-finite
    exponents raise :class:`InstanceError`."""
    return {i: _exponent(exponents, i) for i in nodes}


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
    values: Callable[[int], float],
    submax: Mapping[int, float],
    select: Callable[[list[tuple[int, float]]], Optional[tuple[int, float]]],
    start_parent: Optional[int] = None,
    start_offset: float = 0.0,
    record: bool = True,
) -> tuple[Optional[int], dict[int, float], list[LevelTrace]]:
    """Shared descent loop.

    ``select`` receives the surviving (node, rho) pairs of a level with
    at least two entries and returns the tentative winner and its
    effective payment, or ``None`` to decline the level entirely.
    ``start_parent``/``start_offset`` resume the descent below a level
    that was decided by other means.  Returns (winner, {path node:
    payment to its parent}, traces); the start node's own payment is not
    included.  ``record=False`` skips the traces.
    """
    children = tree.children
    parent = tree.root if start_parent is None else start_parent
    offset = start_offset
    pay: dict[int, float] = {}
    tentative: Optional[int] = None if parent == tree.root else parent
    traces: list[LevelTrace] = []

    while True:
        survivors = []
        for child in children.get(parent, ()):
            rho = submax[child] - offset
            if rho >= -EQ_TOL:
                survivors.append((child, max(rho, 0.0)))
        if len(survivors) >= 2:
            chosen = select(survivors)
        elif len(survivors) == 1:
            chosen = (survivors[0][0], 0.0)
        else:
            chosen = None

        if chosen is None:
            # No child stays in the game: the current tentative winner
            # keeps the item (or the item is unsold at the root).
            if record:
                traces.append(LevelTrace(parent, offset, tuple(survivors), None, 0.0, None))
            break
        i_star, z = chosen
        if parent != tree.root and values(parent) >= offset + z - EQ_TOL:
            # The parent prefers keeping the item over selling at offset+z.
            if record:
                traces.append(LevelTrace(parent, offset, tuple(survivors), None, z, None))
            break
        actual = offset + z
        pay[i_star] = actual
        if record:
            traces.append(LevelTrace(parent, offset, tuple(survivors), i_star, z, actual))
        tentative = i_star
        parent, offset = i_star, actual
        if not children.get(i_star):
            break   # reached a leaf

    return tentative, pay, traces


def _net_payments(pay: Mapping[int, float]) -> dict[int, float]:
    """Each node of the payment chain pays its parent and receives the
    next node's payment; insertion order follows the descent."""
    path = list(pay)
    return {node: pay[node] - (pay[path[idx + 1]] if idx + 1 < len(path) else 0.0)
            for idx, node in enumerate(path)}


def _settle(tree: ReferralTree, winner: Optional[int],
            pay: Mapping[int, float]) -> Outcome:
    """Net out the payment chain along the winning path."""
    agents = tree.agents()
    allocation = {i: 0.0 for i in agents}
    payments = {i: 0.0 for i in agents}
    if winner is None:
        return Outcome(allocation, payments, 0.0, None)
    allocation[winner] = 1.0
    payments.update(_net_payments(pay))
    revenue = next(iter(pay.values()), 0.0)
    return Outcome(allocation, payments, revenue, winner)


def _complete(outcome: Outcome, agents) -> Outcome:
    """``outcome`` with zero allocation and payment for the rest of ``agents``,
    e.g. those cut off by the reported forwards."""
    allocation = {i: 0.0 for i in agents}
    payments = {i: 0.0 for i in agents}
    allocation.update(outcome.allocation)
    payments.update(outcome.payments)
    return Outcome(allocation, payments, outcome.seller_revenue, outcome.winner)


def _check_values(reports: ValuesLike) -> None:
    """A bare value map must hold finite non-negative numbers (``Report``
    already checks the values of a profile)."""
    if not isinstance(reports, ReportProfile) and not all(
            0 <= v < math.inf for v in reports.values()):
        raise InstanceError("valuations must be finite non-negative numbers")


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


def run_lblev(tree: ReferralTree, reports: ValuesLike,
              exponents: Mapping[int, float]) -> tuple[Outcome, list[LevelTrace]]:
    """Level-by-level exponential-valuation auction on a referral tree.

    At each level the subtree with the largest ``rho**t`` stays in the
    game and pays the runner-up's ``rho`` raised to the exponent ratio
    ``t_runnerup / t_winner``, on top of the running offset.  Ties break
    toward the smaller node id.  Exponents default to 1 when omitted;
    non-positive or non-finite exponents are rejected.  An empty tree or
    all-zero values leave the item unsold.
    """
    _check_values(reports)
    texp = exponent_table(exponents, tree.agents())
    values = _value_getter(reports)
    if all(values(i) == 0.0 for i in tree.agents()):
        return _settle(tree, None, {}), []
    winner, pay, traces = _run_levels(tree, values, subtree_values(tree, reports),
                                      partial(_rank_level, texp))
    return _settle(tree, winner, pay), traces


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
    so the revenues are identical.
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
    # 0.0 + z is the root level's offset + z; it also turns a z of -0.0 into 0.0
    return [0.0 + _rank_level(texp, survivors)[1] for texp in exponent_tables]


def run_idm_tree(tree: ReferralTree, reports: ValuesLike) -> Outcome:
    """Information-diffusion mechanism on a tree: the unit-exponent case."""
    outcome, _ = run_lblev(tree, reports, {})
    return outcome


class LevelKernel:
    """:func:`run_lblev` compiled for many valuation draws on one tree.

    The tree is flattened once into columns (its agents in id order):
    the internal nodes in post-order with their child columns, sorted by
    id, and the exponent vector, validated here.  :meth:`outcomes` then
    prices a whole ``values[S, n]`` matrix with one numpy step per tree
    node instead of one Python descent per row.  Each row carries its
    own current parent and offset; the comparisons, ties and tolerances
    are those of :func:`_run_levels`, only ``**`` may round differently
    from libm in the last ulp.
    """

    def __init__(self, tree: ReferralTree, exponents: Mapping[int, float]):
        self.agents = sorted(tree.agents())
        col = {a: k for k, a in enumerate(self.agents)}
        self.texp = np.array([_exponent(exponents, a) for a in self.agents])

        def kids(node: int) -> np.ndarray:
            return np.array(sorted(col[c] for c in tree.child_tuple(node)), dtype=np.intp)

        # (node column, child columns), children before parents
        self.post = [(col[a], kids(a)) for a in tree.post_order() if tree.child_tuple(a)]
        self.first = kids(tree.root)
        # Descent order, parents before children; None is the root.  The
        # third entry lists (position in kids, column) of internal children.
        internal = {node for node, _ in self.post}
        self.levels = []
        for node, kid_cols in [(None, self.first)] + self.post[::-1]:
            if kid_cols.size:
                inner = [(k, c) for k, c in enumerate(kid_cols.tolist()) if c in internal]
                self.levels.append((node, kid_cols, inner))

    def outcomes(self, ids: Sequence[int], matrix: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Price every row of ``matrix``, whose columns follow ``ids``.

        Returns (winner id, -1 when unsold [S]; net payments [S, len(ids)],
        zero for agents outside the tree; seller revenue [S]).
        """
        if not np.all(np.isfinite(matrix) & (matrix >= 0)):
            raise InstanceError("valuations must be finite non-negative numbers")
        where = {a: j for j, a in enumerate(ids)}
        try:
            cols = [where[a] for a in self.agents]
        except KeyError as exc:
            raise InstanceError(f"no value column for agent {exc}") from exc
        values = matrix[:, cols]
        rows_total, n = values.shape

        submax = values.copy()
        for node, kids in self.post:
            np.maximum(submax[:, node], submax[:, kids].max(axis=1), out=submax[:, node])

        gross = np.zeros((rows_total, n))    # each path node's payment to its parent
        offset = np.zeros(rows_total)
        winner = np.full(rows_total, -1)
        pending = {None: np.flatnonzero(values.any(axis=1))}   # all-zero rows: unsold
        for node, kids, inner in self.levels:
            rows = pending.pop(node, None)
            if rows is None or not rows.size:
                continue
            at = np.arange(rows.size)
            off = offset[rows]
            rho = submax[np.ix_(rows, kids)] - off[:, None]
            alive = rho >= -EQ_TOL
            rho = np.maximum(rho, 0.0)
            # argmax takes the first maximum: the smallest id among ties
            score = np.where(alive, rho ** self.texp[kids], -np.inf)
            best = score.argmax(axis=1)
            sold = alive[at, best]
            score[at, best] = -np.inf
            runner = score.argmax(axis=1)
            ratio = self.texp[kids[runner]] / self.texp[kids[best]]
            z = np.where(np.isfinite(score[at, runner]), rho[at, runner] ** ratio, 0.0)
            price = off + z
            if node is not None:
                # the parent keeps the item rather than sell at offset + z
                sold &= ~(values[rows, node] >= price - EQ_TOL)
            moved, pick, price = rows[sold], best[sold], price[sold]
            won = kids[pick]
            gross[moved, won] = price
            offset[moved] = price
            winner[moved] = won
            for k, child in inner:
                pending[child] = moved[pick == k]

        payments = gross.copy()
        for node, kids in self.post:
            # off-path children carry 0, so the sum is the path child's payment
            payments[:, node] -= gross[:, kids].sum(axis=1)
        full = np.zeros(matrix.shape)
        full[:, cols] = payments
        # column -1 (unsold) picks the appended -1
        ids_or_unsold = np.array(self.agents + [-1])
        return ids_or_unsold[winner], full, gross[:, self.first].sum(axis=1)


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
        if not values:
            return None
        return min(values, key=lambda i: (-values[i], i))


class PowerRule(LevelRule):
    """Highest ``value**t_i`` wins; ties break to the smaller id."""

    def __init__(self, exponents: Mapping[int, float]):
        self.exponents = dict(exponents)
        self.name = "argmax-pow"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        if not values:
            return None
        return min(values, key=lambda i: (-(values[i] ** _exponent(self.exponents, i)), i))


class SecondPriceReserveRule(LevelRule):
    """Highest value wins if it clears the reserve; otherwise no winner."""

    def __init__(self, reserve: float = 0.0):
        self.reserve = float(reserve)
        self.name = f"second-price-r{reserve:g}"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        if not values:
            return None
        best = min(values, key=lambda i: (-values[i], i))
        return best if values[best] >= self.reserve else None


class ArgminRule(LevelRule):
    """Deliberately non-monotone: lowest value wins.  Test helper."""

    name = "argmin"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        if not values:
            return None
        return min(values, key=lambda i: (values[i], i))


def myerson_level_payment(rule: LevelRule, winner: int,
                          rhos: Mapping[int, float]) -> float:
    """Threshold payment: the smallest value at which ``winner`` still wins.

    Computed by 64 bisection steps over the winner's coordinate with
    everything else fixed.  Equals ``rho_w - integral of the win
    indicator`` for a deterministic monotone rule.  Probes that detect a
    non-monotone rule raise :class:`NonMonotoneRuleError`.
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
    for _ in range(64):
        mid = 0.5 * (lo + hi)
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
    the rule declines the level."""
    level_values = dict(survivors)
    i_star = rule.winner(level_values)
    if i_star is None:
        return None
    return i_star, myerson_level_payment(rule, i_star, level_values)


def run_referral_auction(net: DiffusionNetwork, reports: ReportProfile,
                         rule: LevelRule) -> tuple[Outcome, list[LevelTrace]]:
    """Referral auction: first-invite-first-served tree, then the level
    descent with the plugged-in rule and its Myerson threshold payments.

    The rule adjudicates a level only when two or more subtrees survive;
    a lone survivor pays just the offset.  Payments and the final
    netting follow the same accounting as :func:`run_lblev`.
    """
    tree = build_referral_tree(net, reports)
    agents = tree.agents()
    if not agents or all(reports.value(i) == 0.0 for i in agents):
        return unsold_outcome(net.agents), []
    submax = subtree_values(tree, reports)
    winner, pay, traces = _run_levels(tree, reports.value, submax,
                                      partial(_myerson_level, rule))
    return _complete(_settle(tree, winner, pay), net.agents), traces


def transformed_auction_revenue(net: DiffusionNetwork, reports: ReportProfile,
                                rule: LevelRule) -> float:
    """Seller revenue of the transformed auction: replace each first-level
    subtree by a single node holding its best report, then run one round
    of the rule with its Myerson threshold payment."""
    tree = build_referral_tree(net, reports)
    first = tree.child_tuple(tree.root)
    if not first or all(reports.value(i) == 0.0 for i in tree.agents()):
        return 0.0
    submax = subtree_values(tree, reports)
    level_values = {i: submax[i] for i in first}
    if len(level_values) == 1:
        return 0.0
    i_star = rule.winner(level_values)
    if i_star is None:
        return 0.0
    return myerson_level_payment(rule, i_star, level_values)


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
        return unsold_outcome(ids)
    order = sorted(zip(ids, bids), key=lambda ib: (-ib[1], ib[0]))
    (hi, _), (mid, mid_bid), (lo, _) = order
    transfer = mid_bid / 3.0
    allocation = {hi: 2.0 / 3.0, mid: 1.0 / 3.0, lo: 0.0}
    payments = {hi: transfer, mid: 0.0, lo: -transfer}
    return Outcome(allocation, payments, 0.0, None)


class Compiled:
    """A mechanism fixed to one network and report profile, as
    :meth:`Mechanism.compile` returns it.  This default makes one
    :meth:`Mechanism.evaluate` call per point of :meth:`curve` and one
    :meth:`Mechanism.run` call per row of :meth:`outcomes`."""

    def __init__(self, mech: "Mechanism", net: DiffusionNetwork, reports: ReportProfile):
        self.mech = mech
        self.net = net
        self.reports = reports

    def curve(self, agent: int, xs: Iterable[float]) -> list[tuple[float, float]]:
        """``agent``'s (allocation, payment) at each own value in ``xs``,
        every other report held fixed."""
        return [self.mech.evaluate(self.net, self.reports.replace(agent, value=x), agent)
                for x in xs]

    def outcomes(self, ids: Sequence[int], matrix: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Price every row of ``matrix`` as the values of the agents in
        ``ids``, every other report held fixed.  Returns (winner id, -1
        when unsold [S]; net payments [S, len(ids)]; seller revenue [S])."""
        winner = np.full(len(matrix), -1)
        payments = np.zeros((len(matrix), len(ids)))
        revenue = np.zeros(len(matrix))
        reports = dict(self.reports.reports)
        for s, row in enumerate(np.asarray(matrix, dtype=float).tolist()):
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
    of the reports are built once.  Only the agent's own value changes
    along a curve, so :meth:`curve` recomputes the maxima of the agent's
    root path alone, with :func:`subtree_values`'s own loop, then runs
    :func:`run_lblev`'s descent with the same float operations and reads
    the agent's allocation and net payment without settling the whole
    outcome.
    """

    def __init__(self, mech: "LblevAuction", net: DiffusionNetwork, reports: ReportProfile):
        super().__init__(mech, net, reports)
        self.tree = tree = build_referral_tree(net, reports)
        self._texp = exponent_table(mech.exponents, tree.agents())
        self._rank = partial(_rank_level, self._texp)
        self._values = {i: reports.value(i) for i in tree.agents()}
        self._submax = subtree_values(tree, self._values)

    def curve(self, agent: int, xs: Iterable[float]) -> list[tuple[float, float]]:
        """As :meth:`Compiled.curve`; an agent outside the reached tree
        gets (0, 0).  Each value is checked as :class:`Report` checks it."""
        xs = [float(x) for x in xs]
        for x in xs:
            if not 0 <= x < math.inf:
                raise InstanceError(f"reported valuation {x} is not a finite "
                                    "non-negative number")
        if agent not in self._values:
            return [(0.0, 0.0)] * len(xs)
        tree = self.tree
        values = dict(self._values)
        submax = dict(self._submax)
        path = [agent]
        while tree.parent[path[-1]] != tree.root:
            path.append(tree.parent[path[-1]])
        others_zero = all(v == 0.0 for i, v in values.items() if i != agent)
        out = []
        for x in xs:
            if others_zero and x == 0.0:
                out.append((0.0, 0.0))   # all-zero values leave the item unsold
                continue
            values[agent] = x
            _fill_subtree_max(submax, path, values.__getitem__, tree.children)
            winner, pay, _ = _run_levels(tree, values.__getitem__, submax, self._rank,
                                         record=False)
            out.append((1.0 if winner == agent else 0.0, _net_payments(pay).get(agent, 0.0)))
        return out

    def outcomes(self, ids: Sequence[int], matrix: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All rows in one :class:`LevelKernel` pass; every tree agent needs a column."""
        return LevelKernel(self.tree, self._texp).outcomes(ids, np.asarray(matrix, dtype=float))


class Mechanism:
    """A diffusion auction runnable on a network plus a report profile.

    ``evaluate`` exposes one agent's allocation probability and payment,
    which is the only surface the incentive checks need; the default
    implementation runs the full auction.  ``compile`` fixes a report
    profile so that the checks and the Monte Carlo estimators can price
    many own values or value draws at once.
    """

    name = "mechanism"

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> Compiled:
        return Compiled(self, net, reports)

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        raise NotImplementedError

    def evaluate(self, net: DiffusionNetwork, reports: ReportProfile,
                 agent: int) -> tuple[float, float]:
        out = self.run(net, reports)
        return out.allocation.get(agent, 0.0), out.payments.get(agent, 0.0)

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
        tree = build_referral_tree(net, reports)
        outcome, traces = run_lblev(tree, reports, self.exponents)
        return _complete(outcome, net.agents), traces


class ReferralAuction(Mechanism):
    """Wrapper for the referral-auction family with a pluggable rule."""

    def __init__(self, rule: LevelRule):
        self.rule = rule
        self.name = f"ra:{rule.name}"

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        outcome, _ = run_referral_auction(net, reports, self.rule)
        return outcome

    def run_with_traces(self, net: DiffusionNetwork,
                        reports: ReportProfile) -> tuple[Outcome, list[LevelTrace]]:
        return run_referral_auction(net, reports, self.rule)
