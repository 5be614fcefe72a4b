"""Executable diffusion auctions on referral trees.

The level-by-level engine runs an auction at every level of the tree,
rooted at the seller.  Each level takes *effective valuations* (the best
report in each child's subtree less the running offset), picks a winner,
charges it the level's threshold price plus the offset, and descends.
The exponential-valuation auction scores subtrees by ``rho**t_i`` with
per-agent exponents; the referral family plugs in a monotone level rule
priced by its Myerson threshold.  Both compile to :class:`LevelCurves`,
whose step-table curves are planned through the same level rule.
"""

from __future__ import annotations

import math
import struct
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
    exponent_table,
    subtree_values,
    truthful_profile,
)


class NonMonotoneRuleError(ValueError):
    """A pluggable level rule failed the monotonicity probe."""


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
    pay: Optional[Mapping[int, float]] = None,
) -> tuple[Outcome, list[LevelTrace]]:
    """Shared descent loop and its settlement.

    ``select`` receives the surviving (node, rho) pairs of a level with
    at least two entries and returns the tentative winner and its
    effective payment, or ``None`` to decline the level entirely.
    ``pay``, the payment chain {node: payment to its parent} of levels
    decided by other means, resumes the descent below its last node.
    When every first-level subtree maximum is 0, or there is no first
    level, the item is unsold and there are no traces.
    """
    if all(submax[c] == 0.0 for c in tree.child_tuple(tree.root)):
        return Outcome({}, {}, 0.0), []
    children = tree.children
    pay = dict(pay or {})
    parent = next(reversed(pay), tree.root)
    offset = pay.get(parent, 0.0)
    traces: list[LevelTrace] = []

    while True:
        survivors, chosen = _choose(select, children.get(parent, ()), submax, offset)
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
        parent, offset = i_star, actual
        if not children.get(i_star):
            break   # reached a leaf

    return _settle(pay), traces


def _choose(select: Callable, kids: Iterable[int], submax: Mapping[int, float],
            offset: float) -> tuple[list[tuple[int, float]], Optional[tuple[int, float]]]:
    """A level's survivors at ``offset``, (node, rho clipped at 0, a -0.0
    kept), and its winner and payment: ``select``'s of two, (node, 0) of one."""
    survivors = [(child, rho if rho >= 0.0 else 0.0) for child in kids
                 if (rho := submax[child] - offset) >= -EQ_TOL]
    return survivors, (select(survivors) if len(survivors) >= 2
                       else (survivors[0][0], 0.0) if survivors else None)


def _settle(pay: Mapping[int, float]) -> Outcome:
    """The outcome of a descent's payment chain ``pay``, {node: payment to
    its parent} in descent order: its last node gets the item, each node
    pays its parent and receives the next node's payment, and the seller
    gets the first.  An empty chain leaves the item unsold."""
    if not pay:
        return Outcome({}, {}, 0.0)
    path = list(pay)
    payments = {node: pay[node] - (pay[path[k + 1]] if k + 1 < len(path) else 0.0)
                for k, node in enumerate(path)}
    return Outcome({path[-1]: 1.0}, payments, pay[path[0]], path[-1])


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


def _draw_matrix(matrix, n: int) -> np.ndarray:
    """``matrix`` as a float array of draws, one row per draw and ``n``
    columns.  Any other shape, or a negative or non-finite value, raises
    :class:`InstanceError`."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != n:
        raise InstanceError(f"a draw matrix of shape {matrix.shape} does not give one "
                            f"column to each of the {n} agents of the compiled profile")
    if not np.all(np.isfinite(matrix) & (matrix >= 0)):
        raise InstanceError("valuations must be finite non-negative numbers")
    return matrix


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
    if not all(0 <= v < math.inf for v in values.values()):
        raise InstanceError("valuations must be finite non-negative numbers")
    texp = exponent_table(exponents, tree.agents())
    submax = subtree_values(tree, values)
    top = max((submax[c] for c in tree.child_tuple(tree.root)), default=0.0)
    _check_power_range(texp, top)
    return _run_levels(tree, values, submax, partial(_rank_level, texp))


def lblev_first_level_revenues(first: Sequence[tuple[int, float]], node: Optional[int],
                               exponents: Sequence[float]) -> list[float]:
    """``run_lblev``'s seller revenue, the first-level winner's gross
    payment, under each map that gives ``node`` one of the positive finite
    ``exponents`` and every other agent 1.  ``first`` holds the tree's
    first-level (node, subtree maximum) pairs; a negative or non-finite
    maximum raises :class:`InstanceError`, as does an overflow of a
    ``rho**t`` or price.  The other nodes are ranked once; each exponent
    then costs one ``rho**t`` and at most two comparisons, on
    :func:`_rank_level`'s operands, so the revenues are identical."""
    if not all(0 <= m < math.inf for _, m in first):
        raise InstanceError("valuations must be finite non-negative numbers")
    if len(first) < 2:
        return [0.0] * len(exponents)   # a lone survivor pays the offset, 0
    # the other nodes' unit (rho**1.0, id, rho), leader a first, then b or,
    # when node is the leader's only rival, a b that node always outranks
    (a_key, a, a_rho), (b_key, b, b_rho), *_ = sorted(
        ((m ** 1.0, i, m) for i, m in first if i != node),
        key=lambda k: (-k[0], k[1])) + [(-math.inf, node, 0.0)]
    # 0.0 + z is the root level's offset + z; it also turns a z of -0.0 into 0.0
    b_price = 0.0 + b_rho ** 1.0
    if (rho := dict(first).get(node)) is None:   # every map is unit here
        return [b_price] * len(exponents)
    try:   # node outranks a and a pays; or node pays rho**(t/1.0), its key; or b pays
        return [0.0 + a_rho ** (1.0 / t) if (key := rho ** t) > a_key or key == a_key and node < a
                else 0.0 + key if key > b_key or key == b_key and node < b else b_price
                for t in exponents]
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
    exponents: Optional[Mapping[int, float]] = None

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        exps, best, top = self.exponents, None, None
        for i, v in values.items():
            if exps is not None:
                v **= exps.get(i, 1.0)
            if best is None or v > top or v == top and i < best:
                best, top = i, v
        return best


class PowerRule(ArgmaxRule):
    """Highest ``value**t_i`` wins; ties break to the smaller id."""

    def __init__(self, exponents: Mapping[int, float]):
        self.exponents = exponent_table(exponents, exponents)
        self.name = "argmax-pow"


class SecondPriceReserveRule(ArgmaxRule):
    """Highest value wins if it clears the reserve; otherwise no winner."""

    def __init__(self, reserve: float = 0.0):
        self.reserve = float(reserve)
        self.name = f"second-price-r{reserve:g}"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        best = super().winner(values)
        return best if best is not None and values[best] >= self.reserve else None


def myerson_level_payment(rule: LevelRule, winner: int,
                          rhos: Mapping[int, float]) -> float:
    """Threshold payment: the smallest value at which ``winner`` still wins.

    Computed by bisection over the winner's coordinate with everything
    else fixed, until the bracket is two adjacent floats.  Equals ``rho_w -
    integral of the win indicator`` for a deterministic monotone rule.
    Probes that detect a non-monotone rule raise :class:`NonMonotoneRuleError`.
    Every probe hands ``rule.winner`` the same mapping with only the
    winner's entry rewritten, so a rule must not keep it.
    """
    trial = dict(rhos)
    if any(v < 0 for v in trial.values()):
        raise ValueError("effective valuations must be non-negative")
    if rule.winner(trial) != winner:
        raise ValueError(f"{winner} is not the rule's winner at these values")
    rho_w, hi_probe = trial[winner], 2.0 * max(trial.values(), default=0.0)

    def wins(y: float) -> bool:
        trial[winner] = y
        return rule.winner(trial) == winner

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
    for y in (0.25 * lo, 0.5 * lo, 0.75 * lo):
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


def _rule_overflows(rule: LevelRule, agents: Iterable[int], top: float) -> bool:
    """Whether ``rule`` may overflow on a level of values up to ``top``: a
    Myerson probe reaches twice that, so it scores every agent there."""
    try:
        rule.winner(dict.fromkeys(agents, min(2.0 * top, math.nextafter(math.inf, 0.0))))
    except OverflowError:
        return True
    return False


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
    return _run_levels(tree, values, subtree_values(tree, values),
                       partial(_myerson_level, rule))


def transformed_auction_revenue(net: DiffusionNetwork, reports: ReportProfile,
                                rule: LevelRule) -> float:
    """Seller revenue of the transformed auction: :func:`run_referral_auction`
    on the depth-one network of the referral tree's first-level nodes, each
    holding the best report of its subtree."""
    tree = build_referral_tree(net, reports)
    first = frozenset(tree.child_tuple(tree.root))
    star = DiffusionNetwork(net.seller, first, {net.seller: first})
    best = {i: max(reports.value(j) for j in tree.subtree(i)) for i in first}
    return run_referral_auction(star, truthful_profile(star, best), rule)[0].seller_revenue


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
    if not all(0 <= b < math.inf for b in bids):
        raise ValueError("bids must be non-negative and finite")
    if all(b == 0 for b in bids):
        return Outcome({}, {}, 0.0)
    order = sorted(zip(ids, bids), key=lambda ib: (-ib[1], ib[0]))
    (hi, _), (mid, mid_bid), (lo, _) = order
    transfer = mid_bid / 3.0
    allocation = {hi: 2.0 / 3.0, mid: 1.0 / 3.0, lo: 0.0}
    payments = {hi: transfer, mid: 0.0, lo: -transfer}
    return Outcome(allocation, payments, 0.0, None)


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")   # a double, and its bit pattern


def _least_win(price: Callable[[float], Optional[float]], offset: float,
               x: float) -> tuple[float, Optional[float]]:
    """The least x from which ``price`` is not None, and the price z there,
    or (inf, None).  Above 0, z is the price at inf, or, if that is a
    threshold bisected from an infinite bid, at ``x`` doubled until it
    wins.  A gallop from ``offset + z`` (less EQ_TOL if z is 0, as for a
    lone survivor), then a bisection, search the doubles' bit patterns."""
    if (z := price(0.0)) is not None:
        return 0.0, z
    if (z := price(math.inf)) is None:
        return math.inf, None
    if z == math.inf:
        while (z := price(x)) is None:
            x += x
    lo, hi, step, seen = 0, 0x7FF0000000000000, 1, set()   # hi: inf's bit pattern
    k = min(max(_I64.unpack(_F64.pack(offset + z if z else offset - EQ_TOL))[0], 1), hi)
    while hi - lo > 1:   # non-negative doubles order as their bit patterns do
        won = (p := price(_F64.unpack(_I64.pack(k))[0])) is not None
        lo, hi, z = (lo, k, p) if won else (k, hi, z)
        seen.add(won)   # gallop away from the start until a probe turns, then bisect
        k = (lo + hi) // 2 if len(seen) == 2 else hi - step if won else lo + step
        k, step = lo + 1 if k <= lo else hi - 1 if k >= hi else k, 2 * step
    return _F64.unpack(_I64.pack(hi))[0], z


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

    def point(self, agent: int, x: float) -> tuple[float, float]:
        """``curve(agent, [x])[0]``: one own value's (allocation, payment)."""
        return self.curve(agent, [x])[0]

    def jumps(self, agent: int) -> tuple[float, ...]:
        """Own values x > 0 where ``agent``'s curve may step; none by default."""
        return ()

    def outcomes(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Price every row of ``matrix`` as the values of the compiled
        profile's n agents, one column each in id order.  Returns (winner
        id, -1 when unsold [S]; net payments [S, n]; seller revenue [S])."""
        ids = sorted(self.reports.agents())
        matrix = _draw_matrix(matrix, len(ids))
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

    def revenues(self, matrix: np.ndarray) -> np.ndarray:
        """Seller revenue of every row of ``matrix``, as :meth:`outcomes`."""
        return self.outcomes(matrix)[2]


class LevelCurves(Compiled):
    """A level-by-level auction compiled for one report profile, on its
    referral tree and the level rule ``select`` of :func:`_run_levels`.
    While the path child wins, each level of an agent's root path is met at
    a fixed offset, and a monotone rule's win is a step in the own value x.
    So a curve is a step table: (0, 0) below the least x that wins every
    level, a sale's net payment up to the keep threshold, then (1, payment).
    ``check(top)`` raises where :meth:`run` rejects values up to ``top``, and
    is true where they may overflow the rule; there, past every checked
    value, one :meth:`run` prices each point of a batch."""

    _NEVER = (math.inf, math.inf, None, None)   # (0, 0) at every own value

    def __init__(self, mech: "Mechanism", net: DiffusionNetwork, reports: ReportProfile,
                 tree: ReferralTree, select: Callable, check: Callable):
        super().__init__(mech, net, reports)
        self.tree, self._select, self._check = tree, select, check
        self._values = {i: reports.value(i) for i in tree.agents()}
        self._top = max(self._values.values(), default=0.0)   # the largest checked value
        self._steps: dict[int, tuple] = {}

    def _plan(self, agent: int) -> tuple:
        """(least winning x, keep threshold, (1, payment), (0, net payment
        of a sale)).  A path child's rho is ``max(best, x) - offset``, with
        ``best`` its subtree maximum leaving out the agent, so ``select``
        prices each level alike at any winning x.  A probe that overflows
        scores a value ``check`` rejects, so it wins at an infinite price no
        point reaches; what else ``select`` raises, it raises here."""
        tree, values, select = self.tree, self._values, self._select
        # leaving out the agent, which changes no subtree maximum off its root path
        sub = subtree_values(tree, {**values, agent: -math.inf})
        path = [agent]
        while (parent := tree.parent[path[-1]]) != tree.root:
            path.append(parent)
        # when all other values are 0, the item is unsold at x = 0
        least, offset = 0.0 if any(v for i, v in values.items() if i != agent) else 5e-324, 0.0
        for node in reversed(path):   # top-down, at each offset
            best, kids = sub[node], tree.child_tuple(parent := tree.parent[node])

            def price(x: float) -> Optional[float]:   # the child's payment if it wins at x
                sub[node] = best if best > x else x
                try:
                    chosen = _choose(select, kids, sub, offset)[1]
                except (OverflowError, InstanceError):   # lblev's rho**t or the rule's
                    return math.inf
                return chosen[1] if chosen and chosen[0] == node else None

            x_node, z = _least_win(price, offset, offset + max(1.0, *values.values()))
            least, sub[node] = max(least, x_node), best   # sub as it was
            if z is None or parent != tree.root and values[parent] >= offset + z - EQ_TOL:
                return self._NEVER   # the child wins at no x, or its parent keeps the item
            offset += z
        # a z of -inf when no child stays: the agent keeps the item at any x
        z = (_choose(select, tree.child_tuple(agent), sub, offset)[1] or (None, -math.inf))[1]
        return least, offset + z - EQ_TOL, (1.0, offset), (0.0, offset - (offset + z))

    def curve(self, agent: int, xs: Iterable[float]) -> list[tuple[float, float]]:
        """As :meth:`Compiled.curve`; a batch with one rejected value raises.
        In order: the values, the tree, ``check`` past ``_top``, the plan."""
        xs = [float(x) for x in xs]
        if bad := [x for x in xs if not 0 <= x < math.inf]:
            raise InstanceError(f"reported valuation {bad[0]} is not a finite non-negative number")
        if agent not in self._values or not xs:
            return [(0.0, 0.0)] * len(xs)
        if (top := max(xs)) > self._top:
            if self._check(top):
                return Compiled.curve(self, agent, xs)
            self._top = top   # the bound grows with x
        if (steps := self._steps.get(agent)) is None:
            steps = self._steps[agent] = self._plan(agent)
        least, keep, won, sold = steps
        return [(0.0, 0.0) if x < least else won if x >= keep else sold for x in xs]

    def jumps(self, agent: int) -> tuple[float, ...]:
        """The plan's least winning x and keep threshold, if positive and
        finite; none outside the reached tree or where the plan raises (as
        :meth:`curve` does after its own checks)."""
        if agent not in self._values:
            return ()
        try:
            steps = self._steps[agent] = self._steps.get(agent) or self._plan(agent)
        except Exception:
            return ()
        return tuple(j for j in steps[:2] if 0 < j < math.inf)

    def point(self, agent: int, x: float) -> tuple[float, float]:
        """``curve(agent, [x])[0]``, without a batch's set-up once planned."""
        if 0 <= (x := float(x)) <= self._top and (steps := self._steps.get(agent)):
            least, keep, won, sold = steps
            return (0.0, 0.0) if x < least else won if x >= keep else sold
        return self.curve(agent, [x])[0]


class LblevCurves(LevelCurves):
    """:class:`LblevAuction` compiled: :func:`_rank_level` on the checked
    exponent table, and :meth:`outcomes` on numpy columns."""

    def __init__(self, mech: "LblevAuction", net: DiffusionNetwork, reports: ReportProfile):
        tree = build_referral_tree(net, reports)
        self._texp = texp = exponent_table(mech.exponents, tree.agents())
        super().__init__(mech, net, reports, tree, partial(_rank_level, texp),
                         partial(_check_power_range, texp))
        self._check(self._top)

    @cached_property
    def _flat(self) -> tuple:
        """The tree as columns, its agents in id order: (agents, their
        columns in a draw matrix, exponent vector, (node column, child
        columns sorted by id) of each internal node, children first, the
        root's child columns, and the descent levels, parents first, as
        (node column or None for the root, child columns, internal child
        columns))."""
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
        # the tree's agents are among the profile's, whose sorted ids give the columns
        cols = np.searchsorted(sorted(self.reports.agents()), agents)
        return agents, cols, np.array([self._texp[a] for a in agents]), post, first, levels

    def outcomes(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`run_lblev` on every row of ``matrix``, as
        :meth:`Compiled.outcomes`; agents outside the tree pay nothing.

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
        agents, cols, texp, post, first, levels = self._flat
        matrix = _draw_matrix(matrix, len(self.reports.reports))
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
        """One :meth:`compile` point at ``agent``'s report."""
        return self.compile(net, reports).point(agent, reports.value(agent))

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

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> Compiled:
        tree = build_referral_tree(net, reports)
        check = partial(_rule_overflows, self.rule, tree.agents())
        if check(max((reports.value(i) for i in tree.agents()), default=0.0)):
            return Compiled(self, net, reports)   # the rule may overflow: one run per point
        return LevelCurves(self, net, reports, tree, partial(_myerson_level, self.rule), check)

    def run_with_traces(self, net: DiffusionNetwork,
                        reports: ReportProfile) -> tuple[Outcome, list[LevelTrace]]:
        return run_referral_auction(net, reports, self.rule)
