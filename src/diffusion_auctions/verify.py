"""Executable incentive checks for diffusion auctions.

The checks discretize the quantifiers "for all valuations, for all
forwarded subsets": valuations run over a grid that always contains 0,
the agent's reported value, and every allocation-jump threshold located
by recursive bisection; neighbor subsets run over the full powerset up
to a cap, beyond which they are sampled (always keeping the empty and
full sets).  Each check produces a :class:`VerificationReport` whose
witness, on failure, carries a concrete reproducing deviation.  Every
check but ``ir`` reads one walk over the (agent, tested subset) pairs,
:func:`_pairs`, and the checks of one call share each pair's curve table.

Conditions:

* ``monotonicity``        - allocation non-decreasing in the own value;
* ``payment-identity``    - payment equals the value-independent
  component plus ``v*g(v) - integral of g``;
* ``diffusion-constraint``- withholding neighbors cannot be funded by
  the change in value-independent payments;
* ``ddsic``               - truthful value and full forwarding each
  weakly dominate, for every true value on the grid;
* ``ic``                  - joint value/forwarding deviations;
* ``ir``                  - truthful utility is non-negative;
* ``misreport``           - ddsic point 2 reported on its own: strict
  neighbor under-reports (referral family: deviations re-route the tree).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .mechanisms import (Compiled, LevelRule, Mechanism, run_referral_auction,
                         transformed_auction_revenue)
from .network import DiffusionNetwork, InstanceError, ReportProfile

CORE_CONDITIONS = ("monotonicity", "payment-identity", "diffusion-constraint",
                   "ddsic", "ir")
ALL_CONDITIONS = CORE_CONDITIONS + ("ic", "misreport")

#: Agents with more forwarding neighbors than this get a seeded sample
#: of ``SUBSET_SAMPLES`` forwarded subsets (always keeping the empty and
#: full sets) instead of the full powerset; 2**13 subsets leave the
#: sampler room to find 256 distinct ones.
SUBSET_CAP = 12
SUBSET_SAMPLES = 256
#: Slack of the inequality checks, scaled by the largest value (at least
#: 1) everywhere but monotonicity, which compares allocations.
INEQ_TOL = 1e-6
#: Slack of the payment identity: ``INTEGRAL_ATOL + INTEGRAL_RTOL * scale``.
INTEGRAL_RTOL = 1e-4
INTEGRAL_ATOL = 1e-9
#: Mechanism evaluations one curve table may spend before it gives up.
CURVE_BUDGET = 20000


class VerificationError(RuntimeError):
    """The check machinery itself could not complete (not a failed check)."""


@dataclass(frozen=True)
class DeviationGrid:
    """Own-value grid of the deviation space plus the subset-sampling seed."""

    points: tuple[float, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.points or self.points[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.isfinite(self.points).all():
            raise ValueError("grid points must be finite")
        if list(self.points) != sorted(self.points):
            raise ValueError("grid must be sorted ascending")


def make_grid(reports: ReportProfile, size: int = 64, *, seed: int = 0) -> DeviationGrid:
    """Uniform grid of ``size`` points on [0, 2*vmax], ``vmax`` the
    largest reported value; a ``2*vmax`` that overflows is InstanceError."""
    vmax = max(max((reports.value(i) for i in reports.agents()), default=1.0), 1e-9)
    if not 2.0 * vmax < np.inf:
        raise InstanceError(f"values up to {vmax!r} overflow the deviation grid on [0, 2*vmax]")
    return DeviationGrid(points=tuple(np.linspace(0.0, 2.0 * vmax, size)), seed=seed)


@dataclass
class Witness:
    """Reproducing input for a failed check."""

    agent: int
    subset: Optional[tuple[int, ...]]
    value: Optional[float]
    lhs: float
    rhs: float
    note: str
    data: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    condition: str
    passed: bool
    witness: Optional[Witness] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"condition": self.condition, "pass": self.passed}
        if self.witness is not None:
            w = self.witness
            out["witness"] = {"agent": w.agent, "subset": None if w.subset is None else
                              list(w.subset), "value": w.value, "lhs": w.lhs, "rhs": w.rhs,
                              "note": w.note}
        return out


class _CurveTable:
    """Allocation/payment of one agent along its own-value axis, under a
    fixed forwarded subset, as the rows ``x``, ``g`` and ``p`` of one
    array sorted by own value.  The table is built from one compile of
    the mechanism for the subset: :meth:`ensure` prices a batch of points
    by one ``curve`` call, and :meth:`refine_jumps` pins each allocation
    jump within ``xtol``, so that step integrals are exact to ``xtol``,
    by a depth-first bisection of one ``point`` call per midpoint.  The
    row views are taken at each merge, and the trapezoid prefix is cached
    until the next one."""

    def __init__(self, compiled: Compiled, agent: int,
                 subset: tuple[int, ...], xtol: float):
        self._compiled, self.agent, self.subset, self._xtol = compiled, agent, subset, xtol
        self._budget = CURVE_BUDGET
        self._cols, self._prefix = np.empty((3, 0)), None
        self._rows = tuple(self._cols)

    def _exhausted(self, where: str) -> VerificationError:
        return VerificationError(
            f"curve evaluation budget of {CURVE_BUDGET} exhausted for agent "
            f"{self.agent} forwarding to {self.subset} while {where}")

    def _merge(self, xs: Sequence[float], g: Sequence[float], p: Sequence[float]) -> None:
        """Merge priced points, none of them held yet, by one stable sort."""
        cols = np.concatenate((self._cols, np.array((xs, g, p), dtype=float)), axis=1)
        self._cols = cols = cols[:, np.argsort(cols[0], kind="stable")]
        self._rows, self._prefix = tuple(cols), None

    def ensure(self, points: Sequence[float]) -> None:
        """Price the points not held yet, in their first-seen order."""
        xs, held = np.asarray(points, dtype=float), self._rows[0]
        if held.size:
            xs = xs[held[np.searchsorted(held, xs).clip(max=held.size - 1)] != xs]
        new = list(dict.fromkeys(xs.tolist()))
        if len(new) > self._budget:
            raise self._exhausted(f"pricing {len(new)} points in [{min(new)!r}, {max(new)!r}]")
        if new:
            self._budget -= len(new)
            self._merge(new, *zip(*self._compiled.curve(self.agent, new)))

    def refine_jumps(self) -> None:
        """Bisect every interval whose endpoint allocations differ until
        each jump is bracketed within ``xtol``: depth-first, leftmost
        bracket first, one ``point`` call per midpoint.  A bracket
        ``(a, g_a, b, g_b)`` carries its endpoints' allocations, and all
        midpoints are merged at the end.  Each split depends only on its
        two endpoints, so the points do not depend on the order."""
        x, g, _ = self._rows
        xtol, point, agent, budget = self._xtol, self._compiled.point, self.agent, self._budget
        at = ((x[1:] - x[:-1] > xtol) & (np.abs(g[1:] - g[:-1]) > 1e-12)).nonzero()[0]
        stack = list(zip(*(col[at + d].tolist() for d in (0, 1) for col in (x, g))))[::-1]
        priced = []
        while stack:
            a, g_a, b, g_b = stack.pop()
            if not budget:
                raise self._exhausted(
                    f"splitting [{a!r}, {b!r}] (allocation appears pathological)")
            budget -= 1
            m = 0.5 * (a + b)
            g_m, p_m = point(agent, m)
            priced.append((m, g_m, p_m))
            if b - m > xtol and abs(g_b - g_m) > 1e-12:
                stack.append((m, g_m, b, g_b))
            if m - a > xtol and abs(g_m - g_a) > 1e-12:
                stack.append((a, g_a, m, g_m))
        self._budget = budget
        if priced:
            self._merge(*zip(*priced))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sampled own values in order, with ``g`` and ``p`` at each."""
        return self._rows

    def prefix(self) -> np.ndarray:
        """``prefix()[k]`` integrates ``g`` by trapezoids up to the ``k``-th
        sampled point, summed left to right as a sequential loop would."""
        if self._prefix is None:
            xs, g, _ = self._rows
            seg = 0.5 * (g[:-1] + g[1:]) * (xs[1:] - xs[:-1])
            self._prefix = np.add.accumulate(np.concatenate(([0.0], seg)))
        return self._prefix


class _Context:
    """Shared evaluation cache across the checks of one instance: one
    curve table per (agent, forwarded subset), and one compile of the
    reported profile, made when first needed, that every full-forwarding
    table and the ``ir`` check read.  Only a withholding subset compiles
    its own profile."""

    def __init__(self, mech: Mechanism, net: DiffusionNetwork,
                 reports: ReportProfile, grid: DeviationGrid):
        self.mech, self.net, self.reports, self.grid = mech, net, reports, grid
        self.vmax = max([1.0, *(reports.value(i) for i in reports.agents())])
        # jump brackets this tight keep step-integral error far below the
        # 1e-9 tolerances the worked-example checks are held to
        self.xtol = 1e-12 * self.vmax
        self.tol = INEQ_TOL * self.vmax
        self._tables: dict[tuple[int, frozenset[int]], _CurveTable] = {}
        self._subsets: dict[int, list[frozenset[int]]] = {}

    def subsets(self, agent: int) -> list[frozenset[int]]:
        """Tested forwarded subsets for ``agent``, sampled beyond ``SUBSET_CAP``."""
        if agent not in self._subsets:
            members = sorted(self.reports.neighbors(agent))
            if len(members) <= SUBSET_CAP:
                self._subsets[agent] = [frozenset(c)
                                        for r in range(len(members) + 1)
                                        for c in itertools.combinations(members, r)]
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence([self.grid.seed, agent]))
                chosen = {frozenset(), frozenset(members)}
                while len(chosen) < SUBSET_SAMPLES:
                    mask = rng.integers(0, 2, size=len(members)).astype(bool)
                    chosen.add(frozenset(m for m, keep in zip(members, mask) if keep))
                self._subsets[agent] = sorted(chosen, key=lambda s: (len(s), sorted(s)))
        return self._subsets[agent]

    @cached_property
    def reported(self) -> Compiled:
        """The mechanism compiled for the reported profile."""
        return self.mech.compile(self.net, self.reports)

    def table(self, agent: int, subset: frozenset[int]) -> _CurveTable:
        table = self._tables.get((agent, subset))
        if table is None:
            compiled = (self.reported if subset == self.reports.neighbors(agent) else
                        self.mech.compile(self.net, self.reports.replace(agent, neighbors=subset)))
            table = _CurveTable(compiled, agent, tuple(sorted(subset)), self.xtol)
            table.ensure([*self.grid.points, 0.0, self.reports.value(agent)])
            table.refine_jumps()
            self._tables[agent, subset] = table
        return table


def _pairs(ctx: _Context, *, full: bool = False, withholding: bool = False
           ) -> Iterator[tuple[_CurveTable, Optional[_CurveTable]]]:
    """Each tested (agent, subset) pair's table, agents in id order and
    subsets in ``ctx.subsets`` order, with the agent's full-forwarding
    table (priced at its first pair) if ``full``, else None.
    ``withholding`` skips each agent's full subset."""
    for agent in ctx.net.sorted_agents():
        neighbors, t_full = ctx.reports.neighbors(agent), None
        for subset in ctx.subsets(agent):
            if withholding and subset == neighbors:
                continue
            if full and t_full is None:
                t_full = ctx.table(agent, neighbors)
            yield ctx.table(agent, subset), t_full


def _report(condition: str, witness: Optional[Witness],
            details: Optional[dict] = None) -> VerificationReport:
    return VerificationReport(condition=condition, passed=witness is None,
                              witness=witness, details=details or {})


def _common_points(t_sub: _CurveTable, t_full: _CurveTable) -> None:
    """Evaluate both tables on the sorted union of their points;
    afterwards each holds exactly these points, so their columns align
    by index."""
    x_sub, x_full = t_sub.arrays()[0], t_full.arrays()[0]
    if not np.array_equal(x_sub, x_full):   # each prices the other's extra points
        t_sub.ensure(x_full)
        t_full.ensure(x_sub)


def _forwarding_gain(t_sub: _CurveTable, t_full: _CurveTable, tol: float,
                     note: str) -> Optional[Witness]:
    """The witness at the first own value at which forwarding only
    ``t_sub``'s subset beats full forwarding by more than ``tol``; None
    when full forwarding weakly dominates at every common point."""
    _common_points(t_sub, t_full)
    xs, g_sub, p_sub = t_sub.arrays()
    _, g_full, p_full = t_full.arrays()
    u_full, u_sub = xs * g_full - p_full, xs * g_sub - p_sub
    gains = (u_sub > u_full + tol).nonzero()[0]
    if not gains.size:
        return None
    k, x = gains[0], float(xs[gains[0]])
    return Witness(agent=t_sub.agent, subset=t_sub.subset, value=x, lhs=float(u_full[k]),
                   rhs=float(u_sub[k]), note=note, data={"true_value": x})


def _value_deviation(t_true: _CurveTable, t_dev: _CurveTable, tol: float,
                     note: str) -> Optional[Witness]:
    """The witness at the true value among ``t_true``'s points where some
    report of ``t_dev`` beats the truthful report of ``t_true`` the most,
    if by more than ``tol``, at that best report; None otherwise."""
    xs, g_true, p_true = t_true.arrays()
    ys, g, p = t_dev.arrays()
    truthful = xs * g_true - p_true
    gaps = _best_response(xs, g, p) - truthful
    k = int(np.argmax(gaps))
    if gaps[k] > tol:
        utilities = xs[k] * g - p
        y = int(np.argmax(utilities))
        return Witness(agent=t_dev.agent, subset=t_dev.subset, value=float(ys[y]),
                       lhs=float(truthful[k]), rhs=float(utilities[y]), note=note,
                       data={"true_value": float(xs[k])})
    return None


def _best_response(xs: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``(xs[:, None] * g - p).max(axis=1)``: the best utility at each
    true value over the reports (g, p), from each distinct allocation's
    least payment only.  Rounded subtraction is monotone, so the maxima
    are exact."""
    order = np.argsort(g, kind="stable")
    levels = g[order]
    starts = np.concatenate(([True], levels[1:] != levels[:-1])).nonzero()[0]
    least = np.minimum.reduceat(p[order], starts)
    return (xs[:, None] * levels[starts] - least).max(axis=1)


def _monotonicity_impl(ctx: _Context) -> VerificationReport:
    for table, _ in _pairs(ctx):
        xs, g, _ = table.arrays()
        drop = np.nonzero(g[1:] < g[:-1] - INEQ_TOL)[0]
        if drop.size:
            k = int(drop[0])
            return _report("monotonicity", Witness(
                agent=table.agent, subset=table.subset, value=float(xs[k + 1]),
                lhs=float(g[k]), rhs=float(g[k + 1]),
                note="allocation decreases in the own value",
                data={"value_lo": float(xs[k])}))
    return _report("monotonicity", None)


def _identity_impl(ctx: _Context) -> VerificationReport:
    for table, _ in _pairs(ctx):
        xs, g, p = table.arrays()
        payment_at_zero = float(p[0])   # xs[0] is 0.0: grids start there, table() adds it
        expected = payment_at_zero + xs * g - table.prefix()
        scale = np.maximum(np.maximum(1.0, np.abs(expected)), np.abs(p))
        bad = (np.abs(p - expected) > INTEGRAL_ATOL + INTEGRAL_RTOL * scale).nonzero()[0]
        if bad.size:
            k = bad[0]
            return _report("payment-identity", Witness(
                agent=table.agent, subset=table.subset, value=float(xs[k]),
                lhs=float(p[k]), rhs=float(expected[k]),
                note="payment differs from the threshold integral form",
                data={"payment_at_zero": payment_at_zero}))
    return _report("payment-identity", None)


def _diffusion_impl(ctx: _Context) -> VerificationReport:
    """Details map each (agent, forwarded subset) to its ``lhs``, the
    largest and final ``rhs``, and ``rhs_by_value`` at the grid points."""
    grid = np.asarray(ctx.grid.points)
    details, witness = {}, None
    for t_sub, t_full in _pairs(ctx, full=True, withholding=True):
        _common_points(t_sub, t_full)
        lhs = float(t_sub.arrays()[2][0] - t_full.arrays()[2][0])
        rhs = t_sub.prefix() - t_full.prefix()
        xs = t_sub.arrays()[0]
        over = (rhs > lhs + ctx.tol).nonzero()[0]
        if over.size and witness is None:
            witness = Witness(
                agent=t_sub.agent, subset=t_sub.subset, value=float(xs[over[0]]),
                lhs=lhs, rhs=float(rhs[over[0]]),
                note="withholding is funded beyond the allocation gap")
        # every table holds the grid, so each grid point has an index
        on_grid = np.searchsorted(xs, grid)
        details[(t_sub.agent, t_sub.subset)] = {
            "lhs": lhs, "rhs_max": float(rhs.max()), "rhs_final": float(rhs[-1]),
            "rhs_by_value": dict(zip(xs[on_grid].tolist(), rhs[on_grid].tolist()))}
    return _report("diffusion-constraint", witness, details)


def _ddsic_points(ctx: _Context, point1: bool = True) -> Iterator[tuple[int, Optional[Witness]]]:
    """(point, witness) of each ddsic test in order.  Point 1: at every true
    value, reporting it beats any other report under the same forwarding
    choice.  Point 2: at every true value, full forwarding beats each
    withholding subset; without ``point1`` it runs alone."""
    for table, t_full in _pairs(ctx, full=True, withholding=not point1):
        if point1:
            yield 1, _value_deviation(table, table, ctx.tol,
                                      "value misreport beats the truthful report")
        if table is not t_full:
            yield 2, _forwarding_gain(table, t_full, ctx.tol,
                                      "withholding neighbors beats full forwarding")


def _ddsic_impl(ctx: _Context) -> VerificationReport:
    for point, witness in _ddsic_points(ctx):
        if witness is not None:
            witness.data["point"] = point
            return _report("ddsic", witness)
    sampled = [a for a in ctx.net.sorted_agents() if len(ctx.reports.neighbors(a)) > SUBSET_CAP]
    return _report("ddsic", None, {"sampled_agents": sampled} if sampled else {})


def _ic_impl(ctx: _Context) -> VerificationReport:
    """Joint value/forwarding deviations against the truthful full report."""
    for table, t_full in _pairs(ctx, full=True):
        witness = _value_deviation(t_full, table, ctx.tol,
                                   "joint deviation beats the truthful full report")
        if witness is not None:
            return _report("ic", witness)
    return _report("ic", None)


def _ir_impl(ctx: _Context) -> VerificationReport:
    details = {}
    compiled = ctx.reported
    for agent in ctx.net.sorted_agents():
        g, p = compiled.point(agent, ctx.reports.value(agent))
        utility = ctx.reports.value(agent) * g - p
        details[agent] = utility
        if utility < -ctx.tol:
            return _report("ir", Witness(
                agent=agent, subset=None, value=ctx.reports.value(agent),
                lhs=utility, rhs=0.0,
                note="truthful participation yields negative utility"),
                {"utilities": details})
    return _report("ir", None, {"utilities": details})


def _misreport_impl(ctx: _Context) -> VerificationReport:
    """ddsic point 2 reported on its own: strict neighbor under-reports,
    which on general networks re-route the referral tree."""
    witness = next((w for _, w in _ddsic_points(ctx, point1=False) if w is not None), None)
    if witness is not None:
        witness.note = "strict neighbor under-report raises utility"
    return _report("misreport", witness)


_IMPLS = {
    "monotonicity": _monotonicity_impl,
    "payment-identity": _identity_impl,
    "diffusion-constraint": _diffusion_impl,
    "ddsic": _ddsic_impl,
    "ic": _ic_impl,
    "ir": _ir_impl,
    "misreport": _misreport_impl,
}


def verify_mechanism(mech: Mechanism, net: DiffusionNetwork,
                     reports: ReportProfile, grid: Optional[DeviationGrid] = None,
                     conditions: Sequence[str] = CORE_CONDITIONS) -> list[VerificationReport]:
    """The one entry point of the grid checks: one report per condition,
    in order, with curve tables shared across the conditions.  ``grid``
    defaults to :func:`make_grid` of ``reports``.  An unknown condition
    raises ``ValueError`` before any check runs."""
    if unknown := [c for c in conditions if c not in _IMPLS]:
        raise ValueError(f"unknown conditions {unknown}; known: {list(ALL_CONDITIONS)}")
    grid = grid or make_grid(reports)
    ctx = _Context(mech, net, reports, grid)
    return [_IMPLS[c](ctx) for c in conditions]


def check_ta_equivalence(net: DiffusionNetwork, reports: ReportProfile,
                         rule: LevelRule) -> VerificationReport:
    """Seller revenue of the referral run must equal the transformed
    auction's first-level threshold payment, as the same expression."""
    outcome, _ = run_referral_auction(net, reports, rule)
    ta = transformed_auction_revenue(net, reports, rule)
    details = {"referral_revenue": outcome.seller_revenue, "ta_revenue": ta}
    if outcome.seller_revenue != ta:
        return _report("ta-equivalence", Witness(
            agent=-1, subset=None, value=None,
            lhs=outcome.seller_revenue, rhs=ta,
            note="referral revenue differs from the transformed auction"),
            details)
    return _report("ta-equivalence", None, details)


def replay_witness(mech: Mechanism, net: DiffusionNetwork,
                   reports: ReportProfile, report: VerificationReport) -> bool:
    """Re-derive a failed check's violation from its witness alone."""
    w = report.witness
    if w is None:
        return False
    cond = report.condition

    def point(agent, subset, value):   # None keeps the reported subset or value
        return mech.evaluate(net, reports.replace(agent, value=value, neighbors=subset), agent)

    if cond == "monotonicity":
        g_lo, _ = point(w.agent, w.subset, w.data["value_lo"])
        g_hi, _ = point(w.agent, w.subset, w.value)
        return g_lo > g_hi
    if cond == "ir":
        g, p = point(w.agent, None, None)
        return reports.value(w.agent) * g - p < 0
    if cond in ("ddsic", "ic", "misreport"):
        # at true value x, reporting (w.subset, w.value) beats the truthful
        # report, which forwards to every neighbor except under ddsic point
        # 1; a point-2 (or misreport) witness's value is x itself
        x = w.data["true_value"]
        truthful = w.subset if w.data.get("point") == 1 else reports.neighbors(w.agent)
        g_t, p_t = point(w.agent, truthful, x)
        g_d, p_d = point(w.agent, w.subset, w.value)
        return x * g_d - p_d > x * g_t - p_t
    if cond in ("payment-identity", "diffusion-constraint"):
        ctx = _Context(mech, net, reports, make_grid(reports))
        table = ctx.table(w.agent, frozenset(w.subset))
        table.ensure([w.value])
        table.refine_jumps()
        if cond == "diffusion-constraint":
            t_full = ctx.table(w.agent, reports.neighbors(w.agent))
            _common_points(table, t_full)   # the table already holds w.value
        x, g, p = table.arrays()
        k = np.searchsorted(x, w.value)
        if cond == "payment-identity":
            expected = float(p[0] + w.value * g[k] - table.prefix()[k])
            tol = INTEGRAL_ATOL + INTEGRAL_RTOL * max(1.0, abs(expected))
            return abs(float(p[k]) - expected) > tol
        lhs = float(p[0] - t_full.arrays()[2][0])
        return float(table.prefix()[k] - t_full.prefix()[k]) > lhs
    return False


def random_exponents(agents: Iterable[int], rng: np.random.Generator) -> dict[int, float]:
    """Per-agent exponent draws, uniform on [0.5, 3), independent of any report."""
    return {i: float(rng.uniform(0.5, 3.0)) for i in agents}
