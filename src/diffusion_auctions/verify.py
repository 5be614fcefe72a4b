"""Executable incentive checks for diffusion auctions.

The checks discretize the quantifiers "for all valuations, for all
forwarded subsets": valuations run over a grid that always contains 0,
the agent's reported value, and every allocation-jump threshold located
by recursive bisection; neighbor subsets run over the full powerset up
to a cap, beyond which they are sampled (always keeping the empty and
full sets).  Each check produces a :class:`VerificationReport` whose
witness, on failure, carries a concrete reproducing deviation.

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
* ``misreport``           - strict neighbor under-reports (referral
  family: deviations re-route the tree);
* ``ta-equivalence``      - seller revenue matches the first-level
  transformed auction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .mechanisms import (Compiled, LevelRule, Mechanism, run_referral_auction,
                         transformed_auction_revenue)
from .network import DiffusionNetwork, ReportProfile

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
        if list(self.points) != sorted(self.points):
            raise ValueError("grid must be sorted ascending")


def make_grid(reports: ReportProfile, size: int = 64, *, seed: int = 0) -> DeviationGrid:
    """Uniform grid of ``size`` points on [0, 2*vmax], ``vmax`` the
    largest reported value."""
    vmax = max((reports.value(i) for i in reports.agents()), default=1.0)
    vmax = max(vmax, 1e-9)
    pts = tuple(np.linspace(0.0, 2.0 * vmax, size))
    return DeviationGrid(points=pts, seed=seed)


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
    array sorted by own value.  The mechanism is compiled once for the
    subset and each batch of new points is priced by one ``curve`` call;
    jump locations are pinned by bisection so step integrals are exact
    to ``xtol``.  The trapezoid prefix is cached until the next merge."""

    def __init__(self, compiled: Compiled, agent: int,
                 subset: tuple[int, ...], xtol: float):
        self._compiled, self.agent, self.subset, self._xtol = compiled, agent, subset, xtol
        self._budget = CURVE_BUDGET
        self._cols, self._prefix = np.empty((3, 0)), None

    def _price(self, xs: list[float], splits: Optional[list[tuple]]) -> list[tuple[float, float]]:
        """``curve`` at the new points ``xs``; ``splits[k]`` is the bracket
        ``(a, g_a, b, g_b)`` point ``k`` bisects, or None for non-midpoints.
        The error names the first bracket the budget cannot pay for."""
        if len(xs) > self._budget:
            if splits is None:
                where = f"pricing {len(xs)} points in [{min(xs)!r}, {max(xs)!r}]"
            else:
                lo, _, hi, _ = splits[self._budget]
                where = f"splitting [{lo!r}, {hi!r}]"
            raise VerificationError(
                f"curve evaluation budget of {CURVE_BUDGET} exhausted for agent "
                f"{self.agent} forwarding to {self.subset} while {where} "
                "(allocation appears pathological)")
        self._budget -= len(xs)
        return self._compiled.curve(self.agent, xs)

    def _merge(self, xs: list[float], gp: list[tuple[float, float]]) -> None:
        """Merge priced points, none of them held yet, by one stable sort."""
        cols = np.concatenate((self._cols, [xs, *zip(*gp)]), axis=1)
        self._cols = cols[:, np.argsort(cols[0], kind="stable")]
        self._prefix = None

    def ensure(self, points: Sequence[float]) -> None:
        """Price the points not held yet, in their first-seen order."""
        xs, held = np.asarray(points, dtype=float), self._cols[0]
        if held.size:
            xs = xs[held[np.searchsorted(held, xs).clip(max=held.size - 1)] != xs]
        new = list(dict.fromkeys(xs.tolist()))
        if new:
            self._merge(new, self._price(new, None))

    def refine_jumps(self) -> None:
        """Bisect every interval whose endpoint allocations differ until
        each jump is bracketed within ``xtol``, one ``curve`` call per round
        of midpoints.  A round's brackets ``(a, g_a, b, g_b)`` carry their
        endpoints' allocations, and all midpoints are merged at the end.
        Each split depends only on its two endpoints, so the points are
        those of a depth-first bisection."""
        x, g, _ = self._cols
        xtol, mids, gps = self._xtol, [], []
        at = np.flatnonzero((x[1:] - x[:-1] > xtol) & (np.abs(g[1:] - g[:-1]) > 1e-12))
        splits = list(zip(*(col[at + d].tolist() for d in (0, 1) for col in (x, g))))
        while splits:
            new = [0.5 * (a + b) for a, _, b, _ in splits]
            gp = self._price(new, splits)
            mids += new
            gps += gp
            splits = [half for (a, g_a, b, g_b), m, (g_m, _) in zip(splits, new, gp)
                      for half in ((a, g_a, m, g_m), (m, g_m, b, g_b))
                      if half[2] - half[0] > xtol and abs(half[3] - half[1]) > 1e-12]
        if mids:
            self._merge(mids, gps)

    # -- views of the sampled points ------------------------------------
    def xs(self) -> list[float]:
        return self._cols[0].tolist()

    def g_at(self, x: float) -> float:
        return float(self._cols[1, self.xs().index(x)])

    def p_at(self, x: float) -> float:
        return float(self._cols[2, self.xs().index(x)])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sampled own values in order, with ``g`` and ``p`` at each."""
        return tuple(self._cols)

    def integral_to(self, v: float) -> float:
        """Trapezoid integral of the allocation from 0 to the sampled
        point ``v`` over the sampled points."""
        return float(self.prefix()[np.searchsorted(self._cols[0], v, side="right") - 1])

    def prefix(self) -> np.ndarray:
        """``prefix()[k]`` is :meth:`integral_to` at the ``k``-th sampled
        point, summed left to right as a sequential loop would."""
        if self._prefix is None:
            xs, g, _ = self._cols
            seg = 0.5 * (g[:-1] + g[1:]) * (xs[1:] - xs[:-1])
            self._prefix = np.add.accumulate(np.concatenate(([0.0], seg)))
        return self._prefix


class _Context:
    """Shared evaluation cache across the checks of one instance."""

    def __init__(self, mech: Mechanism, net: DiffusionNetwork,
                 reports: ReportProfile, grid: DeviationGrid):
        self.mech, self.net, self.reports, self.grid = mech, net, reports, grid
        self.vmax = max([1.0, *(reports.value(i) for i in reports.agents())])
        # jump brackets this tight keep step-integral error far below the
        # 1e-9 tolerances the worked-example checks are held to
        self.xtol = 1e-12 * self.vmax
        self.tol = INEQ_TOL * self.vmax
        self._tables: dict[tuple[int, tuple[int, ...]], _CurveTable] = {}
        self.subset_cache: dict[int, tuple[list[frozenset[int]], bool]] = {}

    def agents(self) -> list[int]:
        return sorted(self.net.agents)

    def subsets(self, agent: int) -> tuple[list[frozenset[int]], bool]:
        """Tested forwarded subsets for ``agent`` and a sampled? flag."""
        if agent in self.subset_cache:
            return self.subset_cache[agent]
        full = self.reports.neighbors(agent)
        members = sorted(full)
        if len(members) <= SUBSET_CAP:
            subsets = [frozenset(c)
                       for r in range(len(members) + 1)
                       for c in itertools.combinations(members, r)]
            sampled = False
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.grid.seed, agent]))
            chosen = {frozenset(), frozenset(members)}
            while len(chosen) < SUBSET_SAMPLES:
                mask = rng.integers(0, 2, size=len(members)).astype(bool)
                chosen.add(frozenset(m for m, keep in zip(members, mask) if keep))
            subsets = sorted(chosen, key=lambda s: (len(s), sorted(s)))
            sampled = True
        self.subset_cache[agent] = (subsets, sampled)
        return subsets, sampled

    def table(self, agent: int, subset: frozenset[int]) -> _CurveTable:
        key = (agent, tuple(sorted(subset)))
        table = self._tables.get(key)
        if table is None:
            compiled = self.mech.compile(self.net, self.reports.replace(agent, neighbors=subset))
            table = _CurveTable(compiled, agent, key[1], self.xtol)
            table.ensure([*self.grid.points, 0.0, self.reports.value(agent)])
            table.refine_jumps()
            self._tables[key] = table
        return table


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
    gains = np.flatnonzero(u_sub > u_full + tol)
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
    starts = np.flatnonzero(np.concatenate(([True], levels[1:] != levels[:-1])))
    least = np.minimum.reduceat(p[order], starts)
    return (xs[:, None] * levels[starts] - least).max(axis=1)


def _monotonicity_impl(ctx: _Context) -> VerificationReport:
    for agent in ctx.agents():
        for subset in ctx.subsets(agent)[0]:
            table = ctx.table(agent, subset)
            xs, g, _ = table.arrays()
            drop = np.nonzero(g[1:] < g[:-1] - INEQ_TOL)[0]
            if drop.size:
                k = int(drop[0])
                return _report("monotonicity", Witness(
                    agent=agent, subset=tuple(sorted(subset)), value=float(xs[k + 1]),
                    lhs=float(g[k]), rhs=float(g[k + 1]),
                    note="allocation decreases in the own value",
                    data={"value_lo": float(xs[k])}))
    return _report("monotonicity", None)


def _identity_impl(ctx: _Context) -> VerificationReport:
    for agent in ctx.agents():
        for subset in ctx.subsets(agent)[0]:
            table = ctx.table(agent, subset)
            payment_at_zero = table.p_at(0.0)
            xs, g, p = table.arrays()
            expected = payment_at_zero + xs * g - table.prefix()
            scale = np.maximum(np.maximum(1.0, np.abs(expected)), np.abs(p))
            bad = np.flatnonzero(np.abs(p - expected) > INTEGRAL_ATOL + INTEGRAL_RTOL * scale)
            if bad.size:
                k = bad[0]
                return _report("payment-identity", Witness(
                    agent=agent, subset=tuple(sorted(subset)), value=float(xs[k]),
                    lhs=float(p[k]), rhs=float(expected[k]),
                    note="payment differs from the threshold integral form",
                    data={"payment_at_zero": payment_at_zero}))
    return _report("payment-identity", None)


def _diffusion_impl(ctx: _Context) -> VerificationReport:
    """Details map each (agent, forwarded subset) to its ``lhs``, the
    largest and final ``rhs``, and ``rhs_by_value`` at the grid points."""
    grid = np.asarray(ctx.grid.points)
    details, witness = {}, None
    for agent in ctx.agents():
        full = ctx.reports.neighbors(agent)
        t_full = ctx.table(agent, full)
        for subset in ctx.subsets(agent)[0]:
            if subset == full:
                continue
            t_sub = ctx.table(agent, subset)
            _common_points(t_sub, t_full)
            lhs = t_sub.p_at(0.0) - t_full.p_at(0.0)
            rhs = t_sub.prefix() - t_full.prefix()
            xs = t_sub.arrays()[0]
            over = np.flatnonzero(rhs > lhs + ctx.tol)
            if over.size and witness is None:
                witness = Witness(
                    agent=agent, subset=tuple(sorted(subset)), value=float(xs[over[0]]),
                    lhs=lhs, rhs=float(rhs[over[0]]),
                    note="withholding is funded beyond the allocation gap")
            # every table holds the grid, so each grid point has an index
            on_grid = np.searchsorted(xs, grid)
            details[(agent, tuple(sorted(subset)))] = {
                "lhs": lhs, "rhs_max": float(rhs.max()), "rhs_final": float(rhs[-1]),
                "rhs_by_value": dict(zip(xs[on_grid].tolist(), rhs[on_grid].tolist()))}
    return _report("diffusion-constraint", witness, details)


def _ddsic_impl(ctx: _Context) -> VerificationReport:
    sampled_agents = []
    for agent in ctx.agents():
        subsets, sampled = ctx.subsets(agent)
        if sampled:
            sampled_agents.append(agent)
        full = ctx.reports.neighbors(agent)
        t_full = ctx.table(agent, full)
        for subset in subsets:
            table = ctx.table(agent, subset)
            # Point 1: at every true value, reporting it beats any other
            # report under the same forwarding choice.
            witness = _value_deviation(table, table, ctx.tol,
                                       "value misreport beats the truthful report")
            if witness is not None:
                witness.data["point"] = 1
                return _report("ddsic", witness)
            if subset == full:
                continue
            # Point 2: at every true value, full forwarding beats this subset.
            witness = _forwarding_gain(table, t_full, ctx.tol,
                                       "withholding neighbors beats full forwarding")
            if witness is not None:
                witness.data["point"] = 2
                return _report("ddsic", witness)
    return _report("ddsic", None, {"sampled_agents": sampled_agents} if sampled_agents else {})


def _ic_impl(ctx: _Context) -> VerificationReport:
    """Joint value/forwarding deviations against the truthful full report."""
    for agent in ctx.agents():
        t_full = ctx.table(agent, ctx.reports.neighbors(agent))
        for subset in ctx.subsets(agent)[0]:
            witness = _value_deviation(t_full, ctx.table(agent, subset), ctx.tol,
                                       "joint deviation beats the truthful full report")
            if witness is not None:
                return _report("ic", witness)
    return _report("ic", None)


def _ir_impl(ctx: _Context) -> VerificationReport:
    details = {}
    compiled = ctx.mech.compile(ctx.net, ctx.reports)
    for agent in ctx.agents():
        [(g, p)] = compiled.curve(agent, [ctx.reports.value(agent)])
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
    """Strict neighbor under-reports; on general networks these re-route
    the referral tree."""
    for agent in ctx.agents():
        full = ctx.reports.neighbors(agent)
        if not full:
            continue
        t_full = ctx.table(agent, full)
        for subset in ctx.subsets(agent)[0]:
            if subset == full:
                continue
            witness = _forwarding_gain(ctx.table(agent, subset), t_full, ctx.tol,
                                       "strict neighbor under-report raises utility")
            if witness is not None:
                return _report("misreport", witness)
    return _report("misreport", None)


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
    defaults to :func:`make_grid` of ``reports``."""
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

    def point(agent, subset, value):
        prof = reports
        if subset is not None:
            prof = prof.replace(agent, neighbors=subset)
        if value is not None:
            prof = prof.replace(agent, value=value)
        return mech.compile(net, prof).curve(agent, [prof.value(agent)])[0]

    if cond == "monotonicity":
        g_lo, _ = point(w.agent, w.subset, w.data["value_lo"])
        g_hi, _ = point(w.agent, w.subset, w.value)
        return g_lo > g_hi
    if cond == "ir":
        g, p = point(w.agent, None, None)
        return reports.value(w.agent) * g - p < 0
    if cond in ("ddsic", "ic", "misreport"):
        x = w.data["true_value"]
        if cond == "misreport" or w.data.get("point") == 2:
            # forwarding only the subset beats full forwarding at x
            g_full, p_full = point(w.agent, tuple(sorted(reports.neighbors(w.agent))), x)
            g_sub, p_sub = point(w.agent, w.subset, x)
            return x * g_sub - p_sub > x * g_full - p_full
        base_subset = (tuple(sorted(reports.neighbors(w.agent)))
                       if cond == "ic" else w.subset)
        g_t, p_t = point(w.agent, base_subset, x)
        g_d, p_d = point(w.agent, w.subset, w.value)
        return x * g_d - p_d > x * g_t - p_t
    if cond in ("payment-identity", "diffusion-constraint"):
        ctx = _Context(mech, net, reports, make_grid(reports))
        table = ctx.table(w.agent, frozenset(w.subset))
        table.ensure([w.value])
        table.refine_jumps()
        if cond == "payment-identity":
            expected = (table.p_at(0.0) + w.value * table.g_at(w.value)
                        - table.integral_to(w.value))
            tol = INTEGRAL_ATOL + INTEGRAL_RTOL * max(1.0, abs(expected))
            return abs(table.p_at(w.value) - expected) > tol
        t_full = ctx.table(w.agent, reports.neighbors(w.agent))
        _common_points(table, t_full)   # the table already holds w.value
        lhs = table.p_at(0.0) - t_full.p_at(0.0)
        rhs = table.integral_to(w.value) - t_full.integral_to(w.value)
        return rhs > lhs
    return False


def random_exponents(agents: Iterable[int], rng: np.random.Generator) -> dict[int, float]:
    """Per-agent exponent draws, uniform on [0.5, 3), independent of any report."""
    return {i: float(rng.uniform(0.5, 3.0)) for i in agents}
