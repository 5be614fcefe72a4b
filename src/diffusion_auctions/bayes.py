"""Bayesian layer: valuation priors, virtual valuations, the optimal
transformed auction, and Monte Carlo interim/revenue estimators.

Distributions are plain cdf/pdf/sampler bundles whose callables accept
numpy arrays, so the revenue estimators can run fully vectorized.  The
virtual valuation ``w(x) = x - (1 - F(x)) / f(x)`` (:func:`_virtual`)
is non-decreasing for hazard-monotone priors, which makes the
revenue-optimal first-level auction a "highest non-negative virtual
valuation wins, pays the smallest value that would still win" rule
(:func:`_maxviva_prices`).  Its price inverts ``w``
(:func:`_inverse_virtual`): in closed form for uniform[l, h], ``(t + h)
/ 2``, and exponential(r), ``t + 1/r`` (Myerson 1981), by bisection
for any other prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .mechanisms import (
    ArgmaxRule,
    Compiled,
    LblevAuction,
    Mechanism,
    ReferralAuction,
    SecondPriceReserveRule,
    _draw_matrix,
    _myerson_level,
    _run_levels,
)
from .network import (
    DiffusionNetwork,
    InstanceError,
    Outcome,
    ReferralTree,
    ReportProfile,
    build_referral_tree,
    subtree_values,
    truthful_profile,
)

ArrayLike = Union[float, np.ndarray]
INVERSE_TOL = 1e-10   # the bracket width at which _inverse_virtual's bisection stops


@dataclass(frozen=True)
class ValuationDistribution:
    """cdf/pdf/support/sampler bundle with a declared hazard-monotonicity
    flag.  ``upper`` may be ``math.inf``; ``sample(rng, size)`` draws
    ``size`` values.  ``inverse``, when given, is the closed form of
    :func:`_inverse_virtual` on an array of targets."""

    name: str
    upper: float
    mhr: bool
    cdf: Callable[[ArrayLike], ArrayLike]
    pdf: Callable[[ArrayLike], ArrayLike]
    sample: Callable[[np.random.Generator, int], np.ndarray]
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @cached_property
    def reserve(self) -> float:
        """The smallest value with a non-negative virtual valuation,
        computed once per distribution."""
        return float(_inverse_virtual(self, np.zeros(1))[0])


def uniform_distribution(low: float = 0.0, high: float = 1.0) -> ValuationDistribution:
    if not 0.0 <= low < high < math.inf:
        raise ValueError("need 0 <= low < high < inf")
    width = high - low

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - low) / width, 0.0, 1.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= low) & (x <= high), 1.0 / width, 0.0)

    return ValuationDistribution(
        name=f"uniform[{low:g},{high:g}]", upper=high, mhr=True,
        cdf=cdf, pdf=pdf, sample=lambda rng, size: rng.uniform(low, high, size=size),
        inverse=lambda t: np.where(t > high, t, np.maximum(low, (t + high) / 2)))


def exponential_distribution(rate: float = 1.0) -> ValuationDistribution:
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-rate * x), 0.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, rate * np.exp(-rate * x), 0.0)

    return ValuationDistribution(
        name=f"exp[{rate:g}]", upper=math.inf, mhr=True,
        cdf=cdf, pdf=pdf, sample=lambda rng, size: rng.exponential(1.0 / rate, size=size),
        inverse=lambda t: np.maximum(0.0, t + 1.0 / rate))


def truncated_normal(mean: float, sd: float) -> ValuationDistribution:
    """Normal valuation clamped at zero.  The atom at zero is ignored by
    cdf/pdf, which is harmless for the means and deviations used here
    (clamping probability is negligible).  The first cdf call imports scipy."""
    if not (math.isfinite(mean) and 0 < sd < math.inf):
        raise ValueError("need a finite mean and a positive finite sd")

    def cdf(x):
        from scipy.special import ndtr
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, ndtr((x - mean) / sd), 0.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        z = (x - mean) / sd
        return np.where(x >= 0, np.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.pi)), 0.0)

    return ValuationDistribution(
        name=f"tnorm[{mean:g},{sd:g}]", upper=math.inf, mhr=True,
        cdf=cdf, pdf=pdf,
        sample=lambda rng, size: np.maximum(rng.normal(mean, sd, size=size), 0.0))


def max_of_iid(dist: ValuationDistribution, n: int) -> ValuationDistribution:
    """Distribution of the maximum of ``n`` independent draws: cdf F**n,
    density n*F**(n-1)*f.  Preserves hazard monotonicity."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if n == 1:
        return dist

    def cdf(x):
        return np.asarray(dist.cdf(x)) ** n

    def pdf(x):
        return n * np.asarray(dist.cdf(x)) ** (n - 1) * np.asarray(dist.pdf(x))

    def sample(rng, size):
        return dist.sample(rng, size * n).reshape(size, n).max(axis=1)

    return ValuationDistribution(
        name=f"max{n}[{dist.name}]", upper=dist.upper, mhr=dist.mhr,
        cdf=cdf, pdf=pdf, sample=sample)


def _virtual(dist: ValuationDistribution, x: ArrayLike) -> ArrayLike:
    """Virtual valuation ``w(x) = x - (1 - F(x)) / f(x)``, extended to
    zero-density points: -inf below the support (the limit at the lower
    edge of e.g. max-transformed supports) and ``x`` at or above a
    bounded support's upper end, where ``1 - F = 0``."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(dist.pdf(x), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(f > 0, x - (1.0 - np.asarray(dist.cdf(x))) / np.where(f > 0, f, 1.0),
                     np.where(x >= dist.upper, x, -np.inf))
    return float(w) if np.ndim(w) == 0 else w


def check_mhr(dist: ValuationDistribution, grid_size: int = 256) -> bool:
    """True when the hazard f/(1-F) is non-decreasing on a grid up to the
    support's upper end, or an unbounded support's 0.999 quantile."""
    hi = dist.upper if math.isfinite(dist.upper) else 1.0
    while not math.isfinite(dist.upper) and float(dist.cdf(hi)) < 0.999:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"{dist.name}: cannot locate the 0.999 quantile")
    xs = np.linspace(hi * 1e-6, hi, grid_size)
    F = np.asarray(dist.cdf(xs), dtype=float)
    f = np.asarray(dist.pdf(xs), dtype=float)
    keep = (1.0 - F > 1e-12) & (f > 0)
    hazard = f[keep] / (1.0 - F[keep])
    if hazard.size < 2:
        return True
    diffs = np.diff(hazard)
    slack = 1e-9 * np.maximum(1.0, np.abs(hazard[:-1]))
    return bool(np.all(diffs >= -slack))


def _inverse_virtual(dist: ValuationDistribution, targets: np.ndarray) -> np.ndarray:
    """Smallest ``x >= 0`` with ``_virtual(dist, x) >= t`` for each target
    ``t``: 0 where ``w(0)`` already reaches ``t``, ``t`` itself above a
    bounded support's ``w(upper)``, else the prior's closed-form
    ``inverse`` or, without one, one array bisection to within ``INVERSE_TOL``.
    Requires a hazard-monotone (hence virtual-monotone) prior."""
    if not dist.mhr:
        raise ValueError(f"{dist.name} is not declared hazard-monotone")
    targets = np.asarray(targets, dtype=float)
    if dist.inverse is not None:
        x = dist.inverse(targets)
    else:
        hi0 = dist.upper
        if not math.isfinite(hi0):
            hi0, tmax = 1.0, targets.max(initial=-math.inf)
            while _virtual(dist, hi0) < tmax:
                hi0 *= 2.0
                if hi0 > 1e12:
                    raise ValueError(f"target {tmax} not reachable for {dist.name}")
        lo, x = np.zeros_like(targets), np.full_like(targets, hi0)
        for _ in range(max(64, math.ceil(math.log2(max(hi0 / INVERSE_TOL, 2.0))))):
            mid = 0.5 * (lo + x)
            ok = _virtual(dist, mid) >= targets
            x, lo = np.where(ok, mid, x), np.where(ok, lo, mid)
            if np.all(x - lo <= INVERSE_TOL):
                break
    beyond = targets > _virtual(dist, dist.upper) if math.isfinite(dist.upper) else False
    return np.where(_virtual(dist, 0.0) >= targets, 0.0, np.where(beyond, targets, x))


def _maxviva_prices(dists: Mapping[int, ValuationDistribution], first: Sequence[int],
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round of the revenue-optimal transformed auction on each row
    of ``values``, whose columns follow the first-level nodes ``first``.

    The highest non-negative virtual valuation wins, ties toward the
    first column; the price is the smallest valuation that would still
    win: the larger of the winner's reserve and the value matching the
    best rival's virtual valuation.  Returns (winning column, -1 when
    unsold; price, 0 when unsold)."""
    try:
        priors = [dists[i] for i in first]
    except KeyError as exc:
        raise ValueError(f"missing first-level distribution for node {exc}") from exc
    reserves = [dist.reserve for dist in priors]  # rejects non-MHR priors
    w = np.column_stack([_virtual(dist, values[:, j]) for j, dist in enumerate(priors)])
    rows = np.arange(len(w))
    win = w.argmax(axis=1)
    sold = w[rows, win] >= 0.0
    w[rows, win] = -np.inf
    rival = w.max(axis=1)
    price = np.zeros(len(w))
    for j, dist in enumerate(priors):
        mask = sold & (win == j)
        if mask.any():
            price[mask] = np.maximum(reserves[j], _inverse_virtual(dist, rival[mask]))
    return np.where(sold, win, -1), price


def maxviva_level(entries: Mapping[int, tuple[float, ValuationDistribution]]
                  ) -> tuple[Optional[int], float]:
    """:func:`_maxviva_prices` on one row: every entry carries a node's
    (transformed) valuation and its distribution, and ties go toward the
    smaller id.  All-negative virtual valuations leave the item unsold."""
    ids = sorted(entries)
    if not ids:
        return None, 0.0
    win, price = _maxviva_prices({i: entries[i][1] for i in ids}, ids,
                                 np.array([[entries[i][0] for i in ids]], dtype=float))
    return (ids[win[0]], float(price[0])) if win[0] >= 0 else (None, 0.0)


@dataclass(frozen=True)
class InterimEstimate:
    """Monte Carlo estimate of one agent's expected allocation and payment
    at a fixed own valuation, rivals drawn from their priors."""

    agent: int
    value: float
    allocation: float
    allocation_se: float
    payment: float
    payment_se: float
    samples: int


def _rival_matrix(ids: Sequence[int], dists: Mapping[int, ValuationDistribution],
                  samples: int, seed: int) -> np.ndarray:
    """Per-agent valuation columns from one seeded stream.  The stream
    never depends on which agent is pinned or at what value, so repeated
    calls share draws (common random numbers)."""
    if missing := [i for i in ids if i not in dists]:
        raise ValueError(f"missing valuation distribution for agents {missing}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    cols = [dists[i].sample(rng, samples) for i in ids]
    return np.column_stack(cols)


def _se(x: np.ndarray) -> float:
    """Standard error of the mean of ``x``; 0 for a single sample."""
    return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0


def _compile_truthful(mech: Mechanism, net: DiffusionNetwork) -> Compiled:
    """``mech`` compiled for truthful forwarding; the draws supply the values."""
    return mech.compile(net, truthful_profile(net, {i: 0.0 for i in net.agents}))


def estimate_interim(mech: Mechanism, net: DiffusionNetwork,
                     dists: Mapping[int, ValuationDistribution], agent: int,
                     value: float, samples: int, seed: int) -> InterimEstimate:
    """Sample mean of the agent's allocation and payment with its own
    valuation pinned, everyone forwarding truthfully.  All samples are
    priced by one :meth:`Compiled.outcomes` call."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= value < math.inf:
        raise InstanceError(f"pinned valuation {value} is not a finite non-negative number")
    ids = sorted(net.agents)
    if agent not in net.agents:
        raise ValueError(f"agent {agent} not in the network")
    matrix = _rival_matrix(ids, dists, samples, seed)
    col = ids.index(agent)
    matrix[:, col] = value
    winner, payments, _ = _compile_truthful(mech, net).outcomes(matrix)
    alloc = (winner == agent).astype(float)
    pay = payments[:, col]
    return InterimEstimate(agent=agent, value=value,
                           allocation=float(alloc.mean()), allocation_se=_se(alloc),
                           payment=float(pay.mean()), payment_se=_se(pay),
                           samples=samples)


def expected_revenue(mech: Mechanism, net: DiffusionNetwork,
                     dists: Mapping[int, ValuationDistribution],
                     trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the seller revenue under
    truthful reports, priced by one :meth:`Compiled.revenues` call."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ids = sorted(net.agents)
    revenue = _compile_truthful(mech, net).revenues(_rival_matrix(ids, dists, trials, seed))
    return float(revenue.mean()), _se(revenue)


def paired_revenue_gap(mech_a: Mechanism, mech_b: Mechanism,
                       net: DiffusionNetwork,
                       dists: Mapping[int, ValuationDistribution],
                       trials: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of revenue(a) - revenue(b) on common draws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ids = sorted(net.agents)
    matrix = _rival_matrix(ids, dists, trials, seed)
    diff = (_compile_truthful(mech_a, net).revenues(matrix)
            - _compile_truthful(mech_b, net).revenues(matrix))
    return float(diff.mean()), _se(diff)


class _FirstLevelCompiled(Compiled):
    """A transformed auction compiled for one profile: :meth:`revenues`
    is its ``price_first_level`` on the first-level subtree maxima of the
    referral tree, one column per first-level node in id order."""

    def revenues(self, matrix: np.ndarray) -> np.ndarray:
        ids = sorted(self.reports.agents())
        matrix = _draw_matrix(matrix, len(ids))
        tree = build_referral_tree(self.net, self.reports)
        first = tree.child_tuple(tree.root)
        if not first:
            return np.zeros(len(matrix))
        # the tree's agents are among the profile's, whose sorted ids give the columns
        submax = np.column_stack([matrix[:, np.searchsorted(ids, list(tree.subtree(i)))]
                                  .max(axis=1) for i in first])
        return self.mech.price_first_level(tree, submax)


class SecondPriceTA(ReferralAuction):
    """Depth-one transformed auction: highest value wins above a reserve
    and pays the larger of the reserve and the runner-up value.  A lone
    first-level subtree pays nothing, reserve or not: as in
    :func:`run_referral_auction`, a lone survivor pays only the offset."""

    def __init__(self, reserve: float = 0.0):
        super().__init__(SecondPriceReserveRule(reserve))
        self.name = f"ta:{self.rule.name}"

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> _FirstLevelCompiled:
        return _FirstLevelCompiled(self, net, reports)

    def price_first_level(self, tree: ReferralTree, submax: np.ndarray) -> np.ndarray:
        if submax.shape[1] < 2:
            return np.zeros(len(submax))
        # the columns follow ids, so a stable rank breaks ties as ArgmaxRule does
        rows = np.arange(len(submax))
        win, runner = np.argsort(-submax, axis=1, kind="stable")[:, :2].T
        best, second = submax[rows, win], submax[rows, runner]
        # a winner ranked by id after the runner-up must beat it: its
        # threshold is the next float up, as myerson_level_payment finds it
        second = np.where(win > runner, np.nextafter(second, np.inf), second)
        return np.where(best >= self.rule.reserve, np.maximum(second, self.rule.reserve), 0.0)


class PowerTA(LblevAuction):
    """Depth-one transformed auction scoring by value**t: the lblev
    auction, whose seller revenue is its first-level round."""

    def __init__(self, exponents: Mapping[int, float]):
        super().__init__(dict(exponents))   # a non-mapping raises, not IDM
        self.name = "ta:argmax-pow"


class MaxVivaTA(Mechanism):
    """Revenue-optimal referral auction for given first-level priors.

    The first level runs the :func:`maxviva_level` round on the subtree
    maxima, each priced under its node's prior from :meth:`_priors`; the
    descent below the first level uses the plain highest-value rule with
    threshold payments (lower levels cannot change the revenue)."""

    def __init__(self, dists: Mapping[int, ValuationDistribution]):
        self.dists = dict(dists)
        self.name = "ta:maxviva"

    def _priors(self, tree: ReferralTree) -> Mapping[int, ValuationDistribution]:
        """The prior of each first-level node of ``tree``."""
        return self.dists

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> _FirstLevelCompiled:
        return _FirstLevelCompiled(self, net, reports)

    def price_first_level(self, tree: ReferralTree, submax: np.ndarray) -> np.ndarray:
        return _maxviva_prices(self._priors(tree), tree.child_tuple(tree.root), submax)[1]

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        tree = build_referral_tree(net, reports)
        values = reports.values()
        if all(values[i] == 0.0 for i in tree.agents()):
            return Outcome({}, {}, 0.0)
        submax = subtree_values(tree, values)
        first = tree.child_tuple(tree.root)
        win, price = _maxviva_prices(self._priors(tree), first,
                                     np.array([[submax[i] for i in first]]))
        if win[0] < 0:
            return Outcome({}, {}, 0.0)
        # resume below the decided first-level winner and price
        return _run_levels(tree, values, submax, partial(_myerson_level, ArgmaxRule()),
                           {first[win[0]]: float(price[0])})[0]


class MaxVivaAuction(MaxVivaTA):
    """:class:`MaxVivaTA` under i.i.d. base valuations: each first-level
    node's prior is the max-of-subtree-size transform of ``base``."""

    def __init__(self, base: ValuationDistribution):
        self.base = base
        self.name = "maxviva"
        # one prior per subtree size, so each reserve is computed once
        self._prior = cache(partial(max_of_iid, base))

    def _priors(self, tree: ReferralTree) -> Mapping[int, ValuationDistribution]:
        return {i: self._prior(sum(1 for _ in tree.subtree(i)))
                for i in tree.child_tuple(tree.root)}
