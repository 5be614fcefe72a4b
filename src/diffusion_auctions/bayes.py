"""Bayesian layer: valuation priors, virtual valuations, the optimal
transformed auction, and Monte Carlo interim/revenue estimators.

Distributions are plain cdf/pdf/sampler bundles whose callables accept
numpy arrays, so the revenue estimators can run fully vectorized.  The
virtual valuation ``w(x) = x - (1 - F(x)) / f(x)`` is non-decreasing
for hazard-monotone priors, which makes the revenue-optimal first-level
auction a "highest non-negative virtual valuation wins, pays the
smallest value that would still win" rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .mechanisms import (
    ArgmaxRule,
    Compiled,
    Mechanism,
    SecondPriceReserveRule,
    _complete,
    _myerson_level,
    _run_levels,
    _settle,
    run_lblev,
    run_referral_auction,
)
from .network import (
    DiffusionNetwork,
    InstanceError,
    Outcome,
    ReportProfile,
    build_referral_tree,
    subtree_values,
    truthful_profile,
    unsold_outcome,
)

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ValuationDistribution:
    """cdf/pdf/support/sampler bundle with a declared hazard-monotonicity
    flag.  ``upper`` may be ``math.inf``."""

    name: str
    upper: float
    mhr: bool
    cdf_fn: Callable[[ArrayLike], ArrayLike]
    pdf_fn: Callable[[ArrayLike], ArrayLike]
    sample_fn: Callable[[np.random.Generator, int], np.ndarray]

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return self.cdf_fn(x)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        return self.pdf_fn(x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sample_fn(rng, size)


def uniform_distribution(low: float = 0.0, high: float = 1.0) -> ValuationDistribution:
    if not 0.0 <= low < high:
        raise ValueError("need 0 <= low < high")
    width = high - low

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - low) / width, 0.0, 1.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= low) & (x <= high), 1.0 / width, 0.0)

    return ValuationDistribution(
        name=f"uniform[{low:g},{high:g}]", upper=high, mhr=True,
        cdf_fn=cdf, pdf_fn=pdf,
        sample_fn=lambda rng, size: rng.uniform(low, high, size=size))


def exponential_distribution(rate: float = 1.0) -> ValuationDistribution:
    if rate <= 0:
        raise ValueError("rate must be positive")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-rate * x), 0.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, rate * np.exp(-rate * x), 0.0)

    return ValuationDistribution(
        name=f"exp[{rate:g}]", upper=math.inf, mhr=True,
        cdf_fn=cdf, pdf_fn=pdf,
        sample_fn=lambda rng, size: rng.exponential(1.0 / rate, size=size))


def truncated_normal(mean: float, sd: float) -> ValuationDistribution:
    """Normal valuation clamped at zero.  The atom at zero is ignored by
    cdf/pdf, which is harmless for the means and deviations used here
    (clamping probability is negligible)."""
    if sd <= 0:
        raise ValueError("sd must be positive")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, ndtr((x - mean) / sd), 0.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        z = (x - mean) / sd
        return np.where(x >= 0, np.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.pi)), 0.0)

    return ValuationDistribution(
        name=f"tnorm[{mean:g},{sd:g}]", upper=math.inf, mhr=True,
        cdf_fn=cdf, pdf_fn=pdf,
        sample_fn=lambda rng, size: np.maximum(rng.normal(mean, sd, size=size), 0.0))


def parse_distribution(spec: str) -> ValuationDistribution:
    """Parse ``uniform:0:1``, ``exp:1.0`` or ``tnorm:100:5``."""
    parts = spec.split(":")
    kind = parts[0]
    args = [float(p) for p in parts[1:]]
    if kind == "uniform" and len(args) == 2:
        return uniform_distribution(*args)
    if kind == "exp" and len(args) == 1:
        return exponential_distribution(*args)
    if kind == "tnorm" and len(args) == 2:
        return truncated_normal(*args)
    raise ValueError(f"unrecognized distribution spec {spec!r}")


def max_of_iid(dist: ValuationDistribution, n: int) -> ValuationDistribution:
    """Distribution of the maximum of ``n`` independent draws: cdf F**n,
    density n*F**(n-1)*f.  Preserves hazard monotonicity."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
        cdf_fn=cdf, pdf_fn=pdf, sample_fn=sample)


def virtual_valuation(dist: ValuationDistribution, x: ArrayLike) -> ArrayLike:
    """w(x) = x - (1 - F(x)) / f(x); undefined where the density vanishes."""
    f = np.asarray(dist.pdf(x), dtype=float)
    if np.any(f <= 0):
        raise ValueError("virtual valuation undefined where the density is zero")
    w = np.asarray(x, dtype=float) - (1.0 - np.asarray(dist.cdf(x))) / f
    return float(w) if np.isscalar(x) or np.ndim(x) == 0 else w


def _virtual_floor(dist: ValuationDistribution, x: ArrayLike) -> ArrayLike:
    """Virtual valuation extended to zero-density points: -inf below the
    support (the limit at the lower edge of e.g. max-transformed
    supports) and ``x`` at or above a bounded support's upper end, where
    ``1 - F = 0``.  Internal: the public op treats those points as errors."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(dist.pdf(x), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(f > 0, x - (1.0 - np.asarray(dist.cdf(x))) / np.where(f > 0, f, 1.0),
                     np.where(x >= dist.upper, x, -np.inf))
    return float(w) if np.ndim(w) == 0 else w


def _finite_upper(dist: ValuationDistribution, mass: float = 0.999) -> float:
    if math.isfinite(dist.upper):
        return dist.upper
    hi = 1.0
    while float(dist.cdf(hi)) < mass:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"{dist.name}: cannot locate the {mass} quantile")
    return hi


def check_mhr(dist: ValuationDistribution, grid_size: int = 256) -> bool:
    """True when the hazard f/(1-F) is non-decreasing on a support grid."""
    hi = _finite_upper(dist)
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


def invert_virtual(dist: ValuationDistribution, target: float,
                   tol: float = 1e-10) -> float:
    """Smallest x with w(x) >= target, by bisection.  Requires a
    hazard-monotone (hence virtual-monotone) distribution.  Targets above
    the virtual range of a bounded support are rejected."""
    x = _invert_virtual(dist, target, tol)
    if x > dist.upper:
        raise ValueError(f"target {target} above the virtual range of {dist.name}")
    return x


def _invert_virtual(dist: ValuationDistribution, target: float,
                    tol: float = 1e-10) -> float:
    """:func:`invert_virtual` on :func:`_virtual_floor`, which is ``x``
    above a bounded support: a target above ``w(upper)`` is reached at
    ``x = target``."""
    if not dist.mhr:
        raise ValueError(f"{dist.name} is not declared hazard-monotone")
    if _virtual_floor(dist, 0.0) >= target:
        return 0.0
    if math.isfinite(dist.upper):
        hi = dist.upper
        if _virtual_floor(dist, hi) < target:
            return target
    else:
        hi = 1.0
        while _virtual_floor(dist, hi) < target:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError(f"target {target} not reachable for {dist.name}")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _virtual_floor(dist, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _invert_virtual_many(dist: ValuationDistribution, targets: np.ndarray,
                         tol: float = 1e-10) -> np.ndarray:
    """Vectorized bisection of :func:`_invert_virtual`."""
    targets = np.asarray(targets, dtype=float)
    if targets.size == 0:
        return targets.copy()
    if math.isfinite(dist.upper):
        hi0 = dist.upper
    else:
        hi0 = 1.0
        tmax = targets.max()
        while _virtual_floor(dist, hi0) < tmax:
            hi0 *= 2.0
            if hi0 > 1e12:
                raise ValueError("target not reachable")
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, hi0)
    iterations = max(64, int(math.ceil(math.log2(max(hi0 / tol, 2.0)))))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        ok = np.asarray(_virtual_floor(dist, mid)) >= targets
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
        if np.all(hi - lo <= tol):
            break
    done = np.asarray(_virtual_floor(dist, np.zeros_like(targets))) >= targets
    beyond = targets > _virtual_floor(dist, hi0) if math.isfinite(dist.upper) else False
    return np.where(done, 0.0, np.where(beyond, targets, hi))


def maxviva_level(entries: Mapping[int, tuple[float, ValuationDistribution]]
                  ) -> tuple[Optional[int], float]:
    """One round of the revenue-optimal transformed auction.

    Every entry carries the node's (transformed) valuation and its
    distribution.  The highest non-negative virtual valuation wins, ties
    toward the smaller id; the price is the smallest valuation that
    would still win: the larger of the winner's reserve and the value
    matching the best rival's virtual valuation.  All-negative virtual
    valuations leave the item unsold.
    """
    for _, dist in entries.values():
        if not dist.mhr:
            raise ValueError(f"{dist.name} is not declared hazard-monotone")
    w = {i: float(_virtual_floor(dist, value)) for i, (value, dist) in entries.items()}
    eligible = [i for i in w if w[i] >= 0.0]
    if not eligible:
        return None, 0.0
    winner = min(eligible, key=lambda i: (-w[i], i))
    _, dist_w = entries[winner]
    rival = max((w[i] for i in w if i != winner), default=-math.inf)
    reserve = _invert_virtual(dist_w, 0.0)
    match = _invert_virtual(dist_w, rival) if math.isfinite(rival) else 0.0
    return winner, max(reserve, match)


def run_maxviva(net: DiffusionNetwork, reports: ReportProfile,
                first_level_dists: Mapping[int, ValuationDistribution]) -> Outcome:
    """Revenue-optimal referral auction for supplied first-level priors.

    The first level runs :func:`maxviva_level` on the subtree maxima;
    the descent below the first level uses the plain highest-value rule
    with threshold payments (lower levels cannot change the revenue).
    """
    tree = build_referral_tree(net, reports)
    agents = tree.agents()
    if not agents or all(reports.value(i) == 0.0 for i in agents):
        return unsold_outcome(net.agents)
    submax = subtree_values(tree, reports)
    first = tree.child_tuple(tree.root)
    try:
        entries = {i: (submax[i], first_level_dists[i]) for i in first}
    except KeyError as exc:
        raise ValueError(f"missing first-level distribution for node {exc}") from exc
    winner1, price1 = maxviva_level(entries)
    if winner1 is None:
        return unsold_outcome(net.agents)
    # Levels below the first are revenue-neutral; descend with the plain
    # highest-value rule starting from the decided winner and price.
    winner, pay_rest, _ = _run_levels(tree, reports.value, submax,
                                      partial(_myerson_level, ArgmaxRule()),
                                      start_parent=winner1, start_offset=price1)
    return _complete(_settle(tree, winner, {winner1: price1, **pay_rest}), net.agents)


class MaxVivaAuction(Mechanism):
    """Mechanism wrapper assuming i.i.d. base valuations: each first-level
    node's transformed prior is the max-of-subtree-size transform."""

    def __init__(self, base: ValuationDistribution):
        self.base = base
        self.name = "maxviva"

    def _first_level_dists(self, net, reports):
        tree = build_referral_tree(net, reports)
        sizes = {i: sum(1 for _ in tree.subtree(i)) for i in tree.child_tuple(tree.root)}
        return {i: max_of_iid(self.base, m) for i, m in sizes.items()}

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        return run_maxviva(net, reports, self._first_level_dists(net, reports))


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
    winner, payments, _ = _compile_truthful(mech, net).outcomes(ids, matrix)
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
    revenue = _compile_truthful(mech, net).revenues(ids, _rival_matrix(ids, dists, trials, seed))
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
    diff = (_compile_truthful(mech_a, net).revenues(ids, matrix)
            - _compile_truthful(mech_b, net).revenues(ids, matrix))
    return float(diff.mean()), _se(diff)


class _FirstLevelCompiled(Compiled):
    """A transformed auction compiled for one profile: :meth:`revenues`
    prices one round on the first-level subtree maxima of the referral
    tree, one column per first-level node in id order."""

    def revenues(self, ids: Sequence[int], matrix: np.ndarray) -> np.ndarray:
        tree = build_referral_tree(self.net, self.reports)
        first = tree.child_tuple(tree.root)
        if not first:
            return np.zeros(len(matrix))
        where = {a: j for j, a in enumerate(ids)}
        submax = np.column_stack([matrix[:, [where[a] for a in tree.subtree(i)]].max(axis=1)
                                  for i in first])
        return self.mech.price_first_level(first, submax)


class _TransformedAuction(Mechanism):
    """Depth-one transformed auction.  Subclasses give ``run`` and the
    vectorised ``price_first_level(first, submax)``: the seller revenue
    of one round on each row of ``submax``, whose columns follow ``first``."""

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> _FirstLevelCompiled:
        return _FirstLevelCompiled(self, net, reports)


class SecondPriceTA(_TransformedAuction):
    """Depth-one transformed auction: highest value wins above a reserve
    and pays the larger of the reserve and the runner-up value.  A lone
    first-level subtree pays nothing, reserve or not: as in
    :func:`run_referral_auction`, a lone survivor pays only the offset."""

    def __init__(self, reserve: float = 0.0):
        self.reserve = float(reserve)
        self.name = f"ta:second-price-r{reserve:g}"

    def price_first_level(self, first: Sequence[int], submax: np.ndarray) -> np.ndarray:
        if submax.shape[1] < 2:
            return np.zeros(len(submax))
        second, best = np.partition(submax, -2, axis=1)[:, -2:].T
        return np.where(best >= self.reserve, np.maximum(second, self.reserve), 0.0)

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        outcome, _ = run_referral_auction(net, reports, SecondPriceReserveRule(self.reserve))
        return outcome


class PowerTA(_TransformedAuction):
    """Depth-one transformed auction scoring by value**t."""

    def __init__(self, exponents: Mapping[int, float]):
        self.exponents = dict(exponents)
        self.name = "ta:argmax-pow"

    def price_first_level(self, first: Sequence[int], submax: np.ndarray) -> np.ndarray:
        t = np.asarray([self.exponents.get(i, 1.0) for i in first])
        scores = submax ** t[None, :]
        win = scores.argmax(axis=1)
        masked = scores.copy()
        masked[np.arange(len(win)), win] = -np.inf
        rival_score = masked.max(axis=1)
        pay = np.maximum(rival_score, 0.0) ** (1.0 / t[win])
        sold = submax.max(axis=1) > 0
        return np.where(sold, pay, 0.0)

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        outcome, _ = run_lblev(build_referral_tree(net, reports), reports, self.exponents)
        return outcome


class MaxVivaTA(_TransformedAuction):
    """Depth-one revenue-optimal transformed auction for given priors."""

    def __init__(self, dists: Mapping[int, ValuationDistribution]):
        self.dists = dict(dists)
        self.name = "ta:maxviva"

    def price_first_level(self, first: Sequence[int], submax: np.ndarray) -> np.ndarray:
        w = np.column_stack([
            np.asarray(_virtual_floor(self.dists[i], submax[:, j]))
            for j, i in enumerate(first)
        ])
        win = w.argmax(axis=1)
        sale = w.max(axis=1) >= 0.0
        masked = w.copy()
        masked[np.arange(len(win)), win] = -np.inf
        rival = masked.max(axis=1)
        revenue = np.zeros(submax.shape[0])
        for j, i in enumerate(first):
            mask = sale & (win == j)
            if not mask.any():
                continue
            reserve = _invert_virtual(self.dists[i], 0.0)
            targets = rival[mask]
            finite = np.isfinite(targets)
            match = np.zeros(targets.shape)
            if finite.any():
                match[finite] = _invert_virtual_many(self.dists[i], targets[finite])
            revenue[mask] = np.maximum(reserve, match)
        return revenue

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        return run_maxviva(net, reports, self.dists)


def write_revenue_csv(rows: Sequence[Mapping], fh) -> None:
    """Revenue report rows: mechanism,n,sigma,trials,mean,stderr,seed."""
    import csv

    writer = csv.writer(fh)
    writer.writerow(["mechanism", "n", "sigma", "trials", "mean", "stderr", "seed"])
    for row in rows:
        writer.writerow([row["mechanism"], row["n"], row.get("sigma", ""),
                         row["trials"], repr(row["mean"]), repr(row["stderr"]),
                         row["seed"]])


def interim_allocation_second_price(dist: ValuationDistribution, n_rivals: int,
                                    value: float) -> float:
    """Win probability of a depth-one second-price bidder at ``value``."""
    return float(np.asarray(dist.cdf(value)) ** n_rivals)


def interim_payment_second_price(dist: ValuationDistribution, n_rivals: int,
                                 value: float) -> float:
    """Expected payment via the threshold integral (zero value-independent
    component): v*a(v) - integral of a."""
    alpha = lambda y: np.asarray(dist.cdf(y)) ** n_rivals
    tail, _ = integrate.quad(alpha, 0.0, value, limit=200)
    return value * float(alpha(value)) - tail


def revenue_identity_sides(dist: ValuationDistribution,
                           n_agents: int) -> tuple[float, float]:
    """Both sides of the expected-payment / virtual-surplus identity for
    a depth-one second-price bidder: integral of pay*f versus integral
    of w*alpha*f, each by quadrature."""
    if n_agents < 2:
        raise ValueError("need at least two agents")
    n_rivals = n_agents - 1
    upper = dist.upper if math.isfinite(dist.upper) else np.inf

    def lhs_integrand(v):
        return interim_payment_second_price(dist, n_rivals, v) * float(dist.pdf(v))

    def rhs_integrand(v):
        # w(v)*f(v) written as v*f(v) - (1 - F(v)): no division, so the
        # density's underflow tail stays finite
        alpha = float(np.asarray(dist.cdf(v)) ** n_rivals)
        f = float(dist.pdf(v))
        tail = 1.0 - float(dist.cdf(v))
        return (v * f - tail) * alpha

    lhs, _ = integrate.quad(lhs_integrand, 0.0, upper, limit=200)
    rhs, _ = integrate.quad(rhs_integrand, 0.0, upper, limit=200)
    return lhs, rhs
