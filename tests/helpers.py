"""Test-only wrappers and rules that the package itself never calls."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Optional

import numpy as np
from scipy import integrate

import diffusion_auctions
from diffusion_auctions import (
    SELLER,
    LevelRule,
    ReferralTree,
    ValuationDistribution,
    run_lblev,
    sweep_lambda,
)
from diffusion_auctions.experiments import (
    ExperimentConfig,
    assign_class_means,
    draw_valuations,
    runner_up_exponents,
)
from diffusion_auctions.network import Outcome


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this package from
    the same place as the tests, and return what it prints."""
    src = str(Path(diffusion_auctions.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_idm_tree(tree: ReferralTree, values: Mapping[int, float]) -> Outcome:
    """Information-diffusion mechanism on a tree: the unit-exponent case."""
    outcome, _ = run_lblev(tree, values, {})
    return outcome


class ArgminRule(LevelRule):
    """Deliberately non-monotone: lowest value wins."""

    name = "argmin"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        return min(values, key=lambda i: (values[i], i), default=None)


class BandRule(LevelRule):
    """Non-monotone only where no probe of the bisection looks: agent 1
    wins from 2 up and again on [0.4, 0.6], agent 2 everywhere else."""

    name = "band"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        return 1 if values[1] >= 2.0 or 0.4 <= values[1] <= 0.6 else 2


class PassOverRule(LevelRule):
    """Monotone and never picks agent 2 while another node survives: the
    largest value among the others wins, ties to the smaller id."""

    name = "pass-over-2"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        return min((i for i in values if i != 2), key=lambda i: (-values[i], i), default=None)


def exponent_schedule(base: ReferralTree, means: Mapping[int, float],
                      lam: float) -> dict[int, float]:
    """Every agent's exponent at ``lam``: the :func:`runner_up_exponents`
    node's, and one for everyone else."""
    node, (t,) = runner_up_exponents(base, means, (lam,))
    return {i: t if i == node else 1.0 for i in sorted(base.agents())}


def activate_tree(base: ReferralTree, rng: np.random.Generator) -> ReferralTree:
    """The realized tree of ``experiments.activate_edges``' draws: each
    reached parent's keep uniform and child uniforms from one
    ``rng.random(k + 1)``, parents in breadth-first order, kept as the
    seller-reachable subtree instead of first-level heads."""
    parent: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    frontier = [SELLER]
    for node in frontier:
        kids = base.children.get(node)
        if kids:
            keep, *draws = rng.random(len(kids) + 1).tolist()
            keep_prob = keep ** 0.2
            kept = tuple([k for k, u in zip(kids, draws) if u < keep_prob])
            if kept:
                children[node] = kept
                for k in kept:
                    parent[k] = node
                frontier += kept
    return ReferralTree(root=SELLER, parent=parent, children=children)


def inner_draw(config: ExperimentConfig, base: ReferralTree, means: Mapping[int, float],
               outer: int, inner: int) -> tuple[ReferralTree, dict[int, float]]:
    """The realized tree and valuations of sweep draw (outer, inner), from
    numpy's own ``default_rng(SeedSequence([seed, 1, outer, inner]))``."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, outer, inner]))
    return activate_tree(base, rng), draw_valuations(means, config.sigma, rng)


def sample_valuations(n: int, sigma: float, rng: np.random.Generator) -> dict[int, float]:
    """Class assignment plus normal draws in one step."""
    return draw_valuations(assign_class_means(n, rng), sigma, rng)


def grid_search_lambda_star(n: int, sigma: float, config: ExperimentConfig) -> float:
    """Best lambda on the grid by mean improvement; ties keep the smaller
    lambda, so a flat landscape returns the unit-exponent baseline."""
    rows = sweep_lambda(replace(config, n=n, sigma=sigma))
    return max(rows, key=lambda row: row.mean_pct).lam


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
