"""Revenue experiments on two-stage random trees.

Stage one draws a base tree the designer can see; stage two activates
its edges with per-node keep probabilities drawn as Beta(5,1), giving
the realized referral tree.  Valuations come from three normal classes
(means 100/70/50, common sigma, clamped at zero) whose assignment to
nodes is fixed per base tree.  The exponent schedule interpolates, via
``lambda``, between unit exponents and the log-ratio of the expected
first-level winner and runner-up means, applied to the expected
runner-up node only.  The sweep reports the paired percentage revenue
improvement of the scheduled auction over the unit-exponent baseline.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .mechanisms import lblev_first_level_revenues
from .network import SELLER, InstanceError, ReferralTree, subtree_values

CLASS_MEANS = (100.0, 70.0, 50.0)
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
# SeedSequence.generate_state's hash multipliers, 0x8b51f9dd * 0x58f38ded**k
_STATE_HASH = np.array([0x8B51F9DD * 0x58F38DED**k & _M32 for k in range(9)], np.uint32)[:, None]


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    sigma: float
    lambdas: tuple[float, ...]
    outer: int
    inner: int
    seed: int = 42
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InstanceError("need n >= 3 for the three valuation classes")
        if not 0 < self.sigma < math.inf:
            raise InstanceError("sigma must be positive and finite")
        if not self.lambdas:
            raise InstanceError("need at least one lambda")
        if not all(0 <= l <= 1 for l in self.lambdas):
            raise InstanceError("lambda values must lie in [0, 1]")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise InstanceError("lambda values must be distinct")
        if self.outer < 1 or self.inner < 1:
            raise InstanceError("trial counts must be >= 1")
        if self.seed < 0 or self.jobs < 1:
            raise InstanceError("need seed >= 0 and jobs >= 1")


def generate_base_tree(n: int, rng: np.random.Generator) -> ReferralTree:
    """Stage-one tree over agents 1..n rooted at the seller.

    Level-order construction: each parent draws a children-set size
    uniformly in [1, floor(n/3)] from the remaining agents; the last
    parent absorbs any shortfall."""
    if n < 1:
        raise ValueError("need at least one agent")
    pool = rng.permutation(np.arange(1, n + 1)).tolist()
    cap = max(1, n // 3)
    queue = [SELLER]
    children: dict[int, tuple[int, ...]] = {}
    for node in queue:
        if not pool:
            break
        size = int(rng.integers(1, cap + 1))
        children[node] = kids = tuple(pool[:size])
        pool = pool[size:]
        queue += kids
    parent = {k: node for node, kids in children.items() for k in kids}
    return ReferralTree(root=SELLER, parent=parent, children=children)


def activate_edges(base: ReferralTree, rng: np.random.Generator) -> dict[int, int]:
    """Keep each child edge independently with its node's Beta(5,1) draw
    (inverse-cdf form u**(1/5)), a parent's keep uniform and child
    uniforms in one call; map each seller-reachable agent to its
    first-level head (itself on the first level), every agent after its
    parent."""
    heads: dict[int, int] = {}
    frontier = [SELLER]
    for node in frontier:
        kids = base.children.get(node)
        if kids:
            keep, *draws = rng.random(len(kids) + 1).tolist()
            keep_prob = keep ** 0.2
            kept = [k for k, u in zip(kids, draws) if u < keep_prob]
            heads.update({k: heads.get(node, k) for k in kept})
            frontier += kept
    return heads


def assign_class_means(n: int, rng: np.random.Generator) -> dict[int, float]:
    """One high-mean agent, floor((n-1)/2) medium, the rest low, mapped to
    node ids uniformly at random."""
    high, medium, low = CLASS_MEANS
    means = [high] + [medium] * ((n - 1) // 2) + [low] * (n - 1 - (n - 1) // 2)
    shuffled = rng.permutation(np.asarray(means))
    return {i + 1: float(shuffled[i]) for i in range(n)}


def draw_valuations(means: Mapping[int, float], sigma: float,
                    rng: np.random.Generator) -> dict[int, float]:
    """Clamped ``mu + sigma * z`` per agent in id order, as ``rng.normal`` draws.
    A draw that overflows to infinity raises :class:`InstanceError`."""
    if sigma < 0:
        raise ValueError("scale < 0")
    ids = sorted(means)
    z = rng.standard_normal(len(ids)).tolist()
    # v if v > 0.0 else 0.0 is max(0.0, v), also for a -0.0 or nan v
    values = {i: v if (v := means[i] + sigma * zi) > 0.0 else 0.0 for i, zi in zip(ids, z)}
    if math.inf in values.values():   # the only non-finite value left
        raise InstanceError("valuations must be finite non-negative numbers")
    return values


def runner_up_exponents(base: ReferralTree, means: Mapping[int, float],
                        lambdas: Sequence[float]) -> tuple[Optional[int], list[float]]:
    """The expected first-level runner-up node, from the prior alone, and
    its exponent (1-lambda) + lambda * log(win)/log(runner-up) at each of
    ``lambdas``; ``None`` and ones with fewer than two first-level
    subtrees or an expected maximum of at most 1."""
    first = base.child_tuple(SELLER)
    if len(first) >= 2:
        best = subtree_values(base, means)
        win, run = sorted(first, key=lambda i: (-best[i], i))[:2]
        if best[win] > 1.0 and best[run] > 1.0:
            ratio = math.log(best[win]) / math.log(best[run])
            return run, [(1.0 - lam) + lam * ratio for lam in lambdas]
    return None, [1.0] * len(lambdas)


def first_level_maxima(heads: Mapping[int, int],
                       values: Mapping[int, float]) -> list[tuple[int, float]]:
    """Each first-level node of an :func:`activate_edges` head map with the
    largest value in its subtree, in tree order, from one pass."""
    best: dict[int, float] = {}
    for agent, head in heads.items():
        if head == agent or values[agent] > best[head]:
            best[head] = values[agent]
    return list(best.items())


@dataclass(frozen=True)
class SweepRow:
    lam: float
    mean_pct: float
    stderr: float
    used: int
    excluded: int


def outer_sample(config: ExperimentConfig, outer: int) -> tuple[ReferralTree, dict[int, float]]:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, outer]))
    return generate_base_tree(config.n, rng), assign_class_means(config.n, rng)


def draw_generators(seed: int, outer: int, inner: int) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence([seed, 1, outer, i]))`` for each ``i <
    inner`` in turn, as one reused generator: numpy's ``SeedSequence`` hash
    of every ``i`` at once in ``uint32`` columns (the words before ``i`` are
    Python ints), then PCG64's seeding, two 128-bit LCG steps from 0."""
    words = [key >> s & _M32 for key in (seed, 1, outer)
             for s in range(0, max(key.bit_length(), 1), 32)] + [np.arange(inner, dtype=np.uint32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value, const = value ^ const, const * 0x931E8875 & _M32
        return (value := value * const & _M32) ^ value >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src, word in enumerate(words):   # the pool words mix pairwise, then each later word
        for dst in range(4):
            if src != dst:
                y = hashmix(pool[src] if src < 4 else word) * 0x4973F715 & _M32
                pool[dst] = (x := (pool[dst] * 0xCA01F9DD & _M32) - y & _M32) ^ x >> 16
    state = (np.array(pool * 2) ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    state = (state ^ state >> 16).T.astype("<u4", order="C").view("<u8")   # [inner, 4]
    rng = np.random.Generator(np.random.PCG64(0))
    for s_hi, s_lo, i_hi, i_lo in state.tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
        pcg = ((s_hi << 64 | s_lo) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc & _M128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": pcg, "inc": inc}}
        yield rng


def _sweep_outer(config: ExperimentConfig, outer: int) -> tuple[list[list[float]], int]:
    """Per priced draw, the improvement percentage at every lambda; and the
    count of draws excluded for zero baseline revenue."""
    base, means = outer_sample(config, outer)
    node, scheduled = runner_up_exponents(base, means, config.lambdas)
    exponents = [1.0] + scheduled   # the unit-exponent baseline first
    pcts: list[list[float]] = []
    excluded = 0
    for rng in draw_generators(config.seed, outer, config.inner):
        heads = activate_edges(base, rng)
        values = draw_valuations(means, config.sigma, rng)
        r0, *revenues = lblev_first_level_revenues(first_level_maxima(heads, values),
                                                   node, exponents)
        if r0 > 0:
            pcts.append([100.0 * (r - r0) / r0 for r in revenues])
        else:
            excluded += 1
    return pcts, excluded


def sweep_lambda(config: ExperimentConfig) -> list[SweepRow]:
    """Paired revenue comparison over the lambda grid.

    Every (outer, inner) draw is keyed by derived seeds, so the same
    realized tree and valuations feed both mechanisms and every lambda;
    at lambda zero the schedule is exactly unit and the improvement is
    exactly zero.  Draws with zero baseline revenue are excluded for
    every lambda alike and counted.  Workers, each pricing one outer draw,
    all start at once: no more than ``config.outer`` or the CPU count.
    """
    workers = min(config.jobs, config.outer, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_outer, [config] * config.outer,
                                    range(config.outer)))
    else:
        results = [_sweep_outer(config, outer) for outer in range(config.outer)]
    pcts = [draw for part, _ in results for draw in part]
    excluded = sum(part_excluded for _, part_excluded in results)
    used = len(pcts)
    if not used:
        return [SweepRow(lam, 0.0, 0.0, 0, excluded) for lam in config.lambdas]
    # one C-contiguous row per lambda reduces exactly as its own 1-D array
    table = np.ascontiguousarray(np.array(pcts).T)
    mean = table.mean(axis=1)
    se = table.std(axis=1, ddof=1) / math.sqrt(used) if used > 1 else np.zeros(len(mean))
    return [SweepRow(lam, float(m), float(s), used, excluded)
            for lam, m, s in zip(config.lambdas, mean, se)]


def write_sweep_csv(rows: Sequence[SweepRow], config: ExperimentConfig, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["lambda", "n", "sigma", "outer", "inner",
                     "mean_pct", "stderr", "seed"])
    for row in rows:
        writer.writerow([f"{row.lam:g}", config.n, f"{config.sigma:g}",
                         config.outer, config.inner,
                         repr(row.mean_pct), repr(row.stderr), config.seed])
