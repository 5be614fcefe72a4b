"""Test-only wrappers and rules that the package itself never calls."""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional

import numpy as np

from diffusion_auctions import LevelRule, ReferralTree, run_lblev, sweep_lambda
from diffusion_auctions.experiments import (
    ExperimentConfig,
    assign_class_means,
    draw_valuations,
)
from diffusion_auctions.network import Outcome


def run_idm_tree(tree: ReferralTree, values: Mapping[int, float]) -> Outcome:
    """Information-diffusion mechanism on a tree: the unit-exponent case."""
    outcome, _ = run_lblev(tree, values, {})
    return outcome


class ArgminRule(LevelRule):
    """Deliberately non-monotone: lowest value wins."""

    name = "argmin"

    def winner(self, values: Mapping[int, float]) -> Optional[int]:
        return min(values, key=lambda i: (values[i], i), default=None)


def sample_valuations(n: int, sigma: float, rng: np.random.Generator) -> dict[int, float]:
    """Class assignment plus normal draws in one step."""
    return draw_valuations(assign_class_means(n, rng), sigma, rng)


def grid_search_lambda_star(n: int, sigma: float, config: ExperimentConfig) -> float:
    """Best lambda on the grid by mean improvement; ties keep the smaller
    lambda, so a flat landscape returns the unit-exponent baseline."""
    rows = sweep_lambda(replace(config, n=n, sigma=sigma))
    return max(rows, key=lambda row: row.mean_pct).lam
