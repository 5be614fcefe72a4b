"""Randomized residual-claimant fixture on the five-agent fan network.

The network is ``s -> {1, 2, 3}`` with ``1 -> {4, 5}`` and worked-example
bids (4, 6, 9, 10, 12).  Agent 1 is the only forwarder, so the auction
has two regimes:

* agents 4 and 5 cut off: the three-bidder residual-claimant auction of
  :func:`~diffusion_auctions.mechanisms.rc_example_mechanism` runs on
  agents 1..3;
* full forwarding: every agent carries a fixed monotone step allocation
  curve in its own bid (others held at the worked-example bids) and a
  value-independent payment component, with payments assembled from the
  standard threshold integral.

Only single-agent deviations from the worked-example profile are
defined; that is exactly the surface the incentive checks exercise.
The full-forwarding curves for agents 2, 3 and 4 are pinned at the
worked example's payment values and extended monotonically.
"""

from __future__ import annotations

from typing import Iterable

from .mechanisms import Compiled, Mechanism, rc_example_mechanism
from .network import (
    DiffusionNetwork,
    Instance,
    ReportProfile,
    filter_subnetwork,
    network_from_edges,
    truthful_profile,
)

FIG_RC_BIDS = {1: 4.0, 2: 6.0, 3: 9.0, 4: 10.0, 5: 12.0}

#: Full-forwarding allocation curves: agent -> ((threshold, level), ...),
#: meaning the allocation steps up to ``level`` once the agent's own bid
#: reaches ``threshold``.  Zero below the first threshold.
_FULL_FORWARD_STEPS: dict[int, tuple[tuple[float, float], ...]] = {
    1: ((10.0, 2.0 / 3.0),),
    2: ((10.0, 2.0 / 3.0),),
    3: ((6.0, 1.0 / 3.0), (12.0, 2.0 / 3.0)),
    4: ((12.0, 2.0 / 3.0),),
    5: ((10.0, 2.0 / 3.0),),
}

#: Full-forwarding payments at a zero own bid (value-independent part).
_FULL_FORWARD_PAYMENT_AT_ZERO = {1: -11.0 / 3.0, 2: -3.0, 3: -2.0, 4: 0.0, 5: 0.0}


def fig_rc_network() -> DiffusionNetwork:
    return network_from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def fig_rc_instance() -> Instance:
    net = fig_rc_network()
    return Instance(net=net, reports=truthful_profile(net, FIG_RC_BIDS))


def _step_allocation(steps: tuple[tuple[float, float], ...], value: float) -> float:
    level = 0.0
    for threshold, up in steps:
        if value >= threshold:
            level = up
    return level


def _step_integral(steps: tuple[tuple[float, float], ...], value: float) -> float:
    total = 0.0
    prev = 0.0
    for threshold, up in steps:
        total += (up - prev) * max(0.0, value - threshold)
        prev = up
    return total


class _RcCurves(Compiled):
    def curve(self, agent: int, xs: Iterable[float]) -> list[tuple[float, float]]:
        return [self._point(self.reports.replace(agent, value=x), agent) for x in xs]

    def _point(self, reports: ReportProfile, agent: int) -> tuple[float, float]:
        for other in reports.agents():
            if other != agent and reports.value(other) != FIG_RC_BIDS[other]:
                raise ValueError(
                    "fixture is defined only for single-agent deviations "
                    "from the worked-example bids")
        reached = filter_subnetwork(self.net, reports)
        value = reports.value(agent)
        if {4, 5} <= reached:
            steps = _FULL_FORWARD_STEPS[agent]
            alloc = _step_allocation(steps, value)
            payment = (_FULL_FORWARD_PAYMENT_AT_ZERO[agent]
                       + value * alloc - _step_integral(steps, value))
            return alloc, payment
        if agent not in (1, 2, 3):
            return 0.0, 0.0
        bids = [reports.value(i) for i in (1, 2, 3)]
        outcome = rc_example_mechanism(bids, ids=(1, 2, 3))
        return outcome.allocation.get(agent, 0.0), outcome.payments.get(agent, 0.0)


class RcExampleAuction(Mechanism):
    """Verifier view of the residual-claimant fixture (see module docs): it
    defines per-agent curves, not a joint outcome, so it has no ``run``."""

    name = "rc-example"

    def compile(self, net: DiffusionNetwork, reports: ReportProfile) -> Compiled:
        return _RcCurves(self, net, reports)
