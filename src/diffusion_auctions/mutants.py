"""Deliberately broken mechanisms used to prove the checks can fail.

Each mutant is paired with a fixture instance on which its designated
check fails.  Other checks may fail there too, but the equivalence
between the direct truthfulness check and the three structural checks
stays observable: whenever one side breaks on a fixture, so does the
other.  ``DESIGNATED`` maps check condition ids to (mutant name,
fixture factory).
"""

from __future__ import annotations

from typing import Mapping

from . import fixtures
from .mechanisms import Mechanism, _settle, run_lblev
from .network import (
    DiffusionNetwork,
    InstanceError,
    Outcome,
    ReportProfile,
    build_referral_tree,
    filter_subnetwork,
    subtree_values,
)


class AwardLowestMechanism(Mechanism):
    """Gives the item to the lowest positive bidder for free.  Allocation
    decreases in the own bid, so monotonicity fails."""

    name = "mutant:award-lowest"

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        reached = filter_subnetwork(net, reports)
        positive = [i for i in sorted(reached) if reports.value(i) > 0]
        if not positive:
            return Outcome({}, {}, 0.0)
        winner = min(positive, key=lambda i: (reports.value(i), i))
        return Outcome({winner: 1.0}, {}, 0.0, winner)


class FlatFeeMechanism(Mechanism):
    """Unit-exponent auction whose winner gets a flat discount off the
    threshold price.  The payment no longer matches the threshold
    integral, so the payment identity fails."""

    name = "mutant:flat-fee"
    discount = 5.0

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        outcome, _ = run_lblev(build_referral_tree(net, reports), reports.values(), {})
        if outcome.winner is None:
            return outcome
        payments = dict(outcome.payments)
        payments[outcome.winner] -= self.discount
        revenue = sum(payments.values())
        return Outcome(outcome.allocation, payments, revenue, outcome.winner)


class GreedyNoCommissionMechanism(Mechanism):
    """Second-price auction over the reachable set with the full payment
    going to the seller: forwarders earn nothing, so cutting a strong
    branch is profitable and the diffusion constraint fails."""

    name = "mutant:greedy-no-commission"

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        reached = sorted(filter_subnetwork(net, reports))
        if all(reports.value(i) == 0 for i in reached):
            return Outcome({}, {}, 0.0)
        ranked = sorted(reached, key=lambda i: (-reports.value(i), i))
        winner = ranked[0]
        price = reports.value(ranked[1]) if len(ranked) > 1 else 0.0
        return Outcome({winner: 1.0}, {winner: price}, price, winner)


class NoOffsetLevelMechanism(Mechanism):
    """Per-level second-price descent that forgets the offset: each level's
    winner pays only that level's runner-up subtree value.  A forwarder
    can owe its parent more than its children hand back, so truthful
    forwarding stops being dominant."""

    name = "mutant:no-offset"

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        tree = build_referral_tree(net, reports)
        values = reports.values()
        if all(values[i] == 0 for i in tree.agents()):
            return Outcome({}, {}, 0.0)
        submax = subtree_values(tree, values)
        node = tree.root
        pay: dict[int, float] = {}
        while True:
            kids = tree.child_tuple(node)
            if not kids:
                break
            ranked = sorted(kids, key=lambda c: (-submax[c], c))
            best = ranked[0]
            if node != tree.root and values[node] >= submax[best]:
                break
            pay[best] = submax[ranked[1]] if len(ranked) > 1 else 0.0
            node = best
        return _settle(pay)


class LoserFeeMechanism(Mechanism):
    """Unit-exponent auction that also charges every reachable loser a
    flat participation fee, violating individual rationality only."""

    name = "mutant:loser-fee"
    fee = 1.0

    def run(self, net: DiffusionNetwork, reports: ReportProfile) -> Outcome:
        tree = build_referral_tree(net, reports)
        outcome, _ = run_lblev(tree, reports.values(), {})
        payments = dict(outcome.payments)
        extra = 0.0
        for agent in tree.agents():
            if agent != outcome.winner:
                payments[agent] = payments.get(agent, 0.0) + self.fee
                extra += self.fee
        return Outcome(outcome.allocation, payments,
                       outcome.seller_revenue + extra, outcome.winner)


MUTANTS: Mapping[str, type] = {
    "award-lowest": AwardLowestMechanism,
    "flat-fee": FlatFeeMechanism,
    "greedy-no-commission": GreedyNoCommissionMechanism,
    "no-offset": NoOffsetLevelMechanism,
    "loser-fee": LoserFeeMechanism,
}

#: condition id -> (mutant name, designated fixture factory)
DESIGNATED = {
    "monotonicity": ("award-lowest", fixtures.depth1_instance),
    "payment-identity": ("flat-fee", fixtures.depth1_instance),
    "diffusion-constraint": ("greedy-no-commission", fixtures.chain_instance),
    "ddsic": ("no-offset", fixtures.offset_trap_instance),
    "ir": ("loser-fee", fixtures.depth1_instance),
}


def make_mutant(name: str) -> Mechanism:
    try:
        return MUTANTS[name]()
    except KeyError:
        raise InstanceError(f"unknown mutant {name!r}") from None
