"""Worked-example instances used across tests and the CLI.

The exponential-valuation worked example uses the letter naming
A..F, J, K for agents 1..8:

    seller -> {A, B, C};  A -> {D, E, F};  E -> {J, K}
    values: A=730, B=6, C=9, D=735, E=700, F=4, J=745, K=750
    exponents: A=1, B=1, C=3, D=1, E=2, F=1, J=1, K=2

The worked example never pins B's exponent or E's own valuation; any
``6**t_B < 729`` and any ``v_E < 729 + sqrt(6) + sqrt(16 - sqrt(6))``
reproduce it, so the fixture pins ``t_B = 1`` and ``v_E = 700``.
"""

from __future__ import annotations

import math

from .network import Instance, network_from_edges, truthful_profile

FIG_LBLEV_VALUES = {1: 730.0, 2: 6.0, 3: 9.0, 4: 735.0, 5: 700.0, 6: 4.0,
                    7: 745.0, 8: 750.0}

FIG_LBLEV_EXPONENTS = {1: 1.0, 2: 1.0, 3: 3.0, 4: 1.0, 5: 2.0, 6: 1.0,
                       7: 1.0, 8: 2.0}

#: Closed forms for the worked-example payment chain.
FIG_LBLEV_PAY_A = 729.0
FIG_LBLEV_PAY_E = 729.0 + math.sqrt(6.0)
FIG_LBLEV_PAY_K = 729.0 + math.sqrt(6.0) + math.sqrt(16.0 - math.sqrt(6.0))


def _truthful(edges, values, exponents=None) -> Instance:
    """The instance on ``edges`` where every agent reports ``values`` truthfully."""
    net = network_from_edges(edges)
    return Instance(net=net, reports=truthful_profile(net, values), exponents=exponents)


def fig_lblev_instance() -> Instance:
    return _truthful([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (5, 7), (5, 8)],
                     FIG_LBLEV_VALUES, FIG_LBLEV_EXPONENTS)


def depth1_instance(values=(10.0, 7.0)) -> Instance:
    """Star network: the seller connected to one agent per value."""
    return _truthful([(0, i) for i in range(1, len(values) + 1)], dict(enumerate(values, 1)))


def chain_instance(values=(5.0, 10.0)) -> Instance:
    """Path network seller -> 1 -> 2 -> ...; forwarders earn nothing in
    the greedy mutant, which is the point of this fixture."""
    return _truthful([(i, i + 1) for i in range(len(values))], dict(enumerate(values, 1)))


def offset_trap_instance() -> Instance:
    """Two first-level subtrees where the forwarding agent's level price
    exceeds what its children would pay it under a no-offset rule:
    seller -> {1, 2}, 1 -> {3, 4}, values 1, 80, 100, 5."""
    return _truthful([(0, 1), (0, 2), (1, 3), (1, 4)], {1: 1.0, 2: 80.0, 3: 100.0, 4: 5.0})
