import hashlib
import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusion_auctions import (
    ArgmaxRule,
    InstanceError,
    LblevAuction,
    NonMonotoneRuleError,
    PowerRule,
    PowerTA,
    ReferralAuction,
    SecondPriceReserveRule,
    SecondPriceTA,
    build_referral_tree,
    myerson_level_payment,
    network_from_edges,
    random_tree_instance,
    rc_example_mechanism,
    run_lblev,
    run_referral_auction,
    transformed_auction_revenue,
    truthful_profile,
)
from diffusion_auctions import fixtures, mechanisms
from diffusion_auctions.bayes import (MaxVivaAuction, MaxVivaTA, exponential_distribution,
                                      max_of_iid, truncated_normal, uniform_distribution)
from diffusion_auctions.mechanisms import Compiled, LevelCurves, lblev_first_level_revenues
from diffusion_auctions.mutants import DESIGNATED, make_mutant
from diffusion_auctions.network import EQ_TOL, Instance, Outcome, Report, ReportProfile
from diffusion_auctions.rc_example import RcExampleAuction, fig_rc_instance
from diffusion_auctions.verify import _CurveTable, make_grid, verify_mechanism

from helpers import ArgminRule, BandRule, PassOverRule, run_idm_tree
from oracles import (
    argmax_winner,
    copying_level_payment,
    exact_level_auction,
    naive_level_auction,
    naive_net_payments,
    naive_referral_parents,
    power_winner,
    random_dag_edges,
    random_tree_children,
    reserve_winner,
    sorted_rank_level,
    threshold_by_scan,
)
from test_acceptance import c03_instances, sibling_shared_exponents, tree_children
from test_network import random_referral_case


@pytest.fixture
def fig():
    inst = fixtures.fig_lblev_instance()
    tree = build_referral_tree(inst.net, inst.reports)
    return inst, tree


class TestLblevWorkedExample:
    def test_winner_and_revenue(self, fig):
        inst, tree = fig
        out, _ = run_lblev(tree, inst.reports.values(), inst.exponents)
        assert out.winner == 8
        assert out.seller_revenue == 729.0

    def test_payment_chain(self, fig):
        inst, tree = fig
        _, traces = run_lblev(tree, inst.reports.values(), inst.exponents)
        actual = [t.actual_payment for t in traces]
        assert actual == pytest.approx(
            [fixtures.FIG_LBLEV_PAY_A, fixtures.FIG_LBLEV_PAY_E,
             fixtures.FIG_LBLEV_PAY_K], abs=1e-9)
        # rounded values as displayed in the worked example
        assert actual[1] == pytest.approx(731.45, abs=0.01)
        assert actual[2] == pytest.approx(735.13, abs=0.01)

    def test_commissions(self, fig):
        inst, tree = fig
        out, _ = run_lblev(tree, inst.reports.values(), inst.exponents)
        assert -out.payments[1] == pytest.approx(math.sqrt(6.0), abs=1e-9)
        assert -out.payments[5] == pytest.approx(
            math.sqrt(16.0 - math.sqrt(6.0)), abs=1e-9)

    def test_effective_valuations_per_level(self, fig):
        inst, tree = fig
        _, traces = run_lblev(tree, inst.reports.values(), inst.exponents)
        assert dict(traces[0].survivors) == {1: 750.0, 2: 6.0, 3: 9.0}
        level2 = dict(traces[1].survivors)
        assert level2[4] == pytest.approx(6.0)
        assert level2[5] == pytest.approx(21.0)
        assert 6 not in level2  # negative effective valuation is dropped

    def test_outcome_lists_only_the_winner_and_the_payment_chain(self, fig):
        inst, _ = fig
        out = LblevAuction(fixtures.FIG_LBLEV_EXPONENTS).run(inst.net, inst.reports)
        assert out.allocation == {8: 1.0}
        assert set(out.payments) == {1, 5, 8}   # A, E and K; everyone else pays 0

    def test_payments_sum_to_revenue(self, fig):
        inst, tree = fig
        out, _ = run_lblev(tree, inst.reports.values(), inst.exponents)
        assert sum(out.payments.values()) == pytest.approx(out.seller_revenue, abs=1e-9)


class TestLblevEdgeCases:
    def test_all_zero_reports_unsold(self):
        net = network_from_edges([(0, 1), (1, 2)])
        profile = truthful_profile(net, {1: 0.0, 2: 0.0})
        tree = build_referral_tree(net, profile)
        out, traces = run_lblev(tree, profile.values(), {})
        assert out.winner is None
        assert out.seller_revenue == 0.0
        assert all(p == 0.0 for p in out.payments.values())
        assert traces == []

    def test_empty_tree_unsold(self):
        # everything deactivated: the seller is alone
        from diffusion_auctions.network import ReferralTree
        empty = ReferralTree(root=0, parent={}, children={})
        out, traces = run_lblev(empty, {}, {})
        assert out.winner is None
        assert out.allocation == {} and out.payments == {}

    def test_single_agent_wins_for_free(self):
        net = network_from_edges([(0, 1)])
        profile = truthful_profile(net, {1: 5.0})
        tree = build_referral_tree(net, profile)
        out, _ = run_lblev(tree, profile.values(), {1: 2.0})
        assert out.winner == 1
        assert out.payments[1] == 0.0

    def test_rejects_non_positive_exponent(self, fig):
        inst, tree = fig
        with pytest.raises(ValueError):
            run_lblev(tree, inst.reports.values(), {1: 0.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_exponent(self, fig, bad):
        inst, tree = fig
        with pytest.raises(InstanceError):
            run_lblev(tree, inst.reports.values(), {1: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
    def test_bare_value_map_rejects_non_finite_or_negative(self, bad):
        # a NaN rival used to hand agent 1 the item for free
        net = network_from_edges([(0, 1), (0, 2), (1, 3)])
        with pytest.raises(InstanceError):
            LblevAuction().run_on_values(net, {1: 1.0, 2: bad, 3: 10.0})

    def test_parent_keeps_item_when_price_exceeds_children(self):
        # parent value above offset+z at its own level
        net = network_from_edges([(0, 1), (0, 2), (1, 3)])
        profile = truthful_profile(net, {1: 50.0, 2: 10.0, 3: 20.0})
        tree = build_referral_tree(net, profile)
        out, _ = run_lblev(tree, profile.values(), {})
        assert out.winner == 1
        assert out.payments[1] == pytest.approx(10.0)
        assert out.seller_revenue == pytest.approx(10.0)

    def test_zero_value_winner_possible_at_exact_tie(self):
        # subtree max equals the offset: rho = 0 stays in the game
        net = network_from_edges([(0, 1), (0, 2), (1, 3)])
        profile = truthful_profile(net, {1: 0.0, 2: 10.0, 3: 10.0})
        tree = build_referral_tree(net, profile)
        out, _ = run_lblev(tree, profile.values(), {})
        assert out.winner == 3
        assert out.payments[3] == pytest.approx(10.0)


class TestTreeReuse:
    def test_reused_mechanism_matches_fresh_one_on_fresh_networks(self):
        # each draw frees the previous network, so its id() can come back
        rng = np.random.default_rng(2000)
        exps = {i: 0.5 + 0.25 * i for i in range(1, 7)}
        reused = LblevAuction(exps)
        wrong = 0
        for _ in range(2000):
            inst = random_tree_instance(6, rng)
            values = inst.reports.values()
            got = reused.run_on_values(inst.net, values)
            expect = LblevAuction(exps).run_on_values(inst.net, values)
            wrong += (got.winner, got.seller_revenue) != (expect.winner, expect.seller_revenue)
        assert wrong == 0

    def test_one_outcomes_call_builds_one_tree(self, monkeypatch):
        builds = []
        real = mechanisms.build_referral_tree
        monkeypatch.setattr(mechanisms, "build_referral_tree",
                            lambda net, reports: builds.append(net) or real(net, reports))
        inst = fixtures.fig_lblev_instance()
        ids = sorted(inst.net.agents)
        row = [inst.reports.value(i) for i in ids]
        matrix = np.array([[scale * v for v in row] for scale in (1.0, 0.5, 2.0, 0.0)])
        winner, _, revenue = truthful_compile(LblevAuction(inst.exponents),
                                              inst.net).outcomes(matrix)
        assert builds == [inst.net]
        assert (winner[0], revenue[0]) == (8, 729.0) and winner[3] == -1


C10_EDGES = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]
C10_EXPONENTS = {1: 1.2, 2: 0.8, 3: 2.0, 4: 1.0, 5: 1.5}


def truthful_compile(mech, net):
    """``mech`` compiled for truthful forwarding on ``net``, as the Monte
    Carlo estimators compile it."""
    return mech.compile(net, truthful_profile(net, {i: 0.0 for i in net.agents}))


def run_rows(mech, net, matrix, stamps=None):
    """Each row of ``matrix`` as a truthful profile with ``stamps``, the
    parent map of :func:`naive_referral_parents` on them, and ``run``'s
    rows: (winner, -1 when unsold [S]; net payments [S, n]; revenue [S])."""
    ids = sorted(net.agents)
    profiles = [truthful_profile(net, dict(zip(ids, row)), stamps) for row in matrix.tolist()]
    outs = [mech.run(net, profile) for profile in profiles]
    stamps = {i: report.timestamp for i, report in profiles[0].reports.items()}
    return profiles, naive_referral_parents(net.out_edges, net.out_edges, stamps), (
        np.array([-1 if out.winner is None else out.winner for out in outs]),
        np.array([[out.payments.get(i, 0.0) for i in ids] for out in outs]),
        np.array([out.seller_revenue for out in outs]))


def assert_rows_agree(got, want, label):
    """Equal winners; net payments and revenues within 1e-12, in the same shapes."""
    assert np.asarray(got[0]).tolist() == want[0].tolist(), label
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=label)


def assert_level_family(mech, net, matrix, rows=None):
    """``run`` on every row of ``matrix`` (``rows``, from :func:`run_rows`)
    and, for an ``LblevAuction``, the compiled ``outcomes``, the default
    loop's and ``point`` at every agent against the naive oracle on the
    naive referral tree: equal winners, payments within 1e-12; for IDM also
    the first-level revenues."""
    profiles, parent, ran = rows or run_rows(mech, net, matrix)
    ids, children = sorted(net.agents), {}
    for node, par in parent.items():
        children.setdefault(par, []).append(node)
    exponents = mech.exponents if type(mech) is LblevAuction else mech.rule.exponents or {}
    want = []
    for row in matrix.tolist():
        values = dict(zip(ids, row))
        winner, pays = naive_level_auction(children, {i: values[i] for i in parent}, exponents)
        net_pay, revenue = naive_net_payments(winner, pays, ids)
        want.append((-1 if winner is None else winner, [net_pay[i] for i in ids], revenue))
    want = [np.array(column) for column in zip(*want)]
    assert_rows_agree(ran, want, "run")
    if type(mech) is ReferralAuction:
        return
    compiled_on = profiles[-1]   # the compiled values are overwritten by every row
    assert_rows_agree(mech.compile(net, compiled_on).outcomes(matrix), want, "outcomes")
    assert_rows_agree(Compiled(mech, net, compiled_on).outcomes(matrix), want, "default loop")
    points = np.array([[compiled.point(i, profile.value(i)) for i in ids] for profile in profiles
                       for compiled in [mech.compile(net, profile)]])
    assert (points[:, :, 0] == (want[0][:, None] == ids)).all(), "point"
    np.testing.assert_allclose(points[:, :, 1], want[1], rtol=0, atol=1e-12, err_msg="point")
    if mech.name == "idm":
        def best(node, values):   # the subtree maximum on the naive tree
            return max([values[node]] + [best(c, values) for c in children.get(node, [])])

        for row, revenue in zip(matrix.tolist(), want[2]):
            first = [(c, best(c, dict(zip(ids, row)))) for c in children[0]]
            assert abs(lblev_first_level_revenues(first, None, [1.0])[0] - revenue) <= 1e-12


def random_trees():
    """(rng, network, rows of its draw matrix) on 200 random trees; the test
    draws each tree's exponents and matrix from the same rng."""
    rng = np.random.default_rng(404)
    for _ in range(200):
        yield rng, random_tree_instance(int(rng.integers(3, 31)), rng).net, 12


def random_multi_inviter_digraphs():
    """As :func:`random_trees` on 60 general networks: several inviters per
    agent, and two unreachable agents."""
    rng = np.random.default_rng(4040)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        base, _, _, _ = random_referral_case(rng, n)
        edges = [(src, dst) for src, dsts in base.out_edges.items() for dst in dsts]
        yield rng, network_from_edges(edges + [(n + 1, n + 2)], agents=range(1, n + 3)), 10


class TestLevelKernel:
    def test_c10_tree_on_its_grid(self):
        net = network_from_edges(C10_EDGES)
        rng = np.random.default_rng(1010)
        base = rng.uniform(0.0, 100.0, size=(200, 5))
        blocks = []
        for v in np.linspace(0.0, 120.0, 16):
            block = base.copy()
            block[:, 2] = v     # agent 3 pinned, as in estimate_interim
            blocks.append(block)
        assert_level_family(LblevAuction(C10_EXPONENTS), net, np.vstack(blocks))

    @pytest.mark.parametrize("instances", [random_trees, random_multi_inviter_digraphs],
                             ids=["trees", "digraphs"])
    def test_random_instances_with_zeros_ties_and_empty_rows(self, instances):
        for k, (rng, net, rows) in enumerate(instances()):
            # every other instance draws from three exponents, so tied values
            # also tie in rho**t and the id tie-break decides
            exps = {i: float(rng.choice([0.5, 1.0, 2.0]) if k % 2 else rng.uniform(0.5, 3.0))
                    for i in net.agents}
            n = len(net.agents)
            matrix = rng.uniform(0.0, 100.0, size=(rows, n))
            matrix[rng.random(matrix.shape) < 0.1] = 0.0
            matrix[0] = 0.0                                  # all-zero row
            matrix[1] = 50.0                                 # every value tied
            matrix[2] = rng.integers(0, 3, size=n) * 25.0    # ties and zeros
            assert_level_family(LblevAuction(exps), net, matrix)

    def test_one_agent_tree_and_worked_example(self):
        one = network_from_edges([(0, 1)])
        assert_level_family(LblevAuction({1: 2.0}), one, np.array([[0.0], [3.5], [100.0]]))
        inst = fixtures.fig_lblev_instance()
        ids = sorted(inst.net.agents)
        row = np.array([[inst.reports.value(i) for i in ids]])
        mech = LblevAuction(inst.exponents)
        assert_level_family(mech, inst.net, row)
        winner, _, revenue = truthful_compile(mech, inst.net).outcomes(row)
        assert (winner[0], revenue[0]) == (8, 729.0)

    def test_agents_outside_the_tree_pay_nothing(self):
        net = network_from_edges([(0, 1), (0, 2), (1, 3)], agents=range(1, 5))
        matrix = np.array([[1.0, 2.0, 3.0, 99.0], [0.0, 0.0, 0.0, 5.0]])
        assert_level_family(LblevAuction(), net, matrix)
        winner, payments, _ = truthful_compile(LblevAuction(), net).outcomes(matrix)
        assert winner.tolist() == [3, -1]
        assert payments[:, 3].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
    def test_rejects_non_finite_or_negative_matrix(self, bad):
        net = network_from_edges([(0, 1), (0, 2), (1, 3)])
        matrix = np.array([[1.0, 2.0, 10.0], [1.0, bad, 10.0]])
        with pytest.raises(InstanceError):
            truthful_compile(LblevAuction(), net).outcomes(matrix)

    @pytest.mark.parametrize("path", ["kernel", "default-loop", "first-level"])
    @pytest.mark.parametrize("ids, matrix", [   # the compiled agents, and the draws
        ([1, 2, 3, 4], [[5.0, 1.0, 7.0, 2.0, 0.0]]),  # a column too many, 4 outside the tree
        ([1, 2, 3], [[5.0, 1.0, 7.0, 2.0]]),          # a column too many
        ([1, 2, 3, 4], [[5.0, 1.0, 7.0]]),            # no column for 4, outside the tree
        ([1, 2, 3], [5.0, 1.0, 7.0]),                 # 1-D
        ([1, 2, 3], [[[5.0, 1.0, 7.0]]]),             # 3-D
        ([1, 2, 3], [[5.0, -1.0, 7.0]]),              # a negative value
        ([1, 2, 3], [[5.0, 1.0, math.nan]]),          # a NaN value
    ])
    def test_malformed_draw_matrix_is_rejected(self, path, ids, matrix):
        with pytest.raises(InstanceError):
            self.pricing_paths(ids)[path](np.array(matrix))

    @staticmethod
    def pricing_paths(agents):
        """The three ways to price a draw matrix, on 0->1, 0->2, 1->3
        with ``agents``, one column each."""
        net = network_from_edges([(0, 1), (0, 2), (1, 3)], agents=agents)
        lblev = truthful_compile(LblevAuction(), net)
        return {"kernel": lblev.outcomes,
                "default-loop": Compiled(lblev.mech, net, lblev.reports).outcomes,
                "first-level": truthful_compile(SecondPriceTA(), net).revenues}

    # seller -> 1, 2, 3, 4; 2 -> 5, 6, 7; 5 -> 8.  Exponents 0.5 and 2.0
    # take numpy's sqrt/square fast paths when passed as scalars.
    SCAN_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (2, 6), (2, 7), (5, 8)]
    SCAN_EXPONENTS = {1: 1.0, 2: 2.0, 3: 0.5, 4: 1.0, 5: 0.5, 6: 2.0, 7: 1.0, 8: 2.0}

    def test_top_two_scan_edge_cases(self):
        keep = 2.0 + 3.0 - EQ_TOL   # node 2's price 5 at its level, minus EQ_TOL
        x, a, b = 1.7140402119374163, 2.9940205861449836, 80.35615142258744
        assert (x * x) ** 2 != x ** 4 and b ** 0.25 > a
        cases = [  # (values of agents 1..8, winner)
            # root: 1, 2 and 3 tie at rho**t = 4; the smallest id wins
            ([4.0, 2.0, 16.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1),
            # root: 3 wins at 10; 1 and 2 tie for runner-up at x**2, and
            # 1's rho**(t_1 / t_3) = (x**2)**2 is the price, not x**4
            ([x * x, x, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3),
            # node 2 (offset 0): 5 wins at 10, then 6 and 7 tie for
            # runner-up at x**2, and 6's price x**4 is not (x**2)**2
            ([0.0, 0.0, 0.0, 0.0, 100.0, x, x * x, 0.0], 5),
            # root: 2 and 3 tie at a**2 = b**0.5 and 2 wins; its price
            # b**0.25 rounds one ulp above a, so at node 2 the child 7
            # survives only by the EQ_TOL margin, alone
            ([0.0, 0.0, b, 0.0, 0.0, 0.0, a, 0.0], 7),
            # node 2: child 5 is dead (rho < -EQ_TOL) and scanned before 6
            ([10.0, 0.0, 9.0, 5.0, 1.0, 50.0, 20.0, 0.0], 6),
            # node 2: every child is dead, so 2 keeps the item
            ([10.0, 50.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0], 2),
            # node 2: 6 is the lone survivor and pays the offset
            ([10.0, 0.0, 0.0, 0.0, 1.0, 40.0, 1.0, 0.0], 6),
            # node 5 has one child: lone survivors down the chain to 8
            ([10.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 60.0], 8),
            # node 2: the keep test exactly at price - EQ_TOL keeps the item
            ([4.0, keep, 0.0, 0.0, 0.0, 30.0, 11.0, 0.0], 2),
            # ... and one ulp below it sells to 6 at 5
            ([4.0, np.nextafter(keep, 0.0), 0.0, 0.0, 0.0, 30.0, 11.0, 0.0], 6),
            ([0.0] * 8, -1),
        ]
        net = network_from_edges(self.SCAN_EDGES)
        mech = LblevAuction(self.SCAN_EXPONENTS)
        matrix = np.array([values for values, _ in cases])
        assert_level_family(mech, net, matrix)
        winner, payments, revenue = truthful_compile(mech, net).outcomes(matrix)
        assert winner.tolist() == [w for _, w in cases]
        assert revenue[:2].tolist() == [4.0, (x * x) ** 2]
        assert payments[2, 4] == x ** 4                  # agent 5
        assert payments[9, 5] == 5.0                     # agent 6

    def test_layout_and_column_order_do_not_change_the_bytes(self):
        rng = np.random.default_rng(1212)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            base, _, _, _ = random_referral_case(rng, n)
            edges = [(src, dst) for src, dsts in base.out_edges.items() for dst in dsts]
            # agents n+1 and n+2 are outside the tree
            net = network_from_edges(edges + [(n + 1, n + 2)], agents=range(1, n + 3))
            exps = {i: float(rng.choice([0.5, 0.8, 1.0, 2.0])) for i in net.agents}
            compiled = truthful_compile(LblevAuction(exps), net)
            matrix = rng.integers(0, 4, size=(40, n + 2)) * 25.0
            matrix[20:] = rng.uniform(0.0, 100.0, size=(20, n + 2))
            expect = compiled.outcomes(matrix)
            strided = np.zeros((80, 2 * (n + 2)))
            strided[::2, ::2] = matrix
            for view in (np.asfortranarray(matrix), strided[::2, ::2]):
                winner, payments, revenue = compiled.outcomes(view)
                assert winner.tobytes() == expect[0].tobytes()
                assert payments.tobytes() == expect[1].tobytes()
                assert revenue.tobytes() == expect[2].tobytes()


@st.composite
def digraph_draws(draw, scale=1.0):
    """A general digraph over agents 1..n+1 (2-8 or 20-30 agents), its
    stamps, exponents and draw matrix.  One agent is never reached; the
    others, in a random order, are each invited by one to three earlier
    nodes (the seller among them), or in a deep network by one to three of
    the three nodes just before.  Stamps tie, exponents keep
    ``_check_power_range`` finite, and the values, ``scale`` times draws on
    [0, 100], hold ties and zeros, rows with many zeros, an all-zero row, an
    all-tied row and a row rising along the order below the unreached agent.
    Hypothesis draws the shape and a seed; a generator on that seed draws
    the rest, so that an example of 30 agents stays cheap."""
    n = draw(st.integers(1, 7) | st.integers(19, 29))
    deep, rows = draw(st.booleans()), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = [int(i) for i in rng.permutation(np.arange(1, n + 2))]
    outside = order.pop()
    edges = [(outside, order[-1])]
    for k, node in enumerate(order):
        earlier = (0, *order[:k])[-3 if deep else 0:]
        picked = rng.choice(earlier, size=min(len(earlier), int(rng.integers(1, 4))), replace=False)
        edges += [(int(src), node) for src in picked]
    net = network_from_edges(edges, agents=range(1, n + 2))
    stamps = dict(zip(range(1, n + 2), rng.integers(0, 3, n + 1).tolist()))

    def mixed(shape, common, low, high):   # half from ``common``, half uniform
        return np.where(rng.random(shape) < 0.5, rng.choice(common, shape),
                        rng.uniform(low, high, shape))

    exps = dict(zip(range(1, n + 2), mixed(n + 1, [0.5, 1.0, 2.0], 0.5, 3.0).tolist()))
    rising = {outside: 100.0, **{node: 2.5 * k for k, node in enumerate(order, 1)}}
    drawn = mixed((rows, n + 1), [0.0, 2.5, 40.0], 0.0, 100.0)
    drawn[rng.random(drawn.shape) < rng.random((rows, 1))] = 0.0   # each row its share of zeros
    matrix = np.vstack([drawn, np.zeros(n + 1), np.full(n + 1, 2.5),
                        [rising[i] for i in range(1, n + 2)]])
    return net, stamps, exps, scale * matrix


UNIT = uniform_distribution(0.0, 1.0)
MIXED_PRIORS = {i: (UNIT, max_of_iid(UNIT, 2))[i % 2] for i in range(1, 31)}
# id: (the mechanism on a drawn case's exponents, the scale of its values,
# hypothesis examples).  LblevAuction and ReferralAuction proper are held
# to the naive oracle, every other compile's revenues to run.
DRAW_MATRIX_COMPILES = {
    "idm": (lambda exps: LblevAuction(None), 1.0, 60),
    "lblev": (lambda exps: LblevAuction(exps), 1.0, 60),
    "ra:argmax": (lambda exps: ReferralAuction(ArgmaxRule()), 1.0, 60),
    "ra:argmax-pow": (lambda exps: ReferralAuction(PowerRule(exps)), 1.0, 60),
    "ta:argmax-pow": (lambda exps: PowerTA(exps), 1.0, 60),
    "ta:second-price-r0": (lambda exps: SecondPriceTA(0.0), 1.0, 60),
    "ta:second-price-r2.5": (lambda exps: SecondPriceTA(2.5), 1.0, 60),
    "ta:second-price-r30": (lambda exps: SecondPriceTA(30.0), 1.0, 60),
    "ta:maxviva": (lambda exps: MaxVivaTA(MIXED_PRIORS), 0.01, 45),
    "maxviva:uniform": (lambda exps: MaxVivaAuction(UNIT), 0.01, 45),
    "maxviva:exponential": (lambda exps: MaxVivaAuction(exponential_distribution(2.0)), 0.02, 45),
    "maxviva:truncated-normal": (lambda exps: MaxVivaAuction(truncated_normal(1.0, 0.5)), 0.02, 45),
}


class TestDrawMatrixContract:
    """Every compiled path prices a draw matrix, one column per agent of
    the compiled profile in id order, as ``run`` prices each row, on the
    general digraphs of :func:`digraph_draws`; the level family's ``run``
    is held to the naive oracle on the tree of ``naive_referral_parents``."""

    FLOOR = 10   # the least count of each kind of row, node or network in ``seen``

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=digraph_draws(), reserve=st.sampled_from([0.0, 2.5, 30.0]))
    def test_compiled_paths_match_run_per_row(self, case, reserve):
        net, stamps, exps, matrix = case
        ids = sorted(net.agents)
        profiles = [truthful_profile(net, dict(zip(ids, row)), stamps) for row in matrix.tolist()]
        compiled_on = profiles[-1]   # the compiled values are overwritten by every row
        lblev = LblevAuction(exps)
        winner, payments, revenue = lblev.compile(net, compiled_on).outcomes(matrix)
        loop = Compiled(lblev, net, compiled_on).outcomes(matrix)
        outs = [lblev.run(net, profile) for profile in profiles]
        assert winner.tolist() == loop[0].tolist() == [
            -1 if out.winner is None else out.winner for out in outs]
        runs = np.array([[out.payments.get(i, 0.0) for i in ids] for out in outs])
        assert np.abs(payments - runs).max() <= 1e-12
        assert np.abs(loop[1] - runs).max() <= 1e-12
        runs = np.array([out.seller_revenue for out in outs])
        assert np.abs(revenue - runs).max() <= 1e-12
        assert np.abs(loop[2] - runs).max() <= 1e-12
        for mech in (SecondPriceTA(reserve), MaxVivaAuction(uniform_distribution(0.0, 100.0))):
            runs = np.array([mech.run(net, profile).seller_revenue for profile in profiles])
            assert mech.compile(net, compiled_on).revenues(matrix).tobytes() == runs.tobytes()

    @pytest.mark.parametrize("name", list(DRAW_MATRIX_COMPILES))
    def test_every_compile_matches_run(self, name):
        build, scale, examples = DRAW_MATRIX_COMPILES[name]
        seen = dict.fromkeys(["deep winner", "unsold", "unreached top", "20+ agents",
                              "stamp tie"], 0)

        @settings(derandomize=True, max_examples=examples, deadline=None)
        @given(case=digraph_draws(scale))
        def check(case):
            net, stamps, exps, matrix = case
            mech, ids = build(exps), sorted(net.agents)
            profiles, parent, ran = rows = run_rows(mech, net, matrix, stamps)
            if type(mech) in (LblevAuction, ReferralAuction):
                assert_level_family(mech, net, matrix, rows)
            else:
                revenues = mech.compile(net, profiles[-1]).revenues(matrix)
                if isinstance(mech, PowerTA):   # numpy's ** may round apart from libm's
                    # the referral run on the depth-one star: PowerRule's Myerson
                    # threshold, not lblev's rho**(t_r/t_w)
                    star = [transformed_auction_revenue(net, p, PowerRule(exps)) for p in profiles]
                    assert np.abs(revenues - star).max() <= 1e-9
                    assert np.abs(revenues - ran[2]).max() <= 1e-9
                else:
                    assert revenues.tobytes() == ran[2].tobytes()
            # a deep winner's grandparent is not the seller; a stamp tie picks a
            # parent by id among the inviters with the least stamp; a binding
            # reserve changes the revenue
            inside = np.isin(ids, list(parent))
            seen["deep winner"] += sum(parent.get(parent.get(w, 0), 0) != 0 for w in ran[0])
            seen["unsold"] += sum(ran[0] == -1)
            seen["unreached top"] += sum(matrix[:, ~inside].max(1) > matrix[:, inside].max(1))
            seen["20+ agents"] += len(ids) >= 20
            seen["stamp tie"] += sum(sum(stamps[k] == stamps[p] for k in parent
                                         if j in net.out_edges.get(k, ())) > 1
                                     for j, p in parent.items() if p != 0)
            if getattr(getattr(mech, "rule", None), "reserve", 0.0):
                free = SecondPriceTA(0.0).compile(net, profiles[-1]).revenues(matrix)
                seen["reserve binds"] = seen.get("reserve binds", 0) + sum(ran[2] != free)

        check()
        assert min(seen.values()) >= self.FLOOR, seen


class TestIdmTree:
    def test_fig_instance_unit_exponent_trace(self, fig):
        inst, tree = fig
        out = run_idm_tree(tree, inst.reports.values())
        # derived by hand-executing the unit-exponent descent:
        # level prices 9, then 9+726=735, then 735+10=745
        assert out.winner == 8
        assert out.seller_revenue == pytest.approx(9.0)
        assert out.payments[8] == pytest.approx(745.0)
        assert out.payments[1] == pytest.approx(9.0 - 735.0)
        assert out.payments[5] == pytest.approx(735.0 - 745.0)

    def test_depth_one_is_second_price(self):
        inst = fixtures.depth1_instance((10.0, 7.0))
        tree = build_referral_tree(inst.net, inst.reports)
        out = run_idm_tree(tree, inst.reports.values())
        assert out.winner == 1
        assert out.payments[1] == pytest.approx(7.0)

    def test_all_zero_unsold(self):
        inst = fixtures.depth1_instance((0.0, 0.0))
        tree = build_referral_tree(inst.net, inst.reports)
        out = run_idm_tree(tree, inst.reports.values())
        assert out.winner is None


class TestAgainstNaiveReference:
    # How many of the exact-oracle test's instances disagree with the oracle
    # at each scale 2**k below -29, on each of run, compiled points and
    # outcomes rows alike: the absolute EQ_TOL margin turns decisions that
    # the exact descent makes the other way (the scale instance's known
    # defect).  23 at every k <= -34.
    EXACT_TREES, EXACT_MISSES = 100, {-30: 0, -31: 2, -32: 7, -33: 16}

    def test_every_path_matches_the_exact_descent(self):
        """IDM's ``run``, its compiled ``point`` and ``curve`` at each
        agent's value, one ``outcomes`` row per instance and
        :func:`lblev_first_level_revenues` at t = 1 against
        :func:`oracles.exact_level_auction`, on values ``v * 2**k`` (v an
        integer in 0..20) at every k in -60..60.  Every difference of such
        values is exact in doubles, so from k = -29 up, where 2**k >
        EQ_TOL, no tolerance test can turn a decision and every path
        matches exactly; below, the misses are pinned per k."""
        rng = np.random.default_rng(5)
        mech, scales = LblevAuction(None), range(-60, 61)
        misses = {k: [0, 0, 0] for k in scales}
        for _ in range(self.EXACT_TREES):
            n = int(rng.integers(2, 9))
            children = random_tree_children(rng, n)
            ints = {i: int(rng.integers(0, 21)) for i in range(1, n + 1)}
            net = network_from_edges([(p, c) for p, kids in children.items() for c in kids])
            ids, rows = sorted(ints), []

            def top(node):   # the subtree maximum of the integer values
                return max([ints[node]] + [top(c) for c in children.get(node, [])])

            first_ints = [(c, top(c)) for c in children[0]]
            for k in scales:
                values = {i: math.ldexp(v, k) for i, v in ints.items()}
                winner, pays = exact_level_auction(children, values)
                net_pay, revenue = naive_net_payments(winner, pays, ids)
                want = [(float(i == winner), net_pay[i]) for i in ids]
                rows.append(([-1 if winner is None else winner], [net_pay[i] for i in ids],
                             revenue))
                profile = truthful_profile(net, values)
                out = mech.run(net, profile)
                misses[k][0] += [(out.allocation.get(i, 0.0), out.payments.get(i, 0.0))
                                 for i in ids] + [out.seller_revenue] != want + [revenue]
                compiled = mech.compile(net, profile)
                misses[k][1] += ([compiled.point(i, values[i]) for i in ids] != want
                                 or [compiled.curve(i, [values[i]])[0] for i in ids] != want)
                first = [(c, math.ldexp(m, k)) for c, m in first_ints]
                assert lblev_first_level_revenues(first, None, [1.0]) == [revenue], k
            winner, payments, revenue = mech.compile(net, profile).outcomes(
                [[math.ldexp(ints[i], k) for i in ids] for k in scales])
            for k, w, p, r, want in zip(scales, winner, payments, revenue, rows):
                misses[k][2] += ([w], p.tolist(), r) != want
        expected = {k: 0 if k >= -29 else self.EXACT_MISSES.get(k, 23) for k in scales}
        assert {k: tuple(m) for k, m in misses.items()} == {
            k: (n, n, n) for k, n in expected.items()}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(1, 10))
    def test_ir_and_conservation_properties(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = random_tree_instance(n, rng)
        exps = {i: float(rng.uniform(0.5, 3.0)) for i in inst.net.agents}
        tree = build_referral_tree(inst.net, inst.reports)
        out, traces = run_lblev(tree, inst.reports.values(), exps)
        assert sum(out.payments.values()) == pytest.approx(out.seller_revenue, abs=1e-9)
        for agent in inst.net.agents:
            utility = out.utility(agent, inst.reports.value(agent))
            assert utility >= -1e-9
        # offsets never decrease down the winning path
        offsets = [t.offset for t in traces]
        assert offsets == sorted(offsets)


class TestRankLevel:
    def test_matches_sorted_reference(self):
        rng = np.random.default_rng(29)
        # exact rho**t ties across exponents: 4**0.5 == 2**1, 16**0.5 == 4**1 == 2**2
        rhos = (0.0, 1.0, 2.0, 4.0, 16.0)
        cross_ties = 0
        for _ in range(4000):
            k = int(rng.integers(2, 7))
            ids = [int(i) for i in rng.choice(np.arange(1, 30), size=k, replace=False)]
            texp = {i: float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.2, 4.0)])) for i in ids}
            survivors = [(i, float(rng.choice(rhos)) if rng.random() < 0.7
                          else float(rng.uniform(0.0, 20.0))) for i in ids]
            got = mechanisms._rank_level(texp, survivors)
            assert repr(got) == repr(sorted_rank_level(texp, survivors)), (texp, survivors)
            scores = [rho ** texp[i] for i, rho in survivors]
            cross_ties += any(scores[a] == scores[b] and texp[ids[a]] != texp[ids[b]]
                              for a in range(k) for b in range(a))
        assert cross_ties >= 500


class TestMyersonLevelPayment:
    def test_power_rule_matches_closed_form(self):
        rule = PowerRule({5: 2.0, 4: 1.0})
        z = myerson_level_payment(rule, 5, {5: 21.0, 4: 6.0})
        assert z == pytest.approx(math.sqrt(6.0), abs=1e-9)

    def test_argmax_is_second_price(self):
        z = myerson_level_payment(ArgmaxRule(), 1, {1: 10.0, 2: 7.0, 3: 3.0})
        assert z == pytest.approx(7.0, abs=1e-9)

    def test_single_participant_pays_zero(self):
        assert myerson_level_payment(ArgmaxRule(), 1, {1: 4.0}) == 0.0

    def test_reserve_rule_threshold_is_reserve(self):
        rule = SecondPriceReserveRule(0.5)
        z = myerson_level_payment(rule, 1, {1: 0.9, 2: 0.2})
        assert z == pytest.approx(0.5, abs=1e-9)

    def test_matches_indicator_integral(self):
        # threshold equals rho_w minus the integral of the win indicator
        rng = np.random.default_rng(2)
        for _ in range(20):
            rhos = {i: float(rng.uniform(0, 50)) for i in range(1, 5)}
            rule = PowerRule({i: float(rng.uniform(0.5, 3)) for i in rhos})
            winner = rule.winner(rhos)
            z = myerson_level_payment(rule, winner, rhos)
            ys = np.linspace(0.0, rhos[winner], 20001)
            wins = 0
            for y in ys:
                trial = dict(rhos)
                trial[winner] = float(y)
                wins += rule.winner(trial) == winner
            integral = rhos[winner] * wins / len(ys)
            assert z == pytest.approx(rhos[winner] - integral, abs=rhos[winner] / 2000)

    def test_brute_scan_agreement(self):
        rng = np.random.default_rng(9)
        rhos = {i: float(rng.uniform(0, 20)) for i in range(1, 4)}
        rule = PowerRule({i: float(rng.uniform(0.5, 3)) for i in rhos})
        winner = rule.winner(rhos)
        z = myerson_level_payment(rule, winner, rhos)
        scan = threshold_by_scan(rule.winner, winner, rhos)
        assert z == pytest.approx(scan, abs=rhos[winner] / 10000)

    def test_non_monotone_rule_rejected(self):
        with pytest.raises(NonMonotoneRuleError):
            myerson_level_payment(ArgminRule(), 2, {1: 10.0, 2: 3.0})

    @pytest.mark.parametrize("rule, winner, rhos, error, message", [
        (ArgmaxRule(), 1, {1: 1.0, 2: -0.5}, ValueError, "must be non-negative"),
        (ArgmaxRule(), 2, {1: 5.0, 2: 1.0}, ValueError, "2 is not the rule's winner"),
        # the bisection converges on 2; the low probe at a quarter of it wins
        (BandRule(), 1, {1: 4.0, 2: 1.0}, NonMonotoneRuleError,
         "band: wins below its own threshold"),
    ], ids=["negative", "not-the-winner", "wins-below-threshold"])
    def test_rejected_inputs(self, rule, winner, rhos, error, message):
        with pytest.raises(error, match=message):
            myerson_level_payment(rule, winner, rhos)

    def test_bisects_to_adjacent_floats(self):
        # a threshold far below the winner's value comes out exactly
        assert myerson_level_payment(ArgmaxRule(), 1, {1: 1e3, 2: 1e-3}) == 1e-3
        assert myerson_level_payment(ArgmaxRule(), 1, {1: 1e300, 2: 1e-300}) == 1e-300
        # lo + hi would overflow here; the midpoint must not
        assert myerson_level_payment(ArgmaxRule(), 1, {1: 1.7e308, 2: 1.5e308}) == 1.5e308

    def test_argmax_referral_prices_as_idm_at_a_huge_value(self):
        # agent 1's subtree maximum is 1e160 and its threshold agent 2's 10
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)])
        profile = truthful_profile(net, {1: 5.0, 2: 10.0, 3: 5.0, 4: 1e160, 5: 100.0})
        out = ReferralAuction(ArgmaxRule()).run(net, profile)
        assert out == LblevAuction(None).run(net, profile)
        assert (out.winner, out.seller_revenue) == (4, 10.0)
        assert out.payments == {1: 0.0, 3: -90.0, 4: 100.0}


# zeros, subnormals, ties (the sampled values repeat) and values whose
# square or cube overflows, plus arbitrary floats
LEVEL_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 7.0, 1e150, 1e200]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
RULE_EXPONENTS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.25, 4.0))


def _result(fn):
    """``fn()``'s float as its hex, so a sign of zero counts, or the
    exception type it raises."""
    try:
        out = fn()
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return out.hex() if isinstance(out, float) else out


class TestRulesAgainstOneLiners:
    """The one-loop rules and the reused-trial bisection against the
    one-liner rules and a bisection that copies the level per probe."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(level=st.dictionaries(st.integers(1, 12), LEVEL_VALUES, min_size=1, max_size=8),
           exponents=st.dictionaries(st.integers(1, 12), RULE_EXPONENTS, max_size=12),
           reserve=st.sampled_from([0.0, 1.0, 7.0]))
    def test_same_winner_and_threshold(self, level, exponents, reserve):
        for rule, old in ((ArgmaxRule(), argmax_winner),
                          (PowerRule(exponents), power_winner(exponents)),
                          (SecondPriceReserveRule(reserve), reserve_winner(reserve))):
            winner = _result(lambda: rule.winner(level))
            assert winner == _result(lambda: old(level))
            if isinstance(winner, int):
                assert _result(lambda: myerson_level_payment(rule, winner, level)) == \
                    _result(lambda: copying_level_payment(old, winner, level))


class TestPowerRule:
    def test_rejects_a_bad_exponent_when_built(self):
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(InstanceError, match=r"exponent t\[1\]"):
                PowerRule({1: bad})


class TestReferralAuction:
    def test_power_rule_reduces_to_lblev(self, fig):
        inst, tree = fig
        ra, _ = run_referral_auction(inst.net, inst.reports, PowerRule(inst.exponents))
        lb, _ = run_lblev(tree, inst.reports.values(), inst.exponents)
        assert ra.winner == lb.winner
        for agent in tree.agents():
            assert (ra.payments.get(agent, 0.0)
                    == pytest.approx(lb.payments.get(agent, 0.0), abs=1e-9))

    def test_argmax_rule_reduces_to_idm(self, fig):
        inst, tree = fig
        ra, _ = run_referral_auction(inst.net, inst.reports, ArgmaxRule())
        idm = run_idm_tree(tree, inst.reports.values())
        assert ra.winner == idm.winner
        for agent in tree.agents():
            assert (ra.payments.get(agent, 0.0)
                    == pytest.approx(idm.payments.get(agent, 0.0), abs=1e-9))

    def test_all_zero_unsold(self):
        # all-zero profiles, and agents the seller does not reach (an empty
        # tree): no level is descended, so there are no traces either
        fig = fixtures.fig_lblev_instance().net
        cases = [(fixtures.depth1_instance((0.0, 0.0, 0.0)).net, {1: 0.0, 2: 0.0, 3: 0.0}),
                 (fig, {i: 0.0 for i in fig.agents}),
                 (network_from_edges([(1, 2)], agents=(1, 2)), {1: 5.0, 2: 7.0})]
        rules = [ArgmaxRule(), PowerRule({1: 2.0, 2: 0.5}), SecondPriceReserveRule(0.5)]
        unsold = repr((Outcome({}, {}, 0.0), []))
        for net, values in cases:
            profile = truthful_profile(net, values)
            tree = build_referral_tree(net, profile)
            for exponents in ({}, fixtures.FIG_LBLEV_EXPONENTS):
                assert repr(run_lblev(tree, profile.values(), exponents)) == unsold
            for rule in rules:
                assert repr(run_referral_auction(net, profile, rule)) == unsold

    def test_single_surviving_child_lets_parent_keep(self):
        # one remaining subtree prices the level at zero, so the parent's
        # own value beats offset + 0 and it keeps the item
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        stamps = {1: 0, 2: 1, 3: 2}
        values = {1: 5.0, 2: 4.0, 3: 9.0}
        profile = truthful_profile(net, values, stamps)
        out, _ = run_referral_auction(net, profile, ArgmaxRule())
        assert out.winner == 1
        assert out.payments[1] == pytest.approx(4.0)

    def test_diamond_network_reroutes_on_withheld_edge(self):
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)])
        stamps = {1: 0, 2: 1, 3: 2, 4: 3}
        values = {1: 1.0, 2: 0.5, 3: 9.0, 4: 6.0}
        profile = truthful_profile(net, values, stamps)
        tree = build_referral_tree(net, profile)
        assert tree.parent[3] == 1  # first inviter
        out, _ = run_referral_auction(net, profile, ArgmaxRule())
        assert out.winner == 3
        assert 2 not in out.payments  # off the winning path, so it pays 0
        withheld = profile.replace(1, neighbors=frozenset())
        tree2 = build_referral_tree(net, withheld)
        assert tree2.parent[3] == 2  # re-routed below the other inviter
        out2, _ = run_referral_auction(net, withheld, ArgmaxRule())
        assert out2.winner == 3
        assert out2.payments[2] < 0.0  # now 2 forwards and earns commission

    def test_reserve_rule_unsold_below_reserve(self):
        inst = fixtures.depth1_instance((0.3, 0.2))
        out, _ = run_referral_auction(inst.net, inst.reports,
                                      SecondPriceReserveRule(0.5))
        assert out.winner is None
        assert out.seller_revenue == 0.0


class TestTransformedAuction:
    def test_fig_revenue_matches(self, fig):
        inst, _ = fig
        rule = PowerRule(inst.exponents)
        ra, _ = run_referral_auction(inst.net, inst.reports, rule)
        assert transformed_auction_revenue(inst.net, inst.reports, rule) == ra.seller_revenue

    def test_random_instances_exact_equality(self):
        rng = np.random.default_rng(21)
        for k in range(50):
            n = int(rng.integers(1, 11))
            edges = random_dag_edges(rng, n)
            net = network_from_edges(edges, agents=range(1, n + 1))
            values = {i: float(rng.uniform(0, 100)) for i in net.agents}
            profile = truthful_profile(net, values)
            rule = PowerRule({i: float(rng.uniform(0.5, 3)) for i in net.agents})
            ra, _ = run_referral_auction(net, profile, rule)
            assert transformed_auction_revenue(net, profile, rule) == ra.seller_revenue


class TestRcExampleMechanism:
    def test_worked_example_payments(self):
        out = rc_example_mechanism([4.0, 6.0, 9.0])
        assert out.payments == {1: -2.0, 2: 0.0, 3: 2.0}
        assert out.allocation == {1: 0.0, 2: 1.0 / 3.0, 3: 2.0 / 3.0}
        assert out.seller_revenue == 0.0

    def test_payments_sum_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            bids = [float(rng.uniform(0, 10)) for _ in range(3)]
            out = rc_example_mechanism(bids)
            assert sum(out.payments.values()) == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_unsold(self):
        out = rc_example_mechanism([0.0, 0.0, 0.0])
        assert all(a == 0.0 for a in out.allocation.values())
        assert all(p == 0.0 for p in out.payments.values())

    def test_equal_bids_tie_break_by_id(self):
        out = rc_example_mechanism([5.0, 5.0, 5.0])
        assert out.allocation == {1: 2.0 / 3.0, 2: 1.0 / 3.0, 3: 0.0}

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            rc_example_mechanism([1.0, 2.0])

    def test_negative_bid_rejected(self):
        # unchecked, a NaN bidder takes 2/3 of the item, and inf bids pay inf and -inf
        for bad in (-2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="bids must be non-negative"):
                rc_example_mechanism([1.0, bad, 3.0])


class TestEquivalences:
    def test_winner_monotone_under_own_raise(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            inst = random_tree_instance(int(rng.integers(2, 9)), rng)
            mech = LblevAuction({i: float(rng.uniform(0.5, 3)) for i in inst.net.agents})
            out = mech.run(inst.net, inst.reports)
            if out.winner is None:
                continue
            for delta in (1e-6, 0.5, 3.0, 50.0):
                raised = inst.reports.replace(
                    out.winner, value=inst.reports.value(out.winner) + delta)
                assert mech.run(inst.net, raised).winner == out.winner


UNSOLD3 = repr([(0.0, 0.0)] * 3)


def per_point(mech, net, profile, agent, xs):
    """The agent's curve by one ``run`` call per own value."""
    outs = [mech.run(net, profile.replace(agent, value=x)) for x in xs]
    return [(out.allocation.get(agent, 0.0), out.payments.get(agent, 0.0)) for out in outs]


def assert_point_is_one_point_curve(fresh, compiled, agent, xs, label=None):
    """``fresh.point(agent, x)`` against ``compiled.curve(agent, [x])[0]``
    at each of ``xs``, by ``repr`` so a ``-0.0`` counts.  ``fresh`` is a
    second compile of the same profile, on which ``point`` plans the agent
    itself."""
    assert ([repr(fresh.point(agent, x)) for x in xs]
            == [repr(compiled.curve(agent, [x])[0]) for x in xs]), label


def curve_points(compiled, agent, subset, profile, grid, ties):
    """The points a verifier table would price, with coarser bisection:
    the grid, 0, the true value and the midpoints that bracket every
    allocation jump to 1/1024 of the grid span, plus ``ties``."""
    table = _CurveTable(compiled, agent, subset, grid.points[-1] / 1024)
    table.ensure(grid.points)
    table.ensure([0.0, profile.value(agent)])
    table.refine_jumps()
    return table.arrays()[0].tolist() + list(ties)


def step_edges(compiled, agent):
    """Each finite non-negative edge of ``agent``'s step table (its least
    winning value and keep threshold) and the double just below it; none
    on a default compile, which prices by run."""
    if type(compiled) is Compiled:
        return []
    compiled.point(agent, 0.0)   # plans the agent
    least, keep, _, _ = compiled._steps.get(agent, compiled._NEVER)
    return [y for t in (least, keep) if 0 <= t < math.inf
            for y in (t, math.nextafter(t, -math.inf)) if y >= 0]


def assert_curve_is_run(compiled, agent, xs, label):
    """``compiled.curve(agent, ...)`` against one ``run`` per point, and
    ``point`` against a one-point ``curve``, at ``xs`` and each step's edges,
    each once."""
    mech, net, profile = compiled.mech, compiled.net, compiled.reports
    xs = list(dict.fromkeys([*xs, *step_edges(compiled, agent)]))
    assert (repr(compiled.curve(agent, xs))
            == repr(per_point(mech, net, profile, agent, xs))), label
    assert_point_is_one_point_curve(mech.compile(net, profile), compiled, agent, xs, label)


def verify_trees_pool(count: int, seed: int = 2024):
    """The first ``count`` instances of perfbench's verify-trees pool as
    (network, truthful profile, exponent draws, grid): c03 shapes and
    draws, and values uniform on [0, 100) from ``default_rng([seed, k])``."""
    for k, inst, draws, _ in c03_instances(count):
        rng = np.random.default_rng([seed, k])
        values = {i: float(rng.uniform(0.0, 100.0)) for i in sorted(inst.net.agents)}
        reports = truthful_profile(inst.net, values)
        yield inst.net, reports, draws, make_grid(reports, size=64, seed=k)


# The step-table compiles, each built from an instance's per-agent exponent
# draws and, on a tree, its children: lblev on the draws and on their
# sibling-shared form, and the referral family, whose ArgmaxRule reads no draw.
STEP_TABLE_COMPILES = {
    "lblev": lambda draws, children: LblevAuction(draws),
    "lblev:sibling-shared": lambda draws, children: LblevAuction(
        sibling_shared_exponents(children, draws)),
    "ra:argmax": lambda draws, children: ReferralAuction(ArgmaxRule()),
    "ra:argmax-pow": lambda draws, children: ReferralAuction(PowerRule(draws)),
}
# (digraph cases, floor on each kind of agent seen) of the compiles that run
# on general digraphs; sized so that each referral rule takes about 1 s
DIGRAPH_CASES = {"lblev": (60, 40), "ra:argmax": (10, 10), "ra:argmax-pow": (10, 10)}


class TestCompiledCurve:
    """``compile(net, reports).curve`` against one ``run`` per point, bit
    for bit: compared by ``repr``, so a ``-0.0`` counts."""

    @pytest.mark.parametrize("name", sorted(STEP_TABLE_COMPILES))
    def test_c03_step_tables_every_agent_and_subset(self, name):
        """Every agent and forwarded subset of its children on 40 c03
        instances, at the table points, sibling-value and subtree-best
        ties and each step's edges; the agents below a withheld child, and
        the all-zero profile."""
        for k, inst, draws, _ in c03_instances(40):
            net, reports = inst.net, inst.reports
            children = tree_children(net)
            mech = STEP_TABLE_COMPILES[name](draws, children)
            grid = make_grid(reports, size=16, seed=k)
            zero = truthful_profile(net, {i: 0.0 for i in net.agents})
            tree = build_referral_tree(net, reports)
            best = {i: max(reports.value(j) for j in tree.subtree(i)) for i in tree.agents()}
            for agent in sorted(net.agents):
                parent = next(p for p, kids in children.items() if agent in kids)
                # values tied with a sibling's own and subtree-best value
                ties = [x for s in children[parent] if s != agent
                        for x in (reports.value(s), best[s])]
                kids = children.get(agent, [])
                for r in range(len(kids) + 1):
                    for subset in itertools.combinations(kids, r):
                        profile = reports.replace(agent, neighbors=subset)
                        compiled = mech.compile(net, profile)
                        assert_curve_is_run(compiled, agent, curve_points(
                            compiled, agent, subset, profile, grid, ties), (k, agent))
                        # agents below a withheld child are cut off
                        for cut in set(kids) - set(subset):
                            for i in tree.subtree(cut):
                                probe = [0.0, reports.value(i), grid.points[-1]]
                                assert repr(compiled.curve(i, probe)) == UNSOLD3
                                assert repr(per_point(mech, net, profile, i, probe)) == UNSOLD3
                                assert repr([compiled.point(i, x) for x in probe]) == UNSOLD3
                assert_curve_is_run(mech.compile(net, zero), agent,
                                    [0.0, 1.0, grid.points[7]], (k, agent))

    @pytest.mark.parametrize("name", sorted(DIGRAPH_CASES))
    def test_digraph_step_tables_every_agent(self, name):
        """Multi-inviter digraphs with timestamp ties, where the agent's own
        forwarding re-routes the tree: deep agents, cut-off agents, and
        agents whose other values are all 0."""
        cases, floor = DIGRAPH_CASES[name]
        rng = np.random.default_rng(31)
        seen = {"deep": 0, "cut": 0, "others_zero": 0}
        for case in range(cases):
            net, forwards, stamps, _ = random_referral_case(rng, int(rng.integers(2, 10)))
            values = {i: float(rng.choice([0.0, 5.0, 5.0, rng.uniform(0.0, 10.0)]))
                      for i in net.agents}
            draws = {i: float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.5, 3.0)]))
                     for i in net.agents}
            mech = STEP_TABLE_COMPILES[name](draws, None)
            for agent in sorted(net.agents):
                alone = {i: 0.0 for i in net.agents}
                alone[agent] = values[agent]
                for vals in (values, alone):
                    for sent in (forwards[agent], frozenset()):
                        sends = dict(forwards)
                        sends[agent] = sent
                        profile = ReportProfile({i: Report(vals[i], sends[i], stamps[i])
                                                 for i in net.agents})
                        try:
                            tree = build_referral_tree(net, profile)
                        except InstanceError:    # stamps that make the parent map cyclic
                            continue
                        compiled = mech.compile(net, profile)
                        ties = [vals[i] for i in sorted(net.agents) if i != agent]
                        grid = make_grid(profile, size=16, seed=case)
                        assert_curve_is_run(compiled, agent, curve_points(
                            compiled, agent, tuple(sorted(sent)), profile, grid, ties),
                            (case, agent))
                        # depth 3 or more: the agent's grandparent is not the seller
                        seen["deep"] += tree.parent.get(tree.parent.get(agent, 0), 0) != 0
                        seen["cut"] += agent not in tree.agents()
                        seen["others_zero"] += vals is alone and agent in tree.agents()
        assert min(seen.values()) >= floor, seen

    # sha256 over verify_mechanism's reports (to_dict() and details) for
    # each referral rule on the first 40 verify-trees pool instances,
    # recorded at commit cb5c7e1, where every point was one run, and
    # re-recorded when each table began to price its compile's jump hints,
    # which moved diffusion details by under xtol and no to_dict()
    REFERRAL_POOL_DIGESTS = {
        "argmax": "6a1380564e9cb3d75086003d282e5c9fabea16efeeb829702a382e4cd89d1091",
        "argmax-pow": "96af92e0afe0ce6f48b0d52ad322d19f7321b77ab11ed6e19e4e5f7d4d47f642"}

    @pytest.mark.parametrize("rule", sorted(REFERRAL_POOL_DIGESTS))
    def test_referral_pool_reports_digest(self, rule):
        digest = hashlib.sha256()
        for net, reports, draws, grid in verify_trees_pool(40):
            mech = STEP_TABLE_COMPILES["ra:" + rule](draws, None)
            for r in verify_mechanism(mech, net, reports, grid):
                digest.update(repr((r.to_dict(), r.details)).encode())
        assert digest.hexdigest() == self.REFERRAL_POOL_DIGESTS[rule], digest.hexdigest()

    # 0 -> {1, 2}, agent 1 at 0 and agent 2 scored by x**2: agent 2 wins the
    # id tie with agent 1's 0 only once x**2 rounds above 0, about 2**61
    # doubles above 0, so the threshold search must gallop, not step
    TINY_THRESHOLD = 1.5717277847026288e-162

    @pytest.mark.parametrize("mech", [LblevAuction({2: 2.0}), ReferralAuction(PowerRule({2: 2.0}))],
                             ids=["lblev", "ra:argmax-pow"])
    def test_threshold_far_above_zero(self, mech):
        net = network_from_edges([(0, 1), (0, 2)])
        profile = truthful_profile(net, {1: 0.0, 2: 1.0})
        t = self.TINY_THRESHOLD
        xs = [0.0, 5e-324, 1e-170, math.nextafter(t, 0.0), t, math.nextafter(t, 1.0), 1.0]
        compiled = mech.compile(net, profile)
        assert repr(compiled.curve(2, xs)) == repr(per_point(mech, net, profile, 2, xs))
        assert_point_is_one_point_curve(mech.compile(net, profile), compiled, 2, xs)
        assert compiled._steps[2][0] == t
        # at its threshold the lblev winner pays agent 1's 0**(1/2), the
        # referral winner its Myerson threshold, x itself
        assert compiled.point(2, t) == (1.0, 0.0 if isinstance(mech, LblevAuction) else t)

    def test_non_monotone_rule_raises_when_the_agent_is_planned(self):
        """``ArgminRule`` fails :func:`myerson_level_payment`'s probe at the
        root level.  ``curve`` and ``point`` raise it when they plan the
        agent, before any own value is priced.  The message names twice the
        level's largest value, which agents 2 and 3 share, so a plan that
        probes with either left out raises the message ``run`` raises."""
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4)])
        profile = truthful_profile(net, {1: 5.0, 2: 50.0, 3: 50.0, 4: 20.0})
        mech = ReferralAuction(ArgminRule())
        for agent in sorted(net.agents):
            x = profile.value(agent)
            with pytest.raises(NonMonotoneRuleError) as by_run:
                mech.run(net, profile)
            with pytest.raises(NonMonotoneRuleError) as by_curve:
                mech.compile(net, profile).curve(agent, [x])
            with pytest.raises(NonMonotoneRuleError) as by_point:
                mech.compile(net, profile).point(agent, x)
            assert str(by_run.value) == str(by_curve.value) == str(by_point.value), agent
            assert str(by_run.value) == "argmin: winner loses when raised to 100.0"

    def test_threshold_at_the_power_bound(self):
        """0 -> {1, 2}, both scored by x**2, agent 1 at or just below the
        largest value whose square is finite: agent 2's threshold sits at
        :func:`_check_power_range`'s bound, or one double past it.  Every
        path either matches ``run`` or raises its ``InstanceError``, and
        none raises where ``run`` does not."""
        net = network_from_edges([(0, 1), (0, 2)])
        mech = LblevAuction({1: 2.0, 2: 2.0})
        top = math.sqrt(sys.float_info.max)
        while not math.isfinite(top * top):
            top = math.nextafter(top, 0.0)
        for v in (top, math.nextafter(top, 0.0), math.nextafter(math.nextafter(top, 0.0), 0.0)):
            profile = truthful_profile(net, {1: v, 2: 1.0})
            compiled = mech.compile(net, profile)
            xs = [0.0, v / 2, v]
            for _ in range(3):
                xs = [math.nextafter(xs[0], 0.0)] + xs + [math.nextafter(xs[-1], math.inf)]
            for x in sorted(xs):
                try:
                    expected = repr(per_point(mech, net, profile, 2, [x]))
                except InstanceError as exc:
                    for call in (lambda: compiled.curve(2, [x]), lambda: compiled.point(2, x)):
                        with pytest.raises(InstanceError, match=re.escape(str(exc))):
                            call()
                    continue
                assert repr(compiled.curve(2, [x])) == expected, (v, x)
                assert repr([compiled.point(2, x)]) == expected, (v, x)

    # Referral compiles on which PowerRule may overflow, as (edges, values,
    # exponents, whether the check on the reported profile makes the compile
    # the default one, or only the plan probes past the checked values):
    # agent 1's x**4 at 2e307, whose Myerson probe at twice its value
    # overflows wherever agent 1 wins, though agent 2 wins without overflow
    # from about 4.47e153 up; a descent that below agent 3's value enters
    # agent 1's subtree, whose probe overflows; and a profile on which the
    # rule scores every agent at twice the largest value, while agent 2's
    # plan, searching up to agent 1's key 2.25e307, probes past it
    RULE_OVERFLOW_CASES = [
        ([(0, 1), (0, 2)], {1: 2e307 ** 0.25, 2: 1.0000001 * math.sqrt(2e307)},
         {1: 4.0, 2: 2.0}, "check"),
        ([(0, 1), (0, 2), (1, 3), (1, 4)],
         {1: 0.0, 2: 1e100, 3: 2e307 ** 0.25, 4: 0.9 * 2e307 ** 0.25}, {3: 4.0, 4: 4.0}, "check"),
        ([(0, 1), (0, 2)], {1: math.sqrt(2.25e307), 2: 1.0}, {1: 2.0, 2: 1.5}, "plan"),
    ]

    @pytest.mark.parametrize("edges, values, exponents, by", RULE_OVERFLOW_CASES,
                             ids=["probe-at-2v", "sibling-subtree", "plan-probe"])
    def test_rule_overflow_prices_as_run(self, edges, values, exponents, by):
        """Where the rule may overflow, a referral compile prices each point
        by ``run``: ``curve``, ``point`` and ``evaluate`` match ``run`` by
        ``repr`` or raise its :class:`InstanceError`, the ``ir`` check
        passes as ``run`` does on the reported profile, and an empty
        ``curve`` is empty."""
        net = network_from_edges(edges)
        profile = truthful_profile(net, values)
        mech = ReferralAuction(PowerRule(exponents))
        assert verify_mechanism(mech, net, profile, None, ("ir",))[0].passed
        for agent in sorted(net.agents):
            compiled = mech.compile(net, profile)
            assert compiled.curve(agent, []) == []
            xs = [0.0, 1.0, profile.value(agent), 2.0 * profile.value(agent),
                  math.sqrt(2e307), 1.0000001 * math.sqrt(2e307), 1e154, 2e307 ** 0.25]
            for x in xs:
                try:
                    expected = repr(per_point(mech, net, profile, agent, [x]))
                except InstanceError as exc:
                    for call in (lambda: compiled.curve(agent, [x]),
                                 lambda: compiled.point(agent, x),
                                 lambda: mech.evaluate(net, profile.replace(agent, value=x),
                                                       agent)):
                        with pytest.raises(InstanceError, match=re.escape(str(exc))):
                            call()
                    continue
                assert repr(compiled.curve(agent, [x])) == expected, (agent, x)
                assert repr([compiled.point(agent, x)]) == expected, (agent, x)
                assert repr([mech.evaluate(net, profile.replace(agent, value=x), agent)]
                            ) == expected, (agent, x)
        compiled = mech.compile(net, profile)
        if by == "check":   # every agent, from the compile on
            assert type(compiled) is Compiled
        else:   # agent 2's plan counts the overflowing probes as wins, past every checked value
            assert isinstance(compiled, LevelCurves) and compiled.point(2, 1.0) == (0.0, 0.0)
            assert compiled._check(compiled._steps[2][0]) and not compiled._check(compiled._top)

    def test_a_child_the_rule_never_picks(self):
        """A monotone rule that passes over agent 2 whenever another child
        survives: agent 2 wins at no own value, so its curve is (0, 0)
        everywhere, as ``run`` says."""
        net = network_from_edges([(0, 1), (0, 2)])
        profile = truthful_profile(net, {1: 1.0, 2: 5.0})
        mech = ReferralAuction(PassOverRule())
        xs = [0.0, 1.0, 5.0, 1e300]
        assert (mech.compile(net, profile).curve(2, xs) == per_point(mech, net, profile, 2, xs)
                == [(0.0, 0.0)] * len(xs))

    def test_overflowing_profile_raises_as_run(self):
        """Where the rule may overflow on the reported profile, the compile
        is the default one, so every path raises ``run``'s error: for an
        agent outside the reached tree too, and at the first point of a
        batch before a later point's own error."""
        net = network_from_edges([(0, 1), (0, 2), (3, 1)], agents=[1, 2, 3])
        profile = truthful_profile(net, {1: 1e160, 2: 5.0, 3: 1.0})
        mech = ReferralAuction(PowerRule({1: 2.0, 2: 2.0}))
        with pytest.raises(InstanceError, match="overflows") as by_run:
            mech.run(net, profile)
        compiled = mech.compile(net, profile)
        for call in (lambda: compiled.curve(3, [0.0]), lambda: compiled.point(3, 0.0),
                     lambda: mech.evaluate(net, profile, 3),
                     lambda: compiled.curve(2, [0.0, math.nan])):
            with pytest.raises(InstanceError, match=re.escape(str(by_run.value))):
                call()

    def test_outside_the_tree_before_the_bound(self):
        """An agent outside the reached tree is (0, 0) at every valid own
        value, as ``run`` says, even at one whose power the bound rejects
        inside the tree: its value never reaches a level."""
        net = network_from_edges([(0, 1), (0, 2), (3, 1)], agents=[1, 2, 3])
        profile = truthful_profile(net, {1: 5.0, 2: 1.0, 3: 1.0})
        xs = [0.0, 1e160]
        for mech in (LblevAuction({1: 2.0, 3: 2.0}), ReferralAuction(PowerRule({1: 2.0}))):
            compiled = mech.compile(net, profile)
            assert (compiled.curve(3, xs) == [compiled.point(3, x) for x in xs]
                    == per_point(mech, net, profile, 3, xs) == [(0.0, 0.0)] * 2), mech.name

    def test_invalid_own_values_raise(self):
        """On the planned compile and the default one, and inside and outside
        the reached tree; ``point`` raises a one-point ``curve``'s text."""
        inst = fixtures.fig_lblev_instance()
        cut = inst.reports.replace(1, neighbors=frozenset())
        mutant = make_mutant("flat-fee")
        for compiled in (LblevAuction(inst.exponents).compile(inst.net, cut),
                         mutant.compile(inst.net, cut)):
            for agent in (1, 8):     # inside and outside the reached tree
                for x in (-1.0, -math.inf, math.nan, math.inf):
                    with pytest.raises(InstanceError):
                        compiled.curve(agent, [1.0, x])
                    with pytest.raises(InstanceError) as by_curve:
                        compiled.curve(agent, [x])
                    with pytest.raises(InstanceError) as by_point:
                        compiled.point(agent, x)
                    assert str(by_point.value) == str(by_curve.value), (agent, x)

    def test_point_checks_the_power_bound_as_curve(self):
        """An own value above the compile's largest checked value is checked
        against :func:`_check_power_range` (``1e155**2`` is not finite):
        ``point`` raises ``curve``'s error and, as ``curve`` does, leaves
        the checked bound where it was; a value that passes raises it."""
        net = network_from_edges(TestPowerBound.EDGES)
        profile = truthful_profile(net, {**TestPowerBound.VALUES, 4: 1.0})
        mech = LblevAuction({4: 2.0})
        for agent in sorted(net.agents):
            by_point, by_curve = mech.compile(net, profile), mech.compile(net, profile)
            for x in (1e160, 1e155):
                with pytest.raises(InstanceError) as curve_err:
                    by_curve.curve(agent, [x])
                with pytest.raises(InstanceError) as point_err:
                    by_point.point(agent, x)
                assert str(point_err.value) == str(curve_err.value), (agent, x)
            assert by_point._top == by_curve._top == 100.0
            assert_point_is_one_point_curve(by_point, by_curve, agent,
                                            [1e154, 5.0, 0.0, 150.0], agent)
            assert by_point._top == by_curve._top == 1e154

    # The scale instance: 0 -> {1, 2}, 1 -> {3, 4}, values {1: 0, 2: s,
    # 3: 5s, 4: 3s}.  Scale-free, agent 3 wins and pays 3s, and agent 1
    # pays -2s.  At s = 2**-34 and below, the absolute EQ_TOL margin gives
    # the item to agent 1, whose value is 0, at price s: a known defect,
    # pinned here so that its fix shows on every path at once.
    SCALE_OUTCOMES = {1.0: (3, {1: -2.0, 3: 3.0}), 2.0 ** -30: (3, {1: -2.0, 3: 3.0}),
                      2.0 ** -34: (1, {1: 1.0}), 2.0 ** -40: (1, {1: 1.0})}

    @pytest.mark.parametrize("s", sorted(SCALE_OUTCOMES, reverse=True))
    def test_scale_instance_every_path_agrees(self, s):
        """``point``, ``curve``, ``evaluate`` and ``run`` agree bit for bit
        at every agent and probe value, the known ``EQ_TOL`` outcome at
        small scales included, for IDM and both referral rules (squaring
        every value keeps each ranking and threshold)."""
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4)])
        profile = truthful_profile(net, {1: 0.0, 2: s, 3: 5.0 * s, 4: 3.0 * s})
        for mech in (LblevAuction(None), ReferralAuction(ArgmaxRule()),
                     ReferralAuction(PowerRule({i: 2.0 for i in net.agents}))):
            out = mech.run(net, profile)
            winner, payments = self.SCALE_OUTCOMES[s]
            assert (out.winner, out.payments, out.seller_revenue) == (
                winner, {i: k * s for i, k in payments.items()}, s), mech.name
            compiled = mech.compile(net, profile)
            xs = [0.0, s, 3.0 * s, 5.0 * s, 6.0 * s]
            for agent in sorted(net.agents):
                label = (mech.name, agent)
                xs_agent = xs + step_edges(compiled, agent)
                assert repr(compiled.curve(agent, xs_agent)) == repr(
                    per_point(mech, net, profile, agent, xs_agent)), label
                assert_point_is_one_point_curve(mech.compile(net, profile), compiled, agent,
                                                xs_agent, label)
                assert repr(mech.evaluate(net, profile, agent)) == repr(
                    (out.allocation.get(agent, 0.0), out.payments.get(agent, 0.0))), label

    # sha256 over repr(curve) of every agent of both RcExampleAuction cases
    # below, recorded at commit 4377bb9, where the fixture overrode evaluate
    RC_CURVES_DIGEST = "54794b51ca4189ba4e5b94f7e4560e837818cb45a1711130533c388b3951515e"

    def test_default_compile_is_evaluate(self):
        for name, factory in DESIGNATED.values():
            mech, inst = make_mutant(name), factory()
            compiled = mech.compile(inst.net, inst.reports)
            assert type(compiled) is Compiled
            xs = make_grid(inst.reports, size=16).points
            for agent in sorted(inst.net.agents):
                assert (repr(compiled.curve(agent, xs))
                        == repr(per_point(mech, inst.net, inst.reports, agent, xs))), name
                # a class that overrides only ``curve`` gets ``point`` from it
                assert_point_is_one_point_curve(mech.compile(inst.net, inst.reports),
                                                compiled, agent, xs, (name, agent))
        rc = fig_rc_instance()
        digest = hashlib.sha256()
        for inst in (rc, Instance(rc.net, rc.reports.replace(1, neighbors=()))):
            compiled = RcExampleAuction().compile(inst.net, inst.reports)
            assert isinstance(compiled, Compiled)
            xs = make_grid(inst.reports, size=16).points
            for agent in sorted(inst.net.agents):
                digest.update(repr(compiled.curve(agent, xs)).encode())
        assert digest.hexdigest() == self.RC_CURVES_DIGEST, digest.hexdigest()

    def test_worked_example_matches_naive_oracle(self, fig):
        inst, tree = fig
        children = {k: list(v) for k, v in tree.children.items()}
        compiled = LblevAuction(inst.exponents).compile(inst.net, inst.reports)
        xs = sorted(set(make_grid(inst.reports, size=32).points)
                    | set(fixtures.FIG_LBLEV_VALUES.values()))
        for agent in sorted(inst.net.agents):
            expected = []
            for x in xs:
                values = dict(fixtures.FIG_LBLEV_VALUES)
                values[agent] = x
                winner, pays = naive_level_auction(children, values, inst.exponents)
                payments, _ = naive_net_payments(winner, pays, values)
                expected.append((1.0 if winner == agent else 0.0, payments[agent]))
            assert repr(compiled.curve(agent, xs)) == repr(expected), agent

    # seller -> 1, 2; 1 -> 3, 4; 3 -> 5 -> 6.  With unit exponents node 1
    # buys at 10 (2's value), agent 3 buys from it at 10 + 10 (4's rho) and
    # keeps the item when its own value is at least 20 - EQ_TOL; below that
    # it sells to 5 at 20, and 5 (value 15) sells on to 6.
    EARLY_STOP_EDGES = [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (5, 6)]
    EARLY_STOP_VALUES = {1: 5.0, 2: 10.0, 3: 30.0, 4: 20.0, 5: 15.0, 6: 80.0}

    def test_early_stop_cases_on_a_hand_built_tree(self):
        net = network_from_edges(self.EARLY_STOP_EDGES)
        base = truthful_profile(net, self.EARLY_STOP_VALUES)
        eps = mechanisms.EQ_TOL
        mech = LblevAuction({})
        # (profile, agent, {own value: winner}); every point is also compared
        cases = {
            "sells to its child, which sells deeper": (base, 3, {5.0: 6, 20.0 - 2 * eps: 6}),
            "keep test tied within EQ_TOL": (base, 3, {20.0 - 0.5 * eps: 3, 20.0: 3}),
            "keeps the item": (base, 3, {30.0: 3, 100.0: 3}),
            "winner leaves the path at the root level":
                (base.replace(2, value=200.0), 3, {0.0: 2, 50.0: 2, 300.0: 3}),
            "all other values zero":
                (truthful_profile(net, {i: 0.0 for i in net.agents}), 3, {0.0: None, 5.0: 1}),
            "cut-off agent": (base.replace(1, neighbors={4}), 3, {0.0: 4, 100.0: 4}),
        }
        for name, (profile, agent, winners) in cases.items():
            for x, winner in winners.items():
                assert mech.run(net, profile.replace(agent, value=x)).winner == winner, name
            xs = sorted(set(winners) | {0.0, 5.0, 20.0 - 2 * eps, 20.0, 30.0, 300.0})
            compiled = mech.compile(net, profile)
            for who in sorted(net.agents):
                assert (repr(compiled.curve(who, xs))
                        == repr(per_point(mech, net, profile, who, xs))), (name, who)
                assert_point_is_one_point_curve(mech.compile(net, profile), compiled,
                                                who, xs, (name, who))
        # below the tie agent 3 sold on and pays its net 20 - 20; at it, it keeps
        assert mech.compile(net, base).curve(3, [20.0 - 2 * eps, 20.0]) == [
            (0.0, 0.0), (1.0, 20.0)]

    def test_sibling_keys_are_taken_only_when_the_level_is_ranked(self):
        """seller -> 1, 2; 1 -> 3, 4, agent 4 at 1e160 with exponent 2, so
        ranking agent 3's level would square about 1e160.  Whether a point
        ranks that level or not, the profile fails the up-front bound:
        ``compile`` raises, and ``evaluate`` raises at either own value of
        agent 3, below agent 2's value (where 4 would be the lone
        survivor) and above it."""
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4)])
        profile = truthful_profile(net, {1: 5.0, 2: 10.0, 3: 30.0, 4: 1e160})
        mech = LblevAuction({4: 2.0})
        with pytest.raises(InstanceError, match=r"agents \[4\]"):
            mech.compile(net, profile)
        for x in (4.0, 50.0):
            with pytest.raises(InstanceError, match=r"agents \[4\]"):
                per_point(mech, net, profile, 3, [x])

    def test_one_compiled_object_alternating_agents(self):
        """Per-agent state survives other agents' calls, a rejected value
        and a batch that fails the power bound (``1e200**4`` is not
        finite), which raises as a whole as ``evaluate`` does."""
        net = network_from_edges(self.EARLY_STOP_EDGES)
        profile = truthful_profile(net, self.EARLY_STOP_VALUES)
        mech = LblevAuction({3: 2.0, 4: 0.5, 6: 1.5})
        compiled = mech.compile(net, profile)
        xs = [0.0, 4.0, 15.0, 20.0, 25.0, 79.0, 80.0, 81.0, 150.0]
        for step, agent in enumerate([3, 5, 3, 1, 6, 3, 2, 4, 5, 3]):
            assert (repr(compiled.curve(agent, xs))
                    == repr(per_point(mech, net, profile, agent, xs))), (step, agent)
            if step == 2:
                with pytest.raises(InstanceError):
                    compiled.curve(3, [25.0, -1.0])
            if step == 5:
                with pytest.raises(InstanceError):
                    compiled.curve(3, [25.0, 1e200])
                with pytest.raises(InstanceError):
                    per_point(mech, net, profile, 3, [1e200])


class TestPowerBound:
    """Values and exponents with ``max(V, 1)**max(t_max, t_max/t_min)``
    not finite raise one :class:`InstanceError` on every lblev path."""

    EDGES = [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)]
    VALUES = {1: 5.0, 2: 10.0, 3: 5.0, 4: 1e160, 5: 100.0}

    def test_every_path_raises_the_same_error(self):
        net = network_from_edges(self.EDGES)
        profile = truthful_profile(net, self.VALUES)
        mech, ta = LblevAuction({4: 2.0}), PowerTA({4: 2.0})
        ids = sorted(net.agents)
        rows = [[1.0] * len(ids), [self.VALUES[i] for i in ids]]
        # the profile with agent 4 at 1 passes, so the batch paths check their own input
        tame = mech.compile(net, profile.replace(4, value=1.0))
        tame_ta = ta.compile(net, profile.replace(4, value=1.0))
        calls = {"run": lambda: mech.run(net, profile),
                 "run_lblev": lambda: run_lblev(build_referral_tree(net, profile),
                                                profile.values(), {4: 2.0}),
                 "outcomes": lambda: tame.outcomes(rows),
                 "PowerTA.run": lambda: ta.run(net, profile),
                 "PowerTA revenues": lambda: tame_ta.revenues(rows)}
        for a in ids:
            calls[f"compile for {a}"] = lambda a=a: mech.compile(net, profile).curve(a, [5.0])
            calls[f"curve {a}"] = lambda a=a: tame.curve(a, [5.0, 1e160])
            calls[f"evaluate {a}"] = lambda a=a: mech.evaluate(
                net, profile.replace(4, value=1.0).replace(a, value=1e160), a)
        expected = ("values up to 1e+160 overflow under the exponents of agents [4]: "
                    "max(V, 1)**2.0 is not finite")
        for name, call in calls.items():
            with pytest.raises(InstanceError) as info:
                call()
            assert str(info.value) == expected, name

    @pytest.mark.parametrize("exponents, top, named", [
        ({4: 2.0}, 1e154, "[4]"),                 # 1e154**2 = 1e308
        ({1: 0.5, 4: 2.0}, 1e77, "[1, 4]"),       # the ratio 2/0.5 sets the power
    ])
    def test_the_bound_is_tight(self, exponents, top, named):
        """At the largest finite bound every path prices and agrees with
        ``run``; ten times that value raises on each."""
        net = network_from_edges(self.EDGES)
        ids = sorted(net.agents)
        mech = LblevAuction(exponents)
        profile = truthful_profile(net, {**self.VALUES, 4: top})
        out = mech.run(net, profile)
        compiled = mech.compile(net, profile)
        winner, payments, _ = compiled.outcomes([[profile.value(i) for i in ids]])
        assert winner[0] == out.winner
        assert payments[0].tolist() == pytest.approx(
            [out.payments.get(i, 0.0) for i in ids], rel=1e-12)
        for a in ids:
            assert repr(compiled.curve(a, [profile.value(a)])) == repr(
                [mech.evaluate(net, profile, a)])
        over = profile.replace(4, value=10.0 * top)
        row = [[over.value(i) for i in ids]]
        for call in (lambda: mech.run(net, over), lambda: mech.compile(net, over),
                     lambda: compiled.curve(4, [10.0 * top]),
                     lambda: truthful_compile(mech, net).outcomes(row)):
            with pytest.raises(InstanceError, match=rf"agents {re.escape(named)}"):
                call()
