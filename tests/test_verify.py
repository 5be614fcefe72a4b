import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusion_auctions import (
    ArgmaxRule,
    InstanceError,
    LblevAuction,
    PowerRule,
    ReferralAuction,
    check_ta_equivalence,
    make_grid,
    network_from_edges,
    random_tree_instance,
    replay_witness,
    truthful_profile,
    verify_mechanism,
)
from diffusion_auctions import fixtures
from diffusion_auctions.mutants import DESIGNATED, MUTANTS, make_mutant
from diffusion_auctions.rc_example import RcExampleAuction, fig_rc_instance
from diffusion_auctions.mechanisms import Compiled, Mechanism
from diffusion_auctions.network import Outcome
from diffusion_auctions.verify import (ALL_CONDITIONS, CORE_CONDITIONS, VerificationError,
                                       _best_response, _Context, random_exponents)

from oracles import naive_forwarding_utility, random_dag_edges

STRUCTURAL = ("monotonicity", "payment-identity", "diffusion-constraint")


def run_all(mech, inst, conditions=CORE_CONDITIONS + ("ic",), size=64, seed=0):
    grid = make_grid(inst.reports, size=size, seed=seed)
    return {r.condition: r
            for r in verify_mechanism(mech, inst.net, inst.reports, grid, conditions)}


class TestLblevPassesEverything:
    def test_worked_example(self):
        inst = fixtures.fig_lblev_instance()
        reports = run_all(LblevAuction(inst.exponents), inst)
        assert all(r.passed for r in reports.values())

    def test_random_trees_sound_checks_and_consistency(self):
        """Monotonicity, the payment identity, and participation are solid
        for every exponent vector; the forwarding checks can genuinely
        fail for heterogeneous exponents (see TestExponentWithholding),
        but always in lockstep with each other and with ddsic."""
        rng = np.random.default_rng(17)
        for k in range(15):
            inst = random_tree_instance(int(rng.integers(3, 13)), rng)
            mech = LblevAuction(random_exponents(inst.net.agents, rng))
            reports = run_all(mech, inst, seed=k)
            for cond in ("monotonicity", "payment-identity", "ir"):
                assert reports[cond].passed, cond
            structural = all(reports[c].passed for c in STRUCTURAL)
            assert structural == reports["ddsic"].passed
            if not reports["ddsic"].passed:
                assert replay_witness(mech, inst.net, inst.reports, reports["ddsic"])

    def test_unit_exponents_pass_everything(self):
        # the unit-exponent auction is immune to the withholding exploit:
        # dropping bidders can never raise a second price
        rng = np.random.default_rng(19)
        for k in range(10):
            inst = random_tree_instance(int(rng.integers(3, 13)), rng)
            reports = run_all(LblevAuction(None), inst, seed=k)
            failing = [c for c, r in reports.items() if not r.passed]
            assert not failing, failing


class TestExponentWithholding:
    """Regression pin for a real incentive failure the checker uncovered:
    with per-agent exponents, an on-path forwarder can profit by cutting
    the top-scoring child, because the withheld child changes which
    exponent ratio prices the level.  Uniform exponents cannot exhibit
    this (a second price only drops when bidders leave)."""

    VALUES = {1: 35.833, 2: 86.204, 3: 34.882, 4: 99.107, 5: 56.577}
    EXPONENTS = {1: 1.092, 2: 2.147, 3: 2.151, 4: 1.787, 5: 1.198}

    def instance(self):
        net = network_from_edges([(0, 1), (1, 2), (1, 3), (1, 4), (4, 5)])
        return net, truthful_profile(net, self.VALUES)

    def test_withholding_is_profitable_by_direct_execution(self):
        net, profile = self.instance()
        mech = LblevAuction(self.EXPONENTS)
        truthful = mech.run(net, profile)
        u_full = truthful.utility(1, self.VALUES[1])
        withheld = profile.replace(1, neighbors=frozenset({3, 4}))
        u_cut = mech.run(net, withheld).utility(1, self.VALUES[1])
        assert truthful.winner == 2
        assert u_full == pytest.approx(45.857, abs=1e-3)
        assert u_cut == pytest.approx(71.915, abs=1e-3)
        assert u_cut > u_full + 20.0
        # the same numbers by direct execution of the naive oracle
        children = {0: [1], 1: [2, 3, 4], 4: [5]}
        v1 = self.VALUES[1]
        assert naive_forwarding_utility(children, self.VALUES, self.EXPONENTS,
                                        1, (), v1) == pytest.approx(45.857, abs=1e-3)
        assert naive_forwarding_utility(children, self.VALUES, self.EXPONENTS,
                                        1, (2,), v1) == pytest.approx(71.915, abs=1e-3)

    def test_checker_flags_exactly_the_forwarding_conditions(self):
        net, profile = self.instance()
        mech = LblevAuction(self.EXPONENTS)
        grid = make_grid(profile, size=64)
        reports = {r.condition: r
                   for r in verify_mechanism(mech, net, profile, grid)}
        assert reports["monotonicity"].passed
        assert reports["payment-identity"].passed
        assert reports["ir"].passed
        assert not reports["diffusion-constraint"].passed
        assert not reports["ddsic"].passed
        witness = reports["ddsic"].witness
        assert witness.agent == 1
        assert witness.subset == (3, 4)
        assert replay_witness(mech, net, profile, reports["ddsic"])

    def test_uniform_exponent_variant_is_clean(self):
        net, profile = self.instance()
        reports = {r.condition: r
                   for r in verify_mechanism(LblevAuction({i: 2.0 for i in net.agents}),
                                             net, profile, make_grid(profile, size=64))}
        assert all(r.passed for r in reports.values())


class TestRcExampleFixture:
    def test_all_checks_pass(self):
        inst = fig_rc_instance()
        reports = run_all(RcExampleAuction(), inst)
        assert all(r.passed for r in reports.values())

    def test_allocation_steps_of_the_sweeping_agent(self):
        # agent 3's allocation climbs 0 -> 1/3 -> 2/3 as its bid passes
        # the figure bids of the two other first-level agents
        inst = fig_rc_instance()
        mech = RcExampleAuction()
        cut = inst.reports.replace(1, neighbors=frozenset())
        values = {2.0: 0.0, 5.0: 1.0 / 3.0, 8.0: 2.0 / 3.0}
        for v, expected in values.items():
            g, _ = mech.evaluate(inst.net, cut.replace(3, value=v), 3)
            assert g == pytest.approx(expected)

    def test_case1_payment_identity_numbers(self):
        # agent 3 at the worked-example bids without the forwarded branch:
        # -4/3 + 9*(2/3) - [(1/3)(6-4) + (2/3)(9-6)] = 2
        inst = fig_rc_instance()
        mech = RcExampleAuction()
        cut = inst.reports.replace(1, neighbors=frozenset())
        g, p = mech.evaluate(inst.net, cut, 3)
        assert g == pytest.approx(2.0 / 3.0)
        assert p == pytest.approx(-4.0 / 3.0 + 9.0 * (2.0 / 3.0)
                                  - ((6.0 - 4.0) / 3.0 + 2.0 * (9.0 - 6.0) / 3.0))
        assert p == pytest.approx(2.0)

    def test_diffusion_constraint_saturation(self):
        inst = fig_rc_instance()
        grid = make_grid(inst.reports, size=64)
        [rep] = verify_mechanism(RcExampleAuction(), inst.net, inst.reports, grid,
                                 ("diffusion-constraint",))
        assert rep.passed
        detail = rep.details[(1, ())]
        assert detail["lhs"] == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert detail["rhs_max"] == pytest.approx(5.0 / 3.0, abs=1e-9)
        curve = detail["rhs_by_value"]
        for v, rhs in curve.items():
            if v >= 10.0:
                assert rhs == pytest.approx(5.0 / 3.0, abs=1e-9)
            elif v <= 9.0:
                assert rhs < 5.0 / 3.0 - 1e-6


class TestMutantsFail:
    @pytest.mark.parametrize("condition", list(DESIGNATED))
    def test_designated_check_fails(self, condition):
        name, factory = DESIGNATED[condition]
        inst = factory()
        mech = make_mutant(name)
        reports = run_all(mech, inst, conditions=CORE_CONDITIONS)
        assert not reports[condition].passed
        assert reports[condition].witness is not None

    @pytest.mark.parametrize("condition", list(DESIGNATED))
    def test_witness_replays(self, condition):
        name, factory = DESIGNATED[condition]
        inst = factory()
        mech = make_mutant(name)
        reports = run_all(mech, inst, conditions=CORE_CONDITIONS)
        rep = reports[condition]
        assert replay_witness(mech, inst.net, inst.reports, rep)

    def test_mff_checks_have_dedicated_breakers(self):
        # no vacuous passes: each structural check fails on some mutant
        for condition in STRUCTURAL:
            name, factory = DESIGNATED[condition]
            inst = factory()
            rep = run_all(make_mutant(name), inst, conditions=(condition,))
            assert not rep[condition].passed


class TestEquivalenceOfCharacterizations:
    def test_ddsic_iff_structural_checks(self):
        """The direct truthfulness check and the three structural checks
        agree (pass together or fail together) on every suite fixture."""
        cases = [(LblevAuction(fixtures.FIG_LBLEV_EXPONENTS),
                  fixtures.fig_lblev_instance()),
                 (RcExampleAuction(), fig_rc_instance())]
        for condition, (name, factory) in DESIGNATED.items():
            cases.append((make_mutant(name), factory()))
        rng = np.random.default_rng(8)
        for _ in range(5):
            inst = random_tree_instance(int(rng.integers(3, 10)), rng)
            cases.append((LblevAuction(random_exponents(inst.net.agents, rng)), inst))
        for mech, inst in cases:
            reports = run_all(mech, inst, conditions=CORE_CONDITIONS)
            structural = all(reports[c].passed for c in STRUCTURAL)
            assert structural == reports["ddsic"].passed, mech.name

    def test_ic_agrees_with_ddsic_on_fixtures(self):
        for condition, (name, factory) in DESIGNATED.items():
            inst = factory()
            mech = make_mutant(name)
            reports = run_all(mech, inst, conditions=("ddsic", "ic"))
            assert reports["ic"].passed == reports["ddsic"].passed


class TestIndividualChecks:
    def test_monotonicity_catches_decreasing_allocation(self):
        inst = fixtures.depth1_instance((10.0, 7.0))
        [rep] = verify_mechanism(make_mutant("award-lowest"), inst.net, inst.reports,
                                 None, ("monotonicity",))
        assert not rep.passed
        assert rep.witness.agent in (1, 2)

    def test_identity_catches_flat_fee(self):
        inst = fixtures.depth1_instance((10.0, 7.0))
        [rep] = verify_mechanism(make_mutant("flat-fee"), inst.net, inst.reports,
                                 None, ("payment-identity",))
        assert not rep.passed

    def test_diffusion_catches_greedy(self):
        inst = fixtures.chain_instance((5.0, 10.0))
        [rep] = verify_mechanism(make_mutant("greedy-no-commission"), inst.net,
                                 inst.reports, None, ("diffusion-constraint",))
        assert not rep.passed
        assert rep.witness.agent == 1  # the chokepoint forwarder

    def test_ddsic_catches_no_offset(self):
        inst = fixtures.offset_trap_instance()
        [rep] = verify_mechanism(make_mutant("no-offset"), inst.net, inst.reports,
                                 None, ("ddsic",))
        assert not rep.passed

    def test_ir_catches_loser_fee(self):
        inst = fixtures.depth1_instance((10.0, 7.0))
        [rep] = verify_mechanism(make_mutant("loser-fee"), inst.net, inst.reports,
                                 None, ("ir",))
        assert not rep.passed
        assert rep.witness.lhs < 0

    def test_ir_utilities_on_worked_example(self):
        inst = fixtures.fig_lblev_instance()
        [rep] = verify_mechanism(LblevAuction(inst.exponents), inst.net, inst.reports,
                                 None, ("ir",))
        assert rep.passed
        utils = rep.details["utilities"]
        assert utils[1] == pytest.approx(2.449489742783178, abs=1e-6)
        assert utils[5] == pytest.approx(3.6811017721895194, abs=1e-6)
        assert utils[8] == pytest.approx(750.0 - fixtures.FIG_LBLEV_PAY_K, abs=1e-6)
        assert utils[8] == pytest.approx(14.869, abs=1e-3)

    def test_ic_catches_joint_deviation(self):
        inst = fixtures.depth1_instance((10.0, 7.0))
        [rep] = verify_mechanism(make_mutant("flat-fee"), inst.net, inst.reports,
                                 None, ("ic",))
        assert not rep.passed


class TestNeighborMisreport:
    def test_referral_family_on_diamond_networks(self):
        rng = np.random.default_rng(23)
        for k in range(8):
            n = int(rng.integers(3, 8))
            net = network_from_edges(random_dag_edges(rng, n),
                                     agents=range(1, n + 1))
            values = {i: float(rng.uniform(0, 100)) for i in net.agents}
            profile = truthful_profile(net, values)
            mech = __import__("diffusion_auctions").ReferralAuction(ArgmaxRule())
            [rep] = verify_mechanism(mech, net, profile,
                                     make_grid(profile, size=32, seed=k), ("misreport",))
            assert rep.passed, rep.witness

    def test_tree_case_reduces_to_forwarding_check(self):
        inst = fixtures.fig_lblev_instance()
        [rep] = verify_mechanism(LblevAuction(inst.exponents), inst.net, inst.reports,
                                 None, ("misreport",))
        assert rep.passed

    def test_catches_branch_biased_referrals(self):
        # pay a referral bonus only when the inviter's branch loses: the
        # chokepoint prefers cutting its winning branch
        from diffusion_auctions.network import filter_subnetwork

        class BranchBiasedBonus(Mechanism):
            name = "mutant:branch-biased"

            def run(self, net, reports):
                reached = sorted(filter_subnetwork(net, reports))
                allocation = {i: 0.0 for i in net.agents}
                payments = {i: 0.0 for i in net.agents}
                if not reached or all(reports.value(i) == 0 for i in reached):
                    return Outcome(allocation, payments, 0.0, None)
                ranked = sorted(reached, key=lambda i: (-reports.value(i), i))
                winner = ranked[0]
                price = reports.value(ranked[1]) if len(ranked) > 1 else 0.0
                allocation[winner] = 1.0
                payments[winner] = price
                for i in reached:
                    if i != winner and winner not in reports.neighbors(i):
                        payments[i] = -1.0  # bonus only off the winning branch
                return Outcome(allocation, payments,
                               sum(payments.values()), winner)

        net = network_from_edges([(0, 1), (1, 2)])
        profile = truthful_profile(net, {1: 5.0, 2: 10.0})
        [rep] = verify_mechanism(BranchBiasedBonus(), net, profile, None, ("misreport",))
        assert not rep.passed
        assert rep.witness.agent == 1
        assert replay_witness(BranchBiasedBonus(), net, profile, rep)


class TestTaEquivalence:
    def test_worked_example(self):
        inst = fixtures.fig_lblev_instance()
        rep = check_ta_equivalence(inst.net, inst.reports,
                                   PowerRule(inst.exponents))
        assert rep.passed
        assert rep.details["ta_revenue"] == 729.0

    def test_depth_one_trivial(self):
        inst = fixtures.depth1_instance((4.0, 9.0))
        rep = check_ta_equivalence(inst.net, inst.reports, ArgmaxRule())
        assert rep.passed

    def test_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            net = network_from_edges(random_dag_edges(rng, n),
                                     agents=range(1, n + 1))
            values = {i: float(rng.uniform(0, 50)) for i in net.agents}
            profile = truthful_profile(net, values)
            rule = PowerRule({i: float(rng.uniform(0.5, 3)) for i in net.agents})
            assert check_ta_equivalence(net, profile, rule).passed


class TestSubsetSampling:
    def test_high_degree_agent_flagged_probabilistic(self):
        n = 16
        net = network_from_edges([(0, 1)] + [(1, k) for k in range(2, n + 1)],
                                 agents=range(1, n + 1))
        values = {i: float(i) for i in net.agents}
        profile = truthful_profile(net, values)
        grid = make_grid(profile, size=16, seed=1)
        [rep] = verify_mechanism(LblevAuction(None), net, profile, grid, ("ddsic",))
        assert rep.passed
        assert rep.details.get("sampled_agents") == [1]


class TestCurveBudget:
    def test_exhaustion_names_agent_subset_and_interval(self):
        steps = 4096

        class Staircase(Compiled):
            def curve(self, agent, xs):
                return [(min(math.floor(x * steps / 20.0), steps) / steps, 0.0) for x in xs]

        class FineStaircase(Mechanism):
            """Allocation climbs in ``steps`` equal steps over [0, 20]:
            bracketing every step costs far more than the budget."""

            name = "test:fine-staircase"

            def compile(self, net, reports):
                return Staircase(self, net, reports)

        net = network_from_edges([(0, 1), (1, 2)])
        profile = truthful_profile(net, {1: 10.0, 2: 3.0})
        with pytest.raises(VerificationError) as err:
            verify_mechanism(FineStaircase(), net, profile, None, ("monotonicity",))
        # agent 1's table for the empty forwarded subset comes first
        found = re.search(r"agent 1 forwarding to \(\) while splitting \[(\S+), (\S+)\]",
                          str(err.value))
        assert found, str(err.value)
        lo, hi = float(found[1]), float(found[2])
        assert 0.0 <= lo < hi <= 20.0
        # the bracket straddles a step that is still to be pinned down
        assert math.floor(lo * steps / 20.0) < math.floor(hi * steps / 20.0)


class TestFirstWitnesses:
    # sha256 over repr((to_dict(), details)) of every report below,
    # recorded at commit 4aab156, whose checks scanned the points one by
    # one: each check must keep picking the same first witness
    MUTANT_DIGEST = "15597d52695d6e37d32990bd4243871b1f36bb46ad7fc403fb69a91116184821"

    def test_every_mutant_on_every_designated_instance(self):
        digest = hashlib.sha256()
        failed = set()
        count = 0
        for name in MUTANTS:
            for _, factory in DESIGNATED.values():
                inst = factory()
                for r in verify_mechanism(make_mutant(name), inst.net, inst.reports,
                                          None, ALL_CONDITIONS):
                    digest.update(repr((r.to_dict(), r.details)).encode())
                    if not r.passed:
                        failed.add(r.condition)
                    count += 1
        assert count == 175
        assert {"monotonicity", "payment-identity", "diffusion-constraint"} <= failed
        assert digest.hexdigest() == self.MUTANT_DIGEST, digest.hexdigest()


def sequential_prefix(table):
    """The trapezoid prefix summed point by point in Python."""
    xs = table.xs()
    prefix = [0.0]
    for a, b in zip(xs[:-1], xs[1:]):
        seg = 0.5 * (table.g_at(a) + table.g_at(b)) * (b - a)
        prefix.append(prefix[-1] + seg)
    return prefix


class TestCurveTablePrefix:
    class Flat(Mechanism):
        """Half the item to each of two agents at every value, for nothing."""

        name = "test:flat"

        def run(self, net, reports):
            return Outcome({i: 0.5 for i in reports.agents()}, {}, 0.0)

    def tables(self):
        inst = fixtures.depth1_instance((10.0, 7.0))   # agent 1 jumps at 7
        yield _Context(self.Flat(), inst.net, inst.reports,
                       make_grid(inst.reports, size=16)).table(1, frozenset())
        yield _Context(LblevAuction(None), inst.net, inst.reports,
                       make_grid(inst.reports, size=64)).table(1, frozenset())
        rng = np.random.default_rng(31)
        for k in range(4):
            inst = random_tree_instance(int(rng.integers(3, 9)), rng)
            ctx = _Context(LblevAuction(random_exponents(inst.net.agents, rng)),
                           inst.net, inst.reports, make_grid(inst.reports, size=32, seed=k))
            for agent in ctx.agents():
                for subset in ctx.subsets(agent)[0]:
                    yield ctx.table(agent, subset)

    def test_prefix_equals_the_sequential_sum(self):
        flat, jump, *rest = self.tables()
        assert len({flat.g_at(x) for x in flat.xs()}) == 1
        assert len({jump.g_at(x) for x in jump.xs()}) == 2
        for table in (flat, jump, *rest):
            expected = sequential_prefix(table)
            assert [repr(float(x)) for x in table.prefix()] == [repr(x) for x in expected]
            for x, integral in zip(table.xs(), expected):
                got = table.integral_to(x)
                assert type(got) is float and repr(got) == repr(integral)


class TestIrOverflow:
    def test_ir_raises_where_per_agent_evaluate_raised(self):
        # agent 4's 1e160 squared is not finite: the reported profile
        # fails the power bound, so compiling it raises before any point,
        # as every agent's evaluate does
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)])
        profile = truthful_profile(net, {1: 5.0, 2: 10.0, 3: 5.0, 4: 1e160, 5: 100.0})
        mech = LblevAuction({4: 2.0})
        with pytest.raises(InstanceError, match=r"agents \[4\]"):
            verify_mechanism(mech, net, profile, None, ("ir",))
        for agent in sorted(net.agents):
            with pytest.raises(InstanceError, match=r"agents \[4\]"):
                mech.evaluate(net, profile, agent)


class TestReferralOverflow:
    def test_verify_raises_instance_error(self):
        # PowerRule.winner takes Python value**t: agent 4's 1e160 squared
        # overflows at agent 3's level, which the reported profile reaches
        # at agent 1's threshold price, agent 2's 10, with agent 5 alive
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)])
        profile = truthful_profile(net, {1: 5.0, 2: 10.0, 3: 5.0, 4: 1e160, 5: 100.0})
        mech = ReferralAuction(PowerRule({4: 2.0}))
        with pytest.raises(InstanceError, match="argmax-pow rule overflows"):
            mech.run(net, profile)
        with pytest.raises(InstanceError, match="argmax-pow rule overflows"):
            verify_mechanism(mech, net, profile, None)
        with pytest.raises(InstanceError, match="argmax-pow rule overflows"):
            mech.evaluate(net, profile.replace(5, value=1e160), 5)


# Allocation levels of the tables the point-1 checks read: all-or-nothing,
# the rc3 fixture's thirds, TestCurveBudget's 4096-step staircase (whole, and
# its first 33 steps, so that many nearby levels meet in one table) and any
# fraction; payments and values from small pools so that they repeat and tie.
LEVELS = (st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 1 / 3, 2 / 3]),
          st.integers(0, 4096).map(lambda k: k / 4096),
          st.integers(0, 32).map(lambda k: k / 4096), st.floats(0.0, 1.0))
PAYMENTS = st.sampled_from([0.0, 1.0, 2.5, -1.0, -4 / 3, 7.0]) | st.floats(-100.0, 100.0)
VALUES = st.sampled_from([0.0, 1.0, 2.5, 7.0]) | st.floats(0.0, 200.0)


class TestBestResponse:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_the_utilities_matrix(self, data):
        m = data.draw(st.integers(1, 24))
        level = data.draw(st.sampled_from(LEVELS))
        g = np.array(data.draw(st.lists(level, min_size=m, max_size=m)))
        p = np.array(data.draw(st.lists(PAYMENTS, min_size=m, max_size=m)))
        xs = np.array(sorted(data.draw(st.lists(VALUES, min_size=m, max_size=m))))
        # ic's true values come from another table, of another length
        n = data.draw(st.integers(1, 24))
        xs_true = np.array(sorted(data.draw(st.lists(VALUES, min_size=n, max_size=n))))
        for x, truthful in ((xs, xs * g - p), (xs_true, xs_true * g[0] - p[0])):
            utilities = x[:, None] * g[None, :] - p[None, :]
            best = _best_response(x, g, p)
            assert (best == utilities.max(axis=1)).all()
            # the failing row: the same true value and the same best report
            gaps, matrix_gaps = best - truthful, utilities.max(axis=1) - truthful
            k = int(np.argmax(gaps))
            assert k == int(np.argmax(matrix_gaps)) and gaps[k] == matrix_gaps[k]
            row = x[k] * g - p
            y = int(np.argmax(row))
            assert y == int(np.argmax(utilities[k])) and row[y] == utilities[k, y]
