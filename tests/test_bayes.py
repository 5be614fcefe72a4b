import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from diffusion_auctions import (
    ArgmaxRule,
    InstanceError,
    LblevAuction,
    MaxVivaAuction,
    MaxVivaTA,
    Mechanism,
    PowerTA,
    ReferralAuction,
    SecondPriceReserveRule,
    SecondPriceTA,
    build_referral_tree,
    check_mhr,
    estimate_interim,
    expected_revenue,
    exponential_distribution,
    max_of_iid,
    maxviva_level,
    network_from_edges,
    paired_revenue_gap,
    run_lblev,
    run_referral_auction,
    subtree_values,
    truncated_normal,
    truthful_profile,
    uniform_distribution,
)
from diffusion_auctions import bayes, fixtures
from diffusion_auctions.bayes import (
    InterimEstimate,
    ValuationDistribution,
    _FirstLevelCompiled,
    _inverse_virtual,
    _rival_matrix,
    _virtual,
)
from diffusion_auctions.verify import make_grid, verify_mechanism

from helpers import fresh_python, interim_payment_second_price, revenue_identity_sides
from test_mechanisms import truthful_compile

UNIT = uniform_distribution(0.0, 1.0)
EXP1 = exponential_distribution(1.0)


def heavy_tailed() -> ValuationDistribution:
    # density 1/(1+x)^2 on [0, inf): hazard 1/(1+x) decreases
    return ValuationDistribution(
        name="pareto-like", upper=math.inf, mhr=False,
        cdf=lambda x: np.where(np.asarray(x) >= 0, np.asarray(x) / (1.0 + np.asarray(x)), 0.0),
        pdf=lambda x: np.where(np.asarray(x) >= 0, 1.0 / (1.0 + np.asarray(x)) ** 2, 0.0),
        sample=lambda rng, size: rng.uniform(size=size) / (1.0 - rng.uniform(size=size)))


def bisected(dist: ValuationDistribution) -> ValuationDistribution:
    """``dist`` without its closed-form inverse: :func:`_inverse_virtual` bisects."""
    return dataclasses.replace(dist, inverse=None)


class TestVirtualValuation:
    def test_uniform_midpoint_is_zero(self):
        assert _virtual(UNIT, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_is_shift_by_mean(self):
        for x in (0.0, 0.7, 1.0, 3.0):
            assert _virtual(EXP1, x) == pytest.approx(x - 1.0, abs=1e-12)

    def test_wide_uniform(self):
        wide = uniform_distribution(0.0, 12.0)
        assert _virtual(wide, 6.0) == pytest.approx(0.0, abs=1e-12)
        assert _virtual(wide, 9.0) == pytest.approx(6.0, abs=1e-12)


class TestHazardMonotonicity:
    def test_uniform_and_exponential_pass(self):
        assert check_mhr(UNIT)
        assert check_mhr(EXP1)
        assert check_mhr(truncated_normal(100.0, 5.0))

    def test_heavy_tail_fails(self):
        assert not check_mhr(heavy_tailed())

    @pytest.mark.parametrize("base", [UNIT, EXP1])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_max_transform_preserves_it(self, base, n):
        assert check_mhr(max_of_iid(base, n), grid_size=256)


@pytest.mark.parametrize("make, args", [
    (truncated_normal, (100.0, math.nan)), (truncated_normal, (math.inf, 5.0)),
    (truncated_normal, (100.0, math.inf)), (truncated_normal, (math.nan, 5.0)),
    (truncated_normal, (-math.inf, 5.0)), (truncated_normal, (100.0, 0.0)),
    (exponential_distribution, (math.nan,)), (exponential_distribution, (math.inf,)),
    (exponential_distribution, (0.0,)), (uniform_distribution, (0.0, math.inf)),
    (uniform_distribution, (math.nan, 1.0)), (uniform_distribution, (0.0, math.nan)),
    (max_of_iid, (UNIT, 2.5)), (max_of_iid, (UNIT, 2.0)), (max_of_iid, (UNIT, 0))])
def test_prior_constructors_reject_unusable_parameters(make, args):
    with pytest.raises(ValueError):
        make(*args)


class TestMaxOfIid:
    def test_uniform_square_closed_form(self):
        m2 = max_of_iid(UNIT, 2)
        xs = np.linspace(0.0, 1.0, 521)
        assert np.max(np.abs(np.asarray(m2.cdf(xs)) - xs ** 2)) < 1e-12
        assert np.max(np.abs(np.asarray(m2.pdf(xs)) - 2 * xs)) < 1e-12

    def test_n_one_is_identity(self):
        assert max_of_iid(UNIT, 1) is UNIT

    def test_sampler_matches_transformed_cdf(self):
        rng = np.random.default_rng(77)
        m3 = max_of_iid(UNIT, 3)
        sample = m3.sample(rng, 10**5)
        ks = stats.kstest(sample, lambda x: np.asarray(m3.cdf(x)))
        assert ks.statistic < 0.01


class TestInvertVirtual:
    def test_uniform_targets(self):
        assert _inverse_virtual(UNIT, np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-9)
        assert _inverse_virtual(UNIT, np.array([0.2]))[0] == pytest.approx(0.6, abs=1e-9)

    def test_exponential_reserve(self):
        assert _inverse_virtual(EXP1, np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-9)

    def test_below_range_clamps_to_zero(self):
        assert _inverse_virtual(UNIT, np.array([-5.0]))[0] == 0.0

    def test_non_mhr_rejected(self):
        with pytest.raises(ValueError):
            _inverse_virtual(heavy_tailed(), np.array([0.0]))

    def test_floor_is_the_value_above_a_bounded_support(self):
        # 1 - F = 0 there, so w(x) = x; below the support stays -inf
        assert _virtual(max_of_iid(UNIT, 3), 1.5) == 1.5
        assert _virtual(uniform_distribution(0.5, 1.0), 0.25) == -math.inf
        assert _inverse_virtual(UNIT, np.array([2.0]))[0] == 2.0
        many = _inverse_virtual(bisected(UNIT), np.array([0.2, 1.5, 2.0]))
        assert many[0] == pytest.approx(0.6, abs=1e-9)
        assert many[1:].tolist() == [1.5, 2.0]

    def test_vectorized_matches_scalar(self):
        targets = np.array([-1.0, 0.0, 0.1, 0.5, 0.9])
        many = _inverse_virtual(bisected(UNIT), targets)
        for t, x in zip(targets, many):
            assert x == pytest.approx(_inverse_virtual(bisected(UNIT), np.array([t]))[0],
                                      abs=1e-8)


class TestClosedFormInverse:
    """The built-in priors' closed-form inverses against the bisection
    on the same prior, on dense grids that cross the support edges."""

    TOL = 1e-10

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.5, 1.0), (2.0, 12.0)])
    def test_uniform(self, low, high):
        dist = uniform_distribution(low, high)
        edge = 2 * low - high  # w(low): every lower target is first met at low
        targets = np.concatenate([np.linspace(edge - 1.0, high + 1.0, 2001),
                                  [edge - 0.5, edge, high, high + 1e-9]])
        closed = _inverse_virtual(dist, targets)
        assert np.max(np.abs(closed - _inverse_virtual(bisected(dist), targets))) <= self.TOL
        assert _inverse_virtual(dist, np.array([edge - 0.5]))[0] == low
        assert _inverse_virtual(dist, np.array([high, high + 1e-9])).tolist() == [
            high, high + 1e-9]

    @pytest.mark.parametrize("rate", [0.05, 1.0, 2.0])
    def test_exponential(self, rate):
        dist = exponential_distribution(rate)
        targets = np.concatenate([np.linspace(-3.0 / rate, 5.0 / rate, 2001),
                                  [-2.0 / rate, -1.0 / rate, 0.0]])
        closed = _inverse_virtual(dist, targets)
        assert np.max(np.abs(closed - _inverse_virtual(bisected(dist), targets))) <= self.TOL
        assert _inverse_virtual(dist, np.array([-2.0 / rate]))[0] == 0.0
        assert dist.reserve == 1.0 / rate

    def test_reserves(self):
        assert UNIT.reserve == 0.5
        assert uniform_distribution(2.0, 12.0).reserve == 6.0
        assert bisected(UNIT).reserve == pytest.approx(0.5, abs=self.TOL)


class TestMaxVivaLevel:
    def test_rival_binds(self):
        winner, pay = maxviva_level({1: (0.8, UNIT), 2: (0.6, UNIT)})
        assert winner == 1
        assert pay == pytest.approx(0.6, abs=1e-9)

    def test_no_sale_when_all_virtuals_negative(self):
        winner, pay = maxviva_level({1: (0.4, UNIT), 2: (0.3, UNIT)})
        assert winner is None and pay == 0.0

    def test_reserve_binds(self):
        winner, pay = maxviva_level({1: (0.7, UNIT), 2: (0.2, UNIT)})
        assert winner == 1
        assert pay == pytest.approx(0.5, abs=1e-9)

    def test_winner_is_argmax_virtual_not_argmax_value(self):
        # a larger subtree discounts the same value more
        winner, _ = maxviva_level({1: (0.8, max_of_iid(UNIT, 4)), 2: (0.79, UNIT)})
        # w for max4 at 0.8: 0.8 - (1-0.8^4)/(4*0.8^3) ~ 0.512; for unit: 0.58
        assert winner == 2

    def test_payment_never_exceeds_value(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            entries = {}
            for i in range(1, int(rng.integers(2, 5))):
                dist = max_of_iid(UNIT, int(rng.integers(1, 4)))
                entries[i] = (float(rng.uniform(0, 1)), dist)
            winner, pay = maxviva_level(entries)
            if winner is not None:
                assert pay <= entries[winner][0] + 1e-8

    def test_non_mhr_prior_rejected(self):
        with pytest.raises(ValueError):
            maxviva_level({1: (0.5, heavy_tailed())})

    def test_relabeling_invariance(self):
        m2 = max_of_iid(UNIT, 2)
        winner_a, pay_a = maxviva_level({1: (0.8, UNIT), 2: (0.9, m2)})
        winner_b, pay_b = maxviva_level({7: (0.8, UNIT), 3: (0.9, m2)})
        assert pay_a == pay_b
        assert (winner_a == 1) == (winner_b == 7)


class TestRunMaxViva:
    def test_depth_one_reduces_to_level(self):
        inst = fixtures.depth1_instance((0.8, 0.6))
        out = MaxVivaTA({1: UNIT, 2: UNIT}).run(inst.net, inst.reports)
        assert out.winner == 1
        assert out.seller_revenue == pytest.approx(0.6, abs=1e-9)

    def test_unsold_when_below_reserve(self):
        inst = fixtures.depth1_instance((0.2, 0.1))
        out = MaxVivaTA({1: UNIT, 2: UNIT}).run(inst.net, inst.reports)
        assert out.winner is None
        assert all(p == 0.0 for p in out.payments.values())

    def test_tree_revenue_equals_transformed_level(self):
        rng = np.random.default_rng(41)
        inst = fixtures.fig_lblev_instance()
        mech = MaxVivaAuction(UNIT)
        for _ in range(25):
            values = {i: float(rng.uniform(0, 1)) for i in inst.net.agents}
            profile = truthful_profile(inst.net, values)
            out = mech.run(inst.net, profile)
            tree = build_referral_tree(inst.net, profile)
            sub = subtree_values(tree, profile.values())
            entries = {i: (sub[i], max_of_iid(UNIT, sum(1 for _ in tree.subtree(i))))
                       for i in tree.child_tuple(tree.root)}
            winner, pay = maxviva_level(entries)
            if winner is None:
                assert out.winner is None
            else:
                assert out.seller_revenue == pay
                assert sum(out.payments.values()) == pytest.approx(pay, abs=1e-9)

    def test_deep_winner_still_pays_chain(self):
        # winner sits below level one; lower levels settle with threshold prices
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4)])
        values = {1: 0.1, 2: 0.55, 3: 0.9, 4: 0.6}
        profile = truthful_profile(net, values)
        dists = {1: max_of_iid(UNIT, 3), 2: UNIT}
        out = MaxVivaTA(dists).run(net, profile)
        assert out.winner == 3
        assert sum(out.payments.values()) == pytest.approx(out.seller_revenue, abs=1e-12)
        assert out.utility(3, values[3]) >= -1e-9

    def test_missing_first_level_dist_rejected(self):
        inst = fixtures.depth1_instance((0.8, 0.6))
        with pytest.raises(ValueError):
            MaxVivaTA({1: UNIT}).run(inst.net, inst.reports)

    # sha256 over repr(MaxVivaTA(dists).run) and repr(MaxVivaAuction(UNIT).run) on
    # the 40 deep trees below, recorded before the descent below the first
    # level was resumed from the payment chain instead of a start node and
    # offset
    RESUMED_DESCENT_DIGEST = "a6039e46bd8cbf16295d61253dfc8d7edaa0cff530af5b9ac6ba414352595c72"

    def test_resumed_descent_digest(self):
        wide = uniform_distribution(0.0, 2.0)
        rng = np.random.default_rng(2323)
        digest = hashlib.sha256()
        deep = 0
        for _ in range(40):
            n = int(rng.integers(2, 16))
            # each agent hangs below one of the three before it, so the trees run deep
            parents = {k: int(rng.integers(max(0, k - 3), k)) for k in range(1, n + 1)}
            net = network_from_edges([(p, k) for k, p in parents.items()])
            values = {k: float(rng.uniform(0, 1)) if rng.random() > 0.2 else 0.0
                      for k in parents}
            profile = truthful_profile(net, values)
            dists = {k: (UNIT, wide)[k % 2] for k, p in parents.items() if p == 0}
            for mech in (MaxVivaTA(dists), MaxVivaAuction(UNIT)):
                out = mech.run(net, profile)
                digest.update(repr(out).encode())
                deep += len(out.payments) > 1   # the winner sits below the first level
        assert deep == 27
        assert digest.hexdigest() == self.RESUMED_DESCENT_DIGEST, digest.hexdigest()

    def test_run_keeps_one_prior_per_subtree_size(self, monkeypatch):
        made = []
        monkeypatch.setattr(bayes, "max_of_iid", lambda *args: made.append(args) or max_of_iid(*args))
        mech = MaxVivaAuction(UNIT)
        inst = fixtures.fig_lblev_instance()
        first = mech.run(inst.net, inst.reports)
        assert mech.run(inst.net, inst.reports) == first
        # the first-level subtrees of fig_lblev hold 6, 1 and 1 agents
        assert sorted(made) == [(UNIT, 1), (UNIT, 6)]

    def test_run_builds_the_referral_tree_once(self, monkeypatch):
        inst = fixtures.fig_lblev_instance()
        base = uniform_distribution(0.0, 1000.0)
        build, builds = bayes.build_referral_tree, []
        monkeypatch.setattr(bayes, "build_referral_tree",
                            lambda *args: builds.append(args) or build(*args))
        out = MaxVivaAuction(base).run(inst.net, inst.reports)
        assert len(builds) == 1
        tree = build(inst.net, inst.reports)
        dists = {i: max_of_iid(base, sum(1 for _ in tree.subtree(i)))
                 for i in tree.child_tuple(tree.root)}
        assert repr(out) == repr(MaxVivaTA(dists).run(inst.net, inst.reports))
        assert out.winner is not None


class TestInterimEstimates:
    def test_second_price_win_probability(self):
        inst = fixtures.depth1_instance((0.5, 0.5))
        mech = ReferralAuction(ArgmaxRule())
        est = estimate_interim(mech, inst.net, {1: UNIT, 2: UNIT},
                               agent=1, value=0.6, samples=4000, seed=5)
        assert est.allocation == pytest.approx(0.6, abs=4 * est.allocation_se + 0.01)
        assert est.payment == pytest.approx(0.18, abs=4 * est.payment_se + 0.01)

    def test_zero_value_never_wins(self):
        inst = fixtures.depth1_instance((0.5, 0.5))
        mech = ReferralAuction(ArgmaxRule())
        est = estimate_interim(mech, inst.net, {1: UNIT, 2: UNIT},
                               agent=1, value=0.0, samples=500, seed=5)
        assert est.allocation == 0.0
        assert est.payment == 0.0

    def test_common_random_numbers_make_alloc_monotone_pathwise(self):
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        dists = {i: uniform_distribution(0, 100) for i in range(1, 6)}
        mech = LblevAuction({1: 1.2, 2: 0.8, 3: 2.0, 4: 1.0, 5: 1.5})
        grid = np.linspace(0.0, 120.0, 8)
        estimates = [estimate_interim(mech, net, dists, agent=3, value=float(v),
                                      samples=2000, seed=9) for v in grid]
        allocs = [e.allocation for e in estimates]
        assert allocs == sorted(allocs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_pinned_value_rejected(self, bad):
        net = network_from_edges([(0, 1), (0, 2), (1, 3)])
        with pytest.raises(InstanceError):
            estimate_interim(LblevAuction(), net, {i: UNIT for i in (1, 2, 3)},
                             agent=1, value=bad, samples=10, seed=0)

    def test_fallback_loop_matches_per_sample_loop(self):
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        dists = {i: uniform_distribution(0, 100) for i in range(1, 6)}
        lblev = LblevAuction({1: 1.2, 2: 0.8, 3: 2.0, 4: 1.0, 5: 1.5})

        class ScalarOnly(Mechanism):
            # inherits compile: the default Compiled.outcomes runs once per row
            def run(self, net, reports):
                return lblev.run(net, reports)

        agent, samples, seed = 3, 500, 9
        for value in (0.0, 40.0, 110.0):
            ids = sorted(net.agents)
            matrix = _rival_matrix(ids, dists, samples, seed)
            alloc, pay = np.empty(samples), np.empty(samples)
            values = dict(zip(ids, matrix[0]))
            for t in range(samples):
                for j, i in enumerate(ids):
                    values[i] = matrix[t, j]
                values[agent] = value
                out = lblev.run_on_values(net, values)
                alloc[t] = out.allocation.get(agent, 0.0)
                pay[t] = out.payments.get(agent, 0.0)
            expect = InterimEstimate(
                agent=agent, value=value,
                allocation=float(alloc.mean()),
                allocation_se=float(alloc.std(ddof=1) / math.sqrt(samples)),
                payment=float(pay.mean()),
                payment_se=float(pay.std(ddof=1) / math.sqrt(samples)),
                samples=samples)
            scalar = estimate_interim(ScalarOnly(), net, dists, agent, value, samples, seed)
            assert scalar == expect
            batch = estimate_interim(lblev, net, dists, agent, value, samples, seed)
            assert batch.allocation == expect.allocation
            assert batch.payment == pytest.approx(expect.payment, abs=1e-12)


class TestMissingPriors:
    # agent 3 of this network has no distribution
    NET = network_from_edges([(0, 1), (0, 2), (1, 3)])
    DISTS = {1: UNIT, 2: UNIT}
    MISSING = r"missing valuation distribution for agents \[{}\]"

    def test_expected_revenue(self):
        with pytest.raises(ValueError, match=self.MISSING.format(3)):
            expected_revenue(LblevAuction(), self.NET, self.DISTS, trials=10, seed=0)

    def test_estimate_interim(self):
        with pytest.raises(ValueError, match=self.MISSING.format(3)):
            estimate_interim(LblevAuction(), self.NET, self.DISTS, agent=1, value=0.5,
                             samples=10, seed=0)

    def test_paired_revenue_gap(self):
        with pytest.raises(ValueError, match=self.MISSING.format("2, 3")):
            paired_revenue_gap(LblevAuction(), SecondPriceTA(), self.NET, {1: UNIT},
                               trials=10, seed=0)


class TestArgumentChecks:
    NET = network_from_edges([(0, 1), (0, 2)])
    DISTS = {1: UNIT, 2: UNIT}

    @pytest.mark.parametrize("call, message", [
        (lambda net, dists: estimate_interim(LblevAuction(), net, dists, agent=1, value=0.5,
                                             samples=0, seed=0), "samples must be >= 1"),
        (lambda net, dists: estimate_interim(LblevAuction(), net, dists, agent=9, value=0.5,
                                             samples=10, seed=0), "agent 9 not in the network"),
        (lambda net, dists: expected_revenue(LblevAuction(), net, dists, trials=0, seed=0),
         "trials must be >= 1"),
    ], ids=["no-samples", "unknown-agent", "no-trials"])
    def test_estimators_reject(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(self.NET, self.DISTS)

    def test_maxviva_level_of_no_entries_is_unsold(self):
        assert maxviva_level({}) == (None, 0.0)

    def test_no_first_level_earns_nothing(self):
        # the seller reaches no one, so every draw leaves the item unsold
        net = network_from_edges([(1, 2)])
        compiled = SecondPriceTA().compile(net, truthful_profile(net, {1: 0.0, 2: 0.0}))
        assert compiled.revenues([[1.0, 2.0], [3.0, 0.5]]).tolist() == [0.0, 0.0]

    def test_check_mhr_without_a_0999_quantile(self):
        half = dataclasses.replace(EXP1, cdf=lambda x: 0.5 * EXP1.cdf(x))
        with pytest.raises(ValueError, match="cannot locate the 0.999 quantile"):
            check_mhr(half)

    def test_check_mhr_with_under_two_hazard_points(self):
        flat = dataclasses.replace(UNIT, pdf=lambda x: np.zeros(np.shape(x)))
        assert check_mhr(flat)

    def test_unreachable_virtual_target(self):
        with pytest.raises(ValueError, match="not reachable"):
            _inverse_virtual(bisected(EXP1), np.array([1e13]))


class TestExpectedRevenue:
    def test_batch_and_scalar_paths_agree(self):
        inst = fixtures.depth1_instance((0.5, 0.5))
        dists = {1: UNIT, 2: UNIT}
        batch_mean, _ = expected_revenue(MaxVivaTA(dists), inst.net, dists,
                                         trials=4000, seed=2)

        class Wrapper(Mechanism):
            # the default compile: one run per draw, no vectorised revenues
            name = "scalar-maxviva"

            def run(self, net, reports):
                return MaxVivaTA(dists).run(net, reports)

        scalar_mean, _ = expected_revenue(Wrapper(), inst.net, dists,
                                          trials=4000, seed=2)
        assert batch_mean == pytest.approx(scalar_mean, abs=1e-9)

    def test_point_mass_matches_deterministic_run(self):
        point = ValuationDistribution(
            name="point", upper=1.0, mhr=True,
            cdf=lambda x: np.where(np.asarray(x) >= 0.7, 1.0, 0.0),
            pdf=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            sample=lambda rng, size: np.full(size, 0.7))
        inst = fixtures.depth1_instance((1.0, 1.0))
        mech = ReferralAuction(ArgmaxRule())
        mean, se = expected_revenue(mech, inst.net, {1: point, 2: point},
                                    trials=64, seed=0)
        assert mean == pytest.approx(0.7, abs=1e-12)
        assert se <= 1e-15  # identical draws; numpy std is not exactly zero

    def test_single_agent_reserve_revenue(self):
        inst = fixtures.depth1_instance((0.5,))
        mean, se = expected_revenue(MaxVivaTA({1: UNIT}), inst.net, {1: UNIT},
                                    trials=200000, seed=8)
        assert mean == pytest.approx(0.25, abs=3 * se + 1e-3)

    def test_maxviva_two_uniform_agents_hits_oracle(self):
        inst = fixtures.depth1_instance((0.5, 0.5))
        dists = {1: UNIT, 2: UNIT}
        mean, se = expected_revenue(MaxVivaTA(dists), inst.net, dists,
                                    trials=200000, seed=4)
        oracle = quadrature_two_uniform_optimal_revenue()
        assert oracle == pytest.approx(5.0 / 12.0, abs=1e-9)
        assert mean == pytest.approx(oracle, abs=3 * se)


def quadrature_two_uniform_optimal_revenue() -> float:
    """Two-dimensional quadrature oracle over the unit square for the
    optimal two-bidder auction: price max(1/2, min(v1, v2)) when the
    high bid clears 1/2.  The square is split along the diagonal and the
    reserve lines so each piece is smooth."""
    below_diag, _ = integrate.dblquad(lambda v2, v1: v2, 0.5, 1.0,
                                      0.5, lambda v1: v1)
    above_diag, _ = integrate.dblquad(lambda v2, v1: v1, 0.5, 1.0,
                                      lambda v1: v1, 1.0)
    low_first, _ = integrate.dblquad(lambda v2, v1: 0.5, 0.0, 0.5, 0.5, 1.0)
    low_second, _ = integrate.dblquad(lambda v2, v1: 0.5, 0.5, 1.0, 0.0, 0.5)
    return below_diag + above_diag + low_first + low_second


class TestRevenueComparisons:
    def test_maxviva_beats_fixed_challengers(self):
        inst = fixtures.depth1_instance((0.5, 0.5))
        dists = {1: UNIT, 2: UNIT}
        mv = MaxVivaTA(dists)
        challengers = [SecondPriceTA(0.0), SecondPriceTA(0.25), SecondPriceTA(0.75),
                       PowerTA({1: 0.5, 2: 1.0}), PowerTA({1: 2.0, 2: 1.0})]
        for ch in challengers:
            gap, se = paired_revenue_gap(mv, ch, inst.net, dists,
                                         trials=50000, seed=6)
            assert gap >= -3 * se, ch.name

    @pytest.mark.parametrize("trials", [0, -1])
    def test_paired_gap_rejects_fewer_than_one_trial(self, trials):
        inst = fixtures.depth1_instance((0.5, 0.5))
        dists = {1: UNIT, 2: UNIT}
        with pytest.raises(ValueError, match="trials must be >= 1"):
            paired_revenue_gap(MaxVivaTA(dists), SecondPriceTA(0.0), inst.net, dists,
                               trials=trials, seed=6)

    def test_maxviva_ta_batch_matches_tree_mechanism(self):
        rng = np.random.default_rng(15)
        inst = fixtures.depth1_instance((0.5, 0.5))
        dists = {1: UNIT, 2: max_of_iid(UNIT, 2)}
        ta = MaxVivaTA(dists)
        ids = sorted(inst.net.agents)
        matrix = rng.uniform(size=(40, 2))
        batch = truthful_compile(ta, inst.net).revenues(matrix)
        for row, expect in zip(matrix, batch):
            out = ta.run(inst.net, truthful_profile(inst.net, dict(zip(ids, row))))
            assert out.seller_revenue == expect


class TestTransformedAuctionRun:
    """The transformed auctions run on a full report profile, so the
    verifier can drive them like any other mechanism."""

    EXPS = {1: 2.0, 2: 1.0, 3: 0.5, 4: 1.5, 5: 0.8}

    def cases(self, dists):
        # each mechanism with its former truthful-forwarding body
        sp, pw, mv = SecondPriceTA(0.25), PowerTA(self.EXPS), MaxVivaTA(dists)
        return [
            (sp, lambda net, v: run_referral_auction(
                net, truthful_profile(net, v), SecondPriceReserveRule(0.25))[0]),
            (pw, lambda net, v: run_lblev(
                build_referral_tree(net, truthful_profile(net, v)), v, self.EXPS)[0]),
            (mv, lambda net, v: MaxVivaTA(dists).run(net, truthful_profile(net, v))),
        ]

    @staticmethod
    def priced(mech, expect):
        # run's revenue equals the compiled one exactly, but PowerTA's
        # kernel ** may round differently from libm's in the last ulp
        return pytest.approx(expect, abs=1e-9) if isinstance(mech, PowerTA) else expect

    def test_each_is_its_tree_mechanism(self):
        # the names stay those of the former standalone classes, and a
        # PowerTA without exponents is an error rather than IDM
        assert issubclass(PowerTA, LblevAuction) and issubclass(SecondPriceTA, ReferralAuction)
        assert issubclass(MaxVivaAuction, MaxVivaTA)
        star = fixtures.depth1_instance((0.5, 0.5)).net
        assert type(truthful_compile(MaxVivaAuction(UNIT), star)) is _FirstLevelCompiled
        assert SecondPriceTA(0.25).rule.reserve == 0.25
        names = [mech.name for mech, _ in self.cases({1: UNIT})]
        assert names == ["ta:second-price-r0.25", "ta:argmax-pow", "ta:maxviva"]
        with pytest.raises(TypeError):
            PowerTA(None)

    def test_run_on_truthful_profile_matches_run_on_values(self):
        # compiled revenues price the first-level subtree maxima, so they
        # agree with run on deep trees and ignore unreachable agents
        rng = np.random.default_rng(16)
        dists = {i: UNIT for i in range(1, 6)}
        star = fixtures.depth1_instance((0.5, 0.5, 0.5)).net
        deep = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        cut = network_from_edges([(0, 1), (0, 2), (1, 3), (4, 5)], agents=range(1, 6))
        for mech, former in self.cases(dists):
            for net in (star, deep, cut):
                ids = sorted(net.agents)
                matrix = rng.uniform(size=(20, len(ids)))
                batch = truthful_compile(mech, net).revenues(matrix)
                for row, expect in zip(matrix, batch):
                    values = dict(zip(ids, row.tolist()))
                    out = mech.run(net, truthful_profile(net, values))
                    assert out == former(net, values) == mech.run_on_values(net, values)
                    assert out.seller_revenue == self.priced(mech, expect)

    def test_lone_first_level_bidder_pays_nothing(self):
        # run_referral_auction's lone survivor pays only the offset, 0,
        # even above the reserve; MaxVivaTA needs first-level priors only
        lone = fixtures.depth1_instance((0.6,)).net
        chain = network_from_edges([(0, 1), (1, 2)])
        for mech, _ in self.cases({1: UNIT}):
            for net in (lone, chain):
                ids = sorted(net.agents)
                matrix = np.array([[0.6] * len(ids), [0.9] * len(ids)])
                batch = truthful_compile(mech, net).revenues(matrix)
                for row, expect in zip(matrix, batch):
                    out = mech.run_on_values(net, dict(zip(ids, row.tolist())))
                    assert out.seller_revenue == self.priced(mech, expect), mech.name
        reserve_ta = truthful_compile(SecondPriceTA(0.25), lone)
        assert reserve_ta.revenues(np.array([[0.6]])).tolist() == [0.0]

    def test_verify_mechanism_runs_on_each(self):
        inst = fixtures.depth1_instance((0.5, 0.3, 0.8))
        grid = make_grid(inst.reports, size=16, seed=1)
        # an unbounded MHR prior keeps every grid point inside the support
        for mech, _ in self.cases({i: EXP1 for i in inst.net.agents}):
            reports = verify_mechanism(mech, inst.net, inst.reports, grid)
            assert len(reports) == 5
            assert all(rep.passed for rep in reports), mech.name

    @pytest.mark.parametrize("dists, match", [
        ({1: UNIT, 2: heavy_tailed()}, "not declared hazard-monotone"),
        ({1: UNIT}, "missing first-level distribution for node 2"),
    ])
    def test_maxviva_ta_checks_priors_on_both_paths(self, dists, match):
        inst = fixtures.depth1_instance((0.5, 0.3))
        mech = MaxVivaTA(dists)
        with pytest.raises(ValueError, match=match):
            mech.run(inst.net, inst.reports)
        with pytest.raises(ValueError, match=match):
            truthful_compile(mech, inst.net).revenues([[0.5, 0.3], [0.2, 0.9]])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
    def test_power_ta_checks_exponents_on_both_paths(self, bad):
        inst = fixtures.depth1_instance((0.5, 0.3))
        mech = PowerTA({1: bad})
        with pytest.raises(InstanceError, match=r"exponent t\[1\]=.* must be positive"):
            mech.run(inst.net, inst.reports)
        with pytest.raises(InstanceError, match=r"exponent t\[1\]=.* must be positive"):
            truthful_compile(mech, inst.net).revenues([[0.5, 0.3], [0.2, 0.9]])

    def test_power_ta_checks_the_power_bound_on_both_paths(self):
        # 1e200**3 is not finite: run_lblev rejects the profile, and the
        # compiled revenues reject the matrix instead of warning
        inst = fixtures.depth1_instance((1e120, 1e200))
        mech = PowerTA({1: 3.0, 2: 1.0})
        match = r"values up to 1e\+200 overflow under the exponents of agents \[1\]"
        with pytest.raises(InstanceError, match=match):
            mech.run(inst.net, inst.reports)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstanceError, match=match):
                truthful_compile(mech, inst.net).revenues([[1.0, 2.0], [1e120, 1e200]])

    def test_maxviva_ta_passes_above_a_bounded_support(self):
        # grid points above U[0,1]'s support used to get virtual value -inf
        inst = fixtures.depth1_instance((0.5, 0.3, 0.8))
        mech = MaxVivaTA({i: UNIT for i in inst.net.agents})
        reports = verify_mechanism(mech, inst.net, inst.reports,
                                   make_grid(inst.reports, size=16, seed=1))
        assert [rep.passed for rep in reports] == [True] * 5, reports


class TestRevenueIdentity:
    @pytest.mark.parametrize("dist", [UNIT, EXP1])
    @pytest.mark.parametrize("n", [2, 3])
    def test_pay_integral_equals_virtual_surplus(self, dist, n):
        lhs, rhs = revenue_identity_sides(dist, n)
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_uniform_two_agent_value(self):
        lhs, _ = revenue_identity_sides(UNIT, 2)
        assert lhs == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_interim_payment_closed_form(self):
        # v * F(v) - int F = v^2/2 for one uniform rival
        for v in (0.2, 0.5, 0.9):
            assert interim_payment_second_price(UNIT, 1, v) == pytest.approx(
                v * v / 2.0, abs=1e-10)


class TestTruncatedNormal:
    @pytest.mark.parametrize("mean, sd", [(100.0, 5.0), (1.0, 5.0), (70.0, 0.3)])
    def test_cdf_is_ndtr_bit_for_bit(self, mean, sd):
        # negatives, both zeros, the mean and both tails beyond 8 sd
        grid = np.concatenate([
            [-1e300, -50.0, -1.0, -0.0, 0.0, 5e-324, mean],
            mean + sd * np.array([-40.0, -9.0, -8.5, 8.5, 9.0, 40.0]),
            np.linspace(-10.0, mean + 10.0 * sd, 61)])
        expected = np.where(grid >= 0, special.ndtr((grid - mean) / sd), 0.0)
        # first as the first scipy use of a fresh interpreter, then here
        out = fresh_python(
            "import sys\nimport numpy as np\n"
            "from diffusion_auctions import truncated_normal\n"
            "assert 'scipy' not in sys.modules\n"
            f"cdf = truncated_normal({mean!r}, {sd!r}).cdf(np.array({grid.tolist()!r}))\n"
            "print(cdf.tobytes().hex())")
        assert np.array_equal(np.frombuffer(bytes.fromhex(out.strip())), expected)
        assert np.array_equal(truncated_normal(mean, sd).cdf(grid), expected)

    def test_truncated_normal_clamps_sampler(self):
        rng = np.random.default_rng(1)
        tn = truncated_normal(1.0, 5.0)
        sample = tn.sample(rng, 2000)
        assert sample.min() >= 0.0
