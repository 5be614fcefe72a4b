import hashlib
import math

import numpy as np
import pytest

from diffusion_auctions import (
    ExperimentConfig,
    LblevAuction,
    activate_edges,
    build_referral_tree,
    exponent_table,
    fixtures,
    generate_base_tree,
    lblev_first_level_revenues,
    network_from_edges,
    run_lblev,
    sweep_lambda,
    truthful_profile,
    verify_mechanism,
)
from diffusion_auctions import experiments
from diffusion_auctions.experiments import (
    SweepRow,
    assign_class_means,
    draw_generators,
    draw_valuations,
    first_level_maxima,
    outer_sample,
    runner_up_exponents,
    write_sweep_csv,
)
from diffusion_auctions.network import SELLER, InstanceError, ReferralTree, subtree_values

from helpers import exponent_schedule, grid_search_lambda_star, inner_draw, sample_valuations


def small_config(**overrides):
    base = dict(n=10, sigma=5.0, lambdas=(0.0, 0.3, 0.7, 1.0),
                outer=6, inner=6, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


LAMBDAS_21 = tuple(round(0.05 * k, 10) for k in range(21))


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(n=2), dict(sigma=0.0), dict(sigma=-1.0), dict(sigma=math.nan),
        dict(sigma=math.inf), dict(lambdas=()), dict(lambdas=(0.0, 2.0)),
        dict(lambdas=(-0.5,)), dict(lambdas=(0.0, math.nan)), dict(lambdas=(math.inf,)),
        dict(outer=0), dict(inner=0), dict(lambdas=(0.5, 0.5)), dict(lambdas=(0.0, 1.0, -0.0)),
        dict(seed=-1), dict(jobs=0), dict(jobs=-4),
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_malformed_config_rejected(self, overrides):
        with pytest.raises(InstanceError):
            small_config(**overrides)

    def test_rejection_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            small_config(sigma=math.nan)


class TestBaseTreeGeneration:
    def test_single_agent(self):
        tree = generate_base_tree(1, np.random.default_rng(0))
        assert tree.children[SELLER] == (1,)

    def test_children_set_sizes_capped(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tree = generate_base_tree(9, rng)
            for node, kids in tree.children.items():
                assert 1 <= len(kids) <= 3
            assert sorted(tree.parent) == list(range(1, 10))

    def test_every_agent_placed_once(self):
        rng = np.random.default_rng(7)
        tree = generate_base_tree(30, rng)
        placed = [k for kids in tree.children.values() for k in kids]
        assert sorted(placed) == list(range(1, 31))

    def test_deterministic_under_seed(self):
        a = generate_base_tree(12, np.random.default_rng(3))
        b = generate_base_tree(12, np.random.default_rng(3))
        assert a == b


class TestActivation:
    def test_keep_rate_matches_first_moment(self):
        # one parent, one child, many draws: the keep probability itself
        # is drawn as u**(1/5), whose mean is 5/6
        base = ReferralTree(root=SELLER, parent={1: SELLER}, children={SELLER: (1,)})
        rng = np.random.default_rng(123)
        kept = sum(1 in activate_edges(base, rng) for _ in range(100000))
        assert kept / 100000 == pytest.approx(5.0 / 6.0, abs=0.01)

    def test_full_tree_possible_and_subtree_always(self):
        rng = np.random.default_rng(2)
        base = generate_base_tree(12, rng)
        for _ in range(50):
            heads = activate_edges(base, rng)
            placed = {SELLER}
            for agent, head in heads.items():
                # every agent follows its base parent and shares its head
                parent = base.parent[agent]
                assert parent in placed
                assert head == (agent if parent == SELLER else heads[parent])
                placed.add(agent)

    def test_deterministic_under_seed(self):
        base = generate_base_tree(10, np.random.default_rng(4))
        t1 = activate_edges(base, np.random.default_rng(9))
        t2 = activate_edges(base, np.random.default_rng(9))
        assert list(t1.items()) == list(t2.items())


class TestValuations:
    def test_class_counts(self):
        means = assign_class_means(11, np.random.default_rng(0))
        counts = {100.0: 0, 70.0: 0, 50.0: 0}
        for mu in means.values():
            counts[mu] += 1
        assert counts == {100.0: 1, 70.0: 5, 50.0: 5}

    def test_sigma_to_zero_recovers_means(self):
        rng = np.random.default_rng(1)
        means = assign_class_means(7, rng)
        values = draw_valuations(means, 1e-12, rng)
        for i, mu in means.items():
            assert values[i] == pytest.approx(mu, abs=1e-9)

    def test_negative_sigma_rejected_like_rng_normal(self):
        with pytest.raises(ValueError, match="scale < 0"):
            draw_valuations({1: 100.0, 2: 70.0}, -1.0, np.random.default_rng(0))

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(2)
        values = sample_valuations(9, 500.0, rng)
        assert all(v >= 0.0 for v in values.values())


class TestDrawGenerators:
    """``draw_generators`` re-derives numpy's seeding (the ``SeedSequence``
    hash and PCG64's seeding step), so a numpy change to either fails here
    instead of silently moving the sweep's rows."""

    @pytest.mark.parametrize("outer", [0, 49, 2**32 + 3])
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_states_and_streams_equal_numpy_seeding(self, seed, outer):
        inner = -1
        for inner, rng in enumerate(draw_generators(seed, outer, 40)):
            ref = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, 1, outer, inner])))
            assert rng.bit_generator.state == ref.bit_generator.state, inner
            assert rng.random(8).tolist() == ref.random(8).tolist(), inner
            assert rng.standard_normal(8).tolist() == ref.standard_normal(8).tolist(), inner
        assert inner == 39

    def test_no_inner_draws(self):
        assert list(draw_generators(42, 0, 0)) == []


def scalar_activate_edges(base, rng):
    """``activate_edges`` in its scalar draw form: one ``rng.uniform()``
    per reached parent and one per child, building the realized tree."""
    parent, children = {}, {}
    frontier = [SELLER]
    while frontier:
        node = frontier.pop(0)
        kids = base.children.get(node, ())
        if not kids:
            continue
        keep_prob = float(rng.uniform()) ** 0.2
        kept = tuple(k for k in kids if rng.uniform() < keep_prob)
        if kept:
            children[node] = kept
        for k in kept:
            parent[k] = node
            frontier.append(k)
    return ReferralTree(root=SELLER, parent=parent, children=children)


def heads_of(tree):
    """Each agent of a realized tree with its first-level ancestor (itself
    on the first level), in the order of ``tree.parent``."""
    heads = {}
    for agent, parent in tree.parent.items():
        heads[agent] = agent if parent == SELLER else heads[parent]
    return heads


def scalar_draw_valuations(means, sigma, rng):
    """``draw_valuations`` in its scalar draw form: one ``rng.normal`` per agent."""
    return {i: max(0.0, float(rng.normal(mu, sigma))) for i, mu in sorted(means.items())}


def paired_draws():
    """Per base tree, the sweep's generator for one draw (outer 0 of seed
    ``n``) and numpy's own generator for the same key."""
    for n in (3, 4, 10, 25, 40):
        for inner, fast in enumerate(draw_generators(n, 0, 300)):
            stage_one = np.random.default_rng([inner, n])
            base = generate_base_tree(n, stage_one)
            means = assign_class_means(n, stage_one)
            slow = np.random.default_rng(np.random.SeedSequence([n, 1, 0, inner]))
            yield (n, inner), base, means, fast, slow


class TestDrawForms:
    """The sweep's draws give the doubles of the scalar forms on numpy's
    own generator, which the sweep's rows were recorded with, and leave
    the stream at the same state."""

    def test_same_trees_values_and_stream_state(self):
        clamped = kept_edges = 0
        for key, base, means, fast, slow in paired_draws():
            heads = activate_edges(base, fast)
            tree = scalar_activate_edges(base, slow)
            assert list(heads.items()) == list(heads_of(tree).items()), key
            assert fast.bit_generator.state == slow.bit_generator.state, key
            kept_edges += len(heads)
            for sigma in (5.0, 1e6):
                values = draw_valuations(means, sigma, fast)
                assert values == scalar_draw_valuations(means, sigma, slow), key
                assert fast.bit_generator.state == slow.bit_generator.state, key
                assert all(type(v) is float for v in values.values())
                clamped += sum(v == 0.0 for v in values.values())
        # both forms are exercised well away from their trivial cases
        assert kept_edges > 10000 and clamped > 10000


class TestDrawPath:
    """What the sweep's first-level pass reads off a draw, over the
    ``TestDrawForms`` streams."""

    def test_parents_first_and_first_level_maxima(self):
        multi = 0
        for key, base, means, fast, slow in paired_draws():
            heads = activate_edges(base, fast)
            tree = scalar_activate_edges(base, slow)
            placed = {SELLER}
            for agent in heads:
                assert base.parent[agent] in placed, (key, agent)
                placed.add(agent)
            for sigma in (5.0, 1e6):
                values = draw_valuations(means, sigma, fast)
                first = first_level_maxima(heads, values)
                assert first == reference_first_level(tree, values), key
                multi += len(first) >= 2
        assert multi > 1000

    def test_overflowing_draw_rejected(self):
        # z above 1.06 takes 100 + 1.7e308 * z past the largest float
        rng = np.random.default_rng(0)
        with pytest.raises(InstanceError, match="valuations"):
            for _ in range(100):
                draw_valuations({1: 100.0, 2: 70.0}, 1.7e308, rng)


class TestExponentSchedule:
    def tree_with_two_tops(self):
        return ReferralTree(root=SELLER, parent={1: SELLER, 2: SELLER, 3: 1, 4: 2},
                            children={SELLER: (1, 2), 1: (3,), 2: (4,)})

    def test_lambda_zero_is_unit(self):
        base = self.tree_with_two_tops()
        means = {1: 60.0, 2: 55.0, 3: 100.0, 4: 70.0}
        sched = exponent_schedule(base, means, 0.0)
        assert all(t == 1.0 for t in sched.values())

    def test_lambda_one_log_ratio(self):
        base = self.tree_with_two_tops()
        means = {1: 60.0, 2: 55.0, 3: 100.0, 4: 70.0}
        sched = exponent_schedule(base, means, 1.0)
        # expected winner subtree tops at 100 (node 1), runner-up at 70 (node 2)
        assert sched[2] == pytest.approx(math.log(100.0) / math.log(70.0), abs=1e-12)
        assert sched[2] == pytest.approx(1.0839, abs=1e-4)
        assert all(sched[i] == 1.0 for i in (1, 3, 4))

    def test_lambda_half_midpoint(self):
        base = self.tree_with_two_tops()
        means = {1: 60.0, 2: 55.0, 3: 100.0, 4: 70.0}
        sched = exponent_schedule(base, means, 0.5)
        assert sched[2] == pytest.approx(1.0420, abs=1e-4)

    def test_schedule_is_the_runner_up_exponents(self):
        rng = np.random.default_rng(8)
        lambdas = (0.0, 0.3, 1.0, 0.65)
        for n in (3, 6, 10, 25):
            for _ in range(20):
                base = generate_base_tree(n, rng)
                means = assign_class_means(n, rng)
                node, exponents = runner_up_exponents(base, means, lambdas)
                for lam, t in zip(lambdas, exponents):
                    assert exponent_schedule(base, means, lam) == \
                        {i: t if i == node else 1.0 for i in range(1, n + 1)}
                if node is None:
                    assert exponents == [1.0] * len(lambdas)
                else:
                    assert node in base.child_tuple(SELLER) and exponents[0] == 1.0

    def test_single_first_level_subtree_is_unit(self):
        base = ReferralTree(root=SELLER, parent={1: SELLER, 2: 1},
                            children={SELLER: (1,), 1: (2,)})
        assert runner_up_exponents(base, {1: 70.0, 2: 100.0}, (0.8,)) == (None, [1.0])


class TestSweep:
    def test_lambda_zero_row_is_exactly_zero(self):
        rows = sweep_lambda(small_config())
        assert rows[0].lam == 0.0
        assert rows[0].mean_pct == 0.0
        assert rows[0].stderr == 0.0

    def test_reproducible_bit_for_bit(self):
        rows_a = sweep_lambda(small_config())
        rows_b = sweep_lambda(small_config())
        assert rows_a == rows_b

    def test_paired_draw_counts_identical_across_lambdas(self):
        rows = sweep_lambda(small_config())
        assert len({(r.used, r.excluded) for r in rows}) == 1

    def test_parallel_jobs_match_sequential(self):
        seq = sweep_lambda(small_config())
        par = sweep_lambda(small_config(jobs=2))
        assert seq == par

    @staticmethod
    def serial_pool(monkeypatch, cpus):
        """Report ``cpus`` CPUs and swap the process pool for one that
        records its worker count and maps in this process; no process is
        started."""
        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        # sweep_lambda imports the pool class when it starts workers
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        return made

    # four CPUs: the worker count is capped by the outer draws and the CPUs
    @pytest.mark.parametrize("outer, jobs, workers", [
        (1, 4, None), (1, 1, None), (2, 2, 2), (3, 8, 3), (6, 2, 2), (6, 4, 4),
        (6, 5, 4), (8, 6, 4), (9, 64, 4)])
    def test_workers_capped_at_outer_draws(self, monkeypatch, outer, jobs, workers):
        made = self.serial_pool(monkeypatch, 4)
        rows = sweep_lambda(small_config(outer=outer, jobs=jobs))
        assert made == ([] if workers is None else [workers])
        assert repr(rows) == repr(sweep_lambda(small_config(outer=outer)))

    @pytest.mark.parametrize("cpus", [None, 1])
    def test_one_or_unknown_cpu_runs_in_process(self, monkeypatch, cpus):
        made = self.serial_pool(monkeypatch, cpus)
        rows = sweep_lambda(small_config(jobs=8))
        assert made == []
        assert repr(rows) == repr(sweep_lambda(small_config()))

    def test_ir_spot_check_on_draws(self):
        # replay ~a fifth of the sweep's draws and assert participation
        config = small_config(outer=3, inner=5)
        rng = np.random.default_rng(0)
        for outer in range(config.outer):
            base, means = outer_sample(config, outer)
            scheds = {lam: exponent_schedule(base, means, lam)
                      for lam in config.lambdas}
            for inner in range(config.inner):
                if rng.random() > 0.2:
                    continue
                tree, values = inner_draw(config, base, means, outer, inner)
                if not tree.agents():
                    continue
                edges = [(tree.parent[a], a) for a in tree.agents()]
                net = network_from_edges(edges, agents=tree.agents())
                profile = truthful_profile(net, {a: values[a] for a in tree.agents()})
                for lam in config.lambdas:
                    [rep] = verify_mechanism(LblevAuction(scheds[lam]), net, profile,
                                             None, ("ir",))
                    assert rep.passed

    def test_improvement_matches_direct_recomputation(self):
        config = small_config(outer=2, inner=3, lambdas=(0.0, 0.6))
        rows = sweep_lambda(config)
        pcts = []
        for outer in range(config.outer):
            base, means = outer_sample(config, outer)
            sched = exponent_schedule(base, means, 0.6) \
                if len(base.child_tuple(SELLER)) >= 2 \
                else {i: 1.0 for i in range(1, config.n + 1)}
            for inner in range(config.inner):
                tree, values = inner_draw(config, base, means, outer, inner)
                base_out, _ = run_lblev(tree, values, {})
                if base_out.seller_revenue <= 0:
                    continue
                sched_out, _ = run_lblev(tree, values, sched)
                pcts.append(100.0 * (sched_out.seller_revenue - base_out.seller_revenue)
                            / base_out.seller_revenue)
        row = rows[1]
        assert row.used == len(pcts)
        assert row.mean_pct == pytest.approx(float(np.mean(pcts)), abs=1e-12)


def reference_first_level(tree, values):
    """The first-level (node, subtree maximum) pairs from ``subtree_values``."""
    best = subtree_values(tree, values)
    return [(c, best[c]) for c in tree.child_tuple(SELLER)]


def reference_rows(config):
    """The sweep rows from one 1-D ``np.mean`` / ``np.std(ddof=1)`` per
    lambda over that lambda's own list of improvements."""
    cols = [[] for _ in config.lambdas]
    excluded = 0
    for outer in range(config.outer):
        base, means = outer_sample(config, outer)
        node, scheduled = runner_up_exponents(base, means, config.lambdas)
        for inner in range(config.inner):
            tree, values = inner_draw(config, base, means, outer, inner)
            r0, *revenues = lblev_first_level_revenues(
                reference_first_level(tree, values), node, [1.0] + scheduled)
            if r0 > 0:
                for col, r in zip(cols, revenues):
                    col.append(100.0 * (r - r0) / r0)
            else:
                excluded += 1
    rows = []
    for lam, col in zip(config.lambdas, cols):
        vals = np.asarray(col)
        if vals.size == 0:
            rows.append(SweepRow(lam, 0.0, 0.0, 0, excluded))
            continue
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        rows.append(SweepRow(lam, float(np.mean(vals)), se, int(vals.size), excluded))
    return rows


class TestRowReduction:
    CONFIGS = [
        # chains only (n < 6 caps every children set at one): all excluded
        dict(n=3, sigma=5.0, outer=2, inner=3, seed=0),
        dict(n=4, sigma=1e6, outer=1, inner=4, seed=1),
        dict(n=5, sigma=60.0, outer=3, inner=2, seed=2),
        # exactly one priced draw
        dict(n=6, sigma=60.0, outer=1, inner=2, seed=1),
        dict(n=7, sigma=5.0, outer=2, inner=1, seed=0),
        dict(n=9, sigma=1e6, outer=1, inner=3, seed=0),
        # worker processes
        dict(n=10, sigma=5.0, outer=3, inner=4, seed=2, jobs=2),
        dict(n=12, sigma=60.0, outer=3, inner=5, seed=3, jobs=2),
        # one lambda, and the criterion-9 grid
        dict(n=10, sigma=5.0, outer=3, inner=6, seed=4, lambdas=(0.6,)),
        dict(n=10, sigma=5.0, outer=4, inner=10, seed=42, lambdas=LAMBDAS_21),
        dict(n=25, sigma=1e-300, outer=2, inner=5, seed=5, lambdas=LAMBDAS_21),
        dict(n=40, sigma=200.0, outer=2, inner=6, seed=6, lambdas=(1.0, 0.0, 0.5)),
    ] + [dict(n=n, sigma=sigma, outer=2, inner=5, seed=n)
         for n in (6, 8, 10, 12, 25, 40) for sigma in (1e-6, 5.0, 1e6)]

    def test_rows_equal_per_lambda_1d_reductions(self):
        used = set()
        assert len(self.CONFIGS) == 30
        for overrides in self.CONFIGS:
            config = small_config(**overrides)
            rows = sweep_lambda(config)
            assert repr(rows) == repr(reference_rows(config)), overrides
            used.add(min(rows[0].used, 2))
        assert used == {0, 1, 2}


class TestSellerRevenues:
    """``lblev_first_level_revenues`` against one ``run_lblev`` per exponent
    of the varying node."""

    def assert_matches_run_lblev(self, config, seen):
        for outer in range(config.outer):
            base, means = outer_sample(config, outer)
            node, scheduled = runner_up_exponents(base, means, config.lambdas)
            exponents = [1.0] + scheduled
            for inner in range(config.inner):
                tree, values = inner_draw(config, base, means, outer, inner)
                first = reference_first_level(tree, values)
                fast = lblev_first_level_revenues(first, node, exponents)
                slow = [run_lblev(tree, values, {} if node is None else {node: t})[0]
                        .seller_revenue for t in exponents]
                assert fast == slow, (config, outer, inner)
                assert all(type(r) is float for r in fast)
                maxima = dict(first)
                seen["draws"] += 1
                seen["all_zero"] += bool(tree.agents()) and not any(
                    values[a] for a in tree.agents())
                seen["one_first_level"] += len(first) == 1
                seen["tie"] += len(first) > len(set(maxima.values()))
                seen["sold"] += slow[0] > 0
                if node is not None and len(first) >= 2:
                    seen["absent"] += node not in maxima
                    seen["only_rival"] += node in maxima and len(first) == 2
                    seen["tie_at_unit"] += node in maxima and list(
                        maxima.values()).count(maxima[node]) > 1

    def test_equals_run_lblev_on_every_draw_and_map(self):
        seen = dict(draws=0, all_zero=0, one_first_level=0, tie=0, sold=0,
                    absent=0, only_rival=0, tie_at_unit=0)
        # seeds of the benchmark's lambda-sweep input pool (its default seed 42)
        pool = np.random.default_rng(42).integers(0, 2**31, size=200)
        for seed in pool[:40]:
            self.assert_matches_run_lblev(ExperimentConfig(
                n=10, sigma=5.0, lambdas=LAMBDAS_21, outer=1, inner=10,
                seed=int(seed)), seen)
        for n in (3, 4, 7, 12, 25):
            for sigma in (1e-300, 1e-6, 5.0, 60.0, 200.0, 1e6):
                self.assert_matches_run_lblev(ExperimentConfig(
                    n=n, sigma=sigma, lambdas=LAMBDAS_21, outer=3, inner=6,
                    seed=n), seen)
        # the configurations reach every edge case of the first level
        assert seen["draws"] == 40 * 10 + 5 * 6 * 3 * 6
        # (measured: 7 all-zero, 447 with one first-level subtree, 19 tied
        # first-level maxima and 402 sold draws of 940; with a varying node
        # and two or more first-level subtrees, 22 draws leave that node off
        # the first level, in 184 it is the only rival and in 19 it ties)
        assert seen["all_zero"] >= 5
        assert seen["one_first_level"] >= 100
        assert seen["tie"] >= 10
        assert seen["sold"] >= 300
        assert seen["absent"] >= 10
        assert seen["only_rival"] >= 100
        assert seen["tie_at_unit"] >= 10

    @pytest.mark.parametrize("edges, values, node", [
        # the varying node 3 is not on the realized first level
        ([(0, 1), (0, 2), (1, 3)], {1: 5.0, 2: 7.0, 3: 40.0}, 3),
        ([(0, 1), (0, 2), (0, 4), (2, 3)], {1: 5.0, 2: 7.0, 3: 2.0, 4: 6.0}, 3),
        # it is the leader's only rival, below it, above it and tied with it
        ([(0, 1), (0, 2)], {1: 50.0, 2: 30.0}, 2),
        ([(0, 1), (0, 2)], {1: 30.0, 2: 50.0}, 2),
        ([(0, 1), (0, 2)], {1: 30.0, 2: 30.0}, 2),
        ([(0, 1), (0, 2)], {1: 30.0, 2: 30.0}, 1),
        ([(0, 1), (0, 2), (2, 3)], {1: 0.5, 2: 0.2, 3: 0.7}, 2),
        # it ties another first-level maximum at t = 1, as leader or as runner-up
        ([(0, 1), (0, 2), (0, 3)], {1: 20.0, 2: 20.0, 3: 10.0}, 2),
        ([(0, 1), (0, 2), (0, 3)], {1: 20.0, 2: 20.0, 3: 10.0}, 1),
        ([(0, 1), (0, 2), (0, 3)], {1: 30.0, 2: 20.0, 3: 20.0}, 3),
        ([(0, 1), (0, 2), (0, 3)], {1: 30.0, 2: 20.0, 3: 20.0}, 2),
        ([(0, 3), (0, 2), (0, 1), (2, 4)], {1: 20.0, 2: 5.0, 3: 30.0, 4: 20.0}, 2),
        # zero maxima
        ([(0, 1), (0, 2), (0, 3)], {1: 0.0, 2: 0.0, 3: 0.0}, 2),
        ([(0, 1), (0, 2), (0, 3)], {1: 0.0, 2: 3.0, 3: 0.0}, 1),
    ])
    def test_constructed_first_levels(self, edges, values, node):
        net = network_from_edges(edges)
        tree = build_referral_tree(net, truthful_profile(net, values))
        exponents = [1.0, 0.5, 0.9, 1.0000001, math.log(30.0) / math.log(20.0), 2.0, 3.0]
        fast = lblev_first_level_revenues(reference_first_level(tree, values), node, exponents)
        assert fast == [run_lblev(tree, values, {node: t})[0].seller_revenue
                        for t in exponents]

    def test_worked_example(self):
        inst = fixtures.fig_lblev_instance()
        tree = build_referral_tree(inst.net, inst.reports)
        values = inst.reports.values()
        first = reference_first_level(tree, values)
        assert lblev_first_level_revenues(first, 3, [1.0, 3.0]) == \
            [run_lblev(tree, values, {3: t})[0].seller_revenue for t in (1.0, 3.0)] == \
            [9.0, 729.0]

    def test_empty_tree_and_no_maps(self):
        empty = activate_edges(ReferralTree(root=SELLER, parent={}, children={}),
                               np.random.default_rng(0))
        assert lblev_first_level_revenues(first_level_maxima(empty, {1: 5.0}), 1,
                                          [1.0, 2.0]) == [0.0, 0.0]
        assert lblev_first_level_revenues([(1, 5.0)], 1, [1.0, 2.0]) == [0.0, 0.0]
        assert lblev_first_level_revenues([(1, 5.0), (2, 3.0)], 1, []) == []
        assert lblev_first_level_revenues([(1, 5.0), (2, 3.0)], None, []) == []

    def test_root_level_overflow_contract(self):
        """Only the root level is ranked, so only its overflow raises.
        Agent 4's 1e160 squared would be ranked one level down: run_lblev's
        up-front bound rejects it, and this function prices the root level
        (winner 1 pays agent 2's 10).  An exponent of 2 on first-level
        agent 1 squares 1e160 at the root: both raise InstanceError."""
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4)])
        values = {1: 5.0, 2: 10.0, 3: 30.0, 4: 1e160}
        tree = build_referral_tree(net, truthful_profile(net, values))
        first = reference_first_level(tree, values)
        assert lblev_first_level_revenues(first, 4, [1.0, 2.0]) == [10.0, 10.0]
        with pytest.raises(InstanceError, match=r"agents \[4\]"):
            run_lblev(tree, values, {4: 2.0})
        with pytest.raises(InstanceError, match="first-level"):
            lblev_first_level_revenues(first, 1, [1.0, 2.0])
        with pytest.raises(InstanceError, match=r"agents \[1\]"):
            run_lblev(tree, values, {1: 2.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
    def test_rejects_the_values_run_lblev_rejects(self, bad):
        inst = fixtures.fig_lblev_instance()
        tree = build_referral_tree(inst.net, inst.reports)
        values = inst.reports.values()
        values[max(values)] = bad
        with pytest.raises(InstanceError):
            run_lblev(tree, values, {})
        for first in ([(1, 5.0), (2, bad)], [(2, bad), (1, 5.0)], [(2, bad)]):
            with pytest.raises(InstanceError, match="valuations"):
                lblev_first_level_revenues(first, 1, [1.0])
            with pytest.raises(InstanceError, match="valuations"):
                lblev_first_level_revenues(first, None, [1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_exponent_table_rejects_what_run_lblev_rejects(self, bad):
        inst = fixtures.fig_lblev_instance()
        tree = build_referral_tree(inst.net, inst.reports)
        with pytest.raises(InstanceError):
            run_lblev(tree, inst.reports.values(), {1: bad})
        with pytest.raises(InstanceError):
            exponent_table({1: bad}, tree.agents())


class TestSweepDigest:
    def test_c09_rows_are_byte_identical(self):
        # sha256 of repr(rows) for the criterion-9 configuration, recorded
        # when every lambda was priced by its own run_lblev descent
        config = ExperimentConfig(n=10, sigma=5.0, lambdas=LAMBDAS_21,
                                  outer=50, inner=50, seed=42)
        digest = hashlib.sha256(repr(sweep_lambda(config)).encode()).hexdigest()
        assert digest == "f0ea74dd48108af2b61516218a49c2e009bf92a4e756b3563e4a91dbc5635c7b"


class TestGridSearch:
    def test_flat_landscape_defaults_to_zero(self):
        # all agents in one class: expected winner and runner-up tie, the
        # schedule is unit everywhere, improvements are identically zero
        config = small_config(outer=4, inner=4,
                              lambdas=(0.0, 0.25, 0.5, 0.75, 1.0))
        rows = sweep_lambda(config)

        def all_same_class_rows():
            return [SweepRow(lam=r.lam, mean_pct=0.0, stderr=0.0,
                             used=r.used, excluded=r.excluded) for r in rows]

        flat = all_same_class_rows()
        best = flat[0]
        for row in flat[1:]:
            if row.mean_pct > best.mean_pct:
                best = row
        assert best.lam == 0.0

    def test_full_extraction_at_lambda_one_without_activation_noise(self):
        # when the realized tree is the base tree and values sit exactly at
        # the class means, the log-ratio exponent extracts the winning
        # subtree's top value, so revenue is increasing in lambda up to it
        rng = np.random.default_rng(6)
        base = generate_base_tree(10, rng)
        while len(base.child_tuple(SELLER)) < 2:
            base = generate_base_tree(10, rng)
        means = assign_class_means(10, rng)
        edges = [(p, c) for c, p in base.parent.items()]
        net = network_from_edges(edges, agents=range(1, 11))
        profile = truthful_profile(net, means)
        from diffusion_auctions import build_referral_tree
        tree = build_referral_tree(net, profile)
        tops = sorted((max(means[j] for j in tree.subtree(i))
                       for i in base.child_tuple(SELLER)), reverse=True)
        revenues = []
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            sched = exponent_schedule(base, means, lam)
            out, _ = run_lblev(tree, means, sched)
            revenues.append(out.seller_revenue)
        assert revenues == sorted(revenues)
        assert revenues[0] == pytest.approx(tops[1])          # unit exponents
        assert revenues[-1] == pytest.approx(tops[0], rel=1e-9)  # full extraction

    def test_degenerate_sigma_prefers_larger_lambda_than_noisy(self):
        # activation noise keeps the empirical optimum interior, but a
        # near-deterministic valuation draw pushes it up the grid
        lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
        config = small_config(outer=8, inner=8, lambdas=lambdas)
        star_tight = grid_search_lambda_star(10, 1e-6, config)
        assert star_tight >= 0.5

    def test_noisy_setup_interior_or_positive(self):
        config = small_config(outer=10, inner=10,
                              lambdas=tuple(round(0.1 * k, 10) for k in range(11)))
        star = grid_search_lambda_star(10, 5.0, config)
        assert star > 0.0


class TestCsv:
    def test_columns_and_rows(self, tmp_path):
        config = small_config(outer=2, inner=2, lambdas=(0.0, 1.0))
        rows = sweep_lambda(config)
        out = tmp_path / "sweep.csv"
        with open(out, "w", newline="") as fh:
            write_sweep_csv(rows, config, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,n,sigma,outer,inner,mean_pct,stderr,seed"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "10"
