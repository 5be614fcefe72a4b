"""Acceptance suite: one test per criterion (two for criterion 3), each
printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
criterion lines as they print).

Criterion 3 certifies the exponential level auction with the five
characterization checks on 200 random trees, with exponents from the
class it is forwarding-truthful for: first-level agents keep independent
draws, and every deeper agent shares the draw of its smallest-id sibling.
Below the seller each level then ranks siblings of one exponent, which
prices like the information-diffusion mechanism (the second-highest
``rho``); only the seller's non-strategic level prices by an exponent
ratio.  With independent per-agent exponents the auction admits
profitable neighbor withholding (tests/test_verify.py::
TestExponentWithholding pins one case: cutting a child raises a
forwarder's commission from 45.86 to 71.91).
``test_c03_per_agent_exponent_withholding`` pins that failure on the same
200 trees: diffusion-constraint and ddsic fail on exactly 8 instances,
every witness is confirmed by direct execution of
``oracles.naive_level_auction``, and a brute-force oracle search flags
the same 8 instances.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy import integrate

from diffusion_auctions import (
    ArgmaxRule,
    LblevAuction,
    MaxVivaAuction,
    MaxVivaTA,
    PowerRule,
    PowerTA,
    SecondPriceTA,
    build_referral_tree,
    check_mhr,
    check_ta_equivalence,
    estimate_interim,
    expected_revenue,
    exponential_distribution,
    max_of_iid,
    network_from_edges,
    paired_revenue_gap,
    random_tree_instance,
    rc_example_mechanism,
    replay_witness,
    run_lblev,
    run_referral_auction,
    sweep_lambda,
    truthful_profile,
    uniform_distribution,
    verify_mechanism,
)
from diffusion_auctions import fixtures
from diffusion_auctions.experiments import ExperimentConfig
from diffusion_auctions.mechanisms import Compiled, LevelCurves
from diffusion_auctions.mutants import DESIGNATED, make_mutant
from diffusion_auctions.rc_example import RcExampleAuction, fig_rc_instance
from diffusion_auctions.verify import ALL_CONDITIONS, INEQ_TOL, make_grid, random_exponents

from helpers import revenue_identity_sides
from oracles import (
    naive_forwarding_utility,
    naive_level_auction,
    naive_net_payments,
    naive_profitable_withholding,
    random_dag_edges,
)

UNIT = uniform_distribution(0.0, 1.0)
FIVE_CHECKS = ("monotonicity", "payment-identity", "diffusion-constraint",
               "ddsic", "ir")


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status} - {detail}")


def test_c01_lblev_worked_example():
    inst = fixtures.fig_lblev_instance()
    tree = build_referral_tree(inst.net, inst.reports)
    outcome, traces = run_lblev(tree, inst.reports.values(), inst.exponents)

    start = time.perf_counter()
    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        run_lblev(tree, inst.reports.values(), inst.exponents)
        best = min(best, time.perf_counter() - t0)
    _ = time.perf_counter() - start

    chain = [t.actual_payment for t in traces]
    closed = [fixtures.FIG_LBLEV_PAY_A, fixtures.FIG_LBLEV_PAY_E,
              fixtures.FIG_LBLEV_PAY_K]
    checks = [
        outcome.winner == 8,
        abs(outcome.seller_revenue - 729.0) <= 1e-6,
        all(abs(a - c) <= 1e-6 for a, c in zip(chain, closed)),
        abs(chain[1] - 731.45) <= 0.01,
        abs(chain[2] - 735.13) <= 0.01,
        abs(-outcome.payments[1] - math.sqrt(6.0)) <= 1e-6,
        abs(-outcome.payments[5] - math.sqrt(16.0 - math.sqrt(6.0))) <= 1e-6,
        abs(-outcome.payments[1] - 2.449) <= 1e-3,
        abs(-outcome.payments[5] - 3.681) <= 1e-3,
        best < 1e-3,
    ]
    report(1, all(checks),
           f"winner={outcome.winner} revenue={outcome.seller_revenue} "
           f"chain={[round(x, 4) for x in chain]} best_run={best * 1e6:.0f}us")
    assert all(checks)


def test_c02_rc_fixture():
    out = rc_example_mechanism([4.0, 6.0, 9.0])
    payments_ok = (out.payments[1] == -2.0 and out.payments[2] == 0.0
                   and out.payments[3] == 2.0)
    at_zero = (rc_example_mechanism([0.0, 6.0, 9.0]).payments[1],
               rc_example_mechanism([4.0, 0.0, 9.0]).payments[2],
               rc_example_mechanism([4.0, 6.0, 0.0]).payments[3])
    at_zero_ok = at_zero == (-2.0, -4.0 / 3.0, -4.0 / 3.0)

    inst = fig_rc_instance()
    grid = make_grid(inst.reports, size=64)
    [rep] = verify_mechanism(RcExampleAuction(), inst.net, inst.reports, grid,
                             ("diffusion-constraint",))
    detail = rep.details[(1, ())]
    lhs_ok = abs(detail["lhs"] - 5.0 / 3.0) <= 1e-9
    curve = detail["rhs_by_value"]
    high = {v: r for v, r in curve.items() if v >= 10.0}
    saturation_ok = (high and
                     all(abs(r - 5.0 / 3.0) <= 1e-9 for r in high.values()) and
                     abs(detail["rhs_max"] - 5.0 / 3.0) <= 1e-9 and
                     all(r < 5.0 / 3.0 for v, r in curve.items() if v <= 9.0))
    ok = payments_ok and at_zero_ok and rep.passed and lhs_ok and saturation_ok
    report(2, ok, f"payments=(-2,0,2) payments_at_zero={at_zero} "
                  f"lhs={detail['lhs']:.9f} rhs_max={detail['rhs_max']:.9f}")
    assert ok


def tree_children(net) -> dict[int, list[int]]:
    """Children lists of a tree-shaped network, seller included."""
    return {p: sorted(net.neighbors(p)) for p in (net.seller, *net.agents)
            if net.neighbors(p)}


def sibling_shared_exponents(children: dict[int, list[int]],
                             draws: dict[int, float], seller: int = 0) -> dict[int, float]:
    """Exponents on which the level auction is forwarding-truthful.

    Every agent below the first level takes the draw of its smallest-id
    sibling; first-level agents keep their own.  Each strategic parent's
    level then ranks children sharing one exponent ``t``, so ranking by
    ``rho**t`` is ranking by ``rho`` and the price ``rho_r**(t/t)`` is the
    information-diffusion second price.  Only the seller's level, whose
    parent is not strategic, prices by an exponent ratio.
    """
    shared = dict(draws)
    for parent, kids in children.items():
        if parent != seller:
            for child in kids:
                shared[child] = draws[min(kids)]
    return shared


def c03_instances(instances: int = 200):
    """The criterion-3 workload: (index, tree instance, independent
    per-agent exponent draws, deviation grid), from one seeded stream."""
    rng = np.random.default_rng(2024)
    for k in range(instances):
        inst = random_tree_instance(int(rng.integers(3, 13)), rng)
        draws = random_exponents(inst.net.agents, rng)
        yield k, inst, draws, make_grid(inst.reports, size=64, seed=k)


def five_checks(mech, inst, grid, digest=None):
    """The five checks by condition; ``digest``, a hashlib object, is fed
    every report's ``to_dict()`` and details, minus the diffusion curves
    (``rhs_by_value``)."""
    reports = verify_mechanism(mech, inst.net, inst.reports, grid, FIVE_CHECKS)
    if digest is not None:
        for r in reports:
            details = r.details
            if r.condition == "diffusion-constraint":
                details = {key: {f: x for f, x in entry.items() if f != "rhs_by_value"}
                           for key, entry in details.items()}
            digest.update(repr((r.to_dict(), details)).encode())
    return {r.condition: r for r in reports}


# sha256 over every c03 report (see five_checks): a verifier change that
# keeps its outputs must reproduce them.  Recorded at commit d6957ed and
# re-recorded when each table began to price its compile's jump hints,
# which moved diffusion details by under xtol and no to_dict()
C03_SHARED_DIGEST = "1b0bf8844489baa8f3029009fe810bae25d4d096dba368aebb9aafd81b4582e4"
C03_PER_AGENT_DIGEST = "db3c112acf011d352679c7cdef99f37d2b518aeabac9bc85fc3a03e707e646a9"


def test_c03_characterization_suite():
    start = time.perf_counter()
    instances = 200
    fail_counts = {c: 0 for c in FIVE_CHECKS}
    equivalence_ok = True
    sound_ok = True
    differs_from_idm = 0
    idm = LblevAuction(None)
    digest = hashlib.sha256()
    for k, inst, draws, grid in c03_instances(instances):
        mech = LblevAuction(sibling_shared_exponents(tree_children(inst.net), draws))
        reports = five_checks(mech, inst, grid, digest)
        for cond in FIVE_CHECKS:
            fail_counts[cond] += not reports[cond].passed
        structural = all(reports[c].passed for c in
                         ("monotonicity", "payment-identity", "diffusion-constraint"))
        equivalence_ok &= structural == reports["ddsic"].passed
        sound_ok &= all(reports[c].passed
                        for c in ("monotonicity", "payment-identity", "ir"))
        differs_from_idm += (mech.run(inst.net, inst.reports)
                             != idm.run(inst.net, inst.reports))

    mutants_ok = True
    for cond, (name, factory) in DESIGNATED.items():
        minst = factory()
        mgrid = make_grid(minst.reports, size=64)
        mrep = {r.condition: r
                for r in verify_mechanism(make_mutant(name), minst.net,
                                          minst.reports, mgrid, (cond,))}
        mutants_ok &= not mrep[cond].passed
    elapsed = time.perf_counter() - start

    assert equivalence_ok, "direct-vs-structural check equivalence broke"
    assert sound_ok, "monotonicity/payment-identity/ir failed unexpectedly"
    assert mutants_ok, "a designated mutant slipped past its check"
    assert digest.hexdigest() == C03_SHARED_DIGEST, digest.hexdigest()
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    # the exponents must keep the certified auction away from plain IDM
    assert differs_from_idm > instances // 2, (
        f"only {differs_from_idm}/{instances} outcomes differ from IDM")

    clean = all(count == 0 for count in fail_counts.values())
    report(3, clean,
           f"sibling-shared exponents: fail counts over {instances} instances "
           f"{fail_counts}; equivalence ddsic<->structural held on all; "
           f"mutants all caught; {differs_from_idm} outcomes differ from IDM; "
           f"{elapsed:.1f}s")
    assert clean, f"forwarding checks failed: {fail_counts}"


# Per-agent exponents from random_exponents admit profitable withholding on
# exactly these instances of the criterion-3 stream.
WITHHOLDING_INSTANCES = {31, 41, 60, 62, 65, 170, 185, 192}


def test_c03_per_agent_exponent_withholding():
    """The same 200 trees with independent per-agent exponents: the level
    auction is not forwarding-truthful there, and the verifier's failures
    are a fixed fingerprint that an independent oracle reproduces.

    Every ddsic witness is replayed through ``oracles.naive_level_auction``
    (no package code), and a brute-force oracle search over every agent,
    every strict subset of its children, and every grid point plus the
    truthful value flags exactly the instances the verifier flags.
    """
    start = time.perf_counter()
    instances = 200
    fail_counts = {c: 0 for c in FIVE_CHECKS}
    equivalence_ok = True
    flagged, oracle_flagged, unconfirmed = set(), set(), set()
    digest = hashlib.sha256()
    for k, inst, draws, grid in c03_instances(instances):
        reports = five_checks(LblevAuction(draws), inst, grid, digest)
        for cond in FIVE_CHECKS:
            fail_counts[cond] += not reports[cond].passed
        structural = all(reports[c].passed for c in
                         ("monotonicity", "payment-identity", "diffusion-constraint"))
        equivalence_ok &= structural == reports["ddsic"].passed

        children = tree_children(inst.net)
        values = inst.reports.values()
        tol = INEQ_TOL * max(max(values.values()), 1.0)
        if not reports["ddsic"].passed:
            flagged.add(k)
            w = reports["ddsic"].witness
            x = w.data["true_value"]
            withheld = set(children[w.agent]) - set(w.subset)
            u_full = naive_forwarding_utility(children, values, draws, w.agent, (), x)
            u_cut = naive_forwarding_utility(children, values, draws, w.agent,
                                             withheld, x)
            if not (w.data["point"] == 2 and u_cut > u_full + tol):
                unconfirmed.add(k)
        if naive_profitable_withholding(children, values, draws,
                                        grid.points, tol) is not None:
            oracle_flagged.add(k)
    elapsed = time.perf_counter() - start

    report(3, True,
           f"per-agent exponents: fail counts {fail_counts}; flagged "
           f"{sorted(flagged)}, oracle {sorted(oracle_flagged)}; {elapsed:.1f}s")
    assert fail_counts == {"monotonicity": 0, "payment-identity": 0,
                           "diffusion-constraint": 8, "ddsic": 8, "ir": 0}
    assert equivalence_ok, "direct-vs-structural check equivalence broke"
    assert not unconfirmed, f"oracle did not confirm witnesses {sorted(unconfirmed)}"
    assert oracle_flagged == flagged == WITHHOLDING_INSTANCES
    assert digest.hexdigest() == C03_PER_AGENT_DIGEST, digest.hexdigest()
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"


def test_c03_misreport_is_ddsic_point_2():
    """``misreport`` is ddsic point 2 reported on its own: on the per-agent
    stream it fails exactly on the withholding instances, each witness is
    ddsic's point-2 witness but for its note and replays, and under
    sibling-shared exponents it passes on every tree."""
    def fields(w):
        return w.agent, w.subset, w.value, w.lhs, w.rhs, w.data["true_value"]

    flagged = set()
    for k, inst, draws, grid in c03_instances(200):
        shared = sibling_shared_exponents(tree_children(inst.net), draws)
        [rep] = verify_mechanism(LblevAuction(shared), inst.net, inst.reports, grid,
                                 ("misreport",))
        assert rep.passed, k
        mech = LblevAuction(draws)
        ddsic, rep = verify_mechanism(mech, inst.net, inst.reports, grid,
                                      ("ddsic", "misreport"))
        if not rep.passed:
            flagged.add(k)
            assert ddsic.witness.data["point"] == 2, k
            assert fields(rep.witness) == fields(ddsic.witness), k
            assert replay_witness(mech, inst.net, inst.reports, rep), k
    assert flagged == WITHHOLDING_INSTANCES


# sha256 over every report of the seven conditions on the first ten c03
# trees, under both exponent classes, with the diffusion curves
# (``rhs_by_value``) included.  Without jump hints every table is bisected
# as at commit 4aab156, whose checks scanned the points one by one, and the
# digest is the one recorded there
C03_FIRST_TEN_DIGEST = "6f9327beb0b6888c2acb247b5278f37719aca52e4352fe4e406c19bc0e6db0ea"
C03_FIRST_TEN_UNHINTED_DIGEST = "175a13d79a195c28dbb1a908ed507860dd0390bfac60ce1dc02baade9050f864"


def c03_first_ten_digest() -> str:
    digest = hashlib.sha256()
    for _, inst, draws, grid in c03_instances(10):
        shared = sibling_shared_exponents(tree_children(inst.net), draws)
        for exponents in (shared, draws):
            for r in verify_mechanism(LblevAuction(exponents), inst.net, inst.reports,
                                      grid, ALL_CONDITIONS):
                digest.update(repr((r.to_dict(), r.details)).encode())
    return digest.hexdigest()


def test_c03_first_ten_with_diffusion_curves(monkeypatch):
    assert (hinted := c03_first_ten_digest()) == C03_FIRST_TEN_DIGEST, hinted
    monkeypatch.setattr(LevelCurves, "jumps", Compiled.jumps)
    assert (bare := c03_first_ten_digest()) == C03_FIRST_TEN_UNHINTED_DIGEST, bare


class RecordingCurves(Compiled):
    """A compiled mechanism that logs ``(agent, tuple(xs))`` per
    ``curve`` call before passing it to the compiled ``inner``."""

    def __init__(self, inner: Compiled, log: list):
        super().__init__(inner.mech, inner.net, inner.reports)
        self.inner, self.log = inner, log

    def curve(self, agent, xs):
        xs = list(xs)
        self.log.append((agent, tuple(xs)))
        return self.inner.curve(agent, xs)


class RecordingLblev(LblevAuction):
    def __init__(self, exponents, log: list):
        super().__init__(exponents)
        self.log = log

    def compile(self, net, reports):
        return RecordingCurves(super().compile(net, reports), self.log)


# sha256 of repr of every (agent, points) batch the verifier sends to
# ``curve`` for the seven conditions on the first ten c03 trees, under
# both exponent classes; recorded at commit 41bea97: a verifier change
# that keeps its reports must price the same points in the same batches
C03_CURVE_BATCH_DIGEST = "9510b107c4ab24bdc55a6fcb9813b6c241e16f437a95bc7e13e6b96ceb2b146a"


def test_c03_first_ten_curve_batches():
    log: list = []
    for _, inst, draws, grid in c03_instances(10):
        shared = sibling_shared_exponents(tree_children(inst.net), draws)
        for exponents in (shared, draws):
            verify_mechanism(RecordingLblev(exponents, log), inst.net, inst.reports,
                             grid, ALL_CONDITIONS)
    assert len(log) > 1000
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == C03_CURVE_BATCH_DIGEST, digest


def test_c04_equivalences():
    rng = np.random.default_rng(44)
    for k in range(500):
        inst = random_tree_instance(int(rng.integers(1, 12)), rng)
        tree = build_referral_tree(inst.net, inst.reports)
        values = inst.reports.values()
        out, _ = run_lblev(tree, values, {})
        children = {p: list(kids) for p, kids in tree.children.items()}
        winner, pays = naive_level_auction(children, values, {}, root=tree.root)
        net_pay, revenue = naive_net_payments(winner, pays, values)
        assert out.winner == winner
        assert {i: out.payments.get(i, 0.0) for i in values} == net_pay
        assert out.seller_revenue == revenue

    for k in range(500):
        n = int(rng.integers(1, 11))
        net = network_from_edges(random_dag_edges(rng, n), agents=range(1, n + 1))
        values = {i: float(rng.uniform(0, 100)) for i in net.agents}
        profile = truthful_profile(net, values)
        exps = {i: float(rng.uniform(0.5, 3)) for i in net.agents}
        ra, _ = run_referral_auction(net, profile, PowerRule(exps))
        tree = build_referral_tree(net, profile)
        lb, _ = run_lblev(tree, profile.values(), exps)
        assert ra.winner == lb.winner
        for agent in tree.agents():
            assert abs(ra.payments.get(agent, 0.0) - lb.payments.get(agent, 0.0)) <= 1e-9
    report(4, True, "500 instances: unit-exponent lblev == naive IDM oracle exactly; "
                    "referral power rule == level auction within 1e-9")


def test_c05_ta_revenue_equivalence():
    rng = np.random.default_rng(55)
    rules = [ArgmaxRule()]
    for k in range(200):
        n = int(rng.integers(1, 11))
        net = network_from_edges(random_dag_edges(rng, n), agents=range(1, n + 1))
        values = {i: float(rng.uniform(0, 100)) for i in net.agents}
        profile = truthful_profile(net, values)
        rule = (PowerRule({i: float(rng.uniform(0.5, 3)) for i in net.agents})
                if k % 2 else rules[0])
        rep = check_ta_equivalence(net, profile, rule)
        assert rep.passed, rep.witness
    report(5, True, "200 instances: referral revenue == transformed-auction "
                    "revenue, exact float equality")


def test_c06_maxviva_desk_scale():
    start = time.perf_counter()
    inst = fixtures.depth1_instance((0.5, 0.5))
    dists = {1: UNIT, 2: UNIT}

    below, _ = integrate.dblquad(lambda v2, v1: v2, 0.5, 1.0, 0.5, lambda v1: v1)
    above, _ = integrate.dblquad(lambda v2, v1: v1, 0.5, 1.0, lambda v1: v1, 1.0)
    rect1, _ = integrate.dblquad(lambda v2, v1: 0.5, 0.0, 0.5, 0.5, 1.0)
    rect2, _ = integrate.dblquad(lambda v2, v1: 0.5, 0.5, 1.0, 0.0, 0.5)
    oracle = below + above + rect1 + rect2
    assert abs(oracle - 5.0 / 12.0) <= 1e-9

    mv = MaxVivaTA(dists)
    mean, se = expected_revenue(mv, inst.net, dists, trials=10**6, seed=606)
    mc_ok = abs(mean - oracle) <= 3.0 * se

    challengers = [SecondPriceTA(0.0), SecondPriceTA(0.25), SecondPriceTA(0.75),
                   PowerTA({1: 0.5, 2: 1.0}), PowerTA({1: 2.0, 2: 1.0})]
    gaps = {}
    beats_ok = True
    for ch in challengers:
        gap, gse = paired_revenue_gap(mv, ch, inst.net, dists,
                                      trials=200000, seed=607)
        gaps[ch.name] = round(gap, 5)
        beats_ok &= gap >= -3.0 * gse

    # three i.i.d. nodes as well
    inst3 = fixtures.depth1_instance((0.5, 0.5, 0.5))
    dists3 = {1: UNIT, 2: UNIT, 3: UNIT}
    mv3 = MaxVivaTA(dists3)
    for ch in [SecondPriceTA(0.0), SecondPriceTA(0.25), SecondPriceTA(0.75),
               PowerTA({1: 0.5, 2: 1.0, 3: 1.0}), PowerTA({1: 2.0, 2: 1.0, 3: 1.0})]:
        gap, gse = paired_revenue_gap(mv3, ch, inst3.net, dists3,
                                      trials=200000, seed=608)
        beats_ok &= gap >= -3.0 * gse
    elapsed = time.perf_counter() - start

    ok = mc_ok and beats_ok and elapsed < 60.0
    report(6, ok, f"mc={mean:.6f}+-{se:.6f} oracle={oracle:.9f} "
                  f"gaps={gaps} {elapsed:.1f}s")
    assert ok


def test_c06_maxviva_deep_tree():
    """Criterion 6 beyond depth one.  On 0->{1,2}, 1->3, 2->{4,5,6} with
    i.i.d. U(0,1) values the first-level subtree maxima follow x**2 and
    x**4, so the optimal auction is Myerson's for these two non-identical
    bidders, whose revenue is E[max(phi1(Y1), phi2(Y2), 0)]."""
    start = time.perf_counter()
    net = network_from_edges([(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (2, 6)])
    dists = {i: UNIT for i in net.agents}

    def phi(n, y):   # virtual valuation of the maximum of n uniforms
        return y - (1.0 - y ** n) / (n * y ** (n - 1))

    oracle, _ = integrate.dblquad(
        lambda y2, y1: max(phi(2, y1), phi(4, y2), 0.0) * 2 * y1 * 4 * y2 ** 3, 0, 1, 0, 1)
    mv = MaxVivaAuction(UNIT)
    mean, se = expected_revenue(mv, net, dists, trials=200000, seed=616)
    mc_ok = abs(mean - oracle) <= 3.0 * se

    draws = {1: 1.0, 2: 1.5, 3: 0.7, 4: 2.0, 5: 0.6, 6: 1.3}
    shared = sibling_shared_exponents(tree_children(net), draws)
    challengers = [LblevAuction(), LblevAuction(shared),
                   SecondPriceTA(0.0), SecondPriceTA(0.5), SecondPriceTA(0.75)]
    gaps = {}
    beats_ok = True
    for ch in challengers:
        gap, gse = paired_revenue_gap(mv, ch, net, dists, trials=200000, seed=617)
        gaps[ch.name] = round(gap, 5)
        beats_ok &= gap >= -3.0 * gse
    elapsed = time.perf_counter() - start

    ok = mc_ok and beats_ok and elapsed < 60.0
    report(6, ok, f"deep tree: mc={mean:.6f}+-{se:.6f} oracle={oracle:.6f} "
                  f"gaps={gaps} {elapsed:.1f}s")
    assert ok


def test_c07_mhr_preservation():
    exp1 = exponential_distribution(1.0)
    preserved = all(check_mhr(max_of_iid(base, n), grid_size=256)
                    for base in (UNIT, exp1) for n in (2, 3, 5))
    xs = np.linspace(0.0, 1.0, 2001)
    max2 = max_of_iid(UNIT, 2)
    cdf_gap = float(np.max(np.abs(np.asarray(max2.cdf(xs)) - xs ** 2)))
    ok = preserved and cdf_gap <= 1e-12
    report(7, ok, f"hazard monotone for n in (2,3,5); max-of-2 cdf gap {cdf_gap:.2e}")
    assert ok


def test_c08_virtual_surplus_identity():
    worst = 0.0
    for dist in (UNIT, exponential_distribution(1.0)):
        for n in (2, 3):
            lhs, rhs = revenue_identity_sides(dist, n)
            rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
            worst = max(worst, rel)
    ok = worst <= 1e-4
    report(8, ok, f"worst relative gap {worst:.2e}")
    assert ok


def test_c09_lambda_sweep_reproduction():
    start = time.perf_counter()
    config = ExperimentConfig(
        n=10, sigma=5.0,
        lambdas=tuple(round(0.05 * k, 10) for k in range(21)),
        outer=50, inner=50, seed=42)
    rows = sweep_lambda(config)
    elapsed = time.perf_counter() - start

    zero_row = rows[0]
    zero_ok = zero_row.lam == 0.0 and zero_row.mean_pct == 0.0 and zero_row.stderr == 0.0
    significant = [r for r in rows if r.lam > 0.0 and r.stderr > 0.0
                   and r.mean_pct > 2.0 * r.stderr]
    best = max(rows, key=lambda r: r.mean_pct)
    interior_ok = bool(significant) and best.lam > 0.0 and best.mean_pct > rows[-1].mean_pct
    ok = zero_ok and interior_ok and elapsed < 300.0
    report(9, ok, f"lam0=({zero_row.mean_pct},{zero_row.stderr}) "
                  f"best lam*={best.lam:.2f} at {best.mean_pct:+.2f}% "
                  f"(edge {rows[-1].mean_pct:+.2f}%), "
                  f"{len(significant)}/20 positive at 2se, {elapsed:.1f}s")
    assert ok


def test_c10_interim_allocation_monotone():
    net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    dists = {i: uniform_distribution(0.0, 100.0) for i in range(1, 6)}
    mech = LblevAuction({1: 1.2, 2: 0.8, 3: 2.0, 4: 1.0, 5: 1.5})
    grid = np.linspace(0.0, 120.0, 16)
    estimates = [estimate_interim(mech, net, dists, agent=3, value=float(v),
                                  samples=10**5, seed=1010) for v in grid]
    ok = True
    for lo, hi in zip(estimates[:-1], estimates[1:]):
        slack = 3.0 * (lo.allocation_se + hi.allocation_se)
        ok &= hi.allocation >= lo.allocation - slack
    report(10, ok, "alpha(v) grid: " +
           " ".join(f"{e.allocation:.3f}" for e in estimates))
    assert ok


def interim_identity_residual(mech, net, dists, step: float, samples: int) -> float:
    """The largest |p(v) - p(0) - v a(v) + integral of a over [0, v]| of
    agent 3's interim allocation a and payment p on a grid of step
    ``step`` over [0, 120], the integral by trapezoids.  One seed draws
    the same rival values at every v, so when every draw's curve meets
    Myerson's identity with an allocation that varies by at most 1, the
    residual is at most step / 2, exactly, at any sample count."""
    vs = np.arange(0.0, 120.0 + step / 2, step)
    estimates = [estimate_interim(mech, net, dists, agent=3, value=float(v),
                                  samples=samples, seed=1010) for v in vs]
    a = np.array([e.allocation for e in estimates])
    p = np.array([e.payment for e in estimates])
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(vs))))
    return float(np.abs(p - p[0] - vs * a + integral).max())


def test_c10_interim_payment_identity():
    """c10's payment half on c10's tree, priors and seed: IDM and c10's
    lblev meet the identity within step / 2, and each value-axis mutant
    misses it (when this test was added: IDM 0.0030 and lblev 0.0016 at
    20,000 samples; award-lowest 18.44, flat-fee 3.68 and no-offset 34.62
    at step 4, and loser-fee 0.76 at step 1, at 100 samples)."""
    net = network_from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    dists = {i: uniform_distribution(0.0, 100.0) for i in range(1, 6)}
    cases = [("idm", LblevAuction(None), 1.0, 10_000, True),
             ("lblev", LblevAuction({1: 1.2, 2: 0.8, 3: 2.0, 4: 1.0, 5: 1.5}), 1.0, 10_000, True),
             *((name, make_mutant(name), 4.0, 100, False)
               for name in ("award-lowest", "flat-fee", "no-offset")),
             ("loser-fee", make_mutant("loser-fee"), 1.0, 100, False)]
    ok, lines = True, []
    for name, mech, step, samples, meets in cases:
        residual = interim_identity_residual(mech, net, dists, step, samples)
        ok &= (residual <= step / 2) == meets
        lines.append(f"{name} {residual:.4f} (bound {step / 2})")
    report(10, ok, "payment identity residual: " + ", ".join(lines))
    assert ok
