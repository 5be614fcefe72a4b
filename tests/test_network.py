import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusion_auctions import (
    SELLER,
    InstanceError,
    Report,
    ReportProfile,
    build_referral_tree,
    filter_subnetwork,
    load_instance,
    network_from_edges,
    random_tree_instance,
    save_instance,
    subtree_values,
    truthful_profile,
)
from diffusion_auctions import fixtures
from diffusion_auctions.experiments import generate_base_tree
from diffusion_auctions.network import (
    DiffusionNetwork,
    Instance,
    Outcome,
    bfs_timestamps,
    exponents_from_dict,
    instance_from_dict,
    instance_to_dict,
)

from oracles import naive_referral_parents, random_dag_edges, random_tree_children


def fan_net():
    # seller -> {1,2,3}, 1 -> {4,5}
    return network_from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


class TestFilterSubnetwork:
    def test_cut_forwarder_hides_descendants(self):
        net = fan_net()
        profile = truthful_profile(net, {i: 1.0 for i in net.agents})
        cut = profile.replace(1, neighbors=frozenset())
        assert filter_subnetwork(net, cut) == {1, 2, 3}

    def test_full_forwarding_reaches_everyone(self):
        net = fan_net()
        profile = truthful_profile(net, {i: 1.0 for i in net.agents})
        assert filter_subnetwork(net, profile) == {1, 2, 3, 4, 5}

    def test_chain_cut_in_the_middle(self):
        net = network_from_edges([(0, 1), (1, 2), (2, 3)])
        profile = truthful_profile(net, {1: 1.0, 2: 1.0, 3: 1.0})
        cut = profile.replace(2, neighbors=frozenset())
        assert filter_subnetwork(net, cut) == {1, 2}

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_monotone_in_reported_edges(self, data):
        n = data.draw(st.integers(2, 8))
        children = random_tree_children(np.random.default_rng(data.draw(st.integers(0, 10**6))), n)
        edges = [(p, c) for p, kids in children.items() for c in kids]
        net = network_from_edges(edges, agents=range(1, n + 1))
        profile = truthful_profile(net, {i: 1.0 for i in net.agents})
        agent = data.draw(st.sampled_from(sorted(net.agents)))
        full = sorted(profile.neighbors(agent))
        keep = data.draw(st.sets(st.sampled_from(full), max_size=len(full))
                         if full else st.just(set()))
        smaller = profile.replace(agent, neighbors=frozenset(keep))
        assert filter_subnetwork(net, smaller) <= filter_subnetwork(net, profile)


class TestReferralTree:
    def test_earliest_inviter_wins(self):
        # both 1 and 2 invite 3; 1 has the earlier stamp
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        stamps = {1: 3, 2: 5, 3: 9}
        profile = truthful_profile(net, {i: 1.0 for i in net.agents}, stamps)
        tree = build_referral_tree(net, profile)
        assert tree.parent[3] == 1

    def test_timestamp_tie_breaks_by_id(self):
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        stamps = {1: 3, 2: 3, 3: 9}
        profile = truthful_profile(net, {i: 1.0 for i in net.agents}, stamps)
        tree = build_referral_tree(net, profile)
        assert tree.parent[3] == 1

    def test_tree_network_reproduced_exactly(self):
        net = fan_net()
        profile = truthful_profile(net, {i: 1.0 for i in net.agents})
        tree = build_referral_tree(net, profile)
        assert tree.parent == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
        assert tree.child_tuple(1) == (4, 5)

    def test_spans_exactly_the_reachable_set(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inst = random_tree_instance(int(rng.integers(2, 10)), rng)
            agent = int(rng.choice(sorted(inst.net.agents)))
            profile = inst.reports.replace(agent, neighbors=frozenset())
            tree = build_referral_tree(inst.net, profile)
            assert tree.agents() == filter_subnetwork(inst.net, profile)

    def test_rejects_cyclic_timestamps(self):
        # 2 and 3 invite each other and both undercut their real inviter
        net = network_from_edges([(0, 1), (1, 2), (1, 3), (2, 3), (3, 2)])
        stamps = {1: 5, 2: 1, 3: 2}
        profile = truthful_profile(net, {i: 1.0 for i in net.agents}, stamps)
        with pytest.raises(InstanceError):
            build_referral_tree(net, profile)


def random_referral_case(rng: np.random.Generator, n: int):
    """Random multi-inviter digraph over agents 1..n: a connected DAG plus
    a few arbitrary extra edges (which can close cycles), random stamps
    with ties, and a random forwarded subset for every agent."""
    edges = random_dag_edges(rng, n)
    for _ in range(int(rng.integers(0, 5))):
        src, dst = (int(x) for x in rng.integers(1, n + 1, size=2))
        edges.append((src, dst))
    net = network_from_edges(edges, agents=range(1, n + 1))
    stamps = {i: int(rng.integers(0, n)) for i in net.agents}
    forwards = {i: frozenset(j for j in sorted(net.neighbors(i)) if rng.random() < 0.8)
                for i in net.agents}
    profile = ReportProfile({i: Report(1.0, forwards[i], stamps[i]) for i in net.agents})
    return net, forwards, stamps, profile


def children_of(parent: dict[int, int]) -> dict[int, tuple[int, ...]]:
    children: dict[int, tuple[int, ...]] = {}
    for node in sorted(parent):
        children[parent[node]] = children.get(parent[node], ()) + (node,)
    return children


class TestReferralTreeAgainstOracle:
    def test_matches_quadratic_rule_on_random_digraphs(self):
        rng = np.random.default_rng(17)
        built = cyclic = 0
        for _ in range(300):
            net, forwards, stamps, profile = random_referral_case(rng, int(rng.integers(2, 13)))
            try:
                expect = naive_referral_parents(net.out_edges, forwards, stamps)
            except ValueError:
                cyclic += 1
                with pytest.raises(InstanceError):
                    build_referral_tree(net, profile)
                continue
            built += 1
            tree = build_referral_tree(net, profile)
            assert tree.parent == expect
            assert dict(tree.children) == children_of(expect)
            assert sorted(tree.post_order()) == sorted(expect)
        # both branches are exercised, and re-routing is common
        assert built >= 250 and cyclic >= 10

    def test_large_multi_inviter_network_builds_fast(self):
        rng = np.random.default_rng(4000)
        n = 4000
        edges = []
        for k in range(1, n + 1):
            first = 0 if k == 1 else int(rng.integers(0, k))
            edges.append((first, k))
            extra = np.nonzero(rng.random(k) < 2.0 / k)[0].tolist()
            edges.extend((j, k) for j in extra if j != first)
        net = network_from_edges(edges, agents=range(1, n + 1))
        stamps = dict(zip(range(1, n + 1), rng.permutation(n).tolist()))
        profile = truthful_profile(net, {i: 1.0 for i in net.agents}, stamps)
        start = time.perf_counter()
        tree = build_referral_tree(net, profile)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert len(tree.parent) == n


def run_large_case(rng: np.random.Generator, n: int):
    """An instance shaped like the benchmark's run-large pool: every agent
    has a first inviter among the earlier nodes plus about two more, and a
    few arbitrary extra edges can point back.  Stamps are random with
    ties, forwarded subsets random, and exponents non-unit."""
    edges = []
    for k in range(1, n + 1):
        first = 0 if k == 1 else int(rng.integers(0, k))
        edges.append((first, k))
        edges.extend((j, k) for j in np.nonzero(rng.random(k) < 2.0 / k)[0].tolist() if j != first)
    edges.extend(tuple(int(x) for x in rng.integers(1, n + 1, size=2)) for _ in range(3))
    net = network_from_edges(edges, agents=range(1, n + 1))
    stamps = {i: int(rng.integers(0, n)) for i in net.agents}
    forwards = {i: frozenset(j for j in sorted(net.neighbors(i)) if rng.random() < 0.9)
                for i in net.agents}
    profile = ReportProfile({i: Report(float(rng.uniform(0.0, 100.0)), forwards[i], stamps[i])
                             for i in net.agents})
    exponents = {i: float(rng.uniform(0.5, 3.0)) for i in net.agents}
    return Instance(net, profile, exponents), forwards, stamps


class TestRunLargeSize:
    @pytest.mark.parametrize("n", [100, 150, 200, 250, 300])
    def test_reload_and_tree_match_the_oracle(self, n):
        rng = np.random.default_rng(n)
        built = 0
        for _ in range(2):
            inst, forwards, stamps = run_large_case(rng, n)
            back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
            assert back.net == inst.net
            assert back.reports.reports == inst.reports.reports
            assert back.exponents == inst.exponents
            try:
                expect = naive_referral_parents(inst.net.out_edges, forwards, stamps)
            except ValueError:   # an extra edge back closed a parent cycle
                with pytest.raises(InstanceError, match="cyclic"):
                    build_referral_tree(back.net, back.reports)
                continue
            built += 1
            tree = build_referral_tree(back.net, back.reports)
            assert tree.parent == expect
            assert dict(tree.children) == children_of(expect)
            # the seller's children, then the rest, each in id order; a
            # parent's children appear where its first child does
            first_level = sorted(inst.net.neighbors(SELLER))
            order = first_level + sorted(set(expect) - set(first_level))
            assert list(tree.parent) == order
            assert list(tree.children) == list(dict.fromkeys(expect[i] for i in order))
        assert built


class TestSubtreeMax:
    def test_worked_example_values(self):
        inst = fixtures.fig_lblev_instance()
        tree = build_referral_tree(inst.net, inst.reports)
        assert subtree_values(tree, inst.reports.values())[1] == 750.0
        assert subtree_values(tree, inst.reports.values())[5] == 750.0
        assert subtree_values(tree, inst.reports.values())[8] == 750.0  # leaf = own report
        assert subtree_values(tree, inst.reports.values())[3] == 9.0

    def test_at_least_own_value(self):
        rng = np.random.default_rng(11)
        inst = random_tree_instance(9, rng)
        tree = build_referral_tree(inst.net, inst.reports)
        for agent in tree.agents():
            assert subtree_values(tree, inst.reports.values())[agent] >= inst.reports.value(agent)


class TestOutcomeValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(InstanceError):
            Outcome(allocation={1: 1.4}, payments={1: 0.0}, seller_revenue=0.0)

    def test_rejects_oversubscribed_allocation(self):
        with pytest.raises(InstanceError):
            Outcome(allocation={1: 0.7, 2: 0.7}, payments={1: 0.0, 2: 0.0},
                    seller_revenue=0.0)


class TestMalformedInputs:
    @pytest.mark.parametrize("agents, edges, message", [
        ({0, 1}, {}, "seller id listed in the agent set"),
        ({1}, {7: {1}}, "edge source 7 is not a known node"),
        ({1}, {1: {0}}, "edge 1->0 targets the seller"),
        ({1}, {0: {1, 7}}, "edge 0->7 targets unknown node"),
    ], ids=["seller-agent", "unknown-source", "edge-to-seller", "edge-to-unknown"])
    def test_network_rejected(self, agents, edges, message):
        with pytest.raises(InstanceError, match=message):
            DiffusionNetwork(SELLER, frozenset(agents),
                             {k: frozenset(v) for k, v in edges.items()})

    # an agent id is a positive int: -1 is an unsold row's winner in a draw
    # matrix; a JSON true is already not an integral number, and
    # network_from_edges always sells from 0
    @pytest.mark.parametrize("path, bad, seller", [
        ("network", -1, SELLER), ("network", 0, 5), ("network", True, SELLER),
        ("edges", -1, SELLER), ("edges", True, SELLER),
        ("file", -1, SELLER), ("file", 0, 5),
    ], ids=["network-negative", "network-zero", "network-bool", "edges-negative",
            "edges-bool", "file-negative", "file-zero"])
    def test_agent_id_must_be_a_positive_integer(self, path, bad, seller, tmp_path):
        edges = [(seller, bad), (bad, 2)]
        raw = {"seller": seller, "edges": edges,
               "agents": [{"id": bad, "valuation": 1.0, "neighbors": [2]},
                          {"id": 2, "valuation": 3.0, "neighbors": []}]}
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        with pytest.raises(InstanceError, match=f"agent id {bad!r} is not a positive integer"):
            if path == "network":
                DiffusionNetwork(seller, frozenset({bad, 2}),
                                 {src: frozenset({dst}) for src, dst in edges})
            elif path == "edges":
                network_from_edges(edges)
            else:
                load_instance(tmp_path / "bad.json")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(InstanceError, match="negative timestamp -1"):
            Report(value=1.0, neighbors=frozenset(), timestamp=-1)

    @pytest.mark.parametrize("generate", [random_tree_instance, generate_base_tree])
    def test_no_agents_rejected(self, generate):
        with pytest.raises(ValueError, match="need at least one agent"):
            generate(0, np.random.default_rng(0))

    @pytest.mark.parametrize("key", ["1_0", " 3 ", "+4", "-2", "0", "01", "\u0663", "x",
                                     "\u00b2", ""],
                             ids=["underscore", "spaces", "plus", "negative", "seller",
                                  "leading-zero", "arabic-indic-digit", "letter",
                                  "superscript-digit", "empty"])
    def test_exponent_key_must_be_a_positive_id(self, key):
        # int() reads all but the last three as ids: "1_0" as 10, "\u0663" as 3
        with pytest.raises(InstanceError, match=re.escape(f"key {key!r} is not")):
            exponents_from_dict({"1": 2.0, key: 1.5})


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = fixtures.fig_lblev_instance()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.net == inst.net
        assert back.exponents == inst.exponents
        for i in inst.net.agents:
            assert back.reports.value(i) == inst.reports.value(i)
            assert back.reports.neighbors(i) == inst.reports.neighbors(i)
            assert back.reports.timestamp(i) == inst.reports.timestamp(i)

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"agents": [{"id": 1}]}')
        with pytest.raises(InstanceError):
            load_instance(path)

    def test_non_object_instance_rejected(self):
        with pytest.raises(InstanceError):
            instance_from_dict([1, 2])

    def test_duplicate_agent_id_rejected(self):
        # two reports for agent 1: the second used to replace the first
        raw = {"agents": [{"id": 1, "valuation": 10.0, "neighbors": []},
                          {"id": 1, "valuation": 50.0, "neighbors": []}],
               "edges": [[0, 1]]}
        with pytest.raises(InstanceError, match="duplicate agent ids"):
            instance_from_dict(raw)

    @staticmethod
    def fig_raw() -> dict:
        return instance_to_dict(fixtures.fig_lblev_instance())

    @pytest.mark.parametrize("bad", ["23", 23, {"2": 3}, None],
                             ids=["string", "number", "object", "null"])
    def test_neighbors_must_be_a_list(self, bad):
        raw = self.fig_raw()
        raw["agents"][0]["neighbors"] = bad
        with pytest.raises(InstanceError, match="neighbors"):
            instance_from_dict(raw)

    @pytest.mark.parametrize("bad", ["01", 1, {"0": 1}, [0, 1, 5], [0], []],
                             ids=["string", "number", "object", "triple", "single", "empty"])
    def test_edge_must_be_a_pair_list(self, bad):
        raw = self.fig_raw()
        raw["edges"][0] = bad
        with pytest.raises(InstanceError, match="edge"):
            instance_from_dict(raw)

    @pytest.mark.parametrize("bad", [2.7, True, "1", None, math.nan],
                             ids=["fraction", "bool", "string", "null", "nan"])
    def test_agent_id_must_be_integral(self, bad):
        raw = self.fig_raw()
        raw["agents"][0]["id"] = bad
        with pytest.raises(InstanceError, match="agent id"):
            instance_from_dict(raw)

    @pytest.mark.parametrize("bad", [0.5, False, "0", None, math.inf],
                             ids=["fraction", "bool", "string", "null", "inf"])
    def test_seller_must_be_integral(self, bad):
        raw = self.fig_raw()
        raw["seller"] = bad
        with pytest.raises(InstanceError, match="seller"):
            instance_from_dict(raw)

    @pytest.mark.parametrize("bad", [2.7, True, "2", None, -math.inf],
                             ids=["fraction", "bool", "string", "null", "-inf"])
    def test_timestamp_must_be_integral(self, bad):
        raw = self.fig_raw()
        raw["agents"][1]["timestamp"] = bad
        with pytest.raises(InstanceError, match="timestamp"):
            instance_from_dict(raw)

    @pytest.mark.parametrize("bad", [2.7, True, "2", None],
                             ids=["fraction", "bool", "string", "null"])
    def test_neighbor_ids_must_be_integral(self, bad):
        # 2.7 and true used to read as agents 2 and 1
        raw = self.fig_raw()
        raw["agents"][0]["neighbors"].append(bad)
        with pytest.raises(InstanceError, match="neighbor id"):
            instance_from_dict(raw)

    @pytest.mark.parametrize("bad", [["0", 1.9], [0, 1.9], [True, 1], [0, None]],
                             ids=["string-fraction", "fraction", "bool", "null"])
    def test_edge_ends_must_be_integral(self, bad):
        # ["0", 1.9] used to read as the edge 0->1
        raw = self.fig_raw()
        raw["edges"][0] = bad
        with pytest.raises(InstanceError, match="edge (source|target)"):
            instance_from_dict(raw)

    @pytest.mark.parametrize("bad", ["12", True, None, [12.0]],
                             ids=["string", "bool", "null", "list"])
    def test_valuation_must_be_a_number(self, bad):
        # "12" and true used to read as 12.0 and 1.0
        raw = self.fig_raw()
        raw["agents"][0]["valuation"] = bad
        with pytest.raises(InstanceError, match="valuation"):
            instance_from_dict(raw)

    def test_integral_floats_are_read_as_ints(self):
        raw = self.fig_raw()
        raw["seller"] = 0.0
        for a in raw["agents"]:
            a["id"], a["timestamp"] = float(a["id"]), float(a["timestamp"])
            a["neighbors"] = [float(i) for i in a["neighbors"]]
            a["valuation"] = int(a["valuation"]) if a["valuation"].is_integer() else a["valuation"]
        raw["edges"] = [[float(src), float(dst)] for src, dst in raw["edges"]]
        inst, back = fixtures.fig_lblev_instance(), instance_from_dict(raw)
        assert back.net == inst.net and back.reports.reports == inst.reports.reports
        assert all(type(i) is int for i in back.net.agents)
        assert all(type(i) is int for i in back.net.out_edges)
        assert all(type(i) is int for s in back.net.out_edges.values() for i in s)
        assert all(type(i) is int for a in back.net.agents for i in back.reports.neighbors(a))
        assert all(type(back.reports.value(a)) is float for a in back.net.agents)

    def test_timestamps_follow_bfs_layers(self):
        net = fan_net()
        stamps = bfs_timestamps(net)
        assert stamps[1] < stamps[4] and stamps[1] < stamps[5]
        assert sorted(stamps) == [1, 2, 3, 4, 5]

    def test_generator_is_deterministic(self):
        a = random_tree_instance(7, np.random.default_rng(5))
        b = random_tree_instance(7, np.random.default_rng(5))
        assert a.net == b.net
        assert a.reports.values() == b.reports.values()

    def test_negative_valuation_rejected(self):
        with pytest.raises(InstanceError):
            Report(value=-1.0, neighbors=frozenset(), timestamp=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_valuation_rejected(self, value):
        with pytest.raises(InstanceError):
            Report(value=value, neighbors=frozenset(), timestamp=0)

    def test_nan_valuation_cannot_hand_out_the_item(self):
        # without the check agent 1 wins for free on these values
        net = network_from_edges([(0, 1), (0, 2), (1, 3)])
        with pytest.raises(InstanceError):
            truthful_profile(net, {1: 1.0, 2: math.nan, 3: 10.0})

    @pytest.mark.parametrize("field, bad", [("valuation", math.nan),
                                            ("valuation", math.inf),
                                            ("exponent", math.nan),
                                            ("exponent", math.inf),
                                            ("exponent", "2.5"),
                                            ("exponent", True)])
    def test_non_finite_instance_file_rejected(self, tmp_path, field, bad):
        raw = instance_to_dict(fixtures.fig_lblev_instance())
        if field == "valuation":
            raw["agents"][1]["valuation"] = bad
        else:
            raw["exponents"]["2"] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))   # json writes NaN / Infinity literals
        with pytest.raises(InstanceError):
            load_instance(path)
        with pytest.raises(InstanceError):
            instance_from_dict(raw)
