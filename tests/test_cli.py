import json
import math

import pytest

from diffusion_auctions import (
    Instance,
    LblevAuction,
    fixtures,
    load_instance,
    network_from_edges,
    save_instance,
    truthful_profile,
)
from diffusion_auctions.network import instance_to_dict
from diffusion_auctions.cli import main
from diffusion_auctions.rc_example import fig_rc_instance


@pytest.fixture
def fig_path(tmp_path):
    path = tmp_path / "fig_lblev.json"
    save_instance(fixtures.fig_lblev_instance(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_lblev_worked_example(self, fig_path, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", fig_path,
                               "--mechanism", "lblev")
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == 8
        assert payload["seller_revenue"] == 729.0
        assert payload["mechanism"] == "lblev"
        assert len(payload["traces"]) == 3

    @pytest.mark.parametrize("mechanism", ["lblev", "idm"])
    @pytest.mark.parametrize("with_exponents", [True, False])
    def test_mechanism_name_in_run_and_verify_json(self, fig_path, tmp_path, capsys,
                                                   mechanism, with_exponents):
        path = fig_path
        if not with_exponents:
            path = str(tmp_path / "d1.json")
            save_instance(fixtures.depth1_instance((10.0, 7.0)), path)
        _, out, _ = run_cli(capsys, "run", "--instance", path, "--mechanism", mechanism)
        assert json.loads(out)["mechanism"] == mechanism
        _, out, _ = run_cli(capsys, "verify", "--mechanism", mechanism,
                            "--instance", path, "--grid", "4")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records and all(rec["mechanism"] == mechanism for rec in records)

    def test_lblev_auction_named_idm_only_without_exponents(self):
        assert LblevAuction().name == LblevAuction(None).name == "idm"
        assert LblevAuction({}).name == LblevAuction({1: 2.0}).name == "lblev"

    def test_idm_on_same_instance(self, fig_path, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", fig_path,
                               "--mechanism", "idm")
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == 8
        assert payload["seller_revenue"] == 9.0

    def test_referral_rule_string(self, fig_path, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", fig_path,
                               "--mechanism", "ra:argmax")
        assert code == 0
        assert json.loads(out)["seller_revenue"] == 9.0

    def test_referral_power_rule_matches_lblev(self, fig_path, capsys):
        _, out_ra, _ = run_cli(capsys, "run", "--instance", fig_path,
                               "--mechanism", "ra:argmax-pow")
        _, out_lb, _ = run_cli(capsys, "run", "--instance", fig_path,
                               "--mechanism", "lblev")
        ra, lb = json.loads(out_ra), json.loads(out_lb)
        assert ra["winner"] == lb["winner"] == 8
        assert ra["seller_revenue"] == pytest.approx(lb["seller_revenue"], abs=1e-9)

    @pytest.mark.parametrize("mechanism", ["lblev", "mutant:award-lowest"])
    def test_json_lists_agents_the_auction_does_not_reach(self, tmp_path, capsys, mechanism):
        # agent 4 has no inviter, and agent 5 is cut off because 3 does not forward
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (3, 5)], agents=range(1, 6))
        values = {1: 5.0, 2: 7.0, 3: 9.0, 4: 11.0, 5: 13.0}
        profile = truthful_profile(net, values).replace(3, neighbors=())
        path = tmp_path / "unreached.json"
        save_instance(Instance(net, profile), path)
        code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--mechanism", mechanism)
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] in (1, 2, 3)
        for field in ("allocation", "payments"):
            assert list(payload[field]) == ["1", "2", "3", "4", "5"]
            assert payload[field]["4"] == payload[field]["5"] == 0.0

    def test_unsold_all_zero(self, tmp_path, capsys):
        inst = fixtures.depth1_instance((0.0, 0.0))
        path = tmp_path / "zeros.json"
        save_instance(inst, path)
        code, out, _ = run_cli(capsys, "run", "--instance", str(path),
                               "--mechanism", "idm")
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] is None
        assert all(v == 0.0 for v in payload["payments"].values())

    def test_rc3(self, tmp_path, capsys):
        path = tmp_path / "rc.json"
        inst = fixtures.depth1_instance((4.0, 6.0, 9.0))
        save_instance(inst, path)
        code, out, _ = run_cli(capsys, "run", "--instance", str(path),
                               "--mechanism", "rc3")
        assert code == 0
        payload = json.loads(out)
        assert payload["payments"] == {"1": -2.0, "2": 0.0, "3": 2.0}

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--instance", "/no/such.json",
                               "--mechanism", "idm")
        assert code == 2
        assert "error" in err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "run", "--instance", str(path),
                             "--mechanism", "idm")
        assert code == 2

    def test_unknown_mechanism_exit_2(self, fig_path, capsys):
        code, _, _ = run_cli(capsys, "run", "--instance", fig_path,
                             "--mechanism", "nope")
        assert code == 2

    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_bare_ra_exit_2(self, fig_path, capsys, verb):
        # the referral family is spelled ra:<rule> only
        code, out, err = run_cli(capsys, verb, "--instance", fig_path, "--mechanism", "ra")
        assert code == 2
        assert out == "" and err == "error: unknown mechanism 'ra'\n"

    def test_exponent_table_file(self, tmp_path, fig_path, capsys):
        table = tmp_path / "exps.json"
        table.write_text(json.dumps({str(i): 1.0 for i in range(1, 9)}))
        code, out, _ = run_cli(capsys, "run", "--instance", fig_path,
                               "--mechanism", "lblev", "--exponents", str(table))
        assert code == 0
        assert json.loads(out)["seller_revenue"] == 9.0  # unit table = baseline


    @pytest.mark.parametrize("field", ["valuation", "exponent"])
    def test_non_finite_instance_exit_2(self, tmp_path, capsys, field):
        raw = instance_to_dict(fixtures.fig_lblev_instance())
        if field == "valuation":
            raw["agents"][0]["valuation"] = math.nan
        else:
            raw["exponents"]["3"] = math.inf
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "run", "--instance", str(path),
                                 "--mechanism", "lblev")
        assert code == 2
        assert out == "" and "error" in err

    def test_non_finite_exponent_table_exit_2(self, tmp_path, fig_path, capsys):
        table = tmp_path / "exps.json"
        table.write_text(json.dumps({"1": math.nan}))
        code, _, err = run_cli(capsys, "run", "--instance", fig_path,
                               "--mechanism", "lblev", "--exponents", str(table))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("table", [{"x": 2.0}, [1, 2], {"1": "abc"}],
                             ids=["bad-id", "list", "bad-exponent"])
    def test_malformed_exponent_table_exit_2(self, tmp_path, fig_path, capsys, table):
        path = tmp_path / "exps.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "run", "--instance", fig_path,
                                 "--mechanism", "lblev", "--exponents", str(path))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_duplicate_agent_id_exit_2(self, tmp_path, capsys):
        # two reports for agent 1: the second used to replace the first
        raw = {"agents": [{"id": 1, "valuation": 10.0, "neighbors": []},
                          {"id": 1, "valuation": 50.0, "neighbors": []}],
               "edges": [[0, 1]]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "run", "--instance", str(path),
                                 "--mechanism", "idm")
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestOverflowInstance:
    """An instance whose ``rho**t`` could overflow is bad input: both
    verbs exit 2 with one error line, not a traceback."""

    def overflow_error(self, tmp_path, capsys, verb, mechanism):
        net = network_from_edges([(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)])
        values = {1: 5.0, 2: 10.0, 3: 5.0, 4: 1e160, 5: 100.0}
        path = tmp_path / "overflow.json"
        save_instance(Instance(net, truthful_profile(net, values), {4: 2.0}), path)
        code, out, err = run_cli(capsys, verb, "--instance", str(path),
                                 "--mechanism", mechanism)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_exit_2(self, tmp_path, capsys, verb):
        assert "agents [4]" in self.overflow_error(tmp_path, capsys, verb, "lblev")

    def test_referral_verify_exit_2(self, tmp_path, capsys):
        # the argmax-pow rule's value**2 overflows on some deviation of the
        # checks: the referral family exits 2 like lblev, not with a traceback
        err = self.overflow_error(tmp_path, capsys, "verify", "ra:argmax-pow")
        assert "argmax-pow rule overflows" in err

    def test_referral_run_exit_2(self, tmp_path, capsys):
        # priced at agent 2's threshold, agent 1's purchase leaves agent 5
        # alive at agent 3's level, so the reported profile itself overflows
        err = self.overflow_error(tmp_path, capsys, "run", "ra:argmax-pow")
        assert "argmax-pow rule overflows" in err


class TestVerify:
    def test_lblev_random_trials_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--mechanism", "lblev",
                                 "--trials", "4", "--seed", "7", "--grid", "32")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(rec["pass"] for rec in lines)
        assert all(rec["seed"] == 7 for rec in lines)
        assert "checks passed" in err

    def test_greedy_mutant_fails_with_diffusion_witness(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mechanism",
                               "mutant:greedy-no-commission")
        assert code == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        diffusion = [r for r in records if r["condition"] == "diffusion-constraint"]
        assert diffusion and not diffusion[0]["pass"]
        assert diffusion[0]["witness"]["agent"] == 1

    def test_explicit_instance(self, tmp_path, capsys):
        inst = fixtures.depth1_instance((10.0, 7.0))
        path = tmp_path / "d1.json"
        save_instance(inst, path)
        code, out, _ = run_cli(capsys, "verify", "--mechanism", "idm",
                               "--instance", str(path), "--grid", "32")
        assert code == 0

    @pytest.mark.parametrize("flag, count", [("--trials", "0"), ("--trials", "-2"),
                                             ("--grid", "0"), ("--grid", "-3")])
    def test_empty_run_exit_2(self, capsys, flag, count):
        code, out, err = run_cli(capsys, "verify", "--mechanism", "idm", flag, count)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--mechanism", "idm",
                             "--trials", "3", "--seed", "5", "--grid", "24")
        _, out2, _ = run_cli(capsys, "verify", "--mechanism", "idm",
                             "--trials", "3", "--seed", "5", "--grid", "24")
        assert out1 == out2


class TestGen:
    def test_random_instance_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "random.json"
        code, _, err = run_cli(capsys, "gen", "--n", "6", "--seed", "3",
                               "--out", str(out_path))
        assert code == 0
        inst = load_instance(out_path)
        assert len(inst.net.agents) == 6
        assert "wrote instance" in err

    def test_fixture_gen_matches_module(self, tmp_path, capsys):
        out_path = tmp_path / "fig.json"
        run_cli(capsys, "gen", "--fixture", "fig-rc", "--out", str(out_path))
        inst = load_instance(out_path)
        ref = fig_rc_instance()
        assert inst.net == ref.net


class TestExperiment:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "experiment", "--n", "6", "--sigma", "5",
                             "--lambdas", "0:1:0.5", "--trials-outer", "3",
                             "--trials-inner", "3", "--seed", "1",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("lambda,")
        assert len(lines) == 4  # lambdas 0, 0.5, 1.0

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--n", "6", "--sigma", "5",
                               "--lambdas", "0:1:1", "--trials-outer", "2",
                               "--trials-inner", "2", "--seed", "1")
        assert code == 0
        assert out.startswith("lambda,")

    def test_bad_lambda_spec_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "experiment", "--n", "6", "--sigma", "5",
                             "--lambdas", "zero-to-one", "--trials-outer", "1",
                             "--trials-inner", "1")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ("--n", "2"), ("--sigma", "-1"), ("--sigma", "0"), ("--sigma", "nan"),
        ("--sigma", "inf"), ("--lambdas", "0:2:0.5"), ("--lambdas", "0:nan:0.5"),
        ("--lambdas", "0:1:nan"), ("--lambdas", "0:inf:0.5"), ("--lambdas", "nan:1:0.5"),
        ("--lambdas", "1:0:0.5"), ("--trials-outer", "0"),
        # 31 grid points rounded to 12 places, so lambdas repeat
        ("--lambdas", "0:3e-12:1e-13"), ("--seed", "-1"), ("--jobs", "0"), ("--jobs", "-4"),
    ], ids=" ".join)
    def test_malformed_input_exit_2(self, tmp_path, capsys, args):
        out_path = tmp_path / "sweep.csv"
        defaults = {"--n": "6", "--sigma": "5", "--lambdas": "0:1:0.5",
                    "--trials-outer": "1", "--trials-inner": "1"}
        defaults[args[0]] = args[1]
        argv = [x for kv in defaults.items() for x in kv]
        code, out, err = run_cli(capsys, "experiment", *argv, "--out", str(out_path))
        assert code == 2
        assert err.startswith("error: ")
        assert out == "" and not out_path.exists()

    def test_error_names_the_rejected_input(self, capsys):
        base = ("experiment", "--n", "6", "--sigma", "5", "--trials-outer", "1",
                "--trials-inner", "1")
        _, _, err = run_cli(capsys, *base, "--lambdas", "0:3e-12:1e-13")
        assert err == "error: lambda values must be distinct\n"
        _, _, err = run_cli(capsys, *base, "--seed", "-1")
        assert err == "error: need seed >= 0 and jobs >= 1\n"

    def test_draw_counts_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "--n", "6", "--sigma", "5",
                                 "--lambdas", "0:1:0.5", "--trials-outer", "3",
                                 "--trials-inner", "4", "--seed", "1")
        assert code == 0
        assert out.splitlines()[0] == "lambda,n,sigma,outer,inner,mean_pct,stderr,seed"
        [line] = [l for l in err.splitlines() if l.startswith("{")]
        draws = json.loads(line)["sweep_draws"]
        assert [d["lambda"] for d in draws] == [0.0, 0.5, 1.0]
        for d in draws:
            assert d["used"] + d["excluded"] == 3 * 4
        # every lambda sees the same paired draws
        assert len({(d["used"], d["excluded"]) for d in draws}) == 1
