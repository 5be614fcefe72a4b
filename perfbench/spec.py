"""What the benchmark measures and why; the source of ``BENCHMARK.json``.

``python3 perfbench/run.py --write-spec`` renders the fields of this
module that ``BENCHMARK.json`` holds; the smoke mode checks that the
committed file still matches.  What that file's fixed keys have no room
for (op definitions, the layer-to-end-to-end map, what is deliberately
not a workload) lives here only.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

#: name -> (why, op).  All four are closed loops with one caller.
WORKLOADS = {
    "verify-trees": (
        "criterion-3 path: ~1600 verifier evaluations per tree, each rebuilding "
        "the referral tree; the only workload that stresses verify, and network "
        "on tiny trees",
        "verify_mechanism(LblevAuction(exponents), net, reports, "
        "make_grid(size=64, seed=k), the five core checks) on pool instance k. "
        "Tree shapes and exponents are the 200 instances of the c03 stream "
        "default_rng(2024) (3-12 agents); valuations U[0,100] come from "
        "default_rng([seed, k])."),
    "interim-mc": (
        "criterion-10 path: the tree is built once and values are evaluated "
        "many times, one run_lblev per sample; shows a batched descent or a "
        "bayes draw-loop change",
        "estimate_interim(c10's LblevAuction, c10's 5-agent tree, U[0,100] "
        "priors, agent=3, value=grid[k], samples=2000, seed=seed) for the k-th "
        "of 100 grid points on [0, 120]; one mechanism object for the run."),
    "lambda-sweep": (
        "criterion-9 path: trees come from experiments.activate_edges, 22 "
        "run_lblev calls per draw; isolates experiments and the descent from "
        "tree construction",
        "sweep_lambda(ExperimentConfig(n=10, sigma=5, lambdas 0:1:0.05, "
        "outer=1, inner=50, seed=s_k, jobs=1)), s_k the k-th of 200 draws "
        "from default_rng(seed)."),
    "run-large": (
        "diffauction run path on general networks of 100-300 agents: the "
        "quadratic tree build dominates; the only user of "
        "myerson_level_payment and JSON instance I/O",
        "load_instance(file k), then LblevAuction(exps).run and "
        "ReferralAuction(PowerRule(exps)).run on it. File k is a random DAG "
        "(one primary inviter plus ~2 extra per agent, BFS timestamps) of "
        "100, 150, 200, 250 or 300 agents, written during set-up; 100 files."),
}

#: What is deliberately not a workload.
NOT_WORKLOADS = {
    "tier-1 wall time": "149 s and measures the pytest harness, not a user path",
    "c06 Monte Carlo revenue": "its hot path is already a numpy kernel that no "
                               "open item targets; a later benchmark change can add it",
}

#: (name, unit, better, bound).  Reported for every workload by untraced runs.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Printed with the end-to-end metrics but not listed in BENCHMARK.json: it
#: is 0 at a correct commit, and a bound there is a share of the median.
#: The result line carries the same figure as ``attempted`` and ``failed``.
FAILED_RATIO = ("failed_ratio", "ratio")

#: (name, unit, better).  From the traced run; per-op figures are divided by
#: the ops of the traced phase.
PER_LAYER = [
    ("network.build_referral_tree.calls", "1/op", "lower"),
    ("network.build_referral_tree.self_ms", "ms/op", "lower"),
    ("network.build_referral_tree.us_per_call", "us", "lower"),
    ("network.build_referral_tree.nodes_per_call", "count", "lower"),
    ("network.filter_subnetwork.self_ms", "ms/op", "lower"),
    ("network.subtree_values.calls", "1/op", "lower"),
    ("network.subtree_values.self_ms", "ms/op", "lower"),
    ("network.load_instance.self_ms", "ms/op", "lower"),
    ("network.load_instance.bytes", "B", "lower"),
    ("mechanisms.run_lblev.calls", "1/op", "lower"),
    ("mechanisms.run_lblev.self_ms", "ms/op", "lower"),
    ("mechanisms.run_lblev.us_per_call", "us", "lower"),
    ("mechanisms.evaluate.calls", "1/op", "lower"),
    ("mechanisms.evaluate.us_per_call", "us", "lower"),
    ("mechanisms.run_referral_auction.calls", "1/op", "lower"),
    ("mechanisms.run_referral_auction.self_ms", "ms/op", "lower"),
    ("mechanisms.myerson_level_payment.calls", "1/op", "lower"),
    ("mechanisms.myerson_level_payment.self_ms", "ms/op", "lower"),
    ("mechanisms.rule_winner_per_payment", "ratio", "lower"),
    ("verify.verify_mechanism.calls", "1/op", "lower"),
    ("verify.verify_mechanism.self_ms", "ms/op", "lower"),
    ("verify.evaluations_per_instance", "count", "lower"),
    ("verify.tables_per_instance", "count", "lower"),
    ("verify.tree_builds_per_table", "ratio", "lower"),
    ("bayes.estimate_interim.calls", "1/op", "lower"),
    ("bayes.estimate_interim.self_ms", "ms/op", "lower"),
    ("bayes.run_on_values.us_per_call", "us", "lower"),
    ("bayes.mechanism_calls_per_sample", "ratio", "lower"),
    ("experiments.sweep_lambda.calls", "1/op", "lower"),
    ("experiments.sweep_lambda.self_ms", "ms/op", "lower"),
    ("experiments.activate_edges.calls", "1/op", "lower"),
    ("experiments.activate_edges.self_ms", "ms/op", "lower"),
    ("experiments.run_lblev_per_draw", "ratio", "lower"),
    ("trace.spans", "spans/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

#: Which end-to-end figures each layer's metrics should move ("flat" = no
#: change predicted).  Written down before any optimisation is measured.
LAYER_MAP = {
    "network.build_referral_tree, network.filter_subnetwork, network.subtree_values":
        "run-large ops_per_s/op_ms_p90 most, verify-trees ops_per_s/op_ms_p50; "
        "flat on interim-mc and lambda-sweep",
    "network.load_instance": "run-large only",
    "mechanisms.run_lblev":
        "interim-mc, lambda-sweep and verify-trees ops_per_s; barely run-large",
    "mechanisms.evaluate": "verify-trees",
    "mechanisms.run_referral_auction, mechanisms.myerson_level_payment, "
    "mechanisms.rule_winner_per_payment": "run-large only",
    "verify.*": "verify-trees only; tree_builds_per_table is the waste ratio "
                "a compile-once change drives to 1",
    "bayes.*": "interim-mc only",
    "experiments.*": "lambda-sweep only",
    "trace.*": "every workload; overhead_pct is traced versus untraced ops_per_s",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (why, _) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
