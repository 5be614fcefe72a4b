"""Command-line front door.

Verbs: ``run`` executes a mechanism on an instance file and prints the
outcome as JSON; ``verify`` runs the incentive checks and exits nonzero
on any failure; ``experiment`` writes the lambda-sweep CSV, opening
``--out`` before the sweep runs and starting no more worker processes
than the CPU count; ``gen`` writes a random instance file.  Machine
output goes to stdout, logs to stderr.  Exit codes: 0 ok, 1
verification failure, 2 malformed input, 3 a check that could not
complete (its curve budget ran out).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from . import fixtures
from .experiments import ExperimentConfig, sweep_lambda, write_sweep_csv
from .mechanisms import (
    ArgmaxRule,
    LblevAuction,
    LevelRule,
    Mechanism,
    PowerRule,
    ReferralAuction,
    rc_example_mechanism,
)
from .mutants import DESIGNATED, make_mutant
from .network import (
    Instance,
    InstanceError,
    exponents_from_dict,
    load_instance,
    random_tree_instance,
    save_instance,
)
from .verify import (CORE_CONDITIONS, CURVE_BUDGET, VerificationError, make_grid,
                     random_exponents, verify_mechanism)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_CHECK_ERROR = 3
MAX_LAMBDAS = 1001   # the largest --lambdas grid: step 0.001 on [0, 1]
MAX_VERIFY_AGENTS = 300   # each table keeps its tree: 136 MB at 300 agents, 818 at 700
MAX_GEN_AGENTS = 100_000   # a 17 MB instance file, written in about 5 s


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _make_rule(name: str, exponents) -> LevelRule:
    if name == "argmax":
        return ArgmaxRule()
    if name == "argmax-pow":
        return PowerRule(exponents or {})
    raise InstanceError(f"unknown level rule {name!r}")


def _make_mechanism(name: str, exponents) -> Mechanism:
    if name == "lblev":
        if not exponents:
            _log("note: no exponents supplied; using unit exponents")
        return LblevAuction(exponents or {})
    if name == "idm":
        return LblevAuction(None)
    if name.startswith("ra:"):
        return ReferralAuction(_make_rule(name[3:], exponents))
    if name.startswith("mutant:"):
        return make_mutant(name[len("mutant:"):])
    raise InstanceError(f"unknown mechanism {name!r}")


def _load_exponents(args, inst: Instance) -> Optional[dict[int, float]]:
    if args.exponents:
        with open(args.exponents, "r", encoding="utf-8") as fh:
            return exponents_from_dict(json.load(fh))
    return dict(inst.exponents) if inst.exponents else None


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    exponents = _load_exponents(args, inst)
    if args.mechanism == "rc3":
        ids = sorted(inst.net.agents)
        if len(ids) != 3:
            raise InstanceError("rc3 needs exactly three agents")
        bids = [inst.reports.value(i) for i in ids]
        outcome = rc_example_mechanism(bids, ids=ids)
        print(json.dumps(outcome.to_dict(ids), indent=2))
        return EXIT_OK
    mech = _make_mechanism(args.mechanism, exponents)
    if hasattr(mech, "run_with_traces"):
        outcome, traces = mech.run_with_traces(inst.net, inst.reports)
        payload = outcome.to_dict(inst.net.agents)
        payload["traces"] = [dataclasses.asdict(t) for t in traces]
    else:
        payload = mech.run(inst.net, inst.reports).to_dict(inst.net.agents)
    payload["mechanism"] = mech.name
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _verify_instances(args):
    """Yield (label, instance, exponents) pairs to verify."""
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 7]))
    if args.instance:
        inst = load_instance(args.instance)
        yield args.instance, inst, inst.exponents
        return
    if args.mechanism.startswith("mutant:"):
        name = args.mechanism[len("mutant:"):]
        factories = {m: f for _, (m, f) in DESIGNATED.items()}
        factory = factories.get(name)
        if factory is None:
            raise InstanceError(f"unknown mutant {name!r}")
        yield f"designated:{name}", factory(), None
        return
    for k in range(args.trials):
        n = args.n if args.n else int(rng.integers(3, 11))
        inst = random_tree_instance(n, rng)
        exponents = None
        if args.mechanism in ("lblev", "ra:argmax-pow"):
            exponents = random_exponents(inst.net.agents, rng)
        yield f"random:{k}", inst, exponents


def _cmd_verify(args) -> int:
    # --trials needs no cap: each trial is printed before the next is drawn
    for flag, count, cap in (("--trials", args.trials, math.inf),
                             ("--grid", args.grid, CURVE_BUDGET - 1),   # plus the true value
                             ("--n", args.n or 1, MAX_VERIFY_AGENTS)):   # 0 draws 3..10
        if not 1 <= count <= cap:
            raise InstanceError(f"{flag} must lie in [1, {cap}], got {count}")
    if args.seed < 0:
        raise InstanceError(f"--seed must be non-negative, got {args.seed}")
    failures = 0
    total = 0
    for label, inst, exponents in _verify_instances(args):
        mech = _make_mechanism(args.mechanism, exponents)
        grid = make_grid(inst.reports, size=args.grid, seed=args.seed)
        reports = verify_mechanism(mech, inst.net, inst.reports, grid,
                                   conditions=CORE_CONDITIONS + ("ic",))
        for rep in reports:
            record = rep.to_dict()
            record["instance"] = label
            record["mechanism"] = mech.name
            record["seed"] = args.seed
            print(json.dumps(record))
            total += 1
            if not rep.passed:
                failures += 1
    _log(f"verify: {total - failures}/{total} checks passed")
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def _parse_lambdas(spec: str) -> tuple[float, ...]:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise InstanceError(f"bad --lambdas {spec!r}; expected lo:hi:step") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise InstanceError(f"bad --lambdas {spec!r}; lo, hi and step must be finite")
    if step <= 0:
        raise InstanceError("lambda step must be positive")
    # counted before the grid is built: a tiny step would hang or overflow
    span = (hi - lo) / step
    if not span < MAX_LAMBDAS:
        raise InstanceError(f"bad --lambdas {spec!r}; more than {MAX_LAMBDAS} grid points")
    count = int(round(span)) + 1
    return tuple(round(lo + k * step, 12) for k in range(count) if lo + k * step <= hi + 1e-12)


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        n=args.n, sigma=args.sigma, lambdas=_parse_lambdas(args.lambdas),
        outer=args.trials_outer, inner=args.trials_inner, seed=args.seed,
        jobs=args.jobs)
    # opened before the sweep, so an unwritable --out fails before any work
    with (open(args.out, "w", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        rows = sweep_lambda(config)
        # the draw counts per lambda, which the CSV columns leave out
        _log(json.dumps({"sweep_draws": [
            {"lambda": row.lam, "used": row.used, "excluded": row.excluded} for row in rows]}))
        write_sweep_csv(rows, config, fh)
    if args.out:
        _log(f"experiment: wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise InstanceError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    if args.fixture == "fig-lblev":
        inst = fixtures.fig_lblev_instance()
    elif args.fixture == "fig-rc":
        from .rc_example import fig_rc_instance
        inst = fig_rc_instance()
    elif not 1 <= args.n <= MAX_GEN_AGENTS:
        raise InstanceError(f"--n must lie in [1, {MAX_GEN_AGENTS}], got {args.n}")
    else:
        inst = random_tree_instance(args.n, rng)
    save_instance(inst, args.out)
    _log(f"gen: wrote instance with {len(inst.net.agents)} agents to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffauction",
        description="run, verify, and benchmark truthful auctions on networks")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a mechanism on an instance file")
    run_p.add_argument("--instance", required=True)
    run_p.add_argument("--mechanism", required=True,
                       help="lblev | idm | ra:<rule> | rc3 | mutant:<name>")
    run_p.add_argument("--exponents", help="JSON file {node id: exponent}")
    run_p.set_defaults(fn=_cmd_run)

    ver_p = sub.add_parser("verify", help="run the incentive checks")
    ver_p.add_argument("--mechanism", required=True)
    ver_p.add_argument("--instance")
    ver_p.add_argument("--trials", type=int, default=20)
    ver_p.add_argument("--grid", type=int, default=64)
    ver_p.add_argument("--n", type=int, default=0)
    ver_p.add_argument("--seed", type=int, default=42)
    ver_p.set_defaults(fn=_cmd_verify)

    exp_p = sub.add_parser("experiment", help="lambda sweep CSV")
    exp_p.add_argument("--n", type=int, required=True)
    exp_p.add_argument("--sigma", type=float, required=True)
    exp_p.add_argument("--lambdas", default="0:1:0.05",
                       help=f"lo:hi:step, at most {MAX_LAMBDAS} points")
    exp_p.add_argument("--trials-outer", type=int, default=50)
    exp_p.add_argument("--trials-inner", type=int, default=50)
    exp_p.add_argument("--seed", type=int, default=42)
    exp_p.add_argument("--jobs", type=int, default=1)
    exp_p.add_argument("--out")
    exp_p.set_defaults(fn=_cmd_experiment)

    gen_p = sub.add_parser("gen", help="write an instance file")
    gen_p.add_argument("--n", type=int, default=8)
    gen_p.add_argument("--seed", type=int, default=42)
    gen_p.add_argument("--fixture", choices=["random", "fig-lblev", "fig-rc"],
                       default="random")
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(fn=_cmd_gen)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InstanceError, OSError, UnicodeDecodeError, json.JSONDecodeError,
            VerificationError) as exc:
        _log(f"error: {exc}")
        return EXIT_CHECK_ERROR if isinstance(exc, VerificationError) else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
