"""Benchmark for the diffusion-auctions package.

    python3 perfbench/run.py --workload verify-trees --seed 2024 --seconds 15 --trace 0
    python3 perfbench/run.py                     # all four workloads, one process
    python3 perfbench/run.py --smoke             # self-test with tiny sizes
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-reference  # re-record reference outputs

Runs from the root of a source checkout and imports the package from its
``src/``.  A run cycles over the workload's input pool in whole passes until
``--seconds`` is spent and at least 100 ops are done, checks every op's
output, and prints the metrics; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the first 100 pool
inputs untraced and then traced, and reports the per-layer metrics.
Everything runs in this one process with numpy's thread pools pinned to
one thread (with all four workloads, ``peak_rss_mb`` is the process's peak
so far); set-up is timed three times in fresh interpreters.  Times are in
reference units (see ``calibration``); the wall-clock figures are printed
beside them.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
MIN_OPS = 100
#: The traced run's two phases each cover this many pool inputs at least once.
TRACED_POOL = 100
#: Probes on each side of an op whose median scales its time.
CALIBRATION_WINDOW = 5
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402  (standard library only)
import spec  # noqa: E402  (pure data, no third-party imports)


def _import_package():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import diffusion_auctions
    except ImportError as exc:
        raise SystemExit(f"cannot import diffusion_auctions from {SRC}: {exc}")
    if not Path(diffusion_auctions.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"diffusion_auctions resolved outside {SRC}")
    import workloads
    return workloads


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- measuring ---------------------------------------------------------------

class Checker:
    """Checks each op's output: first-pass outputs against the reference and
    the workload's invariants; later passes against the first pass."""

    def __init__(self, workloads, workload, seed: int, reference: dict):
        self.check_failed = workloads.CheckFailed
        self.w = workload
        ref = reference.get(workload.name)
        self.ref = ref["outputs"] if ref and ref["seed"] == seed else None
        self.first: dict = {}
        self.ok: dict = {}
        self.errors: list[str] = []

    def check(self, k: int, output) -> bool:
        summary = self.w.summarize(output)
        if k in self.first:
            if summary != self.first[k]:
                return self._fail(k, "output differs from the first pass")
            return self.ok[k] or self._fail(k, "repeats a failed output")
        self.first[k] = summary
        ref = self.ref[k] if self.ref is not None and k < len(self.ref) else None
        try:
            self.w.check(k, summary, self.first, ref)
        except self.check_failed as exc:
            self.ok[k] = False
            return self._fail(k, str(exc))
        self.ok[k] = True
        return True

    def _fail(self, k: int, why: str) -> bool:
        self.errors.append(f"{self.w.name}[{k}]: {why}")
        return False


def measure(workload, pool, checker: Checker, seconds: float, min_ops: int,
            call) -> dict:
    """Whole passes over the pool until ``min_ops`` ops are done and the
    next pass would run past ``seconds``.  ``call(k)`` runs op ``k``.

    A CPU-speed probe runs before every op and after the last one; each
    op's time is scaled to reference time by the median of the probes
    around it (see ``calibration``)."""
    wall_ms: list[float] = []
    probes = [calibration.probe()]
    failed = 0
    passes = 0
    while True:
        for k in range(len(pool.items)):
            t0 = time.perf_counter()
            try:
                output = call(k)
                raised = False
            except Exception:
                raised = True
                checker.errors.append(f"{workload.name}[{k}]: {traceback.format_exc()}")
            wall_ms.append((time.perf_counter() - t0) * 1e3)
            probes.append(calibration.probe())
            failed += raised or not checker.check(k, output)
        passes += 1
        spent = sum(wall_ms) / 1e3
        if len(wall_ms) >= min_ops and spent * (passes + 1) / passes > seconds:
            break
    w = CALIBRATION_WINDOW      # probes[i] runs just before op i, probes[i + 1] just after
    op_ms = [ms * calibration.scale(statistics.median(probes[max(0, i + 1 - w):i + 1 + w]))
             for i, ms in enumerate(wall_ms)]
    return {"op_ms": op_ms, "attempted": len(op_ms), "failed": failed,
            "wall": {"ops_per_s": _ops_per_s(wall_ms), "op_ms_p50": _percentile(wall_ms, 50),
                     "probe_ms": statistics.median(probes) * 1e3}}


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ops_per_s(op_ms: list[float]) -> float:
    return len(op_ms) / (sum(op_ms) / 1e3)


def _setup_seconds(name: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=str(ROOT))
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _make_pool(workloads, name: str, seed: int, smoke: bool):
    w = workloads.WORKLOADS[name]
    WORKDIR.mkdir(exist_ok=True)
    size = min(w.pool_size, SMOKE_POOL[name]) if smoke else w.pool_size
    return w, w.make_pool(seed, size, str(WORKDIR))


#: Pool prefix sizes for the smoke mode.
SMOKE_POOL = {"verify-trees": 2, "interim-mc": 2, "lambda-sweep": 2, "run-large": 1}


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, reference: dict) -> dict:
    w, pool = _make_pool(workloads, name, seed, smoke)
    if trace:
        del pool.items[TRACED_POOL:]
    min_ops = 1 if smoke else MIN_OPS
    checker = Checker(workloads, w, seed, reference)
    try:
        plain = lambda k: w.op(pool, k, workloads.identity)  # noqa: E731
        if not trace:
            res = measure(w, pool, checker, seconds, min_ops, plain)
            metrics = {
                "setup_s": _setup_seconds(name, seed),
                "ops_per_s": _ops_per_s(res["op_ms"]),
                "op_ms_p50": _percentile(res["op_ms"], 50),
                "op_ms_p90": _percentile(res["op_ms"], 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {n: u for n, u, _, _ in spec.END_TO_END}
            attempted, failed = res["attempted"], res["failed"]
            extra = {"wall": res["wall"]}
        else:
            metrics, units, attempted, failed, extra = _traced(
                workloads, w, pool, checker, seconds, plain)
    finally:
        if pool.cleanup:
            pool.cleanup()
    return {"workload": name, "seed": seed, "trace": int(trace),
            "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            "errors": checker.errors[:20], **extra}


def _traced(workloads, w, pool, checker, seconds, plain):
    import tracing
    from diffusion_auctions import bayes, experiments, mechanisms, network, verify

    base = measure(w, pool, checker, seconds / 2, 1, plain)
    tracer = tracing.Tracer()
    modules = {"bayes": bayes, "experiments": experiments, "mechanisms": mechanisms,
               "network": network, "verify": verify}
    with tracer.installed_on(modules):
        traced = measure(w, pool, checker, seconds / 2, 1,
                         lambda k: tracer.run_op(lambda: w.op(pool, k, tracer.instrument)))
    overhead = 100.0 * (_ops_per_s(base["op_ms"]) / _ops_per_s(traced["op_ms"]) - 1.0)
    metrics = tracing.layer_metrics(tracer, traced["attempted"], overhead)
    units = {n: u for n, u, _ in spec.PER_LAYER}
    metrics = {n: metrics[n] for n in units if n in metrics}
    path = WORKDIR / f"spans-{w.name}.npz"
    tracer.save(str(path))
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    extra = {"missing": sorted(tracer.missing), "spans_file": str(path.relative_to(ROOT))}
    return metrics, units, attempted, failed, extra


# -- reporting ---------------------------------------------------------------

def _print_result(result: dict) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name:13s} {metric:44s} {m['value']:14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name:13s} {spec.FAILED_RATIO[0]:44s} {ratio:14.6g} {spec.FAILED_RATIO[1]}"
          f"   ({result['failed']}/{result['attempted']} ops)")
    if "wall" in result:
        print(f"{name:13s} wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in result["wall"].items()))
    if result.get("missing"):
        print(f"{name:13s} missing trace targets: {', '.join(result['missing'])}")
    for err in result["errors"]:
        print(f"FAILED {err}", file=sys.stderr)


def _save(results: list[dict], env: dict, label: str) -> None:
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"result-{label}.json"
    path.write_text(json.dumps({"environment": env, "results": results}, indent=1))


def _final_line(results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- modes ---------------------------------------------------------------------

def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def setup_probe(name: str, seed: int) -> None:
    """Print this interpreter's set-up time, in reference seconds."""
    probes = [calibration.probe() for _ in range(5)]
    start = time.perf_counter()
    workloads = _import_package()
    _, pool = _make_pool(workloads, name, seed, smoke=False)
    elapsed = time.perf_counter() - start
    probes += [calibration.probe() for _ in range(5)]
    if pool.cleanup:
        pool.cleanup()
    print(repr(elapsed * calibration.scale(statistics.median(probes))))


def record_reference() -> None:
    workloads = _import_package()
    out = {}
    for name, w in workloads.WORKLOADS.items():
        pool = w.make_pool(w.default_seed, w.pool_size, str(WORKDIR))
        try:
            outputs = [w.reference_form(w.summarize(w.op(pool, k, workloads.identity)))
                       for k in range(len(pool.items))]
        finally:
            if pool.cleanup:
                pool.cleanup()
        out[name] = {"seed": w.default_seed, "outputs": outputs}
        print(f"recorded {name}: {len(outputs)} outputs", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def smoke() -> None:
    """Each workload once at tiny size, untraced then traced; every metric
    must be emitted with a unit and every output check must pass."""
    workloads = _import_package()
    reference = _load_reference()
    problems = []
    committed = ROOT / "BENCHMARK.json"
    if not committed.exists() or json.loads(committed.read_text()) != spec.benchmark_json():
        problems.append("BENCHMARK.json does not match perfbench/spec.py")
    e2e = {n: u for n, u, _, _ in spec.END_TO_END}
    layer = {n: u for n, u, _ in spec.PER_LAYER}
    for name, w in workloads.WORKLOADS.items():
        if w.default_seed != reference.get(name, {}).get("seed"):
            problems.append(f"{name}: no reference outputs for seed {w.default_seed}")
        for trace, wanted in ((False, e2e), (True, layer)):
            result = run_workload(workloads, name, w.default_seed, 0.0, trace,
                                  True, reference)
            _print_result(result)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics/units "
                                f"{sorted(set(got.items()) ^ set(wanted.items()))}")
            if result["failed"] or result["errors"]:
                problems.append(f"{name} trace={int(trace)}: {result['errors']}")
    if problems:
        raise SystemExit("smoke test failed:\n  " + "\n  ".join(problems))
    print("smoke test passed")


def main(argv=None) -> int:
    names = list(spec.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--write-spec", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.smoke:
        smoke()
        return 0

    workloads = _import_package()
    reference = _load_reference()
    env = _environment()
    results = []
    for name in (names if args.workload == "all" else [args.workload]):
        seed = workloads.WORKLOADS[name].default_seed if args.seed is None else args.seed
        result = run_workload(workloads, name, seed, args.seconds, bool(args.trace),
                              False, reference)
        _print_result(result)
        results.append(result)
    print("environment: " + json.dumps(env))
    _save(results, env, f"{args.workload}-trace{args.trace}")
    print(json.dumps(_final_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
