#!/usr/bin/env python3
"""tilevm benchmark: one seeded workload per process, checked against the oracle.

    python3 perfbench/run.py --workload vector_fused --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
wall-clock host time of this Python implementation and modeled numbers from
the simulated device, never mixed in one metric.  With ``--trace 1`` it
replays the request set once more with spans around every layer boundary
and reports the per-layer metrics; the spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object;
a human-readable summary goes to standard error.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from math import ceil, inf  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def source_key() -> str:
    """Hash of the program and benchmark sources: same key, same results."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def repeat_check(workload: str, seed: int, trace: int, record: dict) -> list[str]:
    """Compare deterministic results with an earlier run of the same sources
    and seed; returns the keys that differ (none on the first run)."""
    path = OUT / "determinism" / f"{workload}-{seed}-trace{trace}-{source_key()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return sorted(k for k in record.keys() | earlier.keys() if record.get(k) != earlier.get(k))


def _digest_all(result) -> str:
    joined = "".join(result.digests[i] for i in sorted(result.digests))
    return hashlib.blake2b(joined.encode(), digest_size=16).hexdigest()


def outcome_metrics(outcomes, runners) -> tuple[dict, list[str]]:
    """Modeled and correctness figures of the checked pass, plus problems."""
    problems = []
    for i, o in enumerate(outcomes):
        ran = o.error in (None, runners.ORACLE_MISMATCH)
        if ran and o.bound > o.makespan * (1 + 1e-9):
            raise BenchmarkError(
                f"request {i}: bound {o.bound} exceeds modeled makespan {o.makespan}"
            )
        if o.wrong:
            problems.append(f"request {i}: output outside the worst-case rounding bound")
    passed = [o for o in outcomes if o.error is None]
    return {
        "modeled_eff": fmean(o.bound / o.makespan if o.error is None else 0.0 for o in outcomes),
        "fail_frac": 1 - len(passed) / len(outcomes),
        "bytes_ratio": sum(o.bytes_moved for o in passed)
        / max(1, sum(o.compulsory_bytes for o in passed)),
        "max_abs_err": max((o.max_abs_err for o in outcomes if o.error is None), default=0.0),
        "errors": dict(sorted(Counter(o.error for o in outcomes if o.error).items())),
    }, problems


def end_to_end(runner, args, import_s: float, runners, cfg) -> tuple[dict, dict, list[str]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        runner.build()
        runner.warm_up()
        setups.append(perf_counter() - t0)
    gc.collect()
    deadline = perf_counter() + args.seconds
    t0 = perf_counter()
    checked = runner.run_pass(check=True, time_compile=True)
    pass_wall = perf_counter() - t0
    passes = [checked]
    compile_rounds: list[list[float]] = []
    while perf_counter() + (0 if runner.divisible else pass_wall) < deadline:
        gc.collect()
        t0 = perf_counter()
        # alternate the order so each request's samples spread over the run
        reverse = len(passes) % 2 == 1
        passes.append(runner.run_pass(check=False, deadline=deadline, reverse=reverse))
        pass_wall = perf_counter() - t0
        if not checked.compile_s:  # groups from the CLI: one round per pass
            compile_rounds.append([runners.compile_seconds(g, cfg) for g in checked.groups])
    compile_s = checked.compile_s
    if not compile_s:
        rounds = compile_rounds or [[runners.compile_seconds(g, cfg) for g in checked.groups]]
        compile_s = [median(samples) for samples in zip(*rounds)]
    model, problems = outcome_metrics(checked.outcomes, runners)
    if any(
        (d, p.errors[i]) != (checked.digests[i], checked.errors[i])
        for p in passes
        for i, d in p.digests.items()
    ):
        problems.append("outputs differ between passes of one run")
    outcomes = checked.outcomes
    n = len(outcomes)
    host = [median(p.times[i] for p in passes if i in p.times) for i in range(n)]
    (OUT / f"times-{args.workload}-{args.seed}.json").write_text(
        json.dumps([list(p.times.items()) for p in passes])
    )
    # a request that raised did not finish its work: it ranks slower than
    # any request that ran to completion
    ranked = [
        inf if o.error not in (None, runners.ORACLE_MISMATCH) else t
        for o, t in zip(outcomes, host)
    ]
    metrics = {
        "latency_ms_p50": 1e3 * nearest_rank(ranked, 0.5),
        "latency_ms_p90": 1e3 * nearest_rank(ranked, 0.9),
        "melem_per_s": sum(o.work for o in outcomes if o.error is None) / sum(host) / 1e6,
        "compile_ms_p50": 1e3 * nearest_rank(compile_s, 0.5),
        "compile_ms_p90": 1e3 * nearest_rank(compile_s, 0.9),
        "modeled_eff": model["modeled_eff"],
        "pass_frac": 1 - model["fail_frac"],
        "setup_s": import_s + median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, value in metrics.items():
        if value == inf:
            raise BenchmarkError(f"{name} falls on a failed request or group")
    info = {
        "requests": n,
        "passes": len(passes),
        "groups": len(compile_s),
        "errors": model["errors"],
        "setup_runs_s": setups,
        "import_s": import_s,
        "determinism": {
            "modeled_eff": model["modeled_eff"],
            "fail_frac": model["fail_frac"],
            "errors": model["errors"],
            "outputs": _digest_all(checked),
        },
    }
    return metrics, info, problems


def per_layer(runner, args, runners, tracing, cfg) -> tuple[dict, dict, list[str]]:
    runner.build()
    runner.warm_up()
    gc.collect()
    untraced = runner.run_pass(check=True)
    tracer = tracing.Tracer()
    tracing.install(tracer, cfg)
    try:
        runner.build()  # again, so graph construction is traced too
        gc.collect()
        traced = runner.run_pass(check=True, tracer=tracer)
    finally:
        tracer.close()
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    model, problems = outcome_metrics(traced.outcomes, runners)
    if (traced.digests, traced.errors) != (untraced.digests, untraced.errors):
        problems.append("traced and untraced passes differ")
    errors = model["errors"]
    metrics = tracing.layer_metrics(tracer)
    metrics.update(
        {
            "graph.ops": runner.basic_ops,
            "fuser.bytes_ratio": model["bytes_ratio"],
            "tiler.infeasible": errors.get("InfeasibleTilingError", 0),
            "encoder.alloc_errors": errors.get("AllocationError", 0),
            "device.vm_errors": errors.get("VMError", 0),
            "oracle.mismatches": errors.get(runners.ORACLE_MISMATCH, 0),
            "oracle.max_abs_err": model["max_abs_err"],
            "fail_frac": model["fail_frac"],
            "trace.overhead_ms": 1e3 * (sum(traced.times.values()) - sum(untraced.times.values())),
        }
    )
    counts = {k: v for k, v in metrics.items() if not k.endswith("_ms") and "util" not in k}
    info = {
        "requests": len(traced.outcomes),
        "spans": len(tracer.spans),
        "errors": errors,
        "determinism": {
            **counts,
            "modeled_eff": model["modeled_eff"],
            "outputs": _digest_all(traced),
        },
    }
    return metrics, info, problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tilevm").is_dir():
        print(f"error: no tilevm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # numpy's BLAS would start its own thread pool; with run_groups' compile
    # worker the process already keeps both cores of a small box busy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import runners
    import tracing
    import workloads
    from tilevm.tiler import DeviceConfig

    import_s = perf_counter() - _START
    cfg = DeviceConfig()
    kinds = {
        "vector_fused": (runners.StaticRunner, workloads.vector_fused),
        "matmul_cube": (runners.StaticRunner, workloads.matmul_cube),
        "stream_trace": (runners.StreamRunner, workloads.stream_trace),
    }
    cls, make = kinds[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    runner = cls(make, args.seed, cfg, OUT)
    try:
        if args.trace:
            metrics, info, problems = per_layer(runner, args, runners, tracing, cfg)
            wanted = spec["per_layer"]
        else:
            metrics, info, problems = end_to_end(runner, args, import_s, runners, cfg)
            wanted = spec["end_to_end"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    changed = repeat_check(args.workload, args.seed, args.trace, info.pop("determinism"))
    problems += [f"differs from an earlier run with this seed: {k}" for k in changed]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not problems,
        "attempted": info["requests"],
        "failed": sum(info["errors"].values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for line in [f"{args.workload} seed={args.seed} trace={args.trace}", json.dumps(info)]:
        print(line, file=sys.stderr)
    for m in wanted:
        print(f"  {m['name']:<28} {metrics[m['name']]:>16.6g} {m['unit']}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
