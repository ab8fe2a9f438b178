"""Seeded closed-loop benchmark of qpmaps.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --sweep

One client in one process runs the workload's ops back to back, in whole
rounds, for at least --seconds and at least MIN_OPS ops. The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics under --trace 0 and the per-layer
metrics under --trace 1. The line before it is a report: seed, digest of
the generated inputs, environment and every failing input. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("classify", "transform", "orbits", "cli")
#: At least this many ops per run, so that ten latency samples lie beyond p90.
MIN_OPS = 100
#: Set-ups per run: this process and fresh interpreters; setup_s is their median.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def make_workload(name, tiny=False):
    import workloads

    if name == "cli":
        import cli_workload

        return cli_workload.Cli(ROOT, tiny)
    return {"classify": workloads.Classify, "transform": workloads.Transform,
            "orbits": workloads.Orbits}[name](tiny)


def timed_setup(name, seed, workdir, tiny=False):
    """Imports qpmaps and generates the inputs.

    Returns (seconds, speed factor measured right after, workload, ops).
    """
    start = time.perf_counter()
    import qpmaps  # noqa: F401  -- the first import is part of set-up

    workload = make_workload(name, tiny)
    ops = workload.generate(seed, workdir)
    seconds = time.perf_counter() - start
    import speed

    return seconds, speed.factor_now("spawn"), workload, ops


def setup_probes(name, seed, count):
    """(seconds, speed factor) of set-up in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append((probe["setup_s"], probe["factor"]))
    return samples


def measure(workload, ops, seconds, tracer=None, min_ops=MIN_OPS):
    """Runs whole rounds of ops until both limits are met.

    The workload's speed slice is timed before each op. With a tracer,
    rounds alternate between untraced and traced, so the traced share and
    its overhead are measured under the same conditions.
    """
    import speed

    latency, slices, groups, traced, failures = [], [], [], set(), []
    rounds = 0
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and rounds % 2 == 1
        if tracing:
            tracer.install()
        try:
            for op in ops:
                index = len(latency)
                slices.append(speed.slice_seconds(workload.SPEED_SLICE))
                if tracing:
                    tracer.begin_op(index)
                    traced.add(index)
                t0 = time.perf_counter()
                try:
                    result, reason = workload.execute(op), None
                except Exception as exc:  # a failing op is counted, not fatal
                    result, reason = None, f"raised {type(exc).__name__}: {exc}"
                latency.append(time.perf_counter() - t0)
                if tracing:
                    tracer.end_op()
                if reason is None:
                    try:
                        reason = workload.gate(op, result)
                    except Exception as exc:
                        reason = f"gate raised {type(exc).__name__}: {exc}"
                groups.append(op.group)
                if reason is not None:
                    failures.append((op.label, reason))
        finally:
            if tracing:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latency) >= min_ops
                and (tracer is None or rounds % 2 == 0)):
            factors = speed.factors(slices, workload.SPEED_SLICE)
            return {"elapsed": elapsed, "rounds": rounds, "latency": latency,
                    "scaled": [t * f for t, f in zip(latency, factors)], "factors": factors,
                    "traced": traced, "groups": groups, "failures": failures}


def timings(latency, setup_samples):
    """Throughput over op time, latency percentiles and the median set-up."""
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": len(latency) / sum(latency),
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_p90_ms": 1e3 * statistics.quantiles(latency, n=10, method="inclusive")[-1],
    }


def end_to_end(run, setup_samples, peak_rss_kb):
    values = timings(run["scaled"], [s * f for s, f in setup_samples])
    values["success_rate"] = 1 - len(run["failures"]) / len(run["latency"])
    values["peak_rss_mb"] = peak_rss_kb / 1024
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(run, tracer, workdir):
    import cli_workload

    scaled, traced = run["scaled"], run["traced"]
    untraced = [i for i in range(len(scaled)) if i not in traced]
    traced_rate = len(traced) / sum(scaled[i] for i in traced)
    untraced_rate = len(untraced) / sum(scaled[i] for i in untraced)
    by_group = defaultdict(list)
    for group, seconds in zip(run["groups"], run["latency"]):
        by_group[group].append(seconds)
    values = spans.layer_metrics(
        tracer, traced, run["groups"], cli_workload.import_probe(ROOT, workdir), by_group,
        1 - traced_rate / untraced_rate)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in spans.PER_LAYER.items()}


def environment():
    import numpy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor(),
            "cache": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                info["cache"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def input_digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.label}\t{op.doc}\n".encode())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace_on, tiny=False, min_ops=MIN_OPS,
                 setup_repeats=SETUP_REPEATS, edit_ops=None):
    """One benchmark run; returns (report, result) as printed by main.

    ``edit_ops`` may change the generated ops before the timed loop; the
    smoke test uses it to plant a wrong expectation.
    """
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        setup_s, factor, workload, ops = timed_setup(name, seed, workdir, tiny)
        setup_samples = [(setup_s, factor)]
        if edit_ops is not None:
            edit_ops(ops)
        tracer = spans.Tracer() if trace_on else None
        run = measure(workload, ops, seconds, tracer, min_ops)
        peak_rss_kb = workload.peak_rss_kb()
        if trace_on:
            metrics = per_layer(run, tracer, workdir)
        else:
            setup_samples += setup_probes(name, seed, setup_repeats - 1)
            metrics = end_to_end(run, setup_samples, peak_rss_kb)
    attempted, failed = len(run["latency"]), len(run["failures"])
    failing = Counter(run["failures"])
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on),
        "rounds": run["rounds"], "ops_per_round": len(ops), "latency_samples": attempted,
        "elapsed_s": run["elapsed"], "error_rate": failed / attempted,
        "failures": [{"input": label, "reason": reason, "count": count}
                     for (label, reason), count in sorted(failing.items())],
        "input_digest": input_digest(ops),
        "setup_samples": [{"seconds": s, "speed_factor": f} for s, f in setup_samples],
        "raw": timings(run["latency"], [s for s, _ in setup_samples]),
        "speed_factor": {"median": statistics.median(run["factors"]),
                         "min": min(run["factors"]), "max": max(run["factors"])},
        "env": environment(),
    }
    if trace_on:
        report["moves"] = {name: moves for name, (_, _, moves) in spans.PER_LAYER.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this interpreter and print it")
    parser.add_argument("--sweep", action="store_true",
                        help="per-layer times over n in {4, 20, 60, 100}; not a workload")
    args = parser.parse_args(argv)

    if not (SRC / "qpmaps" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no qpmaps sources under {ROOT}; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.sweep:
        import sweep

        return sweep.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            setup_s, factor = timed_setup(args.workload, args.seed, workdir)[:2]
        print(json.dumps({"setup_s": setup_s, "factor": factor}))
        return 0

    # Compile the bytecode of qpmaps and of this benchmark once, so no timed
    # set-up pays for it.
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path[:0] = sys.argv[1:];"
                    " import qpmaps.cli, workloads, cli_workload, spans, speed",
                    str(SRC), str(HERE)], cwd=ROOT, check=True, timeout=120)
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
