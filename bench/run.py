"""Benchmark of ambigcolor's verification workloads.

    python3 bench/run.py --workload {exhaustive,certify,perfect,all} \
        --seed N --seconds S --trace {0,1}

Every measurement runs in a fresh, single-threaded Python process
(worker.py) that makes one round of the workload's operations, one process
at a time.  With --trace 0 the run starts SETUP_REPS set-up-only processes,
then measuring processes for about --seconds (at least one), and reports
the end-to-end metrics; with --trace 1 it starts one untraced and one
traced measuring process and reports the per-layer metrics of the traced
one, plus the tracing overhead.  Each
metric is printed by name and unit, with the operations attempted and
failed per kind; the last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}.  A copy goes to bench/results/, next to
the span file of the latest traced run.

Exit code 0 only if every output of every process was right.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("exhaustive", "certify", "perfect")
SETUP_REPS = 5
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(workload, seed, deadline, trace=False, setup_only=False):
    """Run worker.py once and return its result, with setup_s measured from
    just before the process was started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace-file", str(RESULTS / f"trace-{workload}.json")]
    before = hostspeed.sample()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker passed the deadline") from exc
    after = hostspeed.sample()
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode} "
                         "without a result")
    result = json.loads(lines[-1])
    result["setup_s"] = ((result["setup_done"] - t0)
                         / hostspeed.slowness((before + after) / 2))
    if proc.returncode != 0 and result.get("correct", True):
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_factor(res):
    """How many times slower than the reference speed the host ran during
    the process's round: raw over normalized time."""
    return sum(res["item_s"]) / sum(res["normalized_s"])


def end_to_end(workload, seed, seconds, deadline):
    setups = [spawn(workload, seed, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_REPS)]
    # fresh measuring processes, one cold round each, for about `seconds`:
    # at least one, and another only if it should end within the time
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(spawn(workload, seed, deadline))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    setups += [res["setup_s"] for res in results]
    # every item's latency at the reference speed, median over processes
    items_ms = [1000 * statistics.median(ts)
                for ts in zip(*(res["normalized_s"] for res in results))]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(statistics.median(
            sum(res["normalized_s"]) for res in results), "s"),
        "item_ms_p50": metric(statistics.median(items_ms), "ms"),
        "item_ms_p90": metric(
            statistics.quantiles(items_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": metric(statistics.median(
            res["peak_rss_mb"] for res in results), "MB"),
    }
    return results, metrics


def per_layer(workload, seed, deadline):
    from tracer import span_names        # stdlib only; ambigcolor not needed
    plain = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, trace=True)
    layers = traced["layers"]
    slow = host_factor(traced)          # span times to the reference speed
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = metric(layers[name]["calls"], "count")
        metrics[f"{name}.s"] = metric(layers[name]["s"] / slow, "s")
        metrics[f"{name}.self_s"] = metric(layers[name]["self_s"] / slow, "s")
    metrics["maximality.reconstruct_matrix.failed"] = metric(
        layers["maximality.reconstruct_matrix"]["failed"], "count")
    metrics["matrix.enumerate_desirable.items"] = metric(
        traced["desirable_items"], "count")
    metrics["trace.spans"] = metric(traced["spans"], "count")
    metrics["trace.overhead_s"] = metric(
        sum(traced["normalized_s"]) - sum(plain["normalized_s"]), "s")
    return [plain, traced], metrics


def run_workload(workload, seed, seconds, trace, deadline):
    if trace:
        results, metrics = per_layer(workload, seed, deadline)
    else:
        results, metrics = end_to_end(workload, seed, seconds, deadline)
    ops = {}
    for res in results:
        for kind, (attempted, failed) in res["ops"].items():
            entry = ops.setdefault(kind, [0, 0])
            entry[0] += attempted
            entry[1] += failed
    errors = [e for res in results for e in res["errors"]]
    return {
        "correct": all(res["correct"] for res in results),
        "attempted": sum(a for a, _ in ops.values()),
        "failed": sum(f for _, f in ops.values()),
        "metrics": metrics,
        "ops": ops,
        "errors": errors,
        "processes": [{"host_factor": host_factor(res),
                       "loop_ms": res["loop_ms"],
                       "raw_run_s": sum(res["item_s"])} for res in results],
    }


def report(workload, out):
    for proc in out["processes"]:
        print(f"{workload} process: reference loop {proc['loop_ms']:.3f} ms, "
              f"host {proc['host_factor']:.3f}x slower than the reference "
              f"speed, raw run_s {proc['raw_run_s']:.4f} s")
    for kind, (attempted, failed) in sorted(out["ops"].items()):
        print(f"{workload} op {kind}: attempted {attempted} failed {failed}")
    for name, m in out["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    for err in out["errors"]:
        print(f"{workload} ERROR {err}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ambigcolor" / "__init__.py").is_file():
        print(f"error: no ambigcolor sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    RESULTS.mkdir(exist_ok=True)
    outs = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            outs[name] = run_workload(name, args.seed, args.seconds,
                                      args.trace, deadline)
            report(name, outs[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(outs) == 1:
        metrics = outs[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, out in outs.items()
                   for k, v in out["metrics"].items()}
    final = {"correct": all(o["correct"] for o in outs.values()),
             "attempted": sum(o["attempted"] for o in outs.values()),
             "failed": sum(o["failed"] for o in outs.values()),
             "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds,
         "ops": {w: o["ops"] for w, o in outs.items()},
         "processes": {w: o["processes"] for w, o in outs.items()},
         **final}, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
