"""One round of one workload in one fresh, single-threaded Python process.

Started by run.py for every measurement; a fresh process per round keeps
memoised state, such as the certificate SimpleGraph caches in ``_cert``,
from carrying work from one round into the next, and makes every round
start cold, as a user's process does.

    python3 bench/worker.py --workload certify --seed 1 \
        [--setup-only] [--trace-file PATH]

The process imports ambigcolor from ../src, builds the seeded inputs and
runs one round of timed calls with the host-speed probe running.  It then
reads its peak resident set, and only after that imports the checks (and
with them networkx) and checks every output.  The last line of stdout is
one JSON object; the exit code is 0 only if every output was right.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402  (needs the path above)
from hostspeed import SpeedProbe  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(wl.ROUNDS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)

    inputs = wl.INPUTS[args.workload](args.seed)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    probe = SpeedProbe()
    tracer = None
    if args.trace_file:
        from tracer import Tracer
        tracer = Tracer(clock=probe.now)
        tracer.install()
    with probe:
        rnd = wl.ROUNDS[args.workload](inputs, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.aggregate()
        tracer.write(args.trace_file)

    import checks
    errors = checks.CHECKS[args.workload](inputs, rnd.outputs)
    result = {
        "setup_done": setup_done,
        "item_s": rnd.item_s,
        "normalized_s": rnd.normalized_s,
        "loop_ms": 1000 * statistics.median(d for _, d in probe.samples),
        "ops": rnd.ops,
        "peak_rss_mb": peak_rss_mb,
        "correct": not errors,
        "errors": errors[:20],
        "layers": layers,
        "spans": tracer.span_count if tracer else 0,
        "desirable_items": tracer.desirable_items if tracer else 0,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
