"""Self-test of the benchmark's checkers and tracer.

    python3 bench/selftest.py

Runs each workload's timed round on a few small inputs, shows that its
checker accepts the real outputs, then corrupts one output at a time and
shows that the checker rejects it:

- a flipped maximality verdict (certify);
- a certificate with one unit moved between entries (certify);
- True returned for a graph with a planted hole (perfect);
- a dropped Theorem-1 row (exhaustive);
- a ``graphs`` count off by one (exhaustive).

It also traces a small certify round and checks that self time never
exceeds inclusive time.  Exit code 0 only if every case behaves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402  (needs the path above)
import workloads as wl  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SELFTEST_MAX_N = 5


def move_one_unit(entries):
    """Move one unit from the first nonzero entry to the next entry."""
    flat = [x for row in entries for x in row]
    src = next(i for i, x in enumerate(flat) if x)
    flat[src] -= 1
    flat[(src + 1) % len(flat)] += 1
    k = len(entries)
    return [flat[i * k:(i + 1) * k] for i in range(k)]


def replace(outputs, index, position, value):
    out = list(outputs)
    row = list(out[index])
    row[position] = value
    out[index] = tuple(row)
    return out


def certify_cases():
    items = [it for it in wl.certify_inputs(1) if it.n <= 12][:4]
    with SpeedProbe() as probe:
        outputs = wl.certify_round(items, probe).outputs
    # output tuple: (item, g, verdict, max_g, max_h, rec_g, rec_h)
    rec = outputs[0][5]
    moved = type(rec)(move_one_unit(rec.entries))
    return [
        ("certify: real outputs", items, outputs, True),
        ("certify: flipped maximality verdict", items,
         replace(outputs, 0, 3, False), False),
        ("certify: certificate with one unit moved", items,
         replace(outputs, 0, 5, moved), False),
        ("certify: one item missing", items, outputs[:-1], False),
    ]


def perfect_cases():
    items = wl.perfect_inputs(1)
    items = ([it for it in items if it.perfect and it.graph.n <= 9][:3]
             + [it for it in items if not it.perfect and it.graph.n <= 10][:2])
    with SpeedProbe() as probe:
        outputs = wl.perfect_round(items, probe).outputs
    planted = next(i for i, it in enumerate(items) if not it.perfect)
    return [
        ("perfect: real outputs", items, outputs, True),
        ("perfect: True for a planted hole", items,
         replace(outputs, planted, 1, True), False),
    ]


def exhaustive_cases():
    commands = wl.exhaustive_commands(SELFTEST_MAX_N)
    with SpeedProbe() as probe:
        outputs = wl.exhaustive_round(commands, probe).outputs
    kind, code, text = outputs[0]
    report = json.loads(text)

    def with_rows(rows):
        changed = json.dumps({**report, "rows": rows})
        return [(kind, code, changed)] + outputs[1:]

    off_by_one = [dict(r) for r in report["rows"]]
    off_by_one[-1]["graphs"] += 1
    return [
        ("exhaustive: real outputs", commands, outputs, True),
        ("exhaustive: dropped Theorem-1 row", commands,
         with_rows(report["rows"][:-1]), False),
        ("exhaustive: graphs count off by one", commands,
         with_rows(off_by_one), False),
    ]


def tracer_case():
    items = [it for it in wl.certify_inputs(1) if it.n <= 11][:3]
    tracer = Tracer()
    tracer.install()
    try:
        with SpeedProbe() as probe:
            wl.certify_round(items, probe)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    errs = [f"{name}: self_s {a['self_s']} > s {a['s']}"
            for name, a in agg.items() if a["self_s"] > a["s"]]
    for name in ("maximality.is_maximal_ambiguous", "coloring.count_colorings",
                 "graphcore.canonical_form"):
        if agg[name]["calls"] == 0:
            errs.append(f"{name}: no calls traced")
    return errs


def main():
    failures = 0
    cases = ([(checks.check_certify, c) for c in certify_cases()]
             + [(checks.check_perfect, c) for c in perfect_cases()]
             + [(lambda i, o: checks.check_exhaustive(i, o, SELFTEST_MAX_N), c)
                for c in exhaustive_cases()])
    for check, (name, inputs, outputs, should_pass) in cases:
        errors = check(inputs, outputs)
        ok = (not errors) == should_pass
        failures += not ok
        verdict = "accepted" if not errors else f"rejected ({errors[0]})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    errors = tracer_case()
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} tracer: self_s <= s, layers seen"
          + (f" ({errors[0]})" if errors else ""))
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
