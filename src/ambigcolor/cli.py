"""Command-line frontend.

Subcommands wrap the library operations and verification harnesses.
The library returns data only and this module prints every report; the
`verify` harnesses share one JSON envelope, written once in `cmd_verify`.
Exit codes: 0 success, 1 counterexample (a missing certificate too) or
standard output closed early, 2 input error, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import coloring, dfold, extremal, graphcore, maximality, matrix, perfection
from .errors import (AmbigcolorError, InputFormatError, PreconditionError,
                     ReconstructionError, ResourceLimitError)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _load_graph(path):
    text = _read(path)
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    parts = first.split()
    if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
        return graphcore.from_edge_list(text)
    return graphcore.from_graph6(text)


def _parse_k_list(text):
    try:
        values = [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise InputFormatError(f"bad k list {text!r}") from exc
    if not values:
        raise InputFormatError("empty k list")
    if len(set(values)) != len(values):
        raise InputFormatError(f"repeated k in k list {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    m = matrix.load_matrix(_read(args.matrix))
    verdict = matrix.classify(m)
    if args.format == "json":
        print(json.dumps({"schema_version": 1, **verdict.to_json()},
                         indent=2, sort_keys=True))
        return EXIT_OK
    line = verdict.verdict
    if verdict.verdict == matrix.NORMAL:
        line += f" r={verdict.r}"
        if verdict.mininormal:
            line += " mininormal"
    elif verdict.verdict == matrix.SPECIAL:
        line += f" variant={verdict.special_variant}"
    elif verdict.verdict == matrix.NOT_DESIRABLE:
        line = f"NotDesirable: {verdict.witness}"
    print(line)
    return EXIT_OK


def cmd_build(args):
    g = dfold.build_graph_d(dfold.load_tensor(_read(args.input)))
    text = graphcore.to_edge_list(g)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_count(args):
    g = _load_graph(args.graph)
    count = coloring.count_colorings(g, args.k, args.cap)
    if args.format == "json":
        print(json.dumps({"schema_version": 1, "k": args.k, "cap": args.cap,
                          "count": count}, sort_keys=True))
    else:
        print(count)
    return EXIT_OK


def cmd_check_maximal(args):
    g = _load_graph(args.graph)
    result = maximality.is_maximal_ambiguous(g, args.k)
    if args.format == "json":
        print(json.dumps({"schema_version": 1, "k": args.k,
                          "maximal_ambiguous": result}, sort_keys=True))
    else:
        print("true" if result else "false")
    return EXIT_OK


def cmd_reconstruct(args):
    g = _load_graph(args.graph)
    mat, trace = maximality.reconstruct_matrix(g, args.k)
    if args.format == "text":
        sys.stdout.write(mat.to_text())
    else:
        print(json.dumps({"schema_version": 1, **mat.to_json(),
                          "r": trace.r}, sort_keys=True))
    return EXIT_OK


def cmd_verify(args):
    k_list = _parse_k_list(args.k_list)
    if (args.max_n is None) != (args.theorem == "perfect"):
        raise PreconditionError("--max-n is needed by --theorem 1 and turan,"
                                " and refused by perfect, which covers every n")
    if args.theorem == "1":
        rows = [vars(r) for r in maximality.verify_theorem1(args.max_n,
                                                            k_list)]
        version, theorem, key = 2, "characterization", "counterexample_total"
        verdict = sum(len(r["counterexamples"]) for r in rows)
        ok = verdict == 0
    elif args.theorem == "turan":
        reports = extremal.verify_turan_theorem(args.max_n, k_list)
        rows = [vars(r) for r in reports]
        version, theorem, key = 2, "turan-type", "all_agree"
        verdict = ok = all(r.agrees for r in reports)
    else:  # "perfect", the last of argparse's choices
        report = perfection.verify_perfectness(k_list)
        rows, verdict = report["rows"], report["violations"]
        version, theorem, key, ok = 4, "perfectness", "violations", not verdict
    if args.format == "json":
        print(json.dumps({"schema_version": version, "theorem": theorem,
                          "rows": rows, key: verdict},
                         indent=2, sort_keys=True))
    elif args.theorem == "1":
        for r in rows:
            graphs = "-" if r["graphs"] is None else r["graphs"]
            print(f"n={r['n']} k={r['k']} graphs={graphs} "
                  f"shaped={r['shaped']} maximal_ambiguous={r['maximal_ambiguous']} "
                  f"matched_by_matrix={r['matched_by_matrix']} "
                  f"family_graphs={r['family_graphs']} "
                  f"counterexamples={len(r['counterexamples'])}")
        print(f"counterexample_total={verdict}")
    elif args.theorem == "turan":
        print("n\tk\tformula\toracle\tclasses_scanned\tn_extremal\tfamilies")
        for r in rows:
            families = {f for c in r["certificates"] for f in c["families"]}
            print("\t".join(map(str, (
                r["n"], r["k"], r["formula_value"], r["oracle_value"],
                r["classes_scanned"], len(r["certificates"]),
                ",".join(sorted(families)) or "-"))))
    else:
        for r in rows:
            print(f"k={r['k']} order={r['order']} holes={r['holes']} "
                  f"holes_every_start={r['holes_every_start']} "
                  f"definition={r['definition']}")
        print(f"violations={len(verdict)}")
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_table(args):
    cells = [(n, k) for k in range(2, args.max_k + 1)
             for n in range(max(2, k), args.max_n + 1)]
    if not cells:
        raise PreconditionError(
            "table has no (n, k) cell: it needs max_k >= 2 and max_n >= 2")
    if args.max_k > args.max_n:
        raise PreconditionError(
            "table would have no row for some k: it needs max_n >= max_k")
    lines = ["n\tk\tformula"]
    lines += [f"{n}\t{k}\t{extremal.ambiguous_max_edges(n, k)}"
              for n, k in cells]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ambigcolor",
        description="Maximal ambiguously k-colorable graphs: classification, "
                    "construction, and exhaustive theorem verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a matrix file")
    p.add_argument("matrix")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build", help="build G(A) from a matrix/tensor file")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("count", help="count k-colorings of a graph file")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check-maximal",
                       help="decide maximal ambiguous k-colorability")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check_maximal)

    p = sub.add_parser("reconstruct",
                       help="reconstruct a certificate matrix from a graph")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run a verification harness")
    p.add_argument("--theorem", choices=("1", "turan", "perfect"),
                   required=True)
    p.add_argument("--max-n", type=int)
    p.add_argument("--k-list", default="2,3,4")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="extremal edge count formula table (TSV)")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (as in `ambigcolor ... | head`); point stdout at
        # devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_COUNTEREXAMPLE
    except ReconstructionError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AmbigcolorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
