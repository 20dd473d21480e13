"""Command-line frontend.

Subcommands wrap the library operations and verification harnesses.
Exit codes: 0 success, 1 counterexample found, 2 input error, 3 resource
bound exceeded.
"""

from __future__ import annotations

import argparse
import json
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
    except OSError as exc:
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    try:
        mat, trace = maximality.reconstruct_matrix(g, args.k)
    except ReconstructionError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    if args.format == "text":
        sys.stdout.write(mat.to_text())
    else:
        print(json.dumps({"schema_version": 1, **mat.to_json(),
                          "r": trace.r}, sort_keys=True))
    return EXIT_OK


def cmd_verify(args):
    k_list = _parse_k_list(args.k_list)
    if args.theorem == "1":
        rows = maximality.verify_theorem1(args.max_n, k_list)
        bad = sum(len(r.counterexamples) for r in rows)
        if args.format == "json":
            print(maximality.theorem1_report_json(rows))
        else:
            for r in rows:
                print(f"n={r.n} k={r.k} graphs={r.graphs} "
                      f"maximal_ambiguous={r.maximal_ambiguous} "
                      f"matched_by_matrix={r.matched_by_matrix} "
                      f"family_graphs={r.family_graphs} "
                      f"counterexamples={len(r.counterexamples)}")
            print(f"counterexample_total={bad}")
        return EXIT_OK if bad == 0 else EXIT_COUNTEREXAMPLE
    if args.theorem == "turan":
        reports = extremal.verify_turan_theorem(args.max_n, k_list)
        ok = all(r.formula_agrees and r.certificates_agree for r in reports)
        if args.format == "json":
            print(extremal.turan_report_json(reports))
        else:
            sys.stdout.write(extremal.turan_report_tsv(reports))
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE
    if args.theorem == "perfect":
        report = perfection.verify_perfectness(args.max_n, k_list)
        if args.format == "json":
            print(perfection.perfectness_report_json(report))
        else:
            print(f"graphs_checked={report['graphs_checked']} "
                  f"violations={len(report['violations'])}")
        return EXIT_OK if not report["violations"] else EXIT_COUNTEREXAMPLE
    raise InputFormatError(f"unknown theorem {args.theorem!r}")


def cmd_table(args):
    header = ["n", "k", "formula"]
    if args.oracle:
        header.append("oracle")
    lines = ["\t".join(header)]
    cells = [(n, k) for k in range(2, args.max_k + 1)
             for n in range(max(2, k), args.max_n + 1)]
    if not cells:
        raise PreconditionError(
            "table has no (n, k) cell: it needs max_k >= 2 and max_n >= 2")
    oracle = extremal.max_edges_by_order(cells) if args.oracle else {}
    for n, k in cells:
        row = [str(n), str(k), str(extremal.ambiguous_max_edges(n, k))]
        if args.oracle:
            row.append(str(oracle[n, k][0]))
        lines.append("\t".join(row))
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
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--k-list", default="2,3,4")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="extremal edge count table (TSV)")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    oracle = p.add_mutually_exclusive_group()
    oracle.add_argument("--oracle", dest="oracle", action="store_true")
    oracle.add_argument("--no-oracle", dest="oracle", action="store_false")
    p.set_defaults(func=cmd_table, oracle=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AmbigcolorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
