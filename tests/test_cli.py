"""End-to-end command-line tests (golden outputs, exit codes)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ambigcolor
from ambigcolor import extremal, graphcore, maximality
from ambigcolor.cli import main
from ambigcolor.matrix import ColorMatrix

FIG_TEXT = "3\n1 2 0\n1 3 1\n1 1 1\n"
C4_EDGES = "4 4\n0 1\n1 2\n2 3\n0 3\n"
K3_EDGES = "3 3\n0 1\n0 2\n1 2\n"


@pytest.fixture
def fig_matrix(tmp_path):
    p = tmp_path / "fig.txt"
    p.write_text(FIG_TEXT)
    return str(p)


@pytest.fixture
def c4_graph(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text(C4_EDGES)
    return str(p)


def test_classify_text(fig_matrix, capsys):
    assert main(["classify", fig_matrix]) == 0
    assert capsys.readouterr().out.strip() == "Normal r=3"


def test_classify_json(fig_matrix, capsys):
    assert main(["classify", fig_matrix, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema_version"] == 1
    assert obj["verdict"] == "Normal" and obj["r"] == 3
    assert obj["mininormal"] is False


@pytest.mark.parametrize("text, line", [
    ("3\n2 1 0\n0 2 0\n0 0 2\n", "Special variant=A"),
    ("3\n1 1 0\n1 1 0\n0 0 2\n", "Normal r=2 mininormal")])
def test_classify_text_special_and_mininormal(text, line, tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text(text)
    assert main(["classify", str(p)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_classify_not_desirable(tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 0\n0 1\n")
    assert main(["classify", str(p)]) == 0
    assert capsys.readouterr().out.startswith("NotDesirable")


def test_classify_json_matrix_format(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"k": 3, "entries": [[2, 0, 0], [0, 2, 0], [0, 0, 0]]}))
    assert main(["classify", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "Small"


def test_build_and_count(fig_matrix, tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["build", fig_matrix, "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.split()[0] == "11"
    assert main(["count", str(out), "-k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_build_out_to_a_missing_directory(fig_matrix, tmp_path, capsys):
    out = tmp_path / "missing" / "g.txt"
    assert main(["build", fig_matrix, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert not out.exists()


def test_build_to_stdout(tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text("3\n2 0 0\n0 2 0\n0 0 0\n")
    assert main(["build", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 4"


def test_build_tensor(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"k": 2, "d": 3, "entries_flat": [1] * 8}))
    assert main(["build", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "8 4"


def test_count_json(c4_graph, capsys):
    assert main(["count", c4_graph, "-k", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 3 and obj["k"] == 3


def test_check_maximal(c4_graph, capsys):
    assert main(["check-maximal", c4_graph, "-k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check-maximal", c4_graph, "-k", "4"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["check-maximal", c4_graph, "-k", "3", "--format",
                 "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "k": 3, "maximal_ambiguous": True, "schema_version": 1}


def test_reconstruct_json(c4_graph, capsys):
    assert main(["reconstruct", c4_graph, "-k", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema_version"] == 1
    assert sorted(x for row in obj["entries"] for x in row) == [0] * 7 + [2, 2]


def test_reconstruct_text(c4_graph, capsys):
    assert main(["reconstruct", c4_graph, "-k", "3", "--format", "text"]) == 0
    assert capsys.readouterr().out == "3\n2 0 0\n0 2 0\n0 0 0\n"


def test_reconstruct_failure_exit_code(tmp_path, capsys):
    p = tmp_path / "k3.txt"
    p.write_text(K3_EDGES)
    assert main(["reconstruct", str(p), "-k", "3"]) == 1
    assert "no certificate" in capsys.readouterr().err


def test_verify_theorem1(capsys):
    assert main(["verify", "--theorem", "1", "--max-n", "4",
                 "--k-list", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "counterexample_total=0" in out


@pytest.mark.parametrize("theorem, max_n", [("1", "0"), ("perfect", "0"),
                                            ("perfect", "8"), ("turan", "1")])
def test_verify_rejects_max_n_checking_nothing(theorem, max_n, capsys):
    # perfect covers every n, so any --max-n would check nothing more
    assert main(["verify", "--theorem", theorem, "--max-n", max_n]) == 2
    err = capsys.readouterr().err
    assert "max_n" in err or "--max-n" in err


@pytest.mark.parametrize("theorem", ["1", "turan"])
def test_verify_needs_max_n(theorem, capsys):
    assert main(["verify", "--theorem", theorem]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-n is needed" in captured.err


def test_verify_turan_refuses_k_below_two_before_the_ceiling(capsys):
    # k = 1 is bad input at any max_n, also above the extremal ceiling
    for max_n in ("7", "40"):
        assert main(["verify", "--theorem", "turan", "--max-n", max_n,
                     "--k-list", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "k >= 2" in captured.err


def test_verify_turan_refuses_a_k_above_max_n(capsys):
    # such a k gets no row, so the run would pass without checking it
    for max_n, k_list in (("5", "2,9"), ("3", "2,3,4"), ("40", "2,41")):
        assert main(["verify", "--theorem", "turan", "--max-n", max_n,
                     "--k-list", k_list]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "max_n >= max k" in captured.err


def test_verify_turan_text(capsys):
    assert main(["verify", "--theorem", "turan", "--max-n", "5",
                 "--k-list", "2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("n\tk\tformula\toracle\tclasses_scanned"
                        "\tn_extremal\tfamilies")
    assert len(lines) == 1 + 4 + 3
    assert all(row.split("\t")[2] == row.split("\t")[3] for row in lines[1:])


def test_verify_turan_json(capsys):
    assert main(["verify", "--theorem", "turan", "--max-n", "5",
                 "--k-list", "2,3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["all_agree"] is True


def test_verify_perfect(capsys):
    assert main(["verify", "--theorem", "perfect", "--k-list", "2,4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "k=2 order=4 holes=True holes_every_start=True definition=True",
        "k=4 order=16 holes=True holes_every_start=True definition=None",
        "violations=0"]


@pytest.mark.parametrize("argv, code, digest", [
    ("--theorem 1 --max-n 5", 0,
     "5214deb3e73e20c7369ca3676579af99befa8b8916a4e6c30a013594e0277aff"),
    ("--theorem 1 --max-n 5 --format json", 0,
     "dcd3f1536716725099880644eb637c798439225964728f36298a721e5e012a38"),
    ("--theorem turan --max-n 6", 0,
     "54020594a0d6943690b1f24afa50219945c8f12dbec941b6af555146e3c2ed13"),
    ("--theorem turan --max-n 6 --format json", 0,
     "3203edd5be9d3bef14110ce699146ce046a9dfe1d66ed877707b54fbdaaa0be6"),
    ("--theorem perfect --k-list 1,2,3", 0,
     "dfb6d88d1fd9b2a4c23f8d9d6be6fc6497ca126267452044d9ababdbb86f7a4c"),
    ("--theorem perfect --k-list 1,2,3 --format json", 0,
     "084364a3a625e6f023783291ea0df3db3a849ea64cd71700ff5e9e4e287e895c"),
])
def test_verify_reports_are_byte_identical(argv, code, digest, capsys):
    # every verify report, text and JSON, pinned byte for byte
    assert main(["verify", *argv.split()]) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_table(capsys):
    assert main(["table", "--max-n", "5", "--max-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n\tk\tformula"
    row = dict()
    for line in lines[1:]:
        n, k, formula = map(int, line.split("\t"))
        assert formula == extremal.ambiguous_max_edges(n, k)
        row[(n, k)] = formula
    assert row[(4, 3)] == 4 and row[(5, 2)] == 4 and len(row) == 4 + 3


def test_table_has_no_oracle_option(capsys):
    # the table prints the formula alone; the class-route oracle is
    # checked against it by `verify --theorem turan`
    for flag in ("--oracle", "--no-oracle"):
        with pytest.raises(SystemExit) as info:
            main(["table", "--max-n", "5", "--max-k", "3", flag])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err


def test_table_rejects_empty_range(capsys):
    assert main(["table", "--max-n", "-3", "--max-k", "3"]) == 2
    assert main(["table", "--max-n", "7", "--max-k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no (n, k) cell" in captured.err


def test_table_refuses_a_k_above_max_n(capsys):
    # such a k gets no row, so the table would drop it without a word
    assert main(["table", "--max-n", "4", "--max-k", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_n >= max_k" in captured.err


def test_table_without_oracle_has_no_order_ceiling(capsys):
    # the formula counts T(n, k)'s edges from its part sizes, so no row
    # builds a graph, and n may pass graphcore.MAX_VERTICES
    assert main(["table", "--max-n", "200", "--max-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 199 + 198
    for line in lines:
        n, k, formula = map(int, line.split("\t"))
        assert formula == (k - 1) * n * n // (2 * k) - n // k


MALFORMED_INPUTS = {
    "missing": None,
    "not-a-matrix": "this is not a matrix\n",
    "string-entry": '{"k": 2, "entries": [[1, 0], [0, "x"]]}',
    "fractional-entries": '{"k": 2, "entries": [[1.5, 0], [0, 1.7]]}',
    "bool-entry": '{"k": 2, "entries": [[1, 0], [0, true]]}',
    "scalar-rows": '{"k": 2, "entries": 5}',
    "tensor-string-k": '{"k": "2", "d": 2, "entries_flat": [1, 0, 0, 1]}',
    "tensor-scalar-entries": '{"k": 2, "d": 2, "entries_flat": 5}',
    "tensor-fractional-entry": '{"k": 2, "d": 2, "entries_flat": [1, 0, 0, 1.5]}',
    "over-long-integer": '{"k": 1%s, "entries": [[1]]}' % ("0" * 5000),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_input_errors(case, tmp_path, capsys):
    path = tmp_path / "input.json"
    if MALFORMED_INPUTS[case] is not None:
        path.write_text(MALFORMED_INPUTS[case])
    assert main(["classify", str(path)]) == 2
    assert main(["build", str(path)]) == 2
    assert capsys.readouterr().out == ""


MALFORMED_GRAPHS = {
    "repeated-edge": "3 2\n0 1\n1 0\n",
    "self-loop": "3 1\n1 1\n",
    "missing-edge-line": "3 2\n0 1\n",
    "bad-header": "3\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_graph_input_errors(case, tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(MALFORMED_GRAPHS[case])
    for command in ("count", "check-maximal", "reconstruct"):
        assert main([command, str(path), "-k", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe2\n1 0\n0 1\n")
    assert main(["classify", str(path)]) == 2
    assert main(["count", str(path), "-k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 2


def test_reconstruct_refuses_k_below_one(tmp_path, capsys, monkeypatch):
    # no k-coloring search starts, so k = 0 is not reported as a graph
    # that is not ambiguously k-colorable
    def no_search(g, k):
        raise AssertionError("a coloring search ran")

    monkeypatch.setattr(maximality, "_class_masks", no_search)
    path = tmp_path / "two.txt"
    path.write_text("2 0\n")
    for k in ("0", "-1"):
        assert main(["reconstruct", str(path), "-k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "outside 1.." in captured.err


def test_count_and_reconstruct_with_a_huge_k(tmp_path, capsys):
    # [0] * 2**62 fails its size check at once, so a search that allocates
    # one class per color raises MemoryError here instead of allocating
    path = tmp_path / "two.txt"
    path.write_text("2 0\n")
    k = str(2 ** 62)
    assert main(["count", str(path), "-k", k]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["reconstruct", str(path), "-k", k]) == 2
    assert capsys.readouterr().out == ""


def test_verify_rejects_bad_k_list(capsys):
    assert main(["verify", "--theorem", "1", "--max-n", "3",
                 "--k-list", "x"]) == 2
    assert main(["verify", "--theorem", "1", "--max-n", "3",
                 "--k-list", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty k list" in captured.err


@pytest.mark.parametrize("theorem", ["1", "turan", "perfect"])
def test_verify_rejects_a_repeated_k(theorem, capsys):
    # a repeated k would check its rows twice
    max_n = [] if theorem == "perfect" else ["--max-n", "3"]
    assert main(["verify", "--theorem", theorem, *max_n,
                 "--k-list", "2,3,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "repeated k" in captured.err


def test_coloring_commands_limited_to_max_vertices(tmp_path, capsys):
    n = graphcore.MAX_VERTICES
    ok = tmp_path / f"empty{n}.txt"
    ok.write_text(f"{n} 0\n")
    assert main(["count", str(ok), "-k", "2", "--cap", "5"]) == 0
    assert main(["check-maximal", str(ok), "-k", "2"]) == 0
    assert capsys.readouterr().out == "5\nfalse\n"
    big = tmp_path / f"empty{n + 1}.txt"
    big.write_text(f"{n + 1} 0\n")
    for command in ("count", "check-maximal", "reconstruct"):
        assert main([command, str(big), "-k", "2"]) == 3
    assert capsys.readouterr().out == ""


def test_graph_files_limited_to_max_vertices(tmp_path, capsys):
    # the header's vertex count is refused before any row is allocated
    big = tmp_path / "huge.txt"
    for n in (2 ** 62, graphcore.MAX_VERTICES + 1):
        big.write_text(f"{n} 0\n")
        for command in ("count", "check-maximal", "reconstruct"):
            assert main([command, str(big), "-k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "graph file" in captured.err


def test_graph6_files_cover_max_vertices(tmp_path, capsys):
    # the 64-vertex G(A) of the 8 x 8 matrix with 4 on (i, i) and on
    # (i, i+1 mod 8) as a graph6 file; a 65-vertex order is refused
    cyclic = [[4 if j in (i, (i + 1) % 8) else 0 for j in range(8)]
              for i in range(8)]
    g6 = tmp_path / "cyclic8.g6"
    g6.write_text(graphcore.to_graph6(graphcore.build_graph(
        ColorMatrix(cyclic))) + "\n")
    assert main(["check-maximal", str(g6), "-k", "8"]) == 0
    assert capsys.readouterr().out == "true\n"
    g6.write_text("~?@@\n")
    for command in ("count", "check-maximal", "reconstruct"):
        assert main([command, str(g6), "-k", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "graph6" in captured.err


def test_resource_limit_exit_code(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("2\n40 0\n0 40\n")
    assert main(["build", str(big)]) == 3
    for d in (20, 20000):
        big.write_text(json.dumps({"k": 2, "d": d, "entries_flat": []}))
        assert main(["build", str(big)]) == 3


def test_closed_stdout_exits_1_without_traceback():
    # the reader is gone before the first write, as with `| head` once
    # head has exited
    src = str(Path(ambigcolor.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ambigcolor.cli import main; sys.exit(main())",
             "verify", "--theorem", "1", "--max-n", "6", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr == ""
