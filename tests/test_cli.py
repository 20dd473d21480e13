"""End-to-end command-line tests (golden outputs, exit codes)."""

import json

import pytest

from ambigcolor.cli import main

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


def test_reconstruct_json(c4_graph, capsys):
    assert main(["reconstruct", c4_graph, "-k", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema_version"] == 1
    assert sorted(x for row in obj["entries"] for x in row) == [0] * 7 + [2, 2]


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
                                            ("turan", "1")])
def test_verify_rejects_max_n_checking_nothing(theorem, max_n, capsys):
    assert main(["verify", "--theorem", theorem, "--max-n", max_n]) == 2
    assert "max_n" in capsys.readouterr().err


def test_verify_turan_json(capsys):
    assert main(["verify", "--theorem", "turan", "--max-n", "5",
                 "--k-list", "2,3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["all_agree"] is True


def test_verify_perfect(capsys):
    assert main(["verify", "--theorem", "perfect", "--max-n", "5",
                 "--k-list", "2,3"]) == 0
    assert "violations=0" in capsys.readouterr().out


def test_table(capsys):
    assert main(["table", "--max-n", "5", "--max-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n\tk\tformula\toracle"
    row = dict()
    for line in lines[1:]:
        n, k, formula, oracle = line.split("\t")
        assert formula == oracle
        row[(int(n), int(k))] = int(formula)
    assert row[(4, 3)] == 4 and row[(5, 2)] == 4


def test_table_rejects_empty_range(capsys):
    assert main(["table", "--max-n", "-3", "--max-k", "3"]) == 2
    assert main(["table", "--max-n", "7", "--max-k", "1", "--no-oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no (n, k) cell" in captured.err


def test_table_oracle_limited_to_order_7(capsys):
    assert main(["table", "--max-n", "8", "--max-k", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "oracle limited" in captured.err
    assert main(["table", "--max-n", "8", "--max-k", "4", "--no-oracle"]) == 0


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


def test_verify_rejects_bad_k_list():
    assert main(["verify", "--theorem", "1", "--max-n", "3",
                 "--k-list", "x"]) == 2


def test_coloring_commands_limited_to_32_vertices(tmp_path, capsys):
    big = tmp_path / "empty33.txt"
    big.write_text("33 0\n")
    for command in ("count", "check-maximal", "reconstruct"):
        assert main([command, str(big), "-k", "2"]) == 3
    assert capsys.readouterr().out == ""


def test_resource_limit_exit_code(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("2\n40 0\n0 40\n")
    assert main(["build", str(big)]) == 3
    for d in (20, 20000):
        big.write_text(json.dumps({"k": 2, "d": d, "entries_flat": []}))
        assert main(["build", str(big)]) == 3
