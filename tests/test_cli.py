"""Exit codes, JSON shape, and determinism of the command-line front end."""

import json
import subprocess
import sys

import pytest

from swcohom.cli import main
from swcohom.lattices import e8_gram


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert status == 0, err
    doc = json.loads(out)
    assert "schema" in doc
    return doc


TRANSLATION_PROBLEM = {
    "domain_dim": 2,
    "target_dim": 2,
    "linear_part": [["1", "0"], ["0", "1"]],
    "compact_part": {"builtin": "constant", "vector": ["1", "0"]},
    "bound_radius": "2",
}


def test_bound_example(capsys):
    doc = run_json(capsys, "bound", "--d", "4", "--k", "4")
    assert doc["lower_bound"] == 6
    assert doc["lemma_cokernel_order"] == 12
    assert doc["sharp"] is False


def test_index_and_dim(capsys):
    doc = run_json(capsys, "index", "--c2", "40", "--sigma", "0")
    assert doc["d"] == 5
    doc = run_json(capsys, "dim", "--d", "5", "--bplus", "3")
    assert doc["k"] == 6
    doc = run_json(capsys, "dim", "--c2", "40", "--sigma", "0", "--bplus", "3")
    assert doc["k"] == 6


def test_hurewicz_table(capsys):
    doc = run_json(capsys, "hurewicz", "--d", "6")
    by_k = {row["k"]: row for row in doc["orders"]}
    assert by_k[3]["kernel"] == 6
    assert by_k[4]["cokernel"] == 8
    assert by_k[1]["cokernel"] is None


def test_sharpscan_rows(capsys):
    doc = run_json(capsys, "sharpscan", "--dmin", "3", "--dmax", "6",
                   "--k", "4")
    rows = {row["d"]: row for row in doc["rows"]}
    assert set(rows) == {4, 5, 6}
    assert rows[4]["sharp"] is False
    assert rows[5]["sharp"] is True


def test_lattice_e8(capsys, tmp_path):
    path = tmp_path / "e8.json"
    path.write_text(json.dumps({"gram": e8_gram().to_json()}))
    doc = run_json(capsys, "lattice", "--gram", str(path))
    assert doc["valid"] is True
    assert doc["admissible"] is False
    assert doc["witness"] == [0] * 8
    assert doc["min_characteristic_norm"] == 0
    assert doc["diagonal_witness"] is None


def test_lattice_minus_identity(capsys, tmp_path):
    path = tmp_path / "i3.json"
    path.write_text(json.dumps([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    doc = run_json(capsys, "lattice", "--gram", str(path))
    assert doc["admissible"] is True
    assert doc["min_characteristic_norm"] == 3
    assert doc["k"] == 0
    assert len(doc["diagonal_witness"]) == 3


def test_lattice_invalid_form_is_reported(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 0], [0, -1]]))
    doc = run_json(capsys, "lattice", "--gram", str(path))
    assert doc["valid"] is False
    assert doc["admissible"] is None


def test_chamber_example(capsys):
    doc = run_json(capsys, "chamber", "--n", "3", "--angles", "1/2,3/2")
    counts = [row["signed_count"] for row in doc["counts"]]
    assert counts == [4, 3]
    assert doc["counts"][0]["chamber"] == "first_half"
    assert doc["jump"] == 1


def test_reduce_translation(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TRANSLATION_PROBLEM))
    doc = run_json(capsys, "reduce", "--problem", str(path))
    assert doc["degree"] == 1
    assert doc["index"] == 0
    assert doc["miss"]["ok"] is True


def test_table_format(capsys):
    status, out, _ = run(capsys, "--format", "table",
                         "bound", "--d", "4", "--k", "4")
    assert status == 0
    assert "lower_bound 6" in out


def test_determinism(capsys):
    _, first, _ = run(capsys, "sharpscan", "--dmin", "3", "--dmax", "12")
    _, second, _ = run(capsys, "sharpscan", "--dmin", "3", "--dmax", "12")
    assert first == second


def test_domain_errors_exit_one(capsys):
    for argv in (
        ["index", "--c2", "1", "--sigma", "0"],
        ["sharpscan", "--dmin", "9", "--dmax", "3"],
        ["bound", "--d", "2", "--k", "4"],
        ["chamber", "--n", "1", "--angles", "1/2,1"],
        ["dim", "--bplus", "3"],
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1
        assert out == ""
        assert json.loads(err)["error"]["code"] == "domain"


def test_io_and_parse_errors_exit_two(capsys, tmp_path):
    status, _, err = run(capsys, "lattice", "--gram",
                         str(tmp_path / "missing.json"))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "io"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status, _, err = run(capsys, "lattice", "--gram", str(bad))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "parse"

    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps([[1, 2], [3]]))
    status, _, err = run(capsys, "lattice", "--gram", str(ragged))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "parse"

    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps({"domain_dim": 2}))
    status, _, err = run(capsys, "reduce", "--problem", str(truncated))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "parse"


@pytest.mark.parametrize("argv, files", [
    (["chamber", "--n", "3", "--angles", "1/2,1/0"], {}),
    (["reduce", "--problem", "{problem}", "--epsilon", "1/0"],
     {"problem": TRANSLATION_PROBLEM}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, linear_part=[[1, 0], [0, 1]])}),
    (["lattice", "--gram", "{gram}"], {"gram": [[-1.9]]}),
    (["lattice", "--gram", "{gram}"], {"gram": [[-1, 0], [0, True]]}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, domain_dim=2.7)}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, target_dim=2.2)}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "components": [[["1", [1.9, 0]]], []]})}),
], ids=["chamber-zero-denominator", "epsilon-zero-denominator",
        "reduce-json-numbers", "gram-float", "gram-bool",
        "reduce-float-domain-dim", "reduce-float-target-dim",
        "reduce-float-exponent"])
def test_bad_input_is_one_parse_error(capsys, tmp_path, argv, files):
    # zero denominators, JSON numbers where "num/den" strings belong, and
    # floats or bools where integers belong: one swcohom/error/1 line,
    # never a traceback
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    status, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (status, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["schema"] == "swcohom/error/1"
    assert doc["error"]["code"] == "parse"


def test_epsilon_out_of_range(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TRANSLATION_PROBLEM))
    status, _, err = run(capsys, "reduce", "--problem", str(path),
                         "--epsilon", "1/3")
    assert status == 1
    assert json.loads(err)["error"]["code"] == "domain"


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_invocation_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "swcohom.cli", "chamber",
         "--n", "0", "--angles", "1/2,3/2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    counts = [row["signed_count"] for row in doc["counts"]]
    assert counts == [1, 0]
