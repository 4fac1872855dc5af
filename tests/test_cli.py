import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pattern_st, tableau_st
from gtcrystal import bijection, cli, crystal, gtpattern, ssyt
from sweeps import lowering_edges

WORKED = '{"n":3,"rows":[[3,1,0],[3,1],[2]]}'
WORKED_TAB = '{"n":3,"shape":[3,1],"rows":[[1,1,2],[2]]}'
SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"
EXPECTED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_streams_patterns(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3", "-l", "3,1,0")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 15
    first = json.loads(lines[0])
    assert set(first) == {"n", "rows"}
    assert first["rows"][0] == [3, 1, 0]


def test_enumerate_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "-n", "3", "-l", "2,1,0")
    _, second, _ = run(capsys, "enumerate", "-n", "3", "-l", "2,1,0")
    assert first == second
    assert len(first.strip().splitlines()) == 8


def test_enumerate_tableaux_model(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "-l", "2,0", "--model", "ssyt")
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert all(set(d) == {"n", "shape", "rows"} for d in docs)
    assert len(docs) == 3


def test_enumerate_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "enumerate", "-n", "3", "-l", "1,2")
    assert code == 2
    assert "error" in err
    for text in ("3,,1", "x"):
        code, out, err = run(capsys, "enumerate", "-n", "3", "-l", text)
        assert (code, out) == (2, "")
        assert err == f"error: shape {text!r} must be comma-separated integers\n"
    code, out, err = run(capsys, "enumerate", "-n", "3", "-l", "x" * 20000)
    assert (code, out, err) == (2, "", "error: shape str of length 20000 must be comma-separated integers\n")


def test_enumerate_rejects_overlong_shape(capsys):
    code, _, _ = run(capsys, "enumerate", "-n", "2", "-l", "1,1,1")
    assert code == 2


def test_empty_shape_is_legal(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "-l", "")
    assert code == 0
    assert json.loads(out.strip()) == {"n": 2, "rows": [[0, 0], [0]]}
    code, out, _ = run(capsys, "dim", "-n", "3", "-l", "0")
    assert code == 0 and out.strip() == "1"


def test_apply_lowering(capsys):
    code, out, _ = run(capsys, "apply", "f", "2", "--gtp", WORKED)
    assert code == 0
    assert json.loads(out) == {"n": 3, "rows": [[3, 1, 0], [2, 1], [2]]}


def test_apply_none_result_exits_zero(capsys):
    hw = '{"n":3,"rows":[[3,1,0],[3,1],[3]]}'
    code, out, _ = run(capsys, "apply", "e", "1", "--gtp", hw)
    assert code == 0
    assert out.strip() == "none"


def test_apply_tableau_model(capsys):
    payload = '{"n":4,"shape":[5,2,2],"rows":[[1,2,2,2,3],[3,3],[4,4]]}'
    code, out, _ = run(capsys, "apply", "f", "2", "--ssyt", payload)
    assert code == 0
    assert json.loads(out)["rows"] == [[1, 2, 2, 3, 3], [3, 3], [4, 4]]


def test_apply_rejects_bad_label(capsys):
    code, _, err = run(capsys, "apply", "f", "9", "--gtp", WORKED)
    assert code == 2
    assert "label" in err


def test_apply_rejects_invalid_element(capsys):
    code, _, _ = run(capsys, "apply", "f", "1", "--gtp", '{"n":3,"rows":[[3,1,0],[3,2],[2]]}')
    assert code == 2


def test_apply_reads_payload_from_file(tmp_path, capsys):
    path = tmp_path / "pattern.json"
    path.write_text(WORKED)
    code, out, _ = run(capsys, "apply", "f", "1", "--gtp", str(path))
    assert code == 0
    assert json.loads(out)["rows"] == [[3, 1, 0], [3, 1], [1]]


def test_apply_missing_file_is_input_error(tmp_path, capsys):
    code, _, _ = run(capsys, "apply", "f", "1", "--gtp", str(tmp_path / "missing.json"))
    assert code == 2
    # The path is quoted like any offending value: by its repr up to 40
    # characters, else by its type and length.
    for payload, shown in (("no-such-payload.json", "'no-such-payload.json'"), ("x" * 100, "str of length 100")):
        code, out, err = run(capsys, "biject", "--gtp", payload)
        assert (code, out, err) == (2, "", f"error: cannot read payload file {shown}: No such file or directory\n")


def test_biject_round_trip(capsys):
    code, out, _ = run(capsys, "biject", "--gtp", WORKED)
    assert code == 0
    assert json.loads(out)["rows"] == [[1, 1, 2], [2]]
    code, back, _ = run(capsys, "biject", "--ssyt", out.strip())
    assert code == 0
    assert back.strip() == WORKED.replace(" ", "")


def test_biject_tableau_side(capsys):
    _, out, _ = run(capsys, "biject", "--ssyt", WORKED_TAB)
    assert json.loads(out)["rows"] == [[3, 1, 0], [3, 1], [2]]


def test_graph_json_counts(capsys):
    code, out, _ = run(capsys, "graph", "-n", "3", "-l", "3,1,0", "--model", "gtp", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["vertices"]) == 15
    assert len(doc["edges"]) == 18


def test_graph_json_document(capsys):
    _, out, _ = run(capsys, "graph", "-n", "3", "-l", "3,1,0", "--format", "json")
    doc = json.loads(out)
    assert set(doc) == {"n", "vertices", "edges"} and doc["n"] == 3
    assert all(set(v) == {"key", "element"} for v in doc["vertices"])
    assert all(set(e) == {"from", "i", "to"} for e in doc["edges"])
    # A vertex key is the compact JSON of its element; edges are sorted by
    # source key, then label, and join vertices.
    assert all(v["key"] == json.dumps(v["element"], sort_keys=True, separators=(",", ":")) for v in doc["vertices"])
    edges = [(e["from"], e["i"], e["to"]) for e in doc["edges"]]
    assert edges == sorted(edges)
    keys = {v["key"] for v in doc["vertices"]}
    assert all(u in keys and v in keys for u, _i, v in edges)


@pytest.mark.parametrize("model, element_type", [("gtp", gtpattern.GTPattern), ("ssyt", ssyt.Tableau)])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_serializes_each_vertex_once(monkeypatch, capsys, model, element_type, fmt):
    # No element is serialized twice: one element, the first, is serialized
    # once per command, for the template that renders every vertex.
    serialized = []
    to_dict = element_type.to_dict
    monkeypatch.setattr(element_type, "to_dict", lambda self: serialized.append(self) or to_dict(self))
    code, _, _ = run(capsys, "graph", "-n", "3", "-l", "3,1,0", "--model", model, "--format", fmt)
    assert code == 0
    assert len(serialized) == 1


# (n, shape): one vertex and no edge, the empty tableau, a one-row shape,
# shapes at n = 3..5 with edges, and two-digit entries, whose keys differ in
# length.
ORACLE_SHAPES = [("1", "4"), ("2", ""), ("3", "3"), ("3", "3,1,0"), ("4", "2,2,1"), ("5", "2,1"), ("3", "10,2")]


@pytest.mark.parametrize("model", ["gtp", "ssyt"])
@pytest.mark.parametrize("n, shape", ORACLE_SHAPES)
def test_export_matches_document_built_from_to_dict(capsys, model, n, shape):
    # The oracle builds what graph and enumerate print the plain way: a
    # document of to_dict data and render_key keys, and one json.dumps.
    lam = tuple(int(x) for x in shape.split(",")) if shape else ()
    elements = list(gtpattern.enumerate_patterns(int(n), lam))
    graph_model = crystal.pattern_model(int(n))
    if model == "ssyt":
        elements = [bijection.pattern_to_tableau(p) for p in elements]
        graph_model = crystal.tableau_model(int(n))
    key = {e: crystal.render_key(e.to_dict()) for e in elements}
    doc = {
        "n": int(n),
        "vertices": [{"key": key[e], "element": e.to_dict()} for e in elements],
        "edges": [
            {"from": u, "i": i, "to": v}
            for u, i, v in sorted((key[u], i, key[v]) for u, i, v in lowering_edges(graph_model, elements))
        ],
    }
    code, out, _ = run(capsys, "graph", "-n", n, "-l", shape, "--model", model, "--format", "json")
    assert (code, out) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    code, out, _ = run(capsys, "enumerate", "-n", n, "-l", shape, "--model", model)
    assert (code, out.splitlines()) == (0, [key[e] for e in elements])


class FirstWriteRecorder(io.StringIO):
    """A stdout that keeps the value of ``probe()`` at its first write."""

    def __init__(self, probe):
        super().__init__()
        self.probe = probe
        self.at_first_write = None

    def write(self, text):
        if self.at_first_write is None:
            self.at_first_write = self.probe()
        return super().write(text)


def test_ssyt_streams_make_no_bijection_call(monkeypatch):
    # The tableaux of --model ssyt come from the letter-by-letter walk, which
    # calls neither map of the bijection.  enumerate's first line goes out
    # after one tableau is made; graph writes after every check.
    calls = []
    for name in ("pattern_to_tableau", "tableau_to_pattern"):
        biject = getattr(bijection, name)
        monkeypatch.setattr(bijection, name, lambda e, biject=biject: calls.append(e) or biject(e))
    made = []
    tableau = bijection.Tableau
    monkeypatch.setattr(bijection, "Tableau", lambda *args: made.append(args) or tableau(*args))
    first_write = {}
    for command in (["enumerate"], ["graph", "--format", "json"]):
        made.clear()
        out = FirstWriteRecorder(lambda: len(made))
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main([*command, "-n", "4", "-l", "2,1", "--model", "ssyt"]) == 0
        assert (calls, len(made)) == ([], 20)
        first_write[command[0]] = out.at_first_write
    assert first_write == {"enumerate": 1, "graph": 20}


@pytest.mark.parametrize(
    "argv, elements",
    [
        (["-n", "6", "-l", "5,3,2,1"], 22050),
        (["-n", "4", "-l", "3,1", "--format", "text"], 45),
        (["-n", "4", "-l", "2,1", "--model", "ssyt", "--format", "text"], 20),
    ],
)
def test_enumerate_writes_first_line_after_one_pattern(monkeypatch, argv, elements):
    # Elements stream in both formats and under both models: the first write
    # comes after one pattern, or with --model ssyt one tableau of the
    # letter-by-letter walk, is built, not after the whole crystal.
    module, name = (bijection, "Tableau") if "ssyt" in argv else (gtpattern, "GTPattern")
    made = []
    element = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: made.append(args) or element(*args))
    out = FirstWriteRecorder(lambda: len(made))
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["enumerate", *argv]) == 0
    assert out.at_first_write == 1
    assert len(made) == elements


def test_graph_degenerate_shapes(capsys):
    _, out, _ = run(capsys, "graph", "-n", "1", "-l", "4", "--format", "json")
    doc = json.loads(out)
    assert (len(doc["vertices"]), len(doc["edges"])) == (1, 0)
    _, out, _ = run(capsys, "graph", "-n", "2", "-l", "1,0", "--format", "json")
    doc = json.loads(out)
    assert (len(doc["vertices"]), len(doc["edges"])) == (2, 1)
    assert doc["edges"][0]["i"] == 1


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", "-n", "3", "-l", "3,1,0")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert out.count("{") == out.count("}")
    assert out.count("->") == 18
    assert 'label="3,1,0/3,1/2"' in out
    assert 'color="blue"' in out and 'color="red"' in out
    _, again, _ = run(capsys, "graph", "-n", "3", "-l", "3,1,0")
    assert out == again


def test_graph_ssyt_model_dot(capsys):
    _, out, _ = run(capsys, "graph", "-n", "3", "-l", "3,1,0", "--model", "ssyt")
    assert 'label="1,1,1/2"' in out


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "-n", "3", "-l", "3,1,0")
    assert code == 0 and out.strip() == "15"
    _, out, _ = run(capsys, "dim", "-n", "4", "-l", "2,1")
    assert out.strip() == "20"


def test_string_datum(capsys):
    code, out, _ = run(capsys, "string-datum", "--gtp", WORKED)
    doc = json.loads(out)
    assert code == 0
    assert doc["word"] == [1, 2, 1]
    assert doc["along_word"] == [1, 0, 0]
    assert {"i": 1, "j": 2, "value": 1} in doc["entries"]


def test_verify_single_shape(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "-l", "3,1,0")
    assert code == 0
    assert "PASS" in out


def test_verify_colors_status_on_a_terminal(monkeypatch, capsys):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    code, out, _ = run(capsys, "verify", "-n", "3", "-l", "2,1")
    green = "\x1b[32mPASS\x1b[0m"
    assert (code, out) == (0, f"{green} n=3 shape=2,1 elements=8\n{green} 1 shape(s) verified\n")
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(capsys, "verify", "-n", "3", "-l", "2,1")
    assert (code, out) == (0, "PASS n=3 shape=2,1 elements=8\nPASS 1 shape(s) verified\n")


def test_closed_stdout_exits_zero(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["dim", "-n", "3", "-l", "2,1"]) == 0


def test_verify_sweep_json_report(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "--all-upto", "4", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["shapes"]) == 11  # partitions of 0..4 with at most 3 parts
    names = set(doc["shapes"][0]["checks"])
    assert {"dimension", "axioms-patterns", "axioms-tableaux", "isomorphism"} <= names


def test_verify_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "-n", "2", "-l", "2,0", "--report", str(target))
    assert code == 0
    assert json.loads(target.read_text())["pass"] is True
    code, out, _ = run(capsys, "verify", "-n", "3", "-l", "2,1", "--json", "--report", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode()


def test_enumerate_refuses_more_rows_than_it_can_nest(capsys):
    for command in ("enumerate", "graph", "verify"):
        code, out, err = run(capsys, command, "-n", "50000", "-l", "1")
        assert (code, out, err) == (2, "", "error: row count must be at most 1000, got 50000\n")


def test_verify_report_path_is_checked_before_any_shape(monkeypatch, tmp_path, capsys):
    # An unwritable --report path fails at once, before any shape is
    # verified, with one short line that quotes the path like any offending
    # value.
    shapes = []
    verify_shape = crystal.verify_shape
    monkeypatch.setattr(crystal, "verify_shape", lambda n, lam: shapes.append(lam) or verify_shape(n, lam))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "-n", "3", "--all-upto", "3", "--report", "missing/" + "r" * 100)
    assert (code, out, shapes) == (2, "", [])
    assert err == "error: cannot write report file str of length 108: No such file or directory\n"
    assert len(err.encode()) <= 120
    (tmp_path / "out").mkdir()
    code, _, err = run(capsys, "verify", "-n", "2", "-l", "1", "--report", "out")
    assert (code, err, shapes) == (2, "error: cannot write report file 'out': Is a directory\n", [])


def test_verify_shape_from_element_payload(capsys):
    code, out, _ = run(capsys, "verify", "--gtp", WORKED)
    assert code == 0
    assert "3,1" in out


@pytest.mark.parametrize("source, payload", [("--gtp", WORKED), ("--ssyt", WORKED_TAB)])
def test_verify_row_count_must_match_the_payload(capsys, source, payload):
    code, out, err = run(capsys, "verify", "-n", "5", source, payload)
    assert (code, out, err) == (2, "", "error: -n 5 disagrees with the payload's n=3\n")
    code, out, _ = run(capsys, "verify", "-n", "3", source, payload)
    assert code == 0
    assert out.startswith("PASS n=3 shape=3,1 elements=15\n")


@pytest.mark.parametrize(
    "source, payload, message",
    [
        ("--gtp", '{"n":2,"rows":null}', "rows must be an array, got None"),
        ("--gtp", '{"n":2,"rows":[[1,0],5]}', "row 2 must be an array, got 5"),
        ("--ssyt", '{"n":2,"shape":5,"rows":[[1]]}', "shape must be an array, got 5"),
        ("--ssyt", '{"n":2,"shape":[1],"rows":[null]}', "row 1 must be an array, got None"),
        # A value starting with '[' is inline JSON, not a file path.
        ("--gtp", "[1,2]", "pattern document must have exactly the keys 'n' and 'rows'"),
        ("--ssyt", "[1,2]", "tableau document must have exactly the keys 'n', 'shape' and 'rows'"),
    ],
    ids=["rows-null", "row-not-array", "shape-not-array", "row-null", "pattern-array", "tableau-array"],
)
def test_payload_field_that_is_not_an_array_is_input_error(capsys, source, payload, message):
    code, out, err = run(capsys, "biject", source, payload)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--all-upto", "3"), "--all-upto requires -n"),
        (("biject", "--ssyt", '{"n":2,"shape":[2],"rows":[[1,"x"]]}'), "letters must be integers, got 'x' at (1,2)"),
        (("apply", "f", "5", "--gtp", WORKED), "label 5 out of range 1..2"),
        (("apply", "e", "0", "--ssyt", WORKED_TAB), "label 0 out of range 1..2"),
        (("apply", "f", "1", "--gtp", '{"n":1,"rows":[[1]]}'), "label 1 out of range: an element with n = 1 has no labels"),
        (("apply", "e", "1", "--ssyt", '{"n":1,"shape":[1],"rows":[[1]]}'), "label 1 out of range: an element with n = 1 has no labels"),
    ],
    ids=["all-upto-without-n", "letter-not-integer", "gtp-label", "ssyt-label", "gtp-rank-1-label", "ssyt-rank-1-label"],
)
def test_input_error_names_the_problem(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


BIG = [0] * 20000


@pytest.mark.parametrize(
    "source, document, message",
    [
        ("--gtp", {"n": 1, "rows": [[BIG]]}, "entries must be integers, got list of length 20000"),
        ("--gtp", {"n": BIG, "rows": []}, "row count must be a positive integer, got list of length 20000"),
        ("--gtp", {"n": 1, "rows": {f"k{k}": 0 for k in range(5000)}}, "rows must be an array, got dict of length 5000"),
        ("--ssyt", {"n": 1, "shape": "x" * 20000, "rows": []}, "shape must be an array, got str of length 20000"),
        ("--ssyt", {"n": 1, "shape": [1], "rows": [[BIG]]}, "letters must be integers, got list of length 20000 at (1,1)"),
        ("--ssyt", {"n": 1, "shape": [1] * 20000, "rows": []}, "row lengths () do not match shape tuple of length 20000"),
        ("--ssyt", {"n": 2, "shape": [2, 1], "rows": [[1, 1]]}, "row lengths (2,) do not match shape (2, 1)"),
    ],
    ids=["pattern-entry", "row-count", "rows", "tableau-shape", "tableau-letter", "shape-mismatch", "short-mismatch"],
)
def test_error_quotes_a_large_value_by_type_and_length(capsys, source, document, message):
    # The whole value would make one error line of 20 to 60 KB.
    code, out, err = run(capsys, "biject", source, json.dumps(document))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) < 200


def test_verify_corrupt_element_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n":3,"rows":[[3,1,0],[3,2],[2]]}')
    code, _, _ = run(capsys, "verify", "--gtp", str(path))
    assert code == 2
    path.write_text("not json at all")
    code, _, _ = run(capsys, "verify", "--gtp", str(path))
    assert code == 2


def test_verify_requires_a_shape_source(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--gtp", WORKED, "--ssyt", WORKED_TAB),
        ("verify", "-n", "2", "-l", "1", "--all-upto", "1"),
        ("verify", "-n", "3", "-l", "3,1", "--gtp", WORKED),
        ("verify", "--all-upto", "1", "--ssyt", WORKED_TAB),
    ],
    ids=" ".join,
)
def test_verify_rejects_conflicting_shape_sources(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_verify_rejects_negative_sweep_bound(capsys):
    code, out, err = run(capsys, "verify", "-n", "3", "--all-upto", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --all-upto must be non-negative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-n", "0", "-l", ""),
        ("enumerate", "-n", "-1", "-l", ""),
        ("graph", "-n", "0", "-l", ""),
        ("verify", "-n", "0", "-l", ""),
        ("dim", "-n", "0", "-l", ""),
        ("dim", "-n", "-1", "-l", ""),
    ],
    ids=" ".join,
)
def test_nonpositive_row_count_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: row count must be a positive integer") and "Traceback" not in err


@pytest.mark.parametrize("part", [10**23, sys.maxsize])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "-n", "1"),
        ("verify", "-n", "2"),
        ("enumerate", "-n", "2", "--model", "gtp"),
        ("enumerate", "-n", "1", "--model", "ssyt"),
        ("graph", "-n", "2", "--model", "gtp"),
        ("graph", "-n", "1", "--model", "ssyt"),
    ],
    ids=" ".join,
)
def test_part_too_large_to_enumerate_is_input_error(capsys, argv, part):
    # A range or tuple holds fewer than sys.maxsize items: a larger part used
    # to raise OverflowError (exit 3), or, at n = 1, loop part times.
    code, out, err = run(capsys, *argv, "-l", str(part))
    assert (code, out) == (2, "")
    assert err == f"error: part {part} is too large to enumerate: parts must be below {sys.maxsize}\n"
    # dim counts the same shape exactly: one pattern at n = 1, part + 1 at n = 2.
    dimension = part + 1 if argv[2] == "2" else 1
    assert run(capsys, "dim", *argv[1:3], "-l", str(part))[:2] == (0, f"{dimension}\n")


def test_verify_failure_exits_one(monkeypatch, capsys):
    failing = {
        "n": 2,
        "lambda": [1],
        "elements": 2,
        "checks": {"dimension": {"pass": False, "violations": 1}},
        "pass": False,
    }
    monkeypatch.setattr(crystal, "verify_shape", lambda n, lam: failing)
    code, out, _ = run(capsys, "verify", "-n", "2", "-l", "1,0")
    assert code == 1
    assert "FAIL" in out


ESCAPED = '{"n":3,"rows":[[99,1,0],[1,0],[1]]}'


def escape_lowering(monkeypatch, escaped):
    # A lowering operator whose images leave the crystal, as the value escaped.
    lower = gtpattern.lower_gtp
    monkeypatch.setattr(gtpattern, "lower_gtp", lambda p, i: None if lower(p, i) is None else escaped)


@pytest.fixture
def escaping_lower(monkeypatch):
    escape_lowering(monkeypatch, gtpattern.GTPattern.from_dict(json.loads(ESCAPED)))


def test_verify_reports_escaping_lowering_as_failure(monkeypatch, capsys):
    # An escaping lowering image, a pattern outside the crystal or a value
    # that is no element at all, is a failed check with closure witnesses
    # naming it, not an input error.
    for escaped, key in ((gtpattern.GTPattern.from_dict(json.loads(ESCAPED)), ESCAPED), (0, "0")):
        with monkeypatch.context() as patch:
            escape_lowering(patch, escaped)
            code, out, err = run(capsys, "verify", "-n", "3", "-l", "2,1", "--json")
        assert (code, err) == (1, "")
        axioms = json.loads(out)["shapes"][0]["checks"]["axioms-patterns"]
        assert not axioms["pass"]
        assert any(detail["rule"] == "closure" and key in detail["keys"] for detail in axioms["details"])


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_with_escaping_lowering_is_internal_error(escaping_lower, capsys, fmt):
    # The graph of a crystal whose lowering leaves it is a defect of the
    # program (3), not bad input (2), and nothing is printed.
    code, out, err = run(capsys, "graph", "-n", "3", "-l", "2,1", "--format", fmt)
    assert (code, out) == (3, "")
    source = '{"n":3,"rows":[[2,1,0],[1,0],[1]]}'
    assert err == f"internal error: lowering {source} along 1 escapes the crystal: {ESCAPED}\n"


@pytest.fixture
def repeated_element(monkeypatch):
    # A pattern enumerator and a letter-by-letter tableau walk that each
    # yield their first element twice.
    def repeating(enumerator):
        def repeat_first(n, lam):
            elements = enumerator(n, lam)
            first = next(elements)
            return itertools.chain((first, first), elements)

        return repeat_first

    monkeypatch.setattr(gtpattern, "enumerate_patterns", repeating(gtpattern.enumerate_patterns))
    monkeypatch.setattr(bijection, "enumerate_pattern_tableaux", repeating(bijection.enumerate_pattern_tableaux))


@pytest.mark.parametrize("model", ["gtp", "ssyt"])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_with_repeated_element_is_internal_error(repeated_element, capsys, model, fmt):
    # A repeat can only come from the package's own enumerator, so it is a
    # defect of the program (3), not bad input (2), and nothing is printed.
    code, out, err = run(capsys, "graph", "-n", "3", "-l", "2,1", "--model", model, "--format", fmt)
    assert (code, out, err) == (3, "", "internal error: elements are not distinct\n")


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_verify_with_repeated_element_is_internal_error(repeated_element, capsys, fmt):
    # verify reads the same enumerator, so a repeat is the same defect (3).
    code, out, err = run(capsys, "verify", "-n", "3", "-l", "2,1", *fmt)
    assert (code, out, err) == (3, "", "internal error: elements are not distinct\n")


def test_verify_with_invalid_tableau_is_internal_error(monkeypatch, capsys):
    # A tableau enumerator that yields a non-tableau: the bijection refuses
    # its preimage, a defect of the program (3), not bad input (2).
    monkeypatch.setattr(ssyt, "enumerate_tableaux", lambda n, lam: iter([ssyt.Tableau(3, ((1, 1), (1,)))]))
    code, out, err = run(capsys, "verify", "-n", "3", "-l", "2,1")
    message = "bijection produced an invalid pattern: row with 1 slots has 2 entries"
    assert (code, out, err) == (3, "", f"internal error: {message}\n")


def test_internal_error_without_a_message_names_its_type(monkeypatch, capsys):
    # A MemoryError has an empty message: the line names the exception type
    # instead of ending after the colon.  The command is patched to raise it,
    # so no large shape is built.
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_verify", out_of_memory)
    code, out, err = run(capsys, "verify", "-n", "2", "-l", "1")
    assert (code, out, err) == (3, "", "internal error: MemoryError\n")


@pytest.mark.parametrize(
    "model, module, name, element",
    [("gtp", gtpattern, "lower_gtp", gtpattern.GTPattern), ("ssyt", ssyt, "lower_ssyt", ssyt.Tableau)],
    ids=["gtp", "ssyt"],
)
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_keeps_no_lowering_image(monkeypatch, capsys, model, module, name, element, fmt):
    # graph lowers each element once per label, numbers each edge as it is
    # made and then drops its image, so when the next image is made at most
    # the last one or two are still alive, not every image made so far.
    # An element is a tuple and cannot be weakly referenced, so each image is
    # handed out as a copy whose class counts it out of ``live`` when it is
    # freed; as a tuple it still equals, and hashes as, its vertex.
    lower = getattr(module, name)
    live = [0]
    made = []
    alive = []

    class Counted(element):
        __slots__ = ()

        def __del__(self):
            live[0] -= 1

    def tracked(u, i):
        alive.append(live[0])
        image = lower(u, i)
        if image is None:
            return None
        live[0] += 1
        made.append(i)
        return Counted(*image)

    monkeypatch.setattr(module, name, tracked)
    code, out, _ = run(capsys, "graph", "-n", "4", "-l", "3,1", "--model", model, "--format", fmt)
    assert code == 0 and out
    assert len(made) > 40
    assert len(alive) == 45 * 3  # dim B(3,1) at n = 4, times the labels 1..3
    assert max(alive) <= 2


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_with_rejected_tableau_image_is_internal_error(monkeypatch, capsys, fmt):
    # A tableau operator whose guard rejects its image stops graph before
    # any byte is written: a defect of the program (3), not bad input (2).
    cancel = ssyt._cancel
    monkeypatch.setattr(ssyt, "_cancel", lambda word, i: (*cancel(word, i)[:2], (1, 1), None))
    code, out, err = run(capsys, "graph", "-n", "3", "-l", "3,1,0", "--model", "ssyt", "--format", fmt)
    assert (code, out) == (3, "")
    problem = "f_2 on 2,3,3/3 produced an invalid tableau at (1,1): cell below holds 3 <= 3"
    assert err == f"internal error: crystal operator {problem}\n"


def test_internal_error_exits_three(monkeypatch, capsys):
    # A kernel guard that rejects an operator's image is a defect of the
    # program, not a failed check (1) or bad input (2).
    monkeypatch.setattr(gtpattern, "_scan", lambda p, i: (1, 0, 1, 1))
    code, out, err = run(capsys, "apply", "f", "2", "--gtp", '{"n":3,"rows":[[3,1,0],[3,1],[3]]}')
    assert (code, out) == (3, "")
    prefix = "internal error: crystal operator f_2 on 3,1,0/3,1/3 produced an invalid pattern at (2,1)"
    assert err.startswith(prefix) and "Traceback" not in err


@pytest.mark.parametrize(
    "exc, message",
    [(KeyError("rows"), "'rows'"), (IndexError("tuple index out of range"), "tuple index out of range")],
    ids=["KeyError", "IndexError"],
)
def test_any_defect_exits_three(monkeypatch, capsys, exc, message):
    # An exception that no input check raises is a defect of the program (3),
    # whatever its type: not a failed check (1) and not bad input (2).
    def lower_gtp(p, i):
        raise exc

    monkeypatch.setattr(gtpattern, "lower_gtp", lower_gtp)
    code, out, err = run(capsys, "verify", "-n", "3", "-l", "2,1")
    assert (code, out, err) == (3, "", f"internal error: {message}\n")


EXIT_CODES_SCRIPT = f"""
import contextlib, io, json, sys
from gtcrystal import cli, gtpattern

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))

codes = [run("dim", "-n", "3", "-l", "2,1"), run("dim", "-n", "0", "-l", "")]
diamond_a = gtpattern.diamond_a
gtpattern.diamond_a = lambda p, i, j: diamond_a(p, i, j) + 1
codes.append(run("verify", "-n", "3", "-l", "2,1"))
gtpattern.diamond_a = diamond_a
lower = gtpattern.lower_gtp
escaped = gtpattern.GTPattern.from_dict(json.loads({ESCAPED!r}))
gtpattern.lower_gtp = lambda p, i: None if lower(p, i) is None else escaped
codes.append(run("graph", "-n", "3", "-l", "2,1", "--format", "json"))
for exc in (KeyError("rows"), IndexError("tuple index out of range")):
    def lower_gtp(p, i, exc=exc):
        raise exc
    gtpattern.lower_gtp = lower_gtp
    codes.append(run("verify", "-n", "3", "-l", "2,1"))
gtpattern.lower_gtp = lower
gtpattern._scan = lambda p, i: (1, 0, 1, 1)
codes.append(run("apply", "f", "2", "--gtp", '{{"n":3,"rows":[[3,1,0],[3,1],[3]]}}'))
print(json.dumps([sys.flags.optimize, codes]))
"""


def test_exit_codes_hold_under_optimize():
    # ``python -O`` strips assert statements; every exit code must still hold:
    # success, input error, failed check, escaping image, a KeyError and an
    # IndexError raised by an operator, guard rejection.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-O", "-c", EXIT_CODES_SCRIPT]
    out = subprocess.run(command, env=env, capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == [1, [0, 2, 1, 3, 3, 3, 3]], out.stdout + out.stderr


@pytest.mark.parametrize(
    "argv, last_line",
    [
        pytest.param(argv, last, id=" ".join(argv))
        for argv, last in (
            (("verify", "-n", "1", "-l", "1000"), "PASS 1 shape(s) verified"),
            (("verify", "-n", "1", "--all-upto", "1000"), "PASS 1001 shape(s) verified"),
            (("enumerate", "-n", "1000", "-l", ""), '{"n":1000,"rows":'),
            (("graph", "-n", "1000", "-l", "", "--format", "dot"), "}"),
        )
    ],
)
def test_deep_walks_run(capsys, argv, last_line):
    # One-element crystals whose enumerators walk 1,000 rows or cells deep.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith(last_line)
    if argv[0] == "enumerate":
        assert len(out.splitlines()) == 1
        assert len(json.loads(out)["rows"]) == 1000


def compact(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


HOOK_WIDTH, HOOK_ROWS = 300_000, 5000
WIDE_WIDTH, WIDE_N = 1_600_000, 1000

# Inputs in the order their validators check, each a second's work when the
# helpers read that order.  A rescan per trailing zero, per row and column, or
# per letter and cell, would take over a minute on each.
LONG_ORDERED_INPUTS = {
    "zero-tail shape": lambda: (
        ("biject", "--ssyt"),
        {"n": 1, "shape": [1] + [0] * 250_000, "rows": [[1]]},
        compact({"n": 1, "rows": [[1]]}),
    ),
    "hook": lambda: (
        ("apply", "f", "1", "--ssyt"),
        {
            "n": HOOK_ROWS,
            "shape": [HOOK_WIDTH] + [1] * (HOOK_ROWS - 1),
            "rows": [[1] * HOOK_WIDTH] + [[r] for r in range(2, HOOK_ROWS + 1)],
        },
        compact(
            {
                "n": HOOK_ROWS,
                "shape": [HOOK_WIDTH] + [1] * (HOOK_ROWS - 1),
                "rows": [[1] * (HOOK_WIDTH - 1) + [2]] + [[r] for r in range(2, HOOK_ROWS + 1)],
            }
        ),
    ),
    "wide row": lambda: (
        ("biject", "--ssyt"),
        {"n": WIDE_N, "shape": [WIDE_WIDTH], "rows": [[1] * WIDE_WIDTH]},
        compact({"n": WIDE_N, "rows": [[WIDE_WIDTH] + [0] * (i - 1) for i in range(WIDE_N, 0, -1)]}),
    ),
    "dim of the empty shape at n=3000": lambda: (("dim", "-n", "3000", "-l", ""), None, "1\n"),
    # The work grows with the nonzero parts, not with the n(n-1)/2 pairs.
    "dim of the empty shape at n=10^6": lambda: (("dim", "-n", "1000000", "-l", ""), None, "1\n"),
    "dim of 3,1 at n=10^6": lambda: (("dim", "-n", "1000000", "-l", "3,1"), None, "125000249999874999750000\n"),
}


@pytest.mark.parametrize("case", list(LONG_ORDERED_INPUTS))
def test_long_ordered_inputs_run(tmp_path, case):
    argv, payload, expected = LONG_ORDERED_INPUTS[case]()
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        argv += (str(path),)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "gtcrystal.cli", *argv]
    out = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == expected


@pytest.mark.parametrize("where", ["inline", "file"])
def test_deeply_nested_payload_is_input_error(capsys, tmp_path, where):
    payload = "[" * 5000 + "]" * 5000
    if where == "file":
        path = tmp_path / "payload.json"
        path.write_text(payload, encoding="utf-8")
        payload = str(path)
    code, out, err = run(capsys, "biject", "--gtp", payload)
    assert (code, out) == (2, "")
    assert err == "error: payload nests too deeply\n"


def test_usage_error_exits_two(capsys):
    assert cli.main(["enumerate", "-n", "3"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    # One build makes the top parser and one subparser per command; three
    # calls after it make none.
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    for argv in (["dim", "-n", "3", "-l", "2,1"], ["verify", "-n", "2", "-l", "1"], ["no-such-command"]):
        cli.main(argv)
    assert progs.count("gtcrystal") == 1 and len(progs) == 8


def test_main_runs_the_handler_bound_when_it_is_called(monkeypatch, capsys):
    # The parser holds no handler: a cmd_* rebound after the parser is built
    # is the one the next call runs.
    summary = "PASS n=3 shape=2,1 elements=8\nPASS 1 shape(s) verified\n"
    assert run(capsys, "verify", "-n", "3", "-l", "2,1") == (0, summary, "")
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.shape) or 7)
    assert run(capsys, "verify", "-n", "3", "-l", "2,1") == (7, "", "")
    assert seen == ["2,1"]


def test_calls_sharing_the_parser_print_what_a_fresh_process_prints(monkeypatch, capsys):
    # A usage error, --help, and verify with and then without --json, in one
    # process, each print byte for byte what a fresh interpreter prints.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    codes = []
    for argv in (
        ["verify", "-n", "3", "-l", "2,1", "--all-upto", "2"],
        ["--help"],
        ["verify", "-n", "3", "-l", "2,1", "--json"],
        ["verify", "-n", "3", "-l", "2,1"],
    ):
        command = [sys.executable, "-m", "gtcrystal.cli", *argv]
        fresh = subprocess.run(command, env=env, capture_output=True, timeout=60)
        code, out, err = run(capsys, *argv)
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0]


def test_help_names_every_subcommand_and_no_implementation_note(monkeypatch, capsys):
    # --help gives a one-line description and one row per subcommand; the
    # module docstring, notes on how the CLI is built, is not printed.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    rows = {line.split()[0] for line in out.splitlines() if line.startswith("    ") and line[4:5].isalpha()}
    assert rows == {"enumerate", "apply", "biject", "graph", "verify", "dim", "string-datum"}
    notes = [line.strip() for line in cli.__doc__.splitlines() if line.strip()]
    assert len(notes) > 20
    assert [line for line in notes if line in out] == []
    assert len(out.splitlines()) < 20


# SHA-256 of stdout for a fixed set of invocations.  The CLI promises
# byte-exact output, so a change below it must leave every digest unchanged;
# only an intended output change re-records them.
GOLDEN = {
    ("graph", "-n", "3", "-l", "3,1,0", "--model", "gtp", "--format", "json"): "230f49132a7c79858abb58d77eb5b21393ee5e571bc776a01787dcbfe9ff7279",
    ("graph", "-n", "3", "-l", "3,1,0", "--model", "gtp", "--format", "dot"): "65428bd812c67ea1f26656a20ad4f2698c6742799ff4a616ae38db4af0b1989f",
    ("graph", "-n", "3", "-l", "3,1,0", "--model", "ssyt", "--format", "json"): "ad1caec51cff4a33ff6a1f826a9f230d1d60a53cb88af1598c454cbdc4c2bd9e",
    ("graph", "-n", "3", "-l", "3,1,0", "--model", "ssyt", "--format", "dot"): "55faef400dd1d29081ab328374562fa047f71bfc4949bfe797d411a69e85395d",
    ("graph", "-n", "4", "-l", "2,1", "--model", "gtp", "--format", "json"): "717e47673f35b6fd6d1ba82197f2aebeb0efb9bd624a9c572df9a80487f4fcd1",
    ("graph", "-n", "4", "-l", "2,1", "--model", "gtp", "--format", "dot"): "ed69d7ccff6f1412cab662e231d0decddfb8bd86fee17c7046166ffbd7127c97",
    ("graph", "-n", "4", "-l", "2,1", "--model", "ssyt", "--format", "json"): "88a8386982b0f57be0738c1632a1f9df97beb9ffc7c33ace4812a9cf3c8710da",
    ("graph", "-n", "4", "-l", "2,1", "--model", "ssyt", "--format", "dot"): "2e49811740c20f9e05180d0dada440961964d2809e153bceca0b36acd1498826",
    ("verify", "-n", "3", "-l", "3,1,0", "--json"): "7839fe046caa59691a789b073373b64057f9f5bfb85590caab780b8ec1069067",
    ("verify", "-n", "3", "--all-upto", "3", "--json"): "a0fc08a3e8a480146728523bf8aff579a98e1fded94923416fcf22ad0fb9c4c3",
    ("verify", "-n", "4", "-l", "3,2,1", "--json"): "e0cf0ec57ff9686b5231eaafe061e5c8d8d9f6a128e34772b8a9b2e81d804e5f",
    ("verify", "-n", "5", "-l", "2,1,1", "--json"): "3e0ee6de2b2c78c1be9ef434b5d6f7d475b6599fba55614a386f6c06136babcd",
    ("enumerate", "-n", "3", "-l", "3,1,0", "--model", "gtp"): "dba60fdc5b46215e36383cab22d8449a1b0b8dd22a3c5b14237243fe6f44814d",
    ("enumerate", "-n", "3", "-l", "3,1,0", "--model", "ssyt"): "9568399ff99866d28dcba1b6aee70ba04747bf7bc82486bbf208f958544b7886",
    ("enumerate", "-n", "4", "-l", "2,1", "--model", "gtp"): "86029a1a0713ae66538de7b49fc3693778e04da84eb976340fe5c08c35420258",
    ("enumerate", "-n", "4", "-l", "2,1", "--model", "ssyt"): "3d5519746449fd9f5cdfd5bf8d9766a419a56b19a54f2a52ee109b93e160e15e",
    ("biject", "--gtp", WORKED): "8a8ab42abb273df8d3b2bad773390213e7fe0d2d717fd09aa0c40430fa48681d",
    ("biject", "--ssyt", WORKED_TAB): "9ab9fcf76658fedd2cee9161489873d8ac31e39a2ea1fdf0f3acd3b84dec331b",
    ("string-datum", "--gtp", WORKED): "524084c093fae24bb81351083c48291841ecdd8cd06c0affb31fd8f9a8562bf5",
    ("enumerate", "-n", "3", "-l", "2,1", "--format", "text"): "f4fbfed45483f7b295c6f9d092d7f04b61896a0d2445c005b6dd447004248bba",
    ("enumerate", "-n", "3", "-l", "2,1", "--model", "ssyt", "--format", "text"): "2fb99893d8c8114874cfe32edcf8259c9f85241785f40ce59d4a324de3943ac4",
    # The empty tableau prints as "(empty)" in text and is labelled "-" in DOT.
    ("enumerate", "-n", "2", "-l", "", "--model", "ssyt", "--format", "text"): "2da555d1d9c2dcf25d9be37ea00e3885170d431434c0a9b5b497beca1dd54f51",
    ("apply", "f", "1", "--ssyt", WORKED_TAB, "--format", "text"): "b52838ffef9dec6f7aae7ce9059380352173af8e8e439bfe96942c141abc50ae",
    ("graph", "-n", "2", "-l", "", "--model", "ssyt", "--format", "dot"): "2924cda667190db6b89a0284ce4b79cdb36bef1b7a0fd4eb5fd2e7f521c85f8b",
    # Edge cases of the letter-by-letter tableau walk: a shape with n parts,
    # one letter, and repeated parts.
    ("graph", "-n", "3", "-l", "2,1,1", "--model", "ssyt", "--format", "json"): "58859c5ddeadda2e90d0f06a7ef92f7c831647cf40d3b32517da2f17ea059f56",
    ("enumerate", "-n", "1", "-l", "3", "--model", "ssyt"): "c4a0ebd8c88ea285c723a1d41547feb88eaff78310bdf17e9a73890b9a07ca57",
    ("enumerate", "-n", "5", "-l", "3,3", "--model", "ssyt"): "f2f3dd12e0dcdc109705531006ff5d09fefa6399784387e3a23f3912d1e5e3c8",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_every_benchmark_op_writes_its_recorded_digest(capsys):
    # The benchmark's own ops, run in process: each key of
    # perfbench/expected.json is an op's argv joined by single spaces (an
    # empty shape leaves an empty argument), and its value the SHA-256 of
    # the op's stdout.  The file is only read here.
    expected = json.loads(EXPECTED_DIGESTS.read_text())
    assert len(expected) == 107
    mismatched = []
    for key, digest in expected.items():
        code, out, _ = run(capsys, *key.split(" "))
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, digest):
            mismatched.append(key)
    assert mismatched == []


# Payloads for the fuzz property: junk JSON, and the JSON of a valid pattern
# or tableau (n <= 4, at most 10 cells) with one entry changed to -2..5.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("n", "rows", "shape")) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def changed_element(draw):
    kind = draw(st.sampled_from(("gtp", "ssyt")))
    if kind == "gtp":
        element = draw(pattern_st(max_n=4, max_part=5).filter(lambda p: sum(p.rows[0]) <= 10))
    else:
        element = draw(tableau_st(max_n=4, max_size=10))
    data = element.to_dict()
    # One slot, a list and an index in it, gets a new value.
    slots = [(data["rows"][r], c) for r in range(len(data["rows"])) for c in range(len(data["rows"][r]))]
    slots += [(data["shape"], k) for k in range(len(data.get("shape", ())))]
    target, index = draw(st.sampled_from(slots + [(data, "n")]))
    target[index] = draw(st.integers(-2, 4 if index == "n" else 5))
    return kind, json.dumps(data)


@st.composite
def fuzzed_argv(draw):
    kind, payload = draw(changed_element() | st.tuples(st.sampled_from(("gtp", "ssyt")), JUNK.map(json.dumps)))
    command = draw(st.sampled_from(("apply", "biject", "verify", "string-datum")))
    head = [command]
    if command == "apply":
        head += [draw(st.sampled_from("fe")), str(draw(st.integers(-1, 5)))]
    return head + [f"--{'gtp' if command == 'string-datum' else kind}", payload]


@settings(deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_payloads_exit_with_a_documented_code(argv):
    # apply, biject, verify and string-datum on junk or one-entry-changed
    # payloads exit 0, 1 or 2, never 3; an input error is one short stderr
    # line, except argparse usage text for a payload that starts with "-".
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2 and not (argv[-1].startswith("-") and err.getvalue().startswith("usage:")):
        line = err.getvalue()
        assert line.endswith("\n") and line.count("\n") == 1 and len(line[:-1].encode()) <= 120, line


def test_every_readme_command_runs(capsys, monkeypatch, tmp_path):
    # Each line of the README's block of gtcrystal commands runs as written,
    # in an empty directory so that no line can lean on a file there, and
    # exits 0; a line whose comment says it prints `none` prints exactly that.
    blocks = README.read_text().split("```")[1::2]
    (block,) = [b for b in blocks if b.strip() and all(line.startswith("gtcrystal ") for line in b.strip().splitlines())]
    lines = block.strip().splitlines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0 and err == "", line
        if "prints `none`" in line:
            assert out == "none\n", line
