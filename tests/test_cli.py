import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hilbk3
from hilbk3 import (_gram_file, bb_lattice, cli, cohomology, frobenius, invariant_ideals, linalg,
                    partitions)
from hilbk3.cli import SCHEMA, main

from oracles import (FROBENIUS_CELLS, frobenius_grams, ideals_report, json_report, pq_text,
                     reference_parser, strata_report, write_gate_grams)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv + ["--json"], capsys)
    return code, json.loads(out)


def test_betti_json_payload(capsys):
    code, payload = run_json(["betti", "--n", "2"], capsys)
    assert code == 0
    assert payload["schema"] == SCHEMA
    assert payload["command"] == "betti"
    assert payload["status"] == "ok"
    assert payload["parameters"]["n"] == 2
    assert payload["result"]["betti"] == [1, 0, 23, 0, 276, 0, 23, 0, 1]
    assert payload["checks"] and all(c["ok"] for c in payload["checks"])


def test_betti_is_byte_deterministic(capsys):
    _, out1 = run(["betti", "--n", "3", "--json"], capsys)
    _, out2 = run(["betti", "--n", "3", "--json"], capsys)
    assert out1 == out2


def test_betti_max_degree_truncates(capsys):
    code, payload = run_json(["betti", "--n", "4", "--max-degree", "4"], capsys)
    assert code == 0
    assert len(payload["result"]["betti"]) == 5


def test_betti_rejects_negative_max_degree(capsys):
    code, payload = run_json(["betti", "--n", "2", "--max-degree", "-3"], capsys)
    assert code == 1
    assert payload["status"] == "error"


def test_betti_custom_surface(capsys):
    code, payload = run_json(["betti", "--n", "2", "--surface", "1,5,1"], capsys)
    assert code == 0
    assert payload["result"]["betti"][2] == 6


def test_betti_rejects_bad_surface(capsys):
    code, payload = run_json(["betti", "--n", "2", "--surface", "2,22,1"], capsys)
    assert code == 1
    assert payload["status"] == "error"
    assert "error" in payload


def test_a_surface_of_two_numbers_is_an_error(capsys):
    code, payload = run_json(["betti", "--n", "2", "--surface", "1,2"], capsys)
    assert (code, payload["status"]) == (1, "error")
    assert payload["error"] == {"type": "ValueError", "message": "--surface expects b0,b2,b4"}


def test_surface_betti_numbers_are_bounded_before_they_are_converted(capsys):
    bound = cli.MAX_SURFACE_BETTI
    assert bound == 10 ** 6
    for text in (f"1,{bound},1", f"01,{bound:_},1", f" +1,000{bound} ,1"):
        code, payload = run_json(["betti", "--n", "2", "--surface", text], capsys)
        assert (code, payload["status"]) == (0, "ok")
        assert payload["result"]["betti"][2] == bound + 1
    # 4000 nines convert, but the Betti numbers they give have more digits
    # than int() prints by default; 5000 do not convert
    message = f"--surface entries must have |b| <= {bound}"
    for text in (f"1,{bound + 1},1", f"1,22,-{bound + 1}", f"1,{'9' * 4000},1",
                 f"{'9' * 5000},22,1", f"1,1,{'9' * 5000}"):
        code, payload = run_json(["betti", "--n", "5", "--surface", text], capsys)
        assert (code, payload["status"]) == (1, "error")
        assert payload["error"] == {"type": "ValueError", "message": message}
    # within the bound the surface's own checks still speak
    code, payload = run_json(["betti", "--n", "2", "--surface", "1,-22,1"], capsys)
    assert payload["error"]["message"] == "Betti numbers must be nonnegative"


def test_table_output_is_flat(capsys):
    code, out = run(["betti", "--n", "2", "--table"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(": " in line for line in lines)
    assert any(line.startswith("schema: ") for line in lines)
    # default format is the table
    code2, out2 = run(["betti", "--n", "2"], capsys)
    assert out2 == out


def test_strata_command(capsys):
    code, payload = run_json(["strata", "--n", "3"], capsys)
    assert code == 0
    strata = payload["result"]["strata"]
    assert len(strata) == 3
    assert {tuple(s["diagram"]) for s in strata} == {(3,), (2, 1), (1, 1, 1)}
    for s in strata:
        assert s["codim"] == 2 * sum(p - 1 for p in s["diagram"])


def test_strata_rejects_bad_n(capsys):
    code, payload = run_json(["strata", "--n", "0"], capsys)
    assert code == 1
    assert payload["status"] == "error"
    assert payload["error"]["message"] == "n must be >= 1"


def test_certify_command(capsys):
    code, payload = run_json(["certify", "--n", "6"], capsys)
    assert code == 0
    assert payload["result"]["verdict"] == "certified"
    statuses = {tuple(c["diagram"]): c["status"] for c in payload["result"]["certificates"]}
    assert statuses[(3, 3)] == "obstructed"
    assert statuses[(3, 1, 1, 1)] == "flagged"


def test_certify_seed_changes_details_not_verdict(capsys):
    _, p0 = run_json(["certify", "--n", "6", "--seed", "0"], capsys)
    _, p1 = run_json(["certify", "--n", "6", "--seed", "1"], capsys)
    assert p0["result"]["verdict"] == p1["result"]["verdict"] == "certified"
    s0 = [c["status"] for c in p0["result"]["certificates"]]
    s1 = [c["status"] for c in p1["result"]["certificates"]]
    assert s0 == s1


def test_certify_gram_file(tmp_path, capsys):
    gram = {"dim": 4, "rows": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    code, payload = run_json(["certify", "--n", "3", "--gram", str(path)], capsys)
    assert code == 0
    assert payload["result"]["verdict"] == "certified"


def test_certify_scrambled_gram_file(tmp_path, capsys):
    # signature (3, 1), determinant -144; large entries next to the +-1
    # noise of the period-triple sampler
    rows = [[-19, 127, 73, 115], [127, -185, -91, -451], [73, -91, -43, -253],
            [115, -451, -253, -535]]
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 4, "rows": rows}))
    code, payload = run_json(["certify", "--n", "3", "--seed", "0", "--gram", str(path)], capsys)
    assert code == 0
    assert payload["result"]["verdict"] == "certified"


@pytest.mark.parametrize("rows", [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],  # signature (2, 2)
    [[-2, 1], [1, -2]],  # A2(-1), negative definite
], ids=["signature-2-2", "negative-definite"])
def test_certify_reads_a_grams_signature_only_on_the_lattice_route(tmp_path, capsys, rows):
    # a gram file is checked at every n, but its positive 3-space is read only
    # where a period triple is drawn: at a triangular n >= 3
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": len(rows), "rows": rows}))
    code, payload = run_json(["certify", "--n", "3", "--gram", str(path)], capsys)
    assert (code, payload["status"]) == (1, "error")
    assert payload["error"] == {"type": "ValueError",
                                "message": "surface gram has no positive 3-space"}
    code, payload = run_json(["certify", "--n", "4", "--gram", str(path)], capsys)
    assert (code, payload["status"], payload["result"]["verdict"]) == (0, "ok", "certified")


MALFORMED_GRAMS = {
    "top-level-list": "[[1, 0], [0, 1]]",
    "top-level-number": "7",
    "no-dim": '{"rows": [[1, 0], [0, 1]]}',
    "no-rows": '{"dim": 2}',
    "rows-not-a-list": '{"dim": 2, "rows": 5}',
    "rows-not-lists": '{"dim": 2, "rows": [1, 2]}',
    "non-numeric-entry": '{"dim": 2, "rows": [["a", 0], [0, 1]]}',
    "null-entry": '{"dim": 2, "rows": [[null, 0], [0, 1]]}',
    "nested-entry": '{"dim": 2, "rows": [[[1], 0], [0, 1]]}',
    "zero-denominator": '{"dim": 2, "rows": [["1/0", 0], [0, 1]]}',
    "exponent-string": '{"dim": 2, "rows": [["1e3", 0], [0, 1]]}',
    "float-entry": '{"dim": 2, "rows": [[2.0, 0], [0, 1]]}',
    "bool-entry": '{"dim": 2, "rows": [[true, 0], [0, 1]]}',
    "shape-disagrees-with-dim": '{"dim": 2, "rows": [[1, 0], [0, 1], [0, 0]]}',
    "integer-over-bound": '{"dim": 2, "rows": [[1000001, 0], [0, 1]]}',
    "numerator-over-bound": '{"dim": 2, "rows": [["-1000001/2", 0], [0, 1]]}',
    "denominator-over-bound": '{"dim": 2, "rows": [["1/1000001", 0], [0, 1]]}',
    "not-json": "{not json",
    # past the parser's recursion limit json.load raises RecursionError
    "nested-past-the-recursion-limit": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("command", ["certify", "frobenius"])
@pytest.mark.parametrize("text", MALFORMED_GRAMS.values(), ids=list(MALFORMED_GRAMS))
def test_malformed_gram_file_is_an_error_payload(tmp_path, capsys, command, text):
    path = tmp_path / "gram.json"
    path.write_text(text)
    argv = [command, "--n", "3", "--gram", str(path)]
    if command == "frobenius":
        argv += ["--dimv", "2"]
    code, payload = run_json(argv, capsys)
    assert code == 1
    assert payload["schema"] == SCHEMA
    assert payload["status"] == "error"
    assert payload["error"]["message"]


BAD_ENTRIES = (True, False, 2.0, 0.5, "1e9", "1/0", "5/-1", "1.5", "x", None, [1], [[0]], {},
               -cli.MAX_GRAM_ENTRY - 1, f"7/{cli.MAX_GRAM_ENTRY + 1}")
BAD_DIMS = (True, False, None, "2", [2], {})


@st.composite
def malformed_gram_files(draw):
    # an identity gram of size 1..33 with exactly one defect, as JSON text;
    # size 33 is over the cap and is rejected for that alone
    size = draw(st.integers(1, cli.MAX_GRAM_DIM + 1))
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    data = {"dim": size, "rows": rows}
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    defect = draw(st.sampled_from(("entry", "dim", "dim-type", "row-length", "row-count",
                                   "nested-row", "missing-key", "not-an-object",
                                   "asymmetric", "degenerate")))
    if defect == "entry":
        rows[i][j] = draw(st.sampled_from(BAD_ENTRIES))
    elif defect == "dim":
        data["dim"] = draw(st.integers(-1, 34).filter(lambda d: d != size))
    elif defect == "dim-type":
        data["dim"] = draw(st.sampled_from(BAD_DIMS + (float(size),)))
    elif defect == "row-length":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    elif defect == "row-count":
        if draw(st.booleans()):
            del rows[i]
        else:
            rows.append([0] * size)
    elif defect == "nested-row":
        rows[i] = [rows[i]]
    elif defect == "missing-key":
        del data[draw(st.sampled_from(("dim", "rows")))]
    elif defect == "not-an-object":
        data = draw(st.sampled_from((rows, size, "gram", None, True, [data])))
    elif defect == "asymmetric" and size > 1:
        rows[i][(i + 1) % size] = 1
    else:  # degenerate; also a 1 x 1 "asymmetric" gram
        rows[i] = [0] * size
    return json.dumps(data)


def test_gram_entries_are_bounded_before_they_are_converted():
    bound = cli.MAX_GRAM_ENTRY
    assert bound == 10 ** 6
    for x in (bound, -bound, f"-{bound}/{bound - 1}", f"000{bound}/0{bound}"):
        assert abs(_gram_file.entries([[x]])[0][0]) <= bound
    # over the bound, also with more digits than int() converts by default
    for x in (bound + 1, -bound - 1, f"{bound + 1}", f"1/{bound + 1}", "9" * 5000,
              f"-1/{'9' * 5000}", 10 ** 1000):
        with pytest.raises(ValueError, match=f"<= {bound}"):
            _gram_file.entries([[x]])


def test_gram_entries_are_ints_where_integral():
    # the package's one rule: an int when the denominator divides out, a
    # Fraction otherwise
    [row] = _gram_file.entries([[3, "-4", "6/3", "1/2", "007"]])
    assert row == [3, -4, 2, Fraction(1, 2), 7]
    assert [type(x) for x in row] == [int, int, int, Fraction, int]


# full mode (dim V <= 6) and dimensions-only mode read the gram the same way
GRAM_READERS = (["certify", "--n", "3"], ["frobenius", "--dimv", "2", "--n", "2"],
                ["frobenius", "--dimv", "7", "--n", "2"])


# about 1 s
@settings(derandomize=True, max_examples=120, deadline=None)
@given(text=malformed_gram_files())
@example(text='{"dim": true, "rows": [[1]]}')  # True == 1 passed the shape check
@example(text='{"dim": 1.0, "rows": [[1]]}')
def test_every_malformed_gram_file_ends_in_one_error_payload(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed_gram.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        _gram_file.load(str(path))
    for argv in GRAM_READERS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--gram", str(path), "--json"])
        payload = json.loads(out.getvalue())  # exactly one JSON document
        assert (payload["schema"], payload["status"], code) == (SCHEMA, "error", 1)
        assert err.getvalue() == ""


def test_frobenius_rejects_asymmetric_gram_in_dimensions_only_mode(tmp_path, capsys):
    rows = [[int(i == j) for j in range(7)] for i in range(7)]
    rows[0][1] = 1
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 7, "rows": rows}))
    code, payload = run_json(["frobenius", "--dimv", "7", "--n", "2", "--gram", str(path)],
                             capsys)
    assert code == 1
    assert payload["status"] == "error"


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "3"],
    ["frobenius", "--dimv", "32", "--n", "2"],  # dimensions-only mode
    ["frobenius", "--dimv", "2", "--n", "2"],  # full mode
])
def test_gram_file_over_the_cap_is_rejected_unread(tmp_path, capsys, argv):
    # entries that would fail to parse: the cap is checked before any of them
    dim = cli.MAX_GRAM_DIM + 1
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": dim, "rows": [["1e999999999"] * dim] * dim}))
    code, payload = run_json(argv + ["--gram", str(path)], capsys)
    assert code == 1
    assert payload["status"] == "error"
    assert payload["error"] == {"type": "ValueError",
                                "message": "gram files are capped at dimension 32"}


def test_gram_file_at_the_cap_is_read(tmp_path, capsys):
    dim = cli.MAX_GRAM_DIM
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": dim, "rows": [[int(i == j) for j in range(dim)]
                                                     for i in range(dim)]}))
    code, payload = run_json(["frobenius", "--dimv", str(dim), "--n", "2",
                              "--gram", str(path)], capsys)
    assert code == 0
    assert payload["result"]["mode"] == "dimensions-only"


@pytest.mark.parametrize("argv", [["certify", "--n", "3"],
                                  ["frobenius", "--dimv", "4", "--n", "2"]])
@pytest.mark.parametrize("over", [0, 1], ids=["at-the-cap", "one-over-the-cap"])
def test_gram_file_is_read_up_to_its_character_cap(tmp_path, capsys, argv, over):
    # a valid gram padded with spaces: the file is read no further than one
    # character past the cap, and only a file within the cap is parsed
    text = json.dumps({"dim": 4, "rows": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0],
                                          [0, 0, 0, 2]]})
    path = tmp_path / "gram.json"
    path.write_text(text + " " * (cli.MAX_GRAM_CHARS - len(text) + over))
    code, payload = run_json(argv + ["--gram", str(path)], capsys)
    if over:
        assert (code, payload["status"]) == (1, "error")
        assert payload["error"] == {
            "type": "ValueError",
            "message": f"gram files are capped at {cli.MAX_GRAM_CHARS} characters"}
    else:
        assert (code, payload["status"]) == (0, "ok")


@pytest.mark.parametrize("argv, dim", [
    (["frobenius", "--dimv", "7"], 7),  # dimensions-only mode
    (["frobenius", "--dimv", "2"], 2),  # full mode
    (["certify"], 4),
])
def test_degenerate_gram_is_rejected_in_every_mode(tmp_path, capsys, argv, dim):
    # the zero gram, a rank-one gram with no zero diagonal entry, and a
    # hyperbolic plane beside zero directions, which the check reaches only
    # through the zero-pivot repair.  Each has the report's size (the plane
    # needs 3, and takes --dimv 3 in full mode): frobenius refuses a file of
    # another size before its Gram check
    path = tmp_path / "gram.json"
    plane = max(dim, 3)
    for rows in ([[0] * dim for _ in range(dim)], [[1] * dim for _ in range(dim)],
                 [[int(i + j == 1) for j in range(plane)] for i in range(plane)]):
        path.write_text(json.dumps({"dim": len(rows), "rows": rows}))
        sized = argv[:-1] + [str(len(rows))] if argv[0] == "frobenius" else argv
        code, payload = run_json(sized + ["--n", "2", "--gram", str(path)], capsys)
        assert code == 1
        assert payload["status"] == "error"
        assert payload["error"]["message"] == "gram must be nondegenerate"


def test_frobenius_compares_dimv_before_the_gram_check(monkeypatch, tmp_path, capsys):
    # the file's size against --dimv, before the Gram check's elimination,
    # the costliest step, runs at all; so a file of the wrong size that is
    # also degenerate reads as the wrong size
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[1, 0], [0, 1]]}))

    def eliminate(rows):
        raise RuntimeError("the gram was eliminated")

    monkeypatch.setattr(linalg, "congruence_diagonalize", eliminate)
    for dimv in ("6", "7"):  # a full table and dimensions only
        code, payload = run_json(["frobenius", "--dimv", dimv, "--n", "2", "--gram", str(path)],
                                 capsys)
        assert (code, payload["status"]) == (1, "error")
        assert payload["error"]["message"] == "--dimv disagrees with the gram file"


# the eliminations a report runs on the gram itself: the one symmetric
# elimination of the Gram check, which period triples are also drawn from,
# and no determinant; and the one scaling of the gram to ints that the
# check keeps.  A call counts when its argument has the gram's size and
# entries, written out densely where it is sparse rows, so the determinants
# of the Frobenius pairing matrices do not.
GRAM_ELIMINATIONS = [
    (["certify", "--n", "3", "--gram"], ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)),
     {"det": 0, "congruence_diagonalize": 1, "integral_rows": 1}),
    (["certify", "--n", "3"], None, {"det": 0, "congruence_diagonalize": 1, "integral_rows": 1}),
    (["frobenius", "--dimv", "2", "--n", "2", "--gram"], ((2, 1), (1, -3)),
     {"det": 0, "congruence_diagonalize": 1, "integral_rows": 1}),
]


@pytest.mark.parametrize("argv, rows, expected", GRAM_ELIMINATIONS,
                         ids=["certify-gram", "certify-k3", "frobenius-full-gram"])
def test_each_report_eliminates_the_gram_once(monkeypatch, tmp_path, capsys, argv, rows,
                                              expected):
    if rows is None:
        target = bb_lattice.default_k3_gram()
        bb_lattice.default_k3_gram.cache_clear()  # built, and checked, on first use
    else:
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"dim": len(rows), "rows": rows}))
        argv = argv + [str(path)]
        target = rows
    target = [[Fraction(x) for x in row] for row in target]
    counts = Counter({name: 0 for name in expected})
    for name in expected:
        def spy(a, *rest, _real=getattr(linalg, name), _name=name):
            dense = [[row.get(j, 0) for j in range(len(a))] if isinstance(row, dict) else row
                     for row in a]
            if len(a) == len(target) and [[Fraction(x) for x in row] for row in dense] == target:
                counts[_name] += 1
            return _real(a, *rest)
        monkeypatch.setattr(linalg, name, spy)
    code, payload = run_json(argv, capsys)
    assert (code, payload["status"]) == (0, "ok")
    assert counts == expected


def test_internal_failure_is_its_own_status(monkeypatch, capsys):
    def broken(n, gram=None, seed=0):
        raise RuntimeError("failed to draw a valid period triple")
    monkeypatch.setattr(bb_lattice, "certify_no_trianalytic", broken)
    code, payload = run_json(["certify", "--n", "6"], capsys)
    assert code == 3
    assert payload["schema"] == SCHEMA
    assert payload["status"] == "internal-error"
    assert payload["error"] == {"type": "RuntimeError",
                                "message": "failed to draw a valid period triple"}


def test_a_wrong_delta_entry_ends_in_an_internal_failure(monkeypatch, capsys):
    # the integral view is the one statement of the BB gram, delta's entry
    # included, and the degree-4 functional is read off it: a q(delta) off
    # by one fails f's check on (delta, delta), even with assertions stripped
    integral = bb_lattice.H2Lattice.integral

    def wrong_delta(lat):
        gden, rows = integral.fget(lat)
        return gden, rows[:-1] + (((lat.dim_v, (-2 * (lat.n - 1) - 1) * gden),),)
    monkeypatch.setattr(bb_lattice.H2Lattice, "integral", property(wrong_delta))
    code, payload = run_json(["certify", "--n", "3"], capsys)
    assert code == 3
    assert payload["status"] == "internal-error"
    assert payload["error"] == {
        "type": "RuntimeError",
        "message": "restriction functional does not vanish on (delta, delta)"}


def test_a_basis_that_is_not_positive_ends_in_an_internal_failure(monkeypatch, capsys):
    # three congruence columns with D < 0 span a negative-definite 3-space,
    # so no scale makes the Gram-Schmidt norms positive: the doublings stop
    # at their bound instead of running forever
    def negative_basis(lat):
        negative = [c for c, d in enumerate(lat.gram.diagonal) if d < 0][:3]
        return tuple(tuple(lat.gram.column(c)) for c in negative)
    monkeypatch.setattr(bb_lattice, "_positive_basis", negative_basis)
    with pytest.raises(RuntimeError):
        bb_lattice.random_period_triple(bb_lattice.k3_lattice(3), random.Random(0))
    code, payload = run_json(["certify", "--n", "3"], capsys)
    assert (code, payload["status"]) == (3, "internal-error")
    assert payload["error"]["type"] == "RuntimeError"


def test_a_key_error_is_an_internal_failure(monkeypatch, capsys):
    # no input reaches a KeyError, so one comes only from a defect
    def broken(surface, n):
        raise KeyError((2, 0))
    monkeypatch.setattr(cohomology, "hilbert_stratum_ledger", broken)
    code, payload = run_json(["betti", "--n", "4"], capsys)
    assert (code, payload["status"]) == (3, "internal-error")
    assert payload["error"] == {"type": "KeyError", "message": "(2, 0)"}


def _bump_total(degree):
    """A defect in the Betti table: one more class in the given degree."""
    def inject(monkeypatch):
        real = cohomology.StratumLedger.total

        def total(self):
            betti = list(real(self).betti)
            betti[degree] += 1
            return cohomology.PoincarePolynomial(tuple(betti))
        monkeypatch.setattr(cohomology.StratumLedger, "total", total)
    return inject


def _drop_degree_2_entry(monkeypatch):
    real = cohomology.StratumLedger.entries_in_degree
    monkeypatch.setattr(cohomology.StratumLedger, "entries_in_degree",
                        lambda self, i: real(self, i)[1:])


def _h4_not_obstructed(monkeypatch):
    monkeypatch.setattr(bb_lattice, "h4_obstruction", lambda triple: False)


def _zero_pairing_row(monkeypatch):
    real = frobenius.FrobeniusAlgebra.pairing_matrix

    def pairing_matrix(self, i):
        m = real(self, i)
        m[0] = [0] * len(m[0])
        return m
    monkeypatch.setattr(frobenius.FrobeniusAlgebra, "pairing_matrix", pairing_matrix)


def _flip_a_normal_form(monkeypatch):
    real = frobenius.FrobeniusAlgebra._build

    def build(self):
        real(self)
        forms = self._forms[self.n + 1]
        mono = next(m for m, form in forms.items() if form)
        forms[mono] = tuple((t, -x) for t, x in forms[mono])
    monkeypatch.setattr(frobenius.FrobeniusAlgebra, "_build", build)


def _add_a_non_suffix_ideal(monkeypatch):
    real = invariant_ideals.classify_invariant_ideals
    monkeypatch.setattr(invariant_ideals, "classify_invariant_ideals",
                        lambda n: real(n) + (invariant_ideals.InvariantIdeal(n, (1, n - 1)),))


def _drop_an_ideal(monkeypatch):
    real = invariant_ideals.classify_invariant_ideals
    monkeypatch.setattr(invariant_ideals, "classify_invariant_ideals", lambda n: real(n)[1:])


def _symmetric_wrong_pattern(monkeypatch):
    # palindromic, so only the recount from the harmonic dimensions fails it
    monkeypatch.setattr(frobenius, "algebra_dimension_pattern",
                        lambda dim_v, n: (1, 24, 276, 24, 1))


def _fiber_dimension_off_by_one(monkeypatch):
    real = partitions.fiber_dimension
    monkeypatch.setattr(partitions, "fiber_dimension", lambda diagram: real(diagram) + 1)


def _no_staircase_rows(monkeypatch):
    monkeypatch.setattr(invariant_ideals, "_staircase_rows", lambda previous, remaining: ())


# each printed check that a defect in its computation can fail: the report,
# and the defect injected (None where the input alone fails the check)
FAILABLE_CHECKS = {
    "b0-is-1": (["betti", "--n", "2"], _bump_total(0)),
    "odd-degrees-vanish": (["betti", "--n", "2"], _bump_total(1)),
    "b2-is-surface-b2-plus-1": (["betti", "--n", "2"], _bump_total(2)),
    "degree-2-ledger-has-two-strata": (["betti", "--n", "2"], _drop_degree_2_entry),
    "poincare-duality": (["betti", "--n", "3", "--surface", "1,0,5"], None),
    "verdict-certified": (["certify", "--n", "3"], _h4_not_obstructed),
    "pairing-nondegenerate": (["frobenius", "--dimv", "2", "--n", "2"], _zero_pairing_row),
    "associative": (["frobenius", "--dimv", "2", "--n", "2"], _flip_a_normal_form),
    "every-invariant-ideal-is-a-power-of-m": (["ideals", "--N", "5"], _add_a_non_suffix_ideal),
    "count-is-N-minus-1": (["ideals", "--N", "5"], _drop_an_ideal),
    # dimensions only: the full build checks the pattern itself
    "dimension-pattern-palindromic": (["frobenius", "--dimv", "23", "--n", "2"],
                                      _symmetric_wrong_pattern),
    # one side of each comparison: a defect in the parts both sides read, or
    # in `is_triangular`, still goes unseen (ROADMAP item 6)
    "semismall-equality-all-strata": (["strata", "--n", "3"], _fiber_dimension_off_by_one),
    "unique-fixed-point-iff-triangular": (["punctual", "--i", "6"], _no_staircase_rows),
}


@pytest.mark.parametrize("name", FAILABLE_CHECKS)
def test_each_failable_check_is_seen_failing(monkeypatch, capsys, name):
    argv, inject = FAILABLE_CHECKS[name]
    if inject is not None:
        inject(monkeypatch)
    code, payload = run_json(argv, capsys)
    assert (code, payload["status"]) == (1, "failed")
    assert {c["name"]: c["ok"] for c in payload["checks"]}[name] is False


def test_every_printed_check_is_in_the_failable_table(capsys):
    # one in-range run of each report, with `frobenius` in both modes
    argvs = [["betti", "--n", "2"], ["strata", "--n", "3"], ["certify", "--n", "3"],
             ["frobenius", "--dimv", "2", "--n", "2"], ["frobenius", "--dimv", "23", "--n", "2"],
             ["ideals", "--N", "5"], ["punctual", "--i", "6"]]
    names = {c["name"] for argv in argvs for c in run_json(argv, capsys)[1]["checks"]}
    assert len(names) == 13
    assert names == set(FAILABLE_CHECKS)


# two patterns whose entries 0..n are those of (23, 2): one is not a
# palindrome, and the other is a palindrome one entry too long
@pytest.mark.parametrize("pattern", [(1, 23, 276, 24, 1), (1, 23, 276, 276, 23, 1)],
                         ids=["asymmetric", "long"])
def test_a_pattern_right_up_to_the_middle_can_fail_its_check(monkeypatch, capsys, pattern):
    monkeypatch.setattr(frobenius, "algebra_dimension_pattern", lambda dim_v, n: pattern)
    code, payload = run_json(["frobenius", "--dimv", "23", "--n", "2"], capsys)
    assert (code, payload["status"]) == (1, "failed")
    assert payload["checks"] == [{"name": "dimension-pattern-palindromic", "ok": False}]


class SameDraws(random.Random):
    """A Random whose every randint is its lower bound: each period-triple
    draw mixes the positive basis three times alike, a singular mix."""

    def randint(self, a, b):
        return a


def test_singular_mixes_in_every_draw_end_in_an_internal_failure(monkeypatch, capsys):
    # the mixes are redrawn at most 256 times, then the draw gives up
    message = "failed to draw a valid period triple"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        bb_lattice.random_period_triple(bb_lattice.k3_lattice(3), SameDraws(0))
    monkeypatch.setattr(bb_lattice.random, "Random", SameDraws)
    code, payload = run_json(["certify", "--n", "3"], capsys)
    assert (code, payload["status"]) == (3, "internal-error")
    assert payload["error"] == {"type": "RuntimeError", "message": message}


def test_an_su2_check_that_disagrees_with_the_closed_form_is_an_internal_failure(
        monkeypatch, capsys):
    # the degree-4 verdict is reached twice, so a defect in the su(2) check
    # that calls f invariant ends the report instead of failing its check
    monkeypatch.setattr(bb_lattice, "is_su2_invariant", lambda form, triple: True)
    code, payload = run_json(["certify", "--n", "3"], capsys)
    assert (code, payload["status"]) == (3, "internal-error")
    assert payload["error"]["type"] == "RuntimeError"


# a defect ahead of each internal check of `invariant_ideals`, the message
# that check raises, and the report that reaches it
IDEAL_GUARDS = {
    # e sending x^a y^b to b x^(a+b) kills one monomial of each slice but is
    # not injective on the others, first in degree 2
    "slice-certificate": (
        ["ideals", "--N", "4"], "_act_e", lambda a, b: (b, (a + b, 0)) if b else None,
        "degree 2 slice failed its irreducibility certificate"),
    "ideal-recheck": (
        ["ideals", "--N", "4"], "_closed_under_e_and_f", lambda cells: False,
        "recheck failed for support (1, 2, 3)"),
    # a stable staircase of the wrong colength passes the operators
    "colength-recheck": (
        ["punctual", "--i", "6"], "partitions_of", lambda n, rows: iter([(2, 1)]),
        "colength recheck failed"),
}


@pytest.mark.parametrize("name", list(IDEAL_GUARDS))
def test_each_ideal_guard_ends_in_an_internal_failure(monkeypatch, capsys, name):
    argv, attribute, defect, message = IDEAL_GUARDS[name]
    monkeypatch.setattr(invariant_ideals, attribute, defect)
    code, payload = run_json(argv, capsys)
    assert (code, payload["status"]) == (3, "internal-error")
    assert payload["error"] == {"type": "RuntimeError", "message": message}


def test_certify_rejects_bad_n(capsys):
    code, payload = run_json(["certify", "--n", "0"], capsys)
    assert code == 1
    assert payload["status"] == "error"


def test_certify_over_budget_is_error(capsys):
    code, payload = run_json(["certify", "--n", "1000000000000"], capsys)
    assert code == 1
    assert payload["status"] == "error"
    assert payload["error"]["type"] == "ValueError"


# each stratum report, its cap and the message naming that cap
STRATUM_CAPS = {
    "betti": (cohomology.MAX_BETTI_N, f"Betti tables capped at n = {cohomology.MAX_BETTI_N}"),
    "strata": (cohomology.MAX_STRATA_N,
               f"stratum tables capped at n = {cohomology.MAX_STRATA_N}"),
}


@pytest.mark.parametrize("n, command", [(n, command) for command, (cap, _) in STRATUM_CAPS.items()
                                        for n in (cap + 1, 1000000000000)])
def test_stratum_reports_over_budget_are_errors(capsys, command, n):
    code, payload = run_json([command, "--n", str(n)], capsys)
    assert code == 1
    assert payload["status"] == "error"
    assert payload["error"] == {"type": "ValueError", "message": STRATUM_CAPS[command][1]}


# the integer arguments of every report: (flag, cap), every bounded value
# ranging over 1..cap; seeds take any integer, --max-degree any n >= 0
INTEGER_ARGUMENTS = {
    "betti": (("--n", cohomology.MAX_BETTI_N), ("--max-degree", None)),
    "strata": (("--n", cohomology.MAX_STRATA_N),),
    "certify": (("--n", bb_lattice.MAX_POINTS), ("--seed", None)),
    "ideals": (("--N", invariant_ideals.MAX_TRUNCATION),),
    "punctual": (("--i", invariant_ideals.MAX_COLENGTH),),
    "frobenius": (("--dimv", frobenius.MAX_PATTERN_DIM_V), ("--n", frobenius.MAX_PATTERN_N)),
}


def edge_values(cap):
    # in range only up to 3, where every report takes well under 0.1 s, and
    # just over the cap where there is one
    over = (cap + 1,) if cap is not None else ()
    return st.sampled_from((-10 ** 12, -1, 0, 1, 2, 3) + over + (10 ** 12,))


# 300 derandomized examples reach all 200 combinations, in about 1 s
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(INTEGER_ARGUMENTS)))
def test_every_integer_argument_edge_ends_in_one_payload(data, command):
    argv, in_range = [command], True
    for flag, cap in INTEGER_ARGUMENTS[command]:
        value = data.draw(edge_values(cap), label=flag)
        argv += [flag, str(value)]
        if flag == "--max-degree":
            in_range = in_range and value >= 0
        elif cap is not None:
            in_range = in_range and 1 <= value <= cap
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    payload = json.loads(out.getvalue())  # exactly one JSON document
    assert payload["schema"] == SCHEMA
    assert payload["command"] == command
    assert (payload["status"], code) == (("ok", 0) if in_range else ("error", 1))
    if not in_range:
        assert payload["error"]["type"] == "ValueError"


def test_ideals_command(capsys):
    code, payload = run_json(["ideals", "--N", "6"], capsys)
    assert code == 0
    powers = [i["maximal_ideal_power"] for i in payload["result"]["ideals"]]
    assert powers == [1, 2, 3, 4, 5]
    assert all(c["ok"] for c in payload["checks"])


def test_ideals_over_cap_is_error(capsys):
    code, payload = run_json(["ideals", "--N", str(invariant_ideals.MAX_TRUNCATION + 1)], capsys)
    assert code == 1
    assert payload["status"] == "error"


def test_punctual_command(capsys):
    code, payload = run_json(["punctual", "--i", "6"], capsys)
    assert code == 0
    points = payload["result"]["fixed_points"]
    assert [p["staircase"] for p in points] == [[3, 2, 1]]
    assert points[0]["generators"] == [[3, 0], [2, 1], [1, 2], [0, 3]]
    code, payload = run_json(["punctual", "--i", "5"], capsys)
    assert code == 0
    assert payload["result"]["fixed_points"] == []


def test_punctual_over_budget_is_error(capsys):
    code, payload = run_json(["punctual", "--i", "1000000000000"], capsys)
    assert code == 1
    assert payload["status"] == "error"
    assert payload["error"]["type"] == "ValueError"


def output_digest(argvs, capsys):
    # SHA-256 over the concatenated stdout of the reports, each exiting 0
    digest = hashlib.sha256()
    for argv in argvs:
        code, out = run(argv, capsys)
        assert code == 0
        digest.update(out.encode())
    return digest.hexdigest()


def test_punctual_output_bytes_are_pinned(capsys):
    # `punctual --i i --json`, i = 1..45, as printed by the exhaustive scan
    # over all p(i) partitions
    assert output_digest([["punctual", "--i", str(i), "--json"] for i in range(1, 46)],
                         capsys) == (
        "321c13aa8dd13fdb9777ab7766b25d92df1a43b0a0c291ee03ef4beaf913922f")


def test_certify_output_bytes_are_pinned(capsys):
    # `certify --n n --seed 3 --json`, n = 1..45, as printed by the audit
    # over all p(n) diagrams
    assert output_digest([["certify", "--n", str(n), "--seed", "3", "--json"]
                          for n in range(1, 46)], capsys) == (
        "e96f1f51665c9ed30ceaf8eed08f93c69b80f5adbc27355cce9022acd56da570")


GATE_GRAM_DIGESTS = {
    "bound32": "d47575941746707a1826e8f52c9b23b0369964e87b7bdc6b4a8e0b9541759b0a",
    "last32": "758c313fe94638542f7c6e1ef8e8ea7458cc3ec76acf11671033e14a0548b110",
    "sparse32": "d8f3e56354a6cebc7102daf3b8367a3152ad0d83bfe652cabc71dce68b928968",
    "int32": "1e7e70e6e217c6b0a83bbf09e1843f9bf534f873c659de1f00400954ffad7d59",
    "dev": "cad5e44b5bf4de06e800f547548baf3787c5f36df31ad6a4d7e02e0826817dbc",
    "rational5": "9b4e0dd21da8dc0349a8b868187b350b30853bf4c86c06420e44bf3488267ee3",
    "rational6": "701b065ed0379d1eab57bd8f3805d8d1b29d0cfa724f4db2db83b439a49f7daa",
}


def test_gate_gram_files_are_pinned(tmp_path):
    # every gram file CI's gates read, written as the workflow writes it: a
    # changed draw fails here, not only in CI
    paths = [tmp_path / f"{name}.json" for name in GATE_GRAM_DIGESTS]
    write_gate_grams(paths)
    assert {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == GATE_GRAM_DIGESTS


def test_certify_bytes_are_pinned_past_the_default_pins(tmp_path, monkeypatch, capsys):
    # `certify --seed 3` in both formats where the pins above stop: near the
    # cap on the default gram, on a 4 x 4 gram of signature (3, 1) with a
    # p/q entry, and with each simple route made to leave its candidate
    # not obstructed (verdict inconclusive, exit 1); the exit code of every
    # report is hashed too
    monkeypatch.chdir(tmp_path)
    write_gate_grams([tmp_path / "dev.json"])
    argvs = [["certify", "--n", str(n)] for n in (91, 100)]
    argvs += [["certify", "--n", str(n), "--gram", "dev.json"] for n in (3, 6, 10, 28, 91)]
    digest = hashlib.sha256()

    def update(argvs):
        for argv in argvs:
            for fmt in ("--json", "--table"):
                code, out = run(argv + ["--seed", "3", fmt], capsys)
                digest.update(f"{code}\n{out}".encode())
    update(argvs)
    for name, value in (("obstruction_coefficient", Fraction(0)), ("h4_obstruction", False)):
        with monkeypatch.context() as patch:
            patch.setattr(bb_lattice, name, lambda *args: value)
            update([["certify", "--n", "6"]])
    assert digest.hexdigest() == (
        "efe1b5f45f806a0697963beafcadfe8707ece787875ee41b5aa87e7507c75fdb")


def test_ideals_output_bytes_are_pinned(capsys):
    # `ideals --N N --json`, N = 1..12, as printed by the sweep over all 2^N
    # degree supports
    assert output_digest([["ideals", "--N", str(n), "--json"] for n in range(1, 13)],
                         capsys) == (
        "9de9b260cfb2ac2f93051658b71238e0d50fd32c156353f1559079162407f020")


def frobenius_gram_argvs(tmp_path, cells, kinds):
    # `frobenius --dimv d --n n --gram G --json` per cell and gram kind, the
    # grams written to files under tmp_path; relative gram paths, since the
    # payload echoes them
    argvs = []
    for dim, n in cells:
        for kind, rows in frobenius_grams(dim).items():
            if kind not in kinds:
                continue
            path = f"{kind}{dim}.json"
            entries = [list(map(pq_text, row)) for row in rows]
            (tmp_path / path).write_text(json.dumps({"dim": dim, "rows": entries}))
            argvs.append(["frobenius", "--dimv", str(dim), "--n", str(n),
                          "--gram", path, "--json"])
    return argvs


def test_frobenius_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # every benchmark cell on the three gram kinds, as printed by the check
    # over all basis triples
    monkeypatch.chdir(tmp_path)
    argvs = frobenius_gram_argvs(tmp_path, FROBENIUS_CELLS, ("identity", "diagonal", "rational"))
    assert output_digest(argvs, capsys) == (
        "d21682310b629ef175c14d72ae06a14bc90d8a607ce2f349248c81958d854e45")


def test_largest_frobenius_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # the full-table cells outside the benchmark deck, on the identity and
    # diagonal grams, as printed by the dense build
    monkeypatch.chdir(tmp_path)
    argvs = frobenius_gram_argvs(tmp_path, ((5, 4), (6, 3), (6, 4)), ("identity", "diagonal"))
    assert output_digest(argvs, capsys) == (
        "b7f6f78f6394c7a71e300deeb857ec52acdb2ea4cb0ff875e683f15860c770f3")


STRATUM_SURFACES = (None, "1,0,1", "1,7,1", "1,2,3")


def test_stratum_output_bytes_are_pinned(capsys):
    # `betti --json` for n = 1..32 with --max-degree none, 2 and 4n - 2, and
    # `strata --json` for n = 1..22, on four surfaces, as printed by the
    # per-stratum sum over all p(n) diagrams; the exit code of every report
    # is hashed too, since some surfaces fail the degree-2 or duality checks
    digest = hashlib.sha256()
    for surface in STRATUM_SURFACES:
        extra = ["--surface", surface] if surface else []
        argvs = [["betti", "--n", str(n), "--json"] + extra + cut
                 for n in range(1, 33)
                 for cut in ([], ["--max-degree", "2"], ["--max-degree", str(4 * n - 2)])]
        argvs += [["strata", "--n", str(n), "--json"] + extra for n in range(1, 23)]
        for argv in argvs:
            code, out = run(argv, capsys)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "359f8b2730799d75247f6a28e1a3ebe398cad0d993620106b693e6c60e570ab0")


@pytest.mark.parametrize("surface", [None, "1,0,0", "1,6,1", "1,1000000,1"], ids=str)
def test_stratum_bytes_match_the_dict_row_oracle(capsys, surface):
    # each polynomial's text is rendered once per signature; the oracle
    # renders one dict row per stratum, in both output formats
    extra = ["--surface", surface] if surface else []
    for n in range(1, 26):
        for fmt in ("--json", "--table"):
            code, out = run(["strata", "--n", str(n), fmt] + extra, capsys)
            assert code == 0
            assert out == strata_report(n, surface, as_json=fmt == "--json")


def test_stratum_bytes_match_the_dict_row_oracle_at_the_cap(capsys):
    n = cohomology.MAX_STRATA_N
    for fmt in ("--json", "--table"):
        code, out = run(["strata", "--n", str(n), fmt], capsys)
        assert code == 0
        assert out == strata_report(n, as_json=fmt == "--json")


def test_ideals_bytes_match_the_ring_route(capsys):
    for n in range(1, 13):
        code, out = run(["ideals", "--N", str(n), "--json"], capsys)
        assert code == 0
        assert out == ideals_report(n), n


def test_table_output_bytes_are_pinned(capsys):
    # every report in --table mode, which prints record fields in the order
    # the record defines them (the --json pins sort keys, so cannot see it);
    # the exit code of every report is hashed too
    argvs = [["certify", "--n", str(n), "--seed", "3"] for n in range(1, 31)]
    argvs += [["punctual", "--i", str(i)] for i in range(1, 46)]
    argvs += [["ideals", "--N", str(n)] for n in range(1, 13)]
    for extra in ([], ["--surface", "1,7,1"]):
        argvs += [["betti", "--n", str(n)] + extra for n in range(1, 13)]
        argvs += [["strata", "--n", str(n)] + extra for n in range(1, 11)]
    argvs += [["frobenius", "--dimv", str(dim), "--n", str(n)] for dim, n in FROBENIUS_CELLS]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out = run(argv + ["--table"], capsys)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "43431895a3a2fa2753f5ae0f365b954c2410f2f9504bc862e9c43fdee5da5261")


# report payload trees of the types `_plain` produces: bools among ints, ints
# of hundreds of digits, empty and nested containers, with keys and strings
# drawn from one of each class `_quote` treats differently (empty, printable
# ASCII, '"', backslash, DEL, C0 controls, non-ASCII, lone surrogates); every
# key and every string goes through `_quote` wherever it sits, so the
# all-category text is drawn once, in the string test below
_STRINGS = st.sampled_from(["", "a", "B", " ~", "x y", "\"", "\\", "\x7f", "\x00", "\t", "\n",
                            "\x1f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff",
                            "a\"b\\c\x01\u00f1\ud800"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-10 ** 300, 10 ** 300) | _STRINGS)
_PAYLOADS = st.dictionaries(_STRINGS, st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(_STRINGS, inner, max_size=6),
    max_leaves=40), max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
@example(payload={"\u00f1\x00\ud800": ["\x1f", "\u00e9", "\udfff", ""], "mixed": [1, True, False, 0],
                  "empty": [[], {}, [[]], [{}]], "ints": [-1, 0, -(10 ** 299), 10 ** 299],
                  "nested": [[1, 2], [3, [4, None]]], "z": {"b": 1, "a": {"": None}}})
# printable ASCII is quoted without the standard encoder; '"', backslash and DEL are not
@example(payload={"a\"b": ["\\", "\x7f", " ~", "", "x\\y"], "\"": "'", "\\": "\t"})
def test_json_emitter_matches_the_standard_encoder(payload):
    assert cli._json(payload, "") == json_report(payload)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.text(st.characters(exclude_categories=()), max_size=8))
def test_json_emitter_quotes_strings_as_the_standard_encoder(text):
    payload = {text: [text]}
    assert cli._json(payload, "") == json_report(payload)


@pytest.mark.parametrize("payload", [{"x": 1.5}, {"x": [1, 2.0]}, {"x": (1, 2)}, {1: 2},
                                     {"x": [{"a": 1, 2: 3}]}],
                         ids=["float", "float-in-int-list", "tuple", "int-key", "mixed-keys"])
def test_json_emitter_rejects_other_types(payload):
    with pytest.raises(TypeError):
        cli._json(payload, "")


@pytest.mark.parametrize("obj", [0.5, {1}, {"x": 1}], ids=["float", "set", "dict"])
def test_plain_refuses_types_it_does_not_serialize(obj):
    with pytest.raises(TypeError, match=f"^cannot serialize {type(obj).__name__}$"):
        cli._plain(obj)


def test_a_gram_path_that_is_not_a_regular_file_is_refused(tmp_path, capsys):
    # a FIFO with no writer would block open(); the report runs in a child
    # process, so that a block fails this test instead of hanging the suite
    fifo = tmp_path / "gram.fifo"
    os.mkfifo(fifo)
    src = os.path.dirname(os.path.dirname(hilbk3.__file__))
    proc = subprocess.run([sys.executable, "-m", "hilbk3", "certify", "--n", "3", "--gram",
                           str(fifo), "--json"], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=30, check=False)
    refused = {"type": "ValueError", "message": "gram file must be a regular file"}
    payload = json.loads(proc.stdout)
    assert (proc.returncode, payload["status"], payload["error"]) == (1, "error", refused)
    code, payload = run_json(["certify", "--n", "3", "--gram", str(tmp_path)], capsys)
    assert (code, payload["status"], payload["error"]) == (1, "error", refused)


def test_error_payload_quoting_a_non_ascii_path_stays_ascii(tmp_path, monkeypatch, capsys):
    # json.dumps escapes every non-ASCII character by default, so the
    # emitter must too
    monkeypatch.chdir(tmp_path)
    code, out = run(["certify", "--n", "3", "--gram", "\u00f1/missing.json", "--json"], capsys)
    payload = json.loads(out)
    assert (code, payload["status"], payload["error"]["type"]) == (1, "error",
                                                                    "FileNotFoundError")
    assert "\u00f1/missing.json" in payload["error"]["message"]
    assert out == json_report(payload) + "\n"
    assert out.isascii()


def test_frobenius_command_full(capsys):
    code, payload = run_json(["frobenius", "--dimv", "2", "--n", "2"], capsys)
    assert code == 0
    assert payload["result"]["dimensions"] == [1, 2, 3, 2, 1]
    names = {c["name"] for c in payload["checks"]}
    assert "pairing-nondegenerate" in names
    assert "associative" in names


@pytest.mark.parametrize("dimv, n", [
    (frobenius.MAX_PATTERN_DIM_V + 1, 2),
    (23, frobenius.MAX_PATTERN_N + 1),
    (23, 1000000000000),
])
def test_frobenius_over_budget_is_error(capsys, dimv, n):
    # the budget is checked before the gram file, which here does not exist
    code, payload = run_json(["frobenius", "--dimv", str(dimv), "--n", str(n),
                              "--gram", "missing.json"], capsys)
    assert code == 1
    assert payload["status"] == "error"
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith("dimension patterns capped")


def test_frobenius_command_dimensions_only(capsys):
    code, payload = run_json(["frobenius", "--dimv", "23", "--n", "2"], capsys)
    assert code == 0
    assert payload["result"]["dimensions"] == [1, 23, 276, 23, 1]
    assert payload["result"]["mode"] == "dimensions-only"


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobble"])


@functools.cache
def _parsers():
    return reference_parser(), cli._argparser()


def _parsed(parser, argv):
    """(the ordered namespace items or the exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(parser.parse_args(argv)).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# values the direct reader takes, and values it leaves to argparse: negative,
# starting with "-", or ones that int() reads in its own way or not at all
_VALUES = {int: st.integers(0, 10 ** 6).map(str),
           str: st.sampled_from(("1,5,1", "g.json", "a b", "", " "))}
_ODD_VALUES = st.integers(-10 ** 6, -1).map(str) | st.sampled_from(
    ("1_000", " 7", "+4", "007", "", "-", "x", "1.5", "--n", "-1,2,1", "--json", "-x"))
# prefixes argparse completes, prefixes it finds ambiguous, and help
_ABBREVIATIONS = ("--j", "--ta", "--s", "--su", "--se", "--max", "--g", "--d", "--", "-n", "-h")


@st.composite
def command_lines(draw):
    """A well-formed command line, then up to three edits that may spoil it."""
    command = draw(st.sampled_from(sorted(cli._REPORTS)))
    options = cli._REPORTS[command][1]
    words = [[flag, draw(_VALUES[kind])]
             for flag, (kind, _, required, _) in options.items() if required or draw(st.booleans())]
    words += [[flag] for flag in draw(st.sampled_from(([], ["--json"], ["--table"])))]
    words = draw(st.permutations(words))
    flags = sorted(set(cli._FORMATS) | {flag for _, o in cli._REPORTS.values() for flag in o})
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "repeat", "rename", "value", "abbreviate",
                                     "equals", "insert", "command")))
        at = draw(st.integers(0, len(words)))
        word = words[at] if at < len(words) else None
        if edit == "drop" and word:
            del words[at]
        elif edit == "repeat" and word:
            words.insert(draw(st.integers(0, len(words))), list(word))
        elif edit == "rename" and word:
            # a repeated option in place of a missing one
            word[0] = draw(st.sampled_from(sorted(options)))
        elif edit == "value" and word and len(word) == 2:
            word[1] = draw(_ODD_VALUES)
        elif edit == "abbreviate" and word:
            word[0] = word[0][:draw(st.integers(1, len(word[0])))]
        elif edit == "equals" and word and len(word) == 2:
            words[at] = [f"{word[0]}={word[1]}"]
        elif edit == "insert":
            words.insert(at, [draw(st.sampled_from(flags + list(_ABBREVIATIONS)) | _ODD_VALUES)])
        elif edit == "command":
            command = draw(st.sampled_from(sorted(cli._REPORTS) + ["frobble", "bett"]))
    return [command] + [token for word in words for token in word]


# about 2.5 s; the examples are the mutants of the direct reader this must catch
@settings(derandomize=True, max_examples=500, deadline=None)
@given(argv=command_lines())
@example(argv=["betti", "--n", "2", "--surface", "-1,2,1"])  # a value starting with "-"
@example(argv=["frobenius", "--n", "2", "--n", "3"])  # a repeated option
@example(argv=["certify", "--seed", "4", "--n", "3", "--json"])  # the namespace's key order
def test_direct_reader_agrees_with_the_reference_parser(argv):
    reference, fallback = _parsers()
    expected = _parsed(reference, argv)
    assert _parsed(fallback, argv) == expected
    direct = cli._parse(argv)
    if direct is not None:
        assert list(vars(direct).items()) == expected[0]


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in cli._REPORTS] + [
    ["frobble"], ["betti"], ["betti", "--n", "x"], ["betti", "--json", "--table", "--n", "2"],
    ["betti", "--n", "3", "--surface", "-1,2,1"]], ids=" ".join)
def test_help_and_usage_errors_are_the_reference_parsers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        reference_parser().parse_args(argv)
    expected = (exc.value.code, *capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == expected
    assert expected[0] == (0 if "--help" in argv else 2)


def test_package_exports_are_pinned():
    assert sorted(hilbk3.__all__) == sorted([
        "SurfaceBetti", "hilbert_stratum_ledger", "hilbert_strata", "diagonal_poincare",
        "diagrams_of", "codim_diagonal", "fiber_dimension", "verify_semismall",
        "is_triangular", "certify_no_trianalytic", "classify_invariant_ideals",
        "punctual_fixed_points", "algebra_dimension_pattern", "build_algebra",
        "trianalytic_candidates", "obstruction_coefficient", "default_k3_gram",
        "k3_lattice", "random_period_triple", "h4_obstruction", "is_su2_invariant", "bb_pair",
        "PoincarePolynomial", "StratumLedger",
        "H2Lattice", "PeriodTriple", "CandidateCertificate",
        "CertificationReport", "FrobeniusAlgebra", "InvariantIdeal", "MonomialIdeal",
    ])
    assert len(set(hilbk3.__all__)) == len(hilbk3.__all__)
    assert all(hasattr(hilbk3, name) for name in hilbk3.__all__)


def test_package_namespace_resolves_names_on_first_use():
    with pytest.raises(AttributeError):
        hilbk3.no_such_name  # noqa: B018
    assert set(hilbk3.__all__) <= set(dir(hilbk3))
    namespace: dict = {}
    exec("from hilbk3 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hilbk3.__all__)
    for name, obj in namespace.items():
        assert obj.__module__.startswith("hilbk3."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


# the hilbk3 modules each report loads, in a fresh interpreter started the
# way the console script starts it; GRAM stands for a gram file the test writes
GRAM = "<gram file>"
_LOADED_BY = {
    (): {"hilbk3"},
    ("frobenius", "--dimv", "2", "--n", "2"): {"hilbk3", "cli", "_frobenius_report", "frobenius",
                                               "linalg"},
    # the staircase walk and the slice certificates eliminate nothing: they
    # read e on single monomials, so neither report loads the linear algebra
    ("punctual", "--i", "6"): {"hilbk3", "cli", "invariant_ideals", "partitions"},
    ("ideals", "--N", "4"): {"hilbk3", "cli", "invariant_ideals", "partitions"},
    ("certify", "--n", "3"): {"hilbk3", "cli", "bb_lattice", "partitions", "linalg"},
    # off the triangular n no candidate needs a lattice
    ("certify", "--n", "7"): {"hilbk3", "cli", "bb_lattice", "partitions"},
    # the gram file is bounded and checked without the Frobenius layer
    ("certify", "--n", "3", "--gram", GRAM): {"hilbk3", "cli", "_gram_file", "bb_lattice",
                                              "partitions", "linalg"},
    ("betti", "--n", "3"): {"hilbk3", "cli", "_stratum_reports", "cohomology", "partitions"},
    ("strata", "--n", "3"): {"hilbk3", "cli", "_stratum_reports", "cohomology", "partitions"},
}

_LOADED_SCRIPT = """
import sys
argv = sys.argv[1:]
if argv:
    from hilbk3.cli import main
    code = main(argv + ["--json"])
else:
    import hilbk3
    code = 0
loaded = sorted(m.partition(".")[2] or m for m in sys.modules if m.split(".")[0] == "hilbk3")
unwanted = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale",
            "json", "re", "__future__")
print(code, ",".join(name for name in unwanted if name in sys.modules) or "-", *loaded,
      file=sys.stderr)
"""

# the reports that read no rational: no `fractions`, nor the `decimal` it imports
_NO_FRACTIONS = {(), ("betti", "--n", "3"), ("strata", "--n", "3"), ("punctual", "--i", "6"),
                 ("ideals", "--N", "4")}


def _loaded(argv, tmp_path, *options):
    """(exit code, the unwanted modules loaded, the hilbk3 modules loaded)."""
    src = os.path.dirname(os.path.dirname(hilbk3.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    args = list(argv)
    if GRAM in args:
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"dim": 4, "rows": [[0, 1, 0, 0], [1, 0, 0, 0],
                                                       [0, 0, 2, 0], [0, 0, 0, 2]]}))
        args[args.index(GRAM)] = str(path)
    proc = subprocess.run([sys.executable, *options, "-c", _LOADED_SCRIPT, *args], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    code, unwanted, *loaded = proc.stderr.split()
    return code, set(unwanted.split(",")), set(loaded)


def _loaded_id(argv):
    if not argv:
        return "import"
    if GRAM in argv:
        return argv[0] + "-gram"
    return argv[0] + "-pullback" if argv == ("certify", "--n", "7") else argv[0]


@pytest.mark.parametrize("argv", list(_LOADED_BY), ids=_loaded_id)
def test_each_report_imports_only_its_layers(argv, tmp_path):
    code, unwanted, loaded = _loaded(argv, tmp_path)
    assert code == "0"
    assert loaded == _LOADED_BY[argv]
    # the value types are named tuples: no report pays for `dataclasses`
    # and the `inspect`, `ast`, `dis` and `tokenize` it imports
    assert not unwanted & {"dataclasses", "inspect"}
    if argv in _NO_FRACTIONS:
        assert not unwanted & {"fractions", "decimal"}
    # well-formed argv is read without `argparse` and the `gettext` and
    # `locale` it loads, and only a gram file is read with `json`
    assert not unwanted & {"argparse", "gettext", "locale"}
    if GRAM not in argv:
        assert "json" not in unwanted
    # annotations are evaluated where they stand: no module defers them
    assert "__future__" not in unwanted


@pytest.mark.parametrize("argv", sorted(_NO_FRACTIONS - {()}), ids=lambda a: a[0])
def test_reports_without_rationals_load_no_regular_expressions(argv, tmp_path):
    # `site` may import `re` itself, so the interpreter starts without it
    code, unwanted, _ = _loaded(argv, tmp_path, "-S")
    assert code == "0"
    assert "re" not in unwanted
