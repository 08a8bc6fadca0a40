"""Self-tests of the benchmark: python3 -m pytest benchmarks (from the repository root)."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_reports(workload):
    a, b = workloads.build(workload, 7), workloads.build(workload, 7)
    assert a.reports == b.reports
    assert a.grams == b.grams
    assert a.reports != workloads.build(workload, 8).reports


def test_grams_have_the_constructed_signature():
    plan = workloads.build("certify_sweep", 3)
    assert {g.family for g in plan.grams.values()} == {"block-sum", "scrambled"}
    for gram in plan.grams.values():
        assert gram.signature[0] == 3 and sum(gram.signature) == gram.dim
        assert all(gram.rows[i][j] == gram.rows[j][i]
                   for i in range(gram.dim) for j in range(gram.dim))


def _det(rows):
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def test_grams_have_the_constructed_determinant():
    plan = workloads.build("certify_sweep", 4)
    frob = workloads.build("frobenius_tables", 4)
    for gram in [*plan.grams.values(), *frob.grams.values()]:
        assert _det(gram.rows) == gram.det


def _report(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "hilbk3", *argv, "--json"],
                          capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, path, value", [
    (("ideals", "--N", "5"), ("result", "ideals", 0, "maximal_ideal_power"), 2),
    (("betti", "--n", "3", "--surface", "1,5,1"), ("result", "betti", 2), 7),
    (("punctual", "--i", "6"), ("result", "fixed_points"), []),
    (("frobenius", "--dimv", "2", "--n", "2"), ("result", "dimensions", 1), 3),
    (("strata", "--n", "5"), ("result", "strata", 0, "codim"), 0),
    (("certify", "--n", "12"), ("result", "certificates", 1, "coefficient"), "1/22"),
])
def test_tampered_payload_counts_as_failure(argv, path, value):
    checker = checks.Checker()
    checker.prepare([argv])
    code, stdout, stderr = _report(argv)
    assert checker.verdict(argv, code, stdout, stderr).ok
    payload = json.loads(stdout)
    node = payload
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] != value
    node[path[-1]] = value
    verdict = checker.verdict(argv, code, json.dumps(payload).encode(), stderr)
    assert not verdict.ok and verdict.wrong


def test_traceback_is_a_failure_not_a_wrong_answer():
    verdict = checks.Checker().verdict(("certify", "--n", "3"), 1, b"",
                                       b"Traceback (most recent call last):\nRuntimeError\n")
    assert not verdict.ok and not verdict.wrong


def test_install_rebinds_names_imported_by_value():
    script = """
import tracing
tracing.install(tracing.Tracer(0))
from hilbk3 import bb_lattice, cli, cohomology, invariant_ideals, partitions
for by_value, home in [
    (cohomology.diagrams_of, partitions.diagrams_of),
    (cohomology.codim_diagonal, partitions.codim_diagonal),
    (bb_lattice.trianalytic_candidates, partitions.trianalytic_candidates),
    (bb_lattice.is_triangular, partitions.is_triangular),
    (invariant_ideals.partitions_of, partitions.partitions_of),
    (cli._COMMANDS["certify"], cli.cmd_certify),
]:
    assert by_value is home and hasattr(home, "__wrapped__"), home
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0, proc.stderr


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["cli.cmd_betti", 1.0, 9.0, 0, None],
        ["cohomology.hilbert_stratum_ledger", 2.0, 6.0, 1, None],
        ["partitions.diagrams_of", 2.5, 3.5, 2, None],
        ["partitions.partitions_of", 2.5, 3.5, 3, 0.75],  # generator, busy 0.75 s
        ["linalg.det", 7.0, 8.0, 1, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 0.25, 0.75, 1.0])
    metrics, _ = tracing.aggregate([{"spans": spans, "counts": {}}])
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["partitions.self_s"] == pytest.approx(1.0)
    assert metrics["cohomology.ledger_s"] == pytest.approx(3.0)
    assert metrics["linalg.dense_s"] == pytest.approx(1.0)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    assert run.tail_percentile(samples) == (90, 90, 10)
    p, value, beyond = run.tail_percentile(list(range(44)))
    assert beyond >= 10 and p == 77


def test_metric_names_match_the_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_goettsche_tables_start_with_the_known_k3_numbers():
    tables = checks.goettsche_tables(*checks.K3_SURFACE, 3)
    assert tables[1] == (1, 0, 22, 0, 1)
    assert tables[2][:5] == (1, 0, 23, 0, 276)
    assert checks.partition_count(30) == 5604
