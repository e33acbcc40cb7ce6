"""Self-tests of the benchmark: the oracle, the generators and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
import run  # noqa: E402
from oracles import StirlingTable  # noqa: E402
from swcohom.series import taylor_coefficients_a  # noqa: E402


def test_stirling_oracle_matches_series():
    table = StirlingTable()
    for p in range(1, 30):
        kappa = 59 - p
        assert table.a_coeffs(p, kappa) == taylor_coefficients_a(p, kappa), p


def test_stirling_small_values():
    table = StirlingTable()
    assert [table.c(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    # log(1 - x)^1 = -x - x^2/2 - x^3/3
    assert table.a_coeffs(1, 2) == [-1, Fraction(-1, 2), Fraction(-1, 3)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_streams_are_seeded(workload, tmp_path):
    def take(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        out = []
        for job in itertools.islice(jobs.stream(workload, seed, str(d)), 40):
            files = [a for a in job.argv if a.startswith(str(d))]
            out.append(([a.replace(str(d), "") for a in job.argv],
                        [open(f).read() for f in files if os.path.exists(f)]))
        return out

    assert take(3, "a") == take(3, "b")
    assert take(3, "c") != take(4, "d")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_streams_hold_no_known_defect(workload, tmp_path):
    stream = jobs.stream(workload, 2, str(tmp_path))
    assert not any(job.defect for job in itertools.islice(stream, 200))
    probes = jobs.defect_probes(workload, 2, str(tmp_path))
    assert probes and all(job.defect for job in probes)


def test_hand_built_forms():
    e8 = jobs.minus_dn_plus(8)
    d12 = jobs.minus_dn_plus(12)
    assert jobs.det(e8) == 1 and all(e8[i][i] % 2 == 0 for i in range(8))
    assert jobs.det(d12) == 1 and any(d12[i][i] % 2 for i in range(12))
    u = jobs.random_unimodular(random.Random(1), 12, 4)
    assert abs(jobs.det(u)) == 1
    assert jobs.det(jobs.conjugate(d12, u)) == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_stdout_is_byte_identical(workload, tmp_path):
    runner = run.Runner(ROOT, str(tmp_path))
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    spans = str(tmp_path / "spans.json")
    oracle = run.Oracle()
    for n, job in enumerate(itertools.islice(
            jobs.stream(workload, 5, str(inputs)), 8)):
        plain = runner.spawn(["-m", "swcohom.cli", *job.argv])
        traced = runner.spawn(["-X", "importtime", run.BOOT, spans, str(n), *job.argv])
        assert traced["stdout"] == plain["stdout"], job.argv
        assert traced["status"] == plain["status"], job.argv
        reason = oracle.check(job, plain["status"], plain["stdout"], plain["stderr"])
        assert reason is None, (job.argv, reason)
        with open(spans, encoding="utf-8") as fh:
            assert "cli.main" in json.load(fh)["spans"]
