"""Self-tests of the benchmark: python -m pytest perfbench -q

Each workload runs a few operations in a real worker process, the
correctness gate must catch a tampered expected answer, a traced round
must keep the layers apart, and the oracle is checked against brute force
where that is cheap.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import worker
from workloads import Semidirect, Spectra, Verify

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "gkspec"


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    build = tmp_path_factory.mktemp("build")
    return build, run.stage_pure(SRC, build)


def _tiny(workload, n):
    workload.ops = workload.ops[:n]
    if hasattr(workload, "expected_answers"):
        workload.expected_answers = workload.expected_answers[:n]
    return workload


def _one_round(workload, staged, trace=False):
    build, tree = staged
    inputs = build / f"inputs-{workload.name}.json"
    inputs.write_text(json.dumps(workload.inputs()), encoding="utf-8")
    return run.run_round(workload, tree, inputs, build, trace, "pure")


@pytest.mark.parametrize("cls,n", [(Semidirect, 40), (Spectra, 60)])
def test_stream_workload_passes_gate(cls, n, staged):
    w = _tiny(cls(7), n)
    r = _one_round(w, staged)
    assert r.exit_code == 0 and r.backend == "pure"
    assert len(r.latency) == n and r.setup > 0 and r.ops_per_s > 0
    assert run.gate(w, [r]) == (n, 0, True)


@pytest.mark.parametrize("cls,n", [(Semidirect, 40), (Spectra, 60)])
def test_gate_fails_on_tampered_expected(cls, n, staged):
    w = _tiny(cls(7), n)
    r = _one_round(w, staged)
    expected = list(w.expected(r.results))
    assert w.failures(r, expected) == 0
    expected[-1] = expected[-1] + " "
    assert w.failures(r, expected) == 1


def test_verify_round_matches_recording_and_detects_tampering(staged, tmp_path):
    w = Verify(0)
    r = _one_round(w, staged)
    assert r.exit_code == 0 and len(r.latency) == 1
    assert run.gate(w, [r]) == (w.op_count, 0, True)
    recorded = (Path(run.HERE) / "expected" / "verify.json").read_text("utf-8")
    tampered = tmp_path / "verify.json"
    tampered.write_text(recorded.replace("exactly 31 members", "exactly 32 members"))
    assert Verify(0, expected_path=tampered).failures(r, None) == 1


def test_traced_round_keeps_layers_apart(staged):
    w = _tiny(Spectra(3), 60)
    r = _one_round(w, staged, trace=True)
    assert run.gate(w, [r])[1] == 0
    values = run._layer_values(r)
    assert values["orderset.factorize.calls"] > 0
    assert values["core.gf_mul.calls"] == 0
    assert values["core.psl2_order_counts.calls"] == 0
    assert values["atlasdb.crosscheck_record.calls"] == 0
    assert 0 < values["trace.coverage_frac"] < 1


def test_calibration_samples_fill_the_round_and_are_left_out(staged):
    w = Verify(0)
    build, tree = staged
    out = build / "calibration.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "worker.py"), str(tree), "verify", "-", str(out), "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    record = json.loads(out.read_text("utf-8"))
    # one sample per CALIBRATION_PERIOD_S of the round, give or take
    expected = record["latency"][0] / worker.CALIBRATION_PERIOD_S
    assert 0.5 * expected < len(record["calibration"]) < 1.5 * expected
    assert 0 < record["op_spent"] <= record["spent"] < 0.2 * record["latency"][0]
    # the samples taken inside `gkspec verify` leave its report as recorded
    assert w.failures(run.Round("pure", 1.0, 1.0, proc.returncode, proc.stdout), None) == 0


def test_seed_fixes_inputs():
    assert Spectra(5).ops == Spectra(5).ops
    assert Semidirect(5).ops == Semidirect(5).ops
    assert Spectra(5).ops != Spectra(6).ops


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _brute_cocliques(vertices, edges):
    es = {tuple(e) for e in edges}
    out = []
    for r in range(len(vertices), 0, -1):
        for c in itertools.combinations(vertices, r):
            if not any((p, q) in es for p, q in itertools.combinations(c, 2)):
                out.append(c)
        if out:
            return sorted(out)
    return out


def test_oracle_cocliques_match_brute_force():
    import random

    rng = random.Random(1)
    vertices = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(30):
        d = rng.random()
        edges = [
            [p, q] for i, p in enumerate(vertices) for q in vertices[i + 1:] if rng.random() < d
        ]
        assert oracle.max_cocliques(vertices, edges) == _brute_cocliques(vertices, edges)


def test_oracle_field_against_brute_force():
    # GF(3^4) with modulus x^4 + x + 2: element orders by repeated
    # multiplication, and a semilinear order by applying the map
    f = oracle.Field(3, 4, (2, 1, 0, 0, 1))
    assert f.is_valid_modulus()
    assert not oracle.Field(3, 4, (1, 0, 0, 0, 1)).is_valid_modulus()  # x^4+1 splits
    for n in range(1, 81):
        a = tuple((n // 3**i) % 3 for i in range(4))
        if not any(a):
            continue
        x, order = a, 1
        while x != f.one:
            x, order = f.mul(x, a), order + 1
        assert f.order_of(a) == order
        basis = [tuple(int(i == j) for i in range(4)) for j in range(4)]
        for e in range(4):
            h = f.action_matrix(a, e)
            cols, m = h, 1
            while cols != basis:
                cols = [oracle.apply(h, c, 3) for c in cols]
                m += 1
            assert f.action_order(a, e) == m
