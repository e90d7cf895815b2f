"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q     # from the root of a checkout
"""

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import f1kit
from f1kit.errors import MembershipUndecidedWithinBound
import run
import tracing
import workloads
from cones import known_cone

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
COUNT_METRICS = ("calls", "subsets_tested", "faces_found", "undecided",
                 "assignments", "feasible_calls", "checks")


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(ROOT, tmp_path)


def _inputs(workload, seed, ctx, n=2):
    stream = workloads.rounds(workload, seed, ctx)
    return json.dumps([[(op.kind, op.inputs) for op in next(stream)] for _ in range(n)])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_gives_the_same_inputs(workload, ctx):
    first = _inputs(workload, 7, ctx)
    assert first == _inputs(workload, 7, ctx)
    assert first != _inputs(workload, 8, ctx)


def test_constructed_cones_match_the_package():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randint(2, 4)
        cone = known_cone(rng, d, rng.randint(4, 7), want_line=rng.choice([None, True]),
                          scale=rng.choice([1, 2]))
        m = f1kit.PointedMonoid.affine(d, cone.gens)
        assert f1kit.space_report(f1kit.spec(m)) == cone.space_report()
        assert f1kit.point_count_poly(m).coeffs == cone.poly_coeffs()
        assert f1kit.units_of(m).rank == cone.unit_rank


def test_self_time_subtracts_the_union_of_children():
    # 0: [0, 10] with children 1: [1, 4] and 2: [3, 6] (overlapping) and
    # 3: [8, 12] (clipped to 10); 4: [2, 3] is a grandchild under 1
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_wrong_answers_count_as_failures(ctx, monkeypatch):
    op = workloads.Op("member", "x", lambda: True, workloads._expect(False))
    assert workloads.execute(op)[2] == "wrong_answer"

    real = f1kit.member
    monkeypatch.setattr(f1kit, "member", lambda m, t: not real(m, t))
    res = run.measure("membership", 1, 0, ctx)
    assert res["failures"]["wrong_answer"] > 0


def test_undecided_counts_as_failure_only_where_the_seed_gives_it(ctx, monkeypatch):
    res = run.measure("membership", 1, 0, ctx)
    assert res["failures"]["undecided"] > 0
    assert res["failed"] == 0

    def give_up(m, target):
        raise MembershipUndecidedWithinBound("gave up")

    monkeypatch.setattr(f1kit, "member", give_up)
    res = run.measure("membership", 1, 0, ctx)
    marked = [op for op in next(workloads.rounds("membership", 1, ctx))
              if op.kind.startswith("member:")]
    assert res["failed"] == sum(not op.undecided_ok for op in marked) > 0


def test_measure_keeps_whole_rounds_and_spreads_setup_samples(ctx):
    res = run.measure("membership", 1, 0.5, ctx, setup=lambda: 0.1)
    per_round = len(next(workloads.rounds("membership", 1, ctx)))
    assert len(res["latencies"]) == res["rounds"] * per_round
    assert res["setups"] == [0.1] * run.SETUP_SAMPLES


def test_times_are_scaled_to_the_reference_speed(ctx, monkeypatch):
    # the machine ran the reference routine at half the reference speed
    res = {"latencies": [0.002] * 9 + [0.010], "failures": {}, "failed": 0,
           "busy": 0.028, "rounds": 1, "setups": [0.2],
           "references": [2 * run.REFERENCE_S] * 3}
    monkeypatch.setattr(run, "measure", lambda *a, **k: res)
    monkeypatch.setattr(run, "_child_seconds", lambda argv, env: 0.2)
    args = argparse.Namespace(workload="membership", seed=1, seconds=1)
    metrics = run.run_untraced(args, ctx)[0]
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert metrics["ops_per_s"]["value"] == pytest.approx(2 * 10 / 0.028)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(1.0)


def test_golden_answers_cover_exactly_the_group_catalog(ctx):
    pairs = workloads.group_catalog()
    assert {f"{model} {suite}" for model, suite in pairs} == set(ctx.golden["group"])
    assert ("gl:4", "action") not in pairs and ("gl:4", "group") in pairs


def test_membership_targets_are_nonzero(ctx):
    stream = workloads.rounds("membership", 4, ctx)
    targets = [json.loads(op.inputs.split("target=")[1])
               for _ in range(5) for op in next(stream) if op.kind.startswith("member:in")]
    assert targets and all(any(t) for t in targets)


def test_cli_answers_are_checked_byte_for_byte(ctx):
    op = workloads._cli_op(ctx, ["count", "gl:2"], "cli:count", "count gl:2", 0,
                           '{"a":1}\n', lambda out: True)
    assert op.check((0, '{"a":1}\n', "")) is None
    assert op.check((0, '{"a": 1}\n', "")) == "wrong_answer"
    assert op.check((2, "", "error: bad\n")) == "exit_code"
    assert op.check((1, "", "Traceback (most recent call last):\n")) == "traceback"
    assert workloads.execute(op, in_process=True)[2] == "wrong_answer"


def _counts(workload, seed, ctx, pick=None):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        ops = next(workloads.rounds(workload, seed, ctx))
        for op in ops if pick is None else pick(ops):
            result = workloads.execute(op, in_process=True)[1]
            if isinstance(result, dict) and "checks" in result:
                tracer.counters["groups.checks"] += result["checks"]
    finally:
        uninstall()
    values = tracing.layer_metrics(tracer)
    return {k: v for k, v in values.items() if k.rsplit(".", 1)[1] in COUNT_METRICS}


@pytest.mark.parametrize("workload,pick", [
    ("spectra", lambda ops: [op for op in ops if op.inputs.count("[") < 10]),
    ("membership", None),
    ("group-checks", lambda ops: [op for op in ops if "gl:4" not in op.inputs]),
    ("cli-cold", None),
])
def test_traced_counts_repeat_exactly(workload, pick, ctx):
    first = _counts(workload, 5, ctx, pick)
    assert first == _counts(workload, 5, ctx, pick)
    assert any(first.values())


def test_bypass_layers_stay_idle(ctx):
    spectra = _counts("spectra", 2, ctx, lambda ops: ops[:20])
    groups = _counts("group-checks", 2, ctx, lambda ops: ops[:20])
    assert spectra["groups.calls"] == spectra["reductive.calls"] == 0
    assert groups["linalg.feasible.calls"] == 0
    assert groups["groups.calls"] > 0


def test_install_restores_every_binding():
    before = (f1kit.feasible, f1kit.spectrum.feasible, f1kit.linalg.Mat.__mul__,
              f1kit.linalg.Mat.__dict__["identity"])
    tracing.install(tracing.Tracer())()
    assert before == (f1kit.feasible, f1kit.spectrum.feasible, f1kit.linalg.Mat.__mul__,
                      f1kit.linalg.Mat.__dict__["identity"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
