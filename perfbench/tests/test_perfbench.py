"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from drdt3 import autodiff, dt3, envs, training  # noqa: E402
from perfbench import metrics, run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(workload, trace, seed=3, seconds=1):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    lines = run_bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, v in result["metrics"].items():
        assert math.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name
    if not trace:
        rate = run._FAMILY[workloads.WORKLOADS[workload].family][0]
        assert any(line.startswith(f"{rate} = ") for line in lines)
        assert any(line.startswith("failed_share = 0 ") for line in lines)


def test_metric_names_and_declarations():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    readable = [n for rate, lat, _ in run._FAMILY.values()
                for n in (rate, lat + ".p50")]
    assert all(NAME.match(n) for n in readable)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == {n: (u, b) for n, (u, b, _) in metrics.PER_LAYER.items()}
    assert WORKLOADS == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_same_seed_same_loss_final(tmp_path):
    wl = workloads.WORKLOADS["train-stitch"]

    def loss_final(seed):
        state = wl.setup(seed, str(tmp_path))
        return wl.run(state, 0.0, wl.min_ops).loss_final

    first = loss_final(5)
    assert math.isfinite(first)
    assert loss_final(5) == first


def test_different_seed_changes_dataset(tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        if name == "eval-stitch":
            continue  # the same set-up dataset as train-stitch
        a = wl.setup(5, str(tmp_path)).store.trajectories
        b = wl.setup(6, str(tmp_path)).store.trajectories
        assert any(ta.states.shape != tb.states.shape
                   or not np.array_equal(ta.actions, tb.actions)
                   for ta, tb in zip(a, b)), name


def test_output_checks_reject_corrupted_values():
    ok = (0, 1.25, 0.5, 1.75)
    assert workloads.bad_update_rows([ok], 1.0) == []
    assert workloads.bad_update_rows([(1, 1.25, 0.5, 1.75 + 1e-9)], 1.0) == [1]
    nan_row = (2, math.nan, 0.5, math.nan)
    assert workloads.bad_update_rows([nan_row], 1.0) == [2]
    assert workloads.action_ok(np.array([0.3]), 1, 1.0)
    assert not workloads.action_ok(np.array([1.5]), 1, 1.0)
    assert not workloads.action_ok(np.array([math.nan]), 1, 1.0)
    assert not workloads.action_ok(np.zeros(2), 1, 1.0)
    assert workloads.gradcheck_ok(1e-7)
    assert not workloads.gradcheck_ok(2e-3)
    assert not workloads.gradcheck_ok(math.nan)


def test_corrupted_loss_is_counted_as_failed(tmp_path, monkeypatch):
    state = workloads.WORKLOADS["train-stitch"].setup(5, str(tmp_path))
    unified = training.unified_loss
    monkeypatch.setattr(training, "unified_loss",
                        lambda l_diff, l_dt3, zeta:
                        unified(l_diff, l_dt3, zeta) + 1e-6)
    m = workloads.run_train(state, 0.0, 3)
    assert m.attempted >= 3 and m.failed == m.attempted


def test_corrupted_action_is_counted_as_failed(tmp_path, monkeypatch):
    state = workloads.WORKLOADS["eval-stitch"].setup(5, str(tmp_path))
    monkeypatch.setattr(envs, "sample_action",
                        lambda *args, **kwargs: np.full(1, math.nan))
    m = workloads.run_eval(state, 0.0, 2)
    assert m.attempted > 0 and m.failed == m.attempted


def test_corrupted_gradient_is_counted_as_failed(tmp_path, monkeypatch):
    state = workloads.WORKLOADS["gradcheck"].setup(5, str(tmp_path))
    backward = autodiff.backward

    def twice(loss):  # doubles every analytic gradient
        backward(loss)
        backward(loss)

    monkeypatch.setattr(autodiff, "backward", twice)
    m = workloads.run_gradcheck(state, 0.0, 1)
    assert m.attempted > 0 and m.failed == m.attempted


def test_tracer_records_nesting_and_restores_functions(tmp_path):
    state = workloads.WORKLOADS["gradcheck"].setup(5, str(tmp_path))
    originals = (training.train, dt3.embed_context, training.AdamW.step)
    tracer = tracing.Tracer()
    with tracer.tracing():
        assert training.train is not originals[0]
        state.loss()
    restored = (training.train, dt3.embed_context, training.AdamW.step)
    assert restored == originals
    names = [s[0] for s in tracer.spans]
    outer = names.index("dt3.predict_coarse_actions_batch")
    assert tracer.spans[names.index("dt3.embed_context")][3] == outer
    total, own = tracer.by_name()["dt3.predict_coarse_actions_batch"]
    assert 0 < own[0] < total[0]
