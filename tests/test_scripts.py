"""Smoke run of scripts/compare.py at a tiny scale, started as a user starts
it: a subprocess in another working directory, with no PYTHONPATH entry for
`src`, so that the script cannot drift from the library unseen."""

import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from drdt3.config import load_config
from drdt3.envs import generate_dataset
from drdt3.store_io import load_store, save_store
from drdt3.training import evaluate_bundle, train

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare.py"

TINY_CFG = """\
embed_dim = 8
cond_hidden = 8
time_embed_dim = 4
mlp_expansion = 2
max_episode_len = 64
batch_size = 8
epochs = 1
updates_per_epoch = 5
rtg_scale = 1.5
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("compare")
    # A dense-reward env, so that returns show the evaluation's seed and eta.
    save_store(generate_dataset("pointreach", "medium", 4, seed=0),
               root / "store.bin")
    (root / "tiny.cfg").write_text(TINY_CFG)
    return root


def run_compare(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_rows_for_every_method_equal_the_library(workspace):
    proc = run_compare(workspace, "--data", "store.bin", "--config",
                       "tiny.cfg", "--seeds", 0, 3, "--episodes", 2,
                       "--out", "rows.json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((workspace / "rows.json").read_text())["rows"]
    by_key = {(r["method"], r["mode"], r["seed"]): r for r in rows}
    assert len(by_key) == len(rows) == 8
    assert set(by_key) == {
        (method, mode, seed) for seed in (0, 3)
        for method, mode in (("dt", "dt3-only"), ("dt3", "dt3-only"),
                             ("drdt3", "drdt3"), ("drdt3", "dt3-only"))}
    for seed in (0, 3):
        dt, dt3 = by_key["dt", "dt3-only", seed], by_key["dt3", "dt3-only", seed]
        assert dt["l_diff"] == dt3["l_diff"] == 0.0
        assert dt["l_dt3"] != dt3["l_dt3"]     # dt_mode drops the TTT layer

    cfg = dataclasses.replace(load_config(workspace / "tiny.cfg"), seed=3,
                              objective="unified")
    bundle, log = train(cfg, load_store(workspace / "store.bin"),
                        eval_each_epoch=False)
    scores = evaluate_bundle(bundle, 2, 3, rtg_scale=cfg.rtg_scale,
                             mode="drdt3")
    row = by_key["drdt3", "drdt3", 3]
    assert [row[k] for k in ("l_diff", "l_dt3", "l_total", "mean_return",
                             "success_rate", "normalized_score")] == \
        [*log.updates[-1][1:], *scores]


@pytest.mark.parametrize("case", ["malformed-config", "not-a-store"])
def test_bad_input_exit_one(workspace, tmp_path, case):
    data, cfg = workspace / "store.bin", workspace / "tiny.cfg"
    if case == "malformed-config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("embed_dim = eight\n")
    else:
        data = workspace / "tiny.cfg"
    proc = run_compare(tmp_path, "--data", data, "--config", cfg,
                       "--seeds", 0, "--episodes", 1)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_overflowing_rtg_scale_exits_before_training(tmp_path, monkeypatch,
                                                     capsys):
    # Stitchchain's best return is positive, so eta multiplies it.
    save_store(generate_dataset("stitchchain", "stitch", 4, seed=0),
               tmp_path / "store.bin")
    spec = importlib.util.spec_from_file_location("compare", SCRIPT)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    trained = []
    monkeypatch.setattr(compare, "train",
                        lambda *args, **kwargs: trained.append(args))
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(TINY_CFG.replace("rtg_scale = 1.5", "rtg_scale = 1e308"))
    code = compare.main(["--data", str(tmp_path / "store.bin"), "--config",
                         str(cfg), "--seeds", "0", "--episodes", "1"])
    assert (code, trained) == (1, [])
    assert capsys.readouterr().err.startswith("error: rtg scale eta 1e+308")
