"""Smoke runs of the experiment scripts, end to end at a tiny scale, so that
a change to the library they call cannot break them unseen."""

import csv
import json
import pathlib
import subprocess
import sys

from drdt3.diffusion import VARIANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run scripts/<name> from the repo root, where its relative `src` path
    entry finds the package; return its stdout. The script must exit 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_stitch_experiment(tmp_path):
    out = tmp_path / "stitch.json"
    run_script("run_stitch_experiment.py", "--epochs", 1, "--updates", 5,
               "--n-traj", 6, "--embed-dim", 8, "--episodes", 2,
               "--out", out)
    results = json.loads(out.read_text())
    assert sorted(results) == ["drdt3", "dt3-only", "zeta-only-bc"]
    for row in results.values():
        assert 0.0 <= row["success_rate"] <= 1.0


def test_zeta_sweep(tmp_path):
    out = tmp_path / "zeta.csv"
    run_script("run_zeta_sweep.py", "--zetas", 0.0, 0.5, "--n-traj", 6,
               "--embed-dim", 8, "--epochs", 1, "--updates", 5,
               "--episodes", 2, "--out", out)
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header[0] == "zeta"
    assert [float(r[0]) for r in rows] == [0.0, 0.5]


def test_ablation_grid():
    # The grid prints its table; it has no output file.
    stdout = run_script("run_ablation_grid.py", "--n-traj", 6, "--updates", 5)
    header, *rows = stdout.strip().splitlines()
    assert header.split()[:2] == ["variant", "loss"]
    assert len(rows) == 2 * len(VARIANTS) + 1    # x {l1, l2}, plus dt_mode
    assert rows[-1].split()[0] == "dt_mode"
