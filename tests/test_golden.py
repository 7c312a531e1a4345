"""Golden run: a small fixed recipe whose every artifact must keep its bytes.

The recipe generates three 12-trajectory datasets at seed 1 (stitchchain
`stitch`, pointreach `medium` and `medium-replay`), trains three runs at seed
7 (d=16, B=16, 2 x 15 updates; unified on stitch and on pointreach `medium`,
dt3_only on stitch), and evaluates each unified run on 4 episodes at seed 3,
in both modes, at eta 1.0 and 1.5. It goes through `drdt3.cli.main`, so the
files are the ones the CLI writes. `tests/golden/recipe.json` holds the
sha256 of every dataset, `updates.csv`, `evals.csv`, bundle and eval CSV,
and each artifact's rows, so that a mismatch names the artifact and its
first differing row.

Bitwise results depend on the numpy and BLAS build, so the fixture records
the machine it was made on, and a mismatch prints that and this machine.

A change that moves numbers on purpose rewrites the fixture in the same
commit, with

    python3 tests/test_golden.py --rewrite

which prints each artifact as "unchanged", "changed at row N", "new" or
"removed" against the fixture it replaces, and the machine line it records.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drdt3.bundle import MAGIC as BUNDLE_MAGIC, load_bundle  # noqa: E402
from drdt3.cli import main  # noqa: E402
from drdt3.store_io import MAGIC as STORE_MAGIC, load_store  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "golden" / "recipe.json"

DATASETS = {
    "stitch.bin": ("stitchchain", "stitch"),
    "pointreach-medium.bin": ("pointreach", "medium"),
    "pointreach-medium-replay.bin": ("pointreach", "medium-replay"),
}
CONFIG = """\
embed_dim = 16
batch_size = 16
epochs = 2
updates_per_epoch = 15
eval_episodes = 2
seed = 7
"""
RUNS = {  # run directory: (dataset, objective)
    "stitch": ("stitch.bin", "unified"),
    "pointreach": ("pointreach-medium.bin", "unified"),
    "stitch-dt3only": ("stitch.bin", "dt3_only"),
}
EVALS = [(mode, eta) for mode in ("drdt3", "dt3-only")
         for eta in ("1.0", "1.5")]


def machine():
    """The numeric stack bitwise results depend on: the fields of the
    machine line `perfbench/run.py` prints, less its BLAS thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):  # not Linux
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_recipe(root):
    """Run the recipe in `root`; return {artifact name: path}."""
    root = Path(root)
    artifacts = {}
    for name, (env_id, tier) in DATASETS.items():
        path = root / name
        assert main(["gen-data", "--env", env_id, "--tier", tier,
                     "--n-traj", "12", "--seed", "1", "--out", str(path)]) == 0
        artifacts[name] = path
    for run, (data, objective) in RUNS.items():
        cfg = root / f"{run}.cfg"
        cfg.write_text(CONFIG + f"objective = {objective}\n")
        out = root / run
        assert main(["train", "--config", str(cfg), "--data",
                     str(root / data), "--out", str(out)]) == 0
        for name in ("updates.csv", "evals.csv", "bundle.drdt3"):
            artifacts[f"{run}/{name}"] = out / name
        if objective != "unified":
            continue
        for mode, eta in EVALS:
            csv_path = out / f"eval-{mode}-eta{eta}.csv"
            assert main(["eval", "--bundle", str(out / "bundle.drdt3"),
                         "--episodes", "4", "--seed", "3", "--eta", eta,
                         "--mode", mode, "--out", str(csv_path)]) == 0
            artifacts[f"{run}/{csv_path.name}"] = csv_path
    return artifacts


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _header_line(raw, magic):
    return raw[len(magic):raw.index(b"\n", len(magic))]


def rows(path):
    """An artifact as rows: a CSV's lines; a dataset's header and then one
    row per trajectory; a bundle's header and then one row per parameter.
    Binary rows carry a digest of their bytes and a few readable values."""
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix == ".csv":
        return raw.decode().splitlines()
    if path.suffix == ".bin":
        header = _header_line(raw, STORE_MAGIC)
        out = [f"header sha256 {hashlib.sha256(header).hexdigest()[:16]}"]
        for j, t in enumerate(load_store(path).trajectories):
            out.append(f"traj {j}: length {t.length}, return {t.ret!r}, "
                       f"sha256 {_digest(t.states, t.actions, t.rewards)}")
        return out
    header = _header_line(raw, BUNDLE_MAGIC)
    out = [f"header sha256 {hashlib.sha256(header).hexdigest()[:16]}"]
    for name, p in load_bundle(path).named():
        out.append(f"{name} {list(p.data.shape)}: sha256 {_digest(p.data)}, "
                   f"first {float(p.data.flat[0])!r}")
    return out


def fingerprint(path):
    return {"sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest(),
            "rows": rows(path)}


def first_difference(want, got):
    """None when two fingerprints have the same bytes, else the index of
    the first differing row; when one row list is a prefix of the other,
    the shorter length."""
    if got["sha256"] == want["sha256"]:
        return None
    for i, (w, g) in enumerate(zip(want["rows"], got["rows"])):
        if w != g:
            return i
    return min(len(want["rows"]), len(got["rows"]))


def mismatches(artifacts, fixture):
    """One message per artifact whose bytes differ from the fixture's,
    naming it and its first differing row."""
    out = []
    for name in sorted(set(artifacts) | set(fixture)):
        if name not in artifacts or name not in fixture:
            where = "fixture" if name not in fixture else "this run"
            out.append(f"{name}: missing from {where}")
            continue
        want, got = fixture[name], fingerprint(artifacts[name])
        i = first_difference(want, got)
        if i is None:
            continue
        if i < min(len(want["rows"]), len(got["rows"])):
            out.append(f"{name}: first differing row {i}\n"
                       f"  fixture: {want['rows'][i]}\n"
                       f"  now:     {got['rows'][i]}")
        else:
            out.append(f"{name}: {len(want['rows'])} rows in the fixture, "
                       f"{len(got['rows'])} now")
    return out


def change_summary(old, new):
    """One line per artifact of either fixture: "unchanged", "changed at
    row N", "new" or "removed", for the new fixture against the old."""
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in old:
            status = "new"
        elif name not in new:
            status = "removed"
        else:
            i = first_difference(old[name], new[name])
            status = "unchanged" if i is None else f"changed at row {i}"
        lines.append(f"{name}: {status}")
    return lines


def test_golden_recipe_is_byte_identical(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    diffs = mismatches(run_recipe(tmp_path), fixture["artifacts"])
    then, now = (json.dumps(m, sort_keys=True)
                 for m in (fixture["machine"], machine()))
    assert not diffs, (
        "golden recipe differs from tests/golden/recipe.json:\n"
        + "\n".join(diffs)
        + f"\nfixture machine: {then}\nthis machine:    {now}")


def test_change_summary_names_first_changed_row():
    old = {"a": {"sha256": "1", "rows": ["x", "y"]},
           "b": {"sha256": "2", "rows": ["x", "y", "z"]},
           "c": {"sha256": "3", "rows": ["x"]},
           "gone": {"sha256": "4", "rows": []}}
    new = {"a": {"sha256": "1", "rows": ["x", "y"]},
           "b": {"sha256": "5", "rows": ["x", "w", "z"]},
           "c": {"sha256": "6", "rows": ["x", "v"]},
           "added": {"sha256": "7", "rows": []}}
    assert change_summary(old, new) == [
        "a: unchanged", "added: new", "b: changed at row 1",
        "c: changed at row 1", "gone: removed"]


def rewrite(root):
    """Run the recipe in `root`, write its fingerprints as the fixture, and
    print how each artifact compares with the fixture it replaces."""
    artifacts = run_recipe(root)
    fixture = {"machine": machine(),
               "artifacts": {name: fingerprint(path)
                             for name, path in sorted(artifacts.items())}}
    old = (json.loads(FIXTURE.read_text())["artifacts"]
           if FIXTURE.exists() else {})
    for line in change_summary(old, fixture["artifacts"]):
        print(line)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print("# machine " + json.dumps(fixture["machine"], sort_keys=True))
    print(f"wrote {FIXTURE} ({len(artifacts)} artifacts)")


if __name__ == "__main__":
    import argparse
    import tempfile

    ap = argparse.ArgumentParser(description="Rewrite the golden fixture.")
    ap.add_argument("--rewrite", action="store_true", required=True,
                    help="run the recipe and overwrite the fixture")
    ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        rewrite(tmp)
