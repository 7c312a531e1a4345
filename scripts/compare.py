#!/usr/bin/env python3
"""DT, DT3 and DRDT3 trained side by side on one dataset.

For each seed, trains three methods on a `drdt3 gen-data` store with the
settings of a `drdt3 train` config file, in which a method sets only: dt
(objective = dt3_only, dt_mode = true), dt3 (objective = dt3_only) and
drdt3 (objective = unified). It evaluates dt and dt3 in dt3-only mode, and
drdt3 in drdt3 mode and again, on its coarse actions, in dt3-only mode, over
--episodes episodes seeded by the training seed, at the config's rtg_scale;
no per-epoch evaluation runs. Each row gives the method, mode and seed, the
last update's losses, and the mean return, success rate and normalized
score. Acceptance criterion 7's stitching run:

    drdt3 gen-data --env stitchchain --tier stitch --n-traj 40 --seed 1 \\
        --out stitch.bin
    python3 scripts/compare.py --data stitch.bin --config scripts/stitch.cfg \\
        --seeds 7 --out stitch.json

Exit codes as for `drdt3 train`: 1 for a bad input, 3 for a non-finite loss.
"""

import argparse
import dataclasses
import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from drdt3.bundle import fresh_bundle  # noqa: E402
from drdt3.config import config_to_dict, load_config  # noqa: E402
from drdt3.store_io import load_store  # noqa: E402
from drdt3.training import (TrainingAborted, evaluate_bundle,  # noqa: E402
                            starting_rtg, train)

# method: (the config fields it sets, the modes its bundle is evaluated in)
METHODS = {
    "dt": ({"objective": "dt3_only", "dt_mode": True}, ("dt3-only",)),
    "dt3": ({"objective": "dt3_only"}, ("dt3-only",)),
    "drdt3": ({"objective": "unified"}, ("drdt3", "dt3-only")),
}


def compare(cfg, store, seeds, episodes):
    """One row per seed, method and evaluation mode, in that order. Every
    run's config, and the starting return-to-go of the evaluation's
    rtg_scale, are checked before the first run trains."""
    runs = [(seed, method, dataclasses.replace(cfg, seed=seed, **fields)
             .validate(), modes)
            for seed in seeds for method, (fields, modes) in METHODS.items()]
    starting_rtg(fresh_bundle(cfg, store), cfg.rtg_scale)
    rows = []
    for seed, method, run_cfg, modes in runs:
        bundle, log = train(run_cfg, store, eval_each_epoch=False)
        _, l_diff, l_dt3, l_total = log.updates[-1]
        for mode in modes:
            ret, succ, norm = evaluate_bundle(
                bundle, episodes, seed, rtg_scale=cfg.rtg_scale, mode=mode)
            rows.append({"method": method, "mode": mode, "seed": seed,
                         "l_diff": l_diff, "l_dt3": l_dt3, "l_total": l_total,
                         "mean_return": ret, "success_rate": succ,
                         "normalized_score": norm})
            print(f"{method:5s} {mode:8s} seed {seed:<4d} l_total "
                  f"{l_total:.4f}  success {succ:.2f}  return {ret:.3f}  "
                  f"normalized {norm:.1f}")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", required=True, help="a drdt3 gen-data store")
    ap.add_argument("--config", required=True,
                    help="flat key=value config file, as for drdt3 train")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--episodes", type=int, default=50)
    ap.add_argument("--out", default=None, help="write the rows as JSON")
    args = ap.parse_args(argv)
    # ConfigError, StoreFormatError and DatasetRejected are ValueErrors.
    try:
        if args.episodes < 1:
            raise ValueError(f"--episodes must be >= 1, got {args.episodes}")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"cannot write {args.out}: its directory does "
                             f"not exist")
        cfg = load_config(args.config)
        rows = compare(cfg, load_store(args.data), args.seeds, args.episodes)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"config": config_to_dict(cfg), "rows": rows}, fh,
                          indent=2)
    except TrainingAborted as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: the config's model needs more memory than is "
              f"available: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
