"""Command-line orchestration.

Subcommands: gen-data, train, eval, check, plot.
Exit codes: 0 success, 1 usage/config error, 2 invariant/check failure,
3 runtime abort (non-finite loss).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import checks
from .bundle import BundleFormatError, load_bundle
from .config import ConfigError, TrainConfig, config_to_dict, load_config
from .envs import ENVS, ActionError, make_env_spec, normalized_score
from .plotting import PlotError, plot_metrics
from .store_io import StoreFormatError, export_text, load_store, save_store
from .training import (DatasetRejected, MetricsLog, TrainingAborted,
                       evaluate_episodes, train)


def _fail(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _missing_dir(*paths):
    """The first given output path whose directory does not exist, or None.
    Commands check their outputs before their work runs, not after."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            return path
    return None


def cmd_gen_data(args):
    from .envs import generate_dataset
    missing = _missing_dir(args.out, args.text_out)
    if missing:
        return _fail(f"cannot write {missing}: its directory does not exist")
    try:
        store = generate_dataset(args.env, args.tier, args.n_traj, args.seed)
    except ValueError as e:
        return _fail(e)
    except MemoryError as e:
        return _fail(f"--n-traj {args.n_traj} needs more memory than is "
                     f"available: {e}")
    for path, write in ((args.out, save_store), (args.text_out, export_text)):
        if path:
            try:
                write(store, path)
            except OSError as e:  # named by the user's path, not a temp file
                return _fail(f"cannot write {path}: {e.strerror or e}")
    rets = [t.ret for t in store.trajectories]
    print(f"env: {store.env_id}  tier: {args.tier}")
    print(f"trajectories: {store.count}")
    print(f"mean return: {np.mean(rets):.4f}")
    print(f"best return: {max(rets):g}")
    return 0


def cmd_train(args):
    try:
        cfg = load_config(args.config) if args.config else TrainConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
    except (ConfigError, OSError) as e:
        return _fail(e)
    try:
        store = load_store(args.data)
    except (StoreFormatError, OSError) as e:
        return _fail(e)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        return _fail(f"cannot write the run to {args.out}: {e}")
    bundle0, log0 = None, None
    bundle_path = os.path.join(args.out, "bundle.drdt3")
    if getattr(args, "resume", False):
        if not os.path.exists(bundle_path):
            return _fail(f"cannot resume: no checkpoint at {bundle_path}")
        try:
            bundle0 = load_bundle(bundle_path)
            log0 = MetricsLog.read_csv(args.out)
        except (BundleFormatError, OSError, ValueError) as e:
            return _fail(e)
        # The checkpoint's config snapshot defines the architecture.
        cfg = bundle0.config
        if args.seed is not None:
            cfg.seed = args.seed
    started = time.time()
    try:
        bundle, log = train(cfg, store, out_dir=args.out,
                            bundle=bundle0, log=log0)
    except DatasetRejected as e:
        return _fail(e)
    except ActionError as e:
        return _fail(f"per-epoch evaluation failed: {e}")
    except MemoryError as e:
        return _fail(f"a model of embed_dim {cfg.embed_dim} at batch_size "
                     f"{cfg.batch_size} needs more memory than is "
                     f"available: {e}")
    except TrainingAborted as e:
        print(f"aborted: {e}; last checkpoint kept in {args.out}",
              file=sys.stderr)
        return 3
    manifest = {
        "run_id": f"{store.env_id}-{cfg.seed}-{int(started)}",
        "started": started,
        "finished": time.time(),
        "config_hash": bundle.config_hash(),
        "config": config_to_dict(cfg),
        "dataset": os.path.abspath(args.data),
        "bundle": os.path.join(os.path.abspath(args.out), "bundle.drdt3"),
        "metrics": [os.path.join(os.path.abspath(args.out), f)
                    for f in ("updates.csv", "evals.csv")],
        "dt_baseline": cfg.dt_mode,
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    last = log.updates[-1]
    print(f"trained {len(log.updates)} updates; "
          f"final l_total {last[3]:.6f} (l_diff {last[1]:.6f}, "
          f"l_dt3 {last[2]:.6f})")
    print(f"bundle: {manifest['bundle']}")
    return 0


def cmd_eval(args):
    try:
        bundle = load_bundle(args.bundle)
    except (BundleFormatError, OSError) as e:
        return _fail(e)
    if _missing_dir(args.out):
        return _fail(f"cannot write {args.out}: its directory does not exist")
    try:
        # A diverged bundle overflows inside the model; the non-finite
        # action it yields is reported by envs.ActionError, without numpy's
        # warnings before it.
        with np.errstate(over="ignore", invalid="ignore"):
            returns, successes, g0s = evaluate_episodes(
                bundle, args.episodes, args.seed, rtg_scale=args.eta,
                mode=args.mode,
            )
    except ValueError as e:
        return _fail(e)
    except MemoryError as e:
        return _fail(f"--episodes {args.episodes} needs more memory than is "
                     f"available: {e}")
    norm = normalized_score(returns.mean(), make_env_spec(bundle.env_id))
    print(f"episodes: {args.episodes}  mode: {args.mode}")
    print(f"return: {returns.mean():.4f} +/- {returns.std():.4f}")
    print(f"success rate: {successes.mean():.3f}")
    print(f"normalized score: {norm:.2f}")
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["episode", "return", "success", "g0"])
                rows = np.column_stack([returns, successes, g0s]).tolist()
                w.writerows([ep, *map(repr, row)]
                            for ep, row in enumerate(rows))
        except OSError as e:
            return _fail(f"cannot write {args.out}: {e}")
    return 0


def cmd_check(args):
    try:
        results = checks.run_checks(args.scope)
    except Exception as e:  # any oracle blow-up is a check failure
        return _fail(e, code=2)
    failed = [(n, e, lim) for n, e, lim in results if not e < lim]
    worst = max(results, key=lambda r: r[1] / r[2])
    for name, err, lim in results:
        status = "ok" if err < lim else "FAIL"
        print(f"{status:4s} {name:40s} worst {err:.3e}  limit {lim:.0e}")
    print(f"worst offender: {worst[0]} ({worst[1]:.3e} / limit {worst[2]:.0e})")
    return 2 if failed else 0


def cmd_plot(args):
    try:
        plot_metrics(args.metrics, args.out, column=args.column,
                     window=args.window)
    except (PlotError, OSError) as e:
        return _fail(e)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="drdt3",
        description="Diffusion-refined decision sequence model: dataset "
                    "generation, training, evaluation, checks, and plots.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate an offline dataset")
    g.add_argument("--env", required=True, choices=list(ENVS))
    g.add_argument("--tier", required=True, choices=list(dict.fromkeys(
        tier for cls in ENVS.values() for tier in cls.tiers)))
    g.add_argument("--n-traj", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--text-out", default=None,
                   help="also write a JSON-lines text export")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a policy bundle")
    t.add_argument("--config", default=None,
                   help="flat key=value config file (defaults apply if omitted)")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    t.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint already in --out")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a trained bundle")
    e.add_argument("--bundle", required=True)
    e.add_argument("--episodes", type=int, default=10)
    e.add_argument("--eta", type=float, default=1.0,
                   help="initial return scale factor")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--mode", choices=["drdt3", "dt3-only"], default="drdt3")
    e.add_argument("--out", default=None, help="write a per-episode CSV")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("check", help="run gradient and invariant suites")
    c.add_argument("--scope", choices=[*checks.SCOPES, "all"], default="all")
    c.set_defaults(func=cmd_check)

    pl = sub.add_parser("plot", help="render a metrics CSV as SVG")
    pl.add_argument("--metrics", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--column", default=None)
    pl.add_argument("--window", type=int, default=10)
    pl.set_defaults(func=cmd_plot)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
