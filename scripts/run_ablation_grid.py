#!/usr/bin/env python3
"""Ablation grid: noise-approximator variants x DT3 loss norms.

Small smoke-scale runs whose final losses land in a single table, mirroring
the configuration axes exposed by TrainConfig (plus the pure-attention
dt_mode baseline).
"""

import argparse
import sys

sys.path.insert(0, "src")

from drdt3.config import TrainConfig
from drdt3.diffusion import VARIANTS
from drdt3.envs import generate_dataset
from drdt3.training import train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--env", default="stitchchain")
    ap.add_argument("--tier", default="stitch")
    ap.add_argument("--n-traj", type=int, default=12)
    ap.add_argument("--updates", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    store = generate_dataset(args.env, args.tier, args.n_traj, seed=args.seed)

    def run(**kw):
        cfg = TrainConfig(
            embed_dim=16, epochs=1, updates_per_epoch=args.updates,
            batch_size=32, max_episode_len=max(64, store.max_length()),
            eval_episodes=0, seed=args.seed, **kw,
        ).validate()
        _, log = train(cfg, store, eval_each_epoch=False)
        return log.updates[-1]

    print(f"{'variant':14s} {'loss':4s}  l_diff   l_dt3    l_total")
    for variant in VARIANTS:
        for norm in ("l1", "l2"):
            _, l_diff, l_dt3, l_total = run(noise_approx_variant=variant,
                                            dt3_loss_norm=norm)
            print(f"{variant:14s} {norm:4s}  {l_diff:.4f}  {l_dt3:.4f}"
                  f"  {l_total:.4f}")
    _, l_diff, l_dt3, l_total = run(dt_mode=True)
    print(f"{'dt_mode':14s} {'l1':4s}  {l_diff:.4f}  {l_dt3:.4f}"
          f"  {l_total:.4f}")


if __name__ == "__main__":
    main()
