"""Policy bundle: every learnable parameter plus the config that shaped it.

A bundle holds its parameters in one float64 vector, `data`, and their
gradients in another, `grad`, both in `named()` order; each parameter's
`.data` and `.grad` are views into them.

Same container discipline as the trajectory format: a magic line, one
canonical JSON header (config, normalization constants, parameter manifest),
then the parameter vector as one little-endian float64 block, which is each
tensor's block in manifest order. Load -> save is byte-identical.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import autodiff as ad
from .config import ConfigError, TrainConfig, config_to_dict
from .diffusion import NoiseApproximatorParams
from .dt3 import DT3Params
from .envs import env_class
from .store_io import _canonical_json, atomic_write

MAGIC = b"drdt3-bundle/3\n"


class BundleFormatError(ValueError):
    pass


class PolicyBundle(ad.Params):
    """Both parameter groups, initialized from `seed` in the shapes that
    `config`, `d_s` and `d_a` give, with the dataset's constants."""

    def __init__(self, config, env_id, d_s, d_a, state_mean, state_std,
                 rtg_norm, initial_return, seed):
        rng = np.random.default_rng(seed)
        self.config = config
        self.dt3 = DT3Params(rng, d_s, d_a, config)
        self.noise = NoiseApproximatorParams(
            d_a, config.cond_hidden, config.time_embed_dim,
            config.mlp_expansion, config.noise_approx_variant, rng,
        )
        self.env_id = env_id
        self.d_s = d_s
        self.d_a = d_a
        self.state_mean = np.asarray(state_mean, dtype=np.float64)
        self.state_std = np.asarray(state_std, dtype=np.float64)
        self.rtg_norm = float(rtg_norm)
        self.initial_return = float(initial_return)
        self.seed = int(seed)
        self.data, self.grad = ad.flatten(self.parameters())

    def config_hash(self):
        return hashlib.sha256(
            _canonical_json(config_to_dict(self.config)).encode()
        ).hexdigest()


def fresh_bundle(config, store):
    """Initialize a bundle for the given dataset's dimensions and stats."""
    return PolicyBundle(
        config, store.env_id, store.d_s, store.d_a, store.state_mean,
        store.state_std, store.max_abs_return, store.max_return(),
        config.seed,
    )


def save_bundle(bundle, path):
    header = {
        "config": config_to_dict(bundle.config),
        "env_id": bundle.env_id,
        "d_s": bundle.d_s,
        "d_a": bundle.d_a,
        "state_mean": list(bundle.state_mean),
        "state_std": list(bundle.state_std),
        "rtg_norm": bundle.rtg_norm,
        "initial_return": bundle.initial_return,
        "seed": bundle.seed,
        "manifest": [[n, list(p.data.shape)] for n, p in bundle.named()],
    }
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(_canonical_json(header).encode() + b"\n")
        fh.write(np.asarray(bundle.data, dtype="<f8").tobytes())


def load_bundle(path):
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise BundleFormatError("bad bundle magic (version mismatch?)")
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise BundleFormatError("truncated bundle header")
        try:
            header = json.loads(line)
            odd = set(header["config"]) ^ set(config_to_dict(TrainConfig()))
            if odd:
                raise ConfigError(f"unknown or missing keys {sorted(odd)}")
            config = TrainConfig(**header["config"]).validate()
            # Only the env's own dimensions can run in it.
            env = env_class(header["env_id"])
            if (header["d_s"], header["d_a"]) != (env.d_s, env.d_a):
                raise ValueError(
                    f"d_s={header['d_s']}, d_a={header['d_a']} differ from "
                    f"{env.env_id}'s d_s={env.d_s}, d_a={env.d_a}")
            mean, std = header["state_mean"], header["state_std"]
            if not len(mean) == len(std) == env.d_s:
                raise ValueError(
                    f"state_mean has {len(mean)} entries and state_std "
                    f"{len(std)}; {env.env_id}'s states have {env.d_s}")
            # The shapes come from the config; the values are read below.
            bundle = PolicyBundle(
                config, header["env_id"], header["d_s"], header["d_a"],
                mean, std, header["rtg_norm"], header["initial_return"],
                header["seed"],
            )
            manifest = header["manifest"]
        except (ValueError, KeyError, TypeError) as e:
            raise BundleFormatError(
                f"bad bundle header ({type(e).__name__}: {e})"
            ) from None
        expected = [[n, list(p.data.shape)] for n, p in bundle.named()]
        if manifest != expected:
            raise BundleFormatError(
                "manifest does not list its config's parameters, in order "
                "and with their shapes")
        buf = fh.read(8 * bundle.data.size)
        if len(buf) != 8 * bundle.data.size:
            raise BundleFormatError(
                f"truncated parameter block: {len(buf)} of "
                f"{8 * bundle.data.size} bytes")
        bundle.data[:] = np.frombuffer(buf, dtype="<f8")
        if fh.read(1):
            raise BundleFormatError("trailing bytes after the last parameter")
    return bundle
