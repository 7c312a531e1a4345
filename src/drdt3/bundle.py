"""Policy bundle: every learnable parameter plus the config that shaped it.

Same container discipline as the trajectory format: a magic line, one
canonical JSON header (config, normalization constants, parameter manifest),
then the parameter tensors as little-endian float64 blocks in manifest order.
Load -> save is byte-identical.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .config import ConfigError, TrainConfig, config_to_dict
from .diffusion import NoiseApproximatorParams
from .dt3 import DT3Params

MAGIC = b"drdt3-bundle/3\n"


class BundleFormatError(ValueError):
    pass


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class PolicyBundle:
    def __init__(self, config, dt3, noise, env_id, d_s, d_a,
                 state_mean, state_std, rtg_norm, initial_return, seed):
        self.config = config
        self.dt3 = dt3
        self.noise = noise
        self.env_id = env_id
        self.d_s = d_s
        self.d_a = d_a
        self.state_mean = np.asarray(state_mean, dtype=np.float64)
        self.state_std = np.asarray(state_std, dtype=np.float64)
        self.rtg_norm = float(rtg_norm)
        self.initial_return = float(initial_return)
        self.seed = int(seed)

    def named_params(self):
        return ([("dt3." + n, p) for n, p in self.dt3.named()]
                + [(n, p) for n, p in self.noise.named()])

    def parameters(self):
        return [p for _, p in self.named_params()]

    def config_hash(self):
        return hashlib.sha256(
            _canonical_json(config_to_dict(self.config)).encode()
        ).hexdigest()


def fresh_bundle(config, store, seed=None):
    """Initialize a bundle for the given dataset's dimensions and stats."""
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    dt3 = DT3Params.init(rng, store.d_s, store.d_a, config)
    noise = NoiseApproximatorParams(
        store.d_a, config.cond_hidden, config.time_embed_dim,
        config.mlp_expansion, config.noise_approx_variant, rng,
    )
    return PolicyBundle(
        config, dt3, noise, store.env_id, store.d_s, store.d_a,
        store.state_mean, store.state_std, store.max_abs_return,
        store.max_return(), seed,
    )


def save_bundle(bundle, path):
    names = [n for n, _ in bundle.named_params()]
    params = dict(bundle.named_params())
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
        "manifest": [[n, list(params[n].data.shape)] for n in names],
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_canonical_json(header).encode() + b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(params[n].data, dtype="<f8").tobytes())


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

            rng = np.random.default_rng(0)  # shapes only; values read below
            dt3 = DT3Params.init(rng, header["d_s"], header["d_a"], config)
            noise = NoiseApproximatorParams(
                header["d_a"], config.cond_hidden, config.time_embed_dim,
                config.mlp_expansion, config.noise_approx_variant, rng,
            )
            bundle = PolicyBundle(
                config, dt3, noise, header["env_id"], header["d_s"],
                header["d_a"], header["state_mean"], header["state_std"],
                header["rtg_norm"], header["initial_return"], header["seed"],
            )
            manifest = header["manifest"]
        except (ValueError, KeyError, TypeError) as e:
            raise BundleFormatError(
                f"bad bundle header ({type(e).__name__}: {e})"
            ) from None
        params = dict(bundle.named_params())
        for name, shape in manifest:
            if name not in params:
                raise BundleFormatError(f"unknown parameter {name!r} in manifest")
            n_el = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * n_el)
            if len(buf) != 8 * n_el:
                raise BundleFormatError(f"truncated block for {name!r}")
            params[name].data = np.frombuffer(buf, dtype="<f8").reshape(
                shape
            ).copy()
        if fh.read(1):
            raise BundleFormatError("trailing bytes after the last parameter")
    return bundle
