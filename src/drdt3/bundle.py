"""Policy bundle: every learnable parameter plus the config that shaped it.

A bundle holds its parameters in one float64 vector, `data`, and their
gradients in another, `grad`, both in `named()` order; each parameter's
`.data` and `.grad` are views into them.

The file has the trajectory store's frame, read by `store_io`'s one reader:
a magic line, one canonical JSON header (config, normalization constants,
parameter manifest), then the parameter vector as one little-endian float64
block, which is each tensor's block in manifest order. Load -> save is
byte-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad
from .config import ConfigError, config_from_dict, config_to_dict
from .diffusion import NoiseApproximatorParams
from .dt3 import DT3Params
from .store_io import _canonical_json, atomic_write, header_env, read_frame

MAGIC = b"drdt3-bundle/4\n"

# A bundle header's keys and their types, as `store_io.has_type` reads them.
_SCHEMA = {"config": dict, "env_id": str, "d_s": int, "d_a": int,
           "state_mean": list[float], "state_std": list[float],
           "rtg_norm": float, "initial_return": float, "seed": int,
           "manifest": list}


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


def _least_parameter_floats(config, d_a):
    """A lower bound on the floats of all the parameters `config` builds
    for an env with `d_a` actions, and most of them: the 8 embed_dim^2
    floats of the (d, 3d) QKV weight, the output projection and the four
    TTT weights, the timestep table, the two mlp_expansion*cond_hidden^2
    weights of the noise MLP, and its condition projection."""
    d, h = config.embed_dim, config.cond_hidden
    return (8 * d * d + config.max_episode_len * d
            + 2 * config.mlp_expansion * h * h
            + (config.time_embed_dim + d_a) * h)


def load_bundle(path):
    with read_frame(path, MAGIC, _SCHEMA, BundleFormatError) as frame:
        header = frame.header
        try:
            config = config_from_dict(header["config"])
        except ConfigError as e:
            raise BundleFormatError(f"bad bundle config: {e}") from None
        env = header_env(header, BundleFormatError)
        mean, std = header["state_mean"], header["state_std"]
        if not len(mean) == len(std) == env.d_s:
            raise BundleFormatError(
                f"state_mean has {len(mean)} entries and state_std "
                f"{len(std)}; {env.env_id}'s states have {env.d_s}")
        # The policy divides by both; a saved bundle never holds other values.
        if min(std) <= 0 or header["rtg_norm"] <= 0:
            raise BundleFormatError(f"state_std {std} and rtg_norm "
                                    f"{header['rtg_norm']} must be > 0")
        if header["seed"] < 0:
            raise BundleFormatError(f"header seed is {header['seed']}; "
                                    "must be >= 0")
        # Refuse a config that builds more than the file holds before any
        # weight is drawn; what a config that passes builds is at most
        # about 1.5 times the block.
        floats = _least_parameter_floats(config, env.d_a)
        if floats > frame.left // 8:
            raise BundleFormatError(
                f"config asks for at least {floats} parameter floats; the "
                f"parameter block holds {frame.left // 8}")
        # The shapes come from the config; the values are read below.
        bundle = PolicyBundle(
            config, env.env_id, env.d_s, env.d_a, mean, std,
            header["rtg_norm"], header["initial_return"], header["seed"],
        )
        expected = [[n, list(p.data.shape)] for n, p in bundle.named()]
        if header["manifest"] != expected:
            raise BundleFormatError(
                "manifest does not list its config's parameters, in order "
                "and with their shapes")
        bundle.data[:] = frame.floats(bundle.data.size, "the parameter block")
    return bundle
