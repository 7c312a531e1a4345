"""Run configuration: dataclasses plus a flat key=value config-file parser."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

from .diffusion import VARIANTS
from .store_io import has_type


class ConfigError(ValueError):
    """Raised for unknown or repeated keys, untypeable values, or invalid
    settings in a config."""


# The most diffusion steps a config may ask for: DDPM's N (Ho et al. 2020).
MAX_DIFFUSION_STEPS = 1000


@dataclass
class TrainConfig:
    # Sequence model
    context_len: int = 6
    embed_dim: int = 128
    n_heads: int = 1
    inner_lr: float = 1.0
    max_episode_len: int = 64
    dt_mode: bool = False           # replace the TTT sub-layer with identity
    condition_on_rtg: bool = True   # False zeroes the RTG channel (BC-style)

    # Diffusion
    n_diffusion_steps: int = 5
    beta_min: float = 0.1
    beta_max: float = 10.0
    mlp_expansion: int = 4
    cond_hidden: int = 64
    time_embed_dim: int = 16
    noise_approx_variant: str = "full"   # full | no_adaln | no_gated_mlp | plain

    # Objective / optimization
    zeta: float = 0.2
    dt3_loss_norm: str = "l1"            # l1 | l2
    objective: str = "unified"           # unified | dt3_only
    learning_rate: float = 3e-4
    batch_size: int = 64
    epochs: int = 20
    updates_per_epoch: int = 200
    weight_decay: float = 1e-4
    grad_clip: float = 0.25
    seed: int = 0

    # Evaluation during training
    eval_episodes: int = 10
    rtg_scale: float = 1.0

    def validate(self):
        for f in fields(self):
            value, typ = getattr(self, f.name), _field_type(f)
            if not has_type(value, typ):
                raise ConfigError(
                    f"{f.name} must be {typ.__name__}, got {value!r}")
            if typ is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.zeta < 0:
            raise ConfigError("zeta must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.max_episode_len < 1:
            raise ConfigError("max_episode_len must be >= 1")
        # A window longer than an episode holds only padding.
        if not 1 <= self.context_len <= self.max_episode_len:
            raise ConfigError("context_len must be in 1..max_episode_len "
                              f"({self.max_episode_len})")
        if self.embed_dim < 1:
            raise ConfigError("embed_dim must be >= 1")
        if self.n_heads < 1:
            raise ConfigError("n_heads must be >= 1")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError("embed_dim must be divisible by n_heads")
        if self.dt3_loss_norm not in ("l1", "l2"):
            raise ConfigError(f"unknown dt3_loss_norm: {self.dt3_loss_norm!r}")
        if self.objective not in ("unified", "dt3_only"):
            raise ConfigError(f"unknown objective: {self.objective!r}")
        if self.noise_approx_variant not in VARIANTS:
            raise ConfigError(
                f"unknown noise_approx_variant: {self.noise_approx_variant!r}"
            )
        if not 1 <= self.n_diffusion_steps <= MAX_DIFFUSION_STEPS:
            raise ConfigError(
                f"n_diffusion_steps must be in 1..{MAX_DIFFUSION_STEPS}")
        if self.cond_hidden < 1:
            raise ConfigError("cond_hidden must be >= 1")
        if self.mlp_expansion < 1:
            raise ConfigError("mlp_expansion must be >= 1")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2:
            # The sinusoidal embedding has one sin and one cos per frequency.
            raise ConfigError("time_embed_dim must be even and >= 2")
        if not (0 < self.beta_min <= self.beta_max):
            raise ConfigError("need 0 < beta_min <= beta_max")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.updates_per_epoch < 1:
            raise ConfigError("updates_per_epoch must be >= 1")
        if self.eval_episodes < 0:
            raise ConfigError("eval_episodes must be >= 0")
        if self.rtg_scale <= 0:
            raise ConfigError("rtg_scale must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.inner_lr < 0:
            raise ConfigError("inner_lr must be >= 0")
        if self.grad_clip < 0:
            raise ConfigError("grad_clip must be >= 0")
        return self


def _coerce(name, raw, typ):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"line for {name!r}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as e:
        raise ConfigError(f"line for {name!r}: {e}") from None


def parse_config_text(text):
    """Parse `key = value` lines into a TrainConfig; unknown and repeated
    keys are rejected."""
    by_name = {f.name: f for f in fields(TrainConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in by_name:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} is set twice")
        values[key] = _coerce(key, raw, _field_type(by_name[key]))
    return TrainConfig(**values).validate()


def _field_type(f):
    # Dataclass fields carry string annotations under `from __future__ import
    # annotations`; map them back to the builtin types used here.
    t = f.type
    if isinstance(t, str):
        return {"int": int, "float": float, "bool": bool, "str": str}[t]
    return t


def load_config(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}") from None
    return parse_config_text(text)


def config_from_dict(values):
    """The TrainConfig that a full field -> value mapping, such as a
    bundle's config snapshot, describes: it must set every field and no
    other key, and passes `validate`'s typed check as a config file does."""
    odd = set(values) ^ {f.name for f in fields(TrainConfig)}
    if odd:
        raise ConfigError(f"unknown or missing keys {sorted(odd)}")
    return TrainConfig(**values).validate()


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)

