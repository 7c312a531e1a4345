"""Diffusion-refined decision sequence modelling on toy offline-RL tasks."""

from .autodiff import DArray, backward, check_gradients
from .config import TrainConfig
from .diffusion import (DiffusionSchedule, NoiseApproximatorParams,
                        condition, denoise_step, diffusion_loss, forward_noise,
                        predict_noise, sample_action, vp_schedule)
from .dt3 import (AttentionTTTBlock, ContextBatch, DT3Params, TTTLinearLayer,
                  predict_coarse_actions_batch, ttt_forward)
from .envs import (EnvSpec, Trajectory, TrajectoryStore, compute_rtg,
                   generate_dataset, initial_rtg, make_env, make_env_spec,
                   normalized_score, rollout)
from .training import AdamW, MetricsLog, dt3_loss, train, unified_loss

__all__ = [
    "DArray", "backward", "check_gradients",
    "TrainConfig",
    "DiffusionSchedule", "NoiseApproximatorParams", "vp_schedule",
    "forward_noise", "condition", "predict_noise", "denoise_step",
    "sample_action",
    "diffusion_loss",
    "ContextBatch", "TTTLinearLayer", "AttentionTTTBlock", "DT3Params",
    "ttt_forward", "predict_coarse_actions_batch",
    "EnvSpec", "Trajectory", "TrajectoryStore", "compute_rtg", "initial_rtg",
    "normalized_score", "make_env", "make_env_spec", "generate_dataset",
    "rollout",
    "dt3_loss", "unified_loss", "AdamW", "MetricsLog", "train",
]
