"""qkdfl: deterministic simulator of QKD-seeded secure aggregation for FL."""

from .datasets import (
    ChannelSample,
    RadarSample,
    gen_channel_dataset,
    gen_radar_dataset,
    load_dataset,
    save_dataset,
)
from .federated import (
    RoundConfig,
    RoundReport,
    partition_non_iid,
    run_round,
    run_training,
)
from .masking import (
    MaskedUpdate,
    MaskingContext,
    aggregate,
    apply_pairwise_masks,
    derive_pair_key,
    leakage_proxies,
)
from .metrics import eval_channel, eval_radar, mean_iou, nmse, pixel_accuracy
from .models import ModelSpec, build_model, init_params
from .params import ParamVec
from .qkd import BB84Config, QkdSession, privacy_amplify, qber_of, run_bb84
from .training import train_local

__version__ = "0.1.0"

__all__ = [
    "BB84Config",
    "ChannelSample",
    "MaskedUpdate",
    "MaskingContext",
    "ModelSpec",
    "ParamVec",
    "QkdSession",
    "RadarSample",
    "RoundConfig",
    "RoundReport",
    "aggregate",
    "apply_pairwise_masks",
    "build_model",
    "derive_pair_key",
    "eval_channel",
    "eval_radar",
    "gen_channel_dataset",
    "gen_radar_dataset",
    "init_params",
    "leakage_proxies",
    "load_dataset",
    "mean_iou",
    "nmse",
    "partition_non_iid",
    "pixel_accuracy",
    "privacy_amplify",
    "qber_of",
    "run_bb84",
    "run_round",
    "run_training",
    "save_dataset",
    "train_local",
]
