from .data import SyntheticQuadrants
from .distill import (DistillTarget, distill_target, majority_downsample,
                      soft_cross_entropy, teacher_prob_map)
from .ema import EmaState, ema_init, ema_update
from .mixing import MixedSample, cutmix, mixup
from .optim import AdamW, cosine_schedule
from .loop import METRICS_HEADER, StepRecord, TrainConfig, TrainingDiverged, train_loop

__all__ = [
    "SyntheticQuadrants",
    "MixedSample", "cutmix", "mixup",
    "DistillTarget", "distill_target", "majority_downsample",
    "soft_cross_entropy", "teacher_prob_map",
    "EmaState", "ema_init", "ema_update",
    "AdamW", "cosine_schedule",
    "TrainConfig", "StepRecord", "METRICS_HEADER", "TrainingDiverged", "train_loop",
]
