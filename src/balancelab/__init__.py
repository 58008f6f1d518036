"""balancelab: a desk-scale laboratory for the multimodal imbalance problem.

Trains concatenation-fusion classifiers on synthetic multimodal data,
applies representative balancing methods from four adjustment strategies,
and evaluates performance, Shapley-based modality imbalance, and training
FLOPs under one seeded, reproducible pipeline.
"""

__version__ = "0.1.0"

from .datagen import Dataset, SyntheticSpec, generate, load, save, split
from .fusion import FusionModel, init_model, load_model, save_model
from .methods import MethodSpec
from .metrics import Evaluation, FlopsLedger, imbalance, shapley, value_function
from .trainer import Run, TrainConfig, TrainLog, fit

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "generate",
    "load",
    "save",
    "split",
    "FusionModel",
    "init_model",
    "load_model",
    "save_model",
    "MethodSpec",
    "Evaluation",
    "FlopsLedger",
    "imbalance",
    "shapley",
    "value_function",
    "Run",
    "TrainConfig",
    "TrainLog",
    "fit",
]
