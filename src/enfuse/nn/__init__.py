from .layers import (
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Layer,
    MaxPool2d,
    ReLU,
    Softmax,
    layer_from_descriptor,
)
from .losses import cross_entropy_loss, nt_xent_loss
from .model import MODEL_MAGIC, EncoderModel
from .optim import OptimizerState, adam_step, plateau_schedule
from .train import accuracy, images_to_batch, train_supervised

__all__ = [
    "Conv2d", "Dense", "Dropout", "Flatten", "GlobalAvgPool", "Layer",
    "MaxPool2d", "ReLU", "Softmax", "layer_from_descriptor",
    "cross_entropy_loss", "nt_xent_loss",
    "MODEL_MAGIC", "EncoderModel",
    "OptimizerState", "adam_step", "plateau_schedule",
    "accuracy", "images_to_batch", "train_supervised",
]
