from .params import ParameterSet, GradientSet, is_trainable
from .unet import UNet, UNetConfig

__all__ = [
    "ParameterSet",
    "GradientSet",
    "is_trainable",
    "UNet",
    "UNetConfig",
]
