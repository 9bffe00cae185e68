from .params import ParameterSet, GradientSet, save_params, load_params, is_trainable
from .unet import UNet, UNetConfig

__all__ = [
    "ParameterSet",
    "GradientSet",
    "save_params",
    "load_params",
    "is_trainable",
    "UNet",
    "UNetConfig",
]
