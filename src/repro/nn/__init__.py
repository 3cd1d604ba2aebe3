"""Neural-network building blocks on top of :mod:`repro.tensor`.

The API mirrors a small, explicit subset of ``torch.nn``: modules own
:class:`~repro.nn.parameter.Parameter` tensors, compose via attributes or
:class:`~repro.nn.container.Sequential`, and expose ``state_dict`` /
``load_state_dict`` for persistence.
"""

from repro.nn.activations import ReLU, Tanh
from repro.nn.container import ModuleList, Sequential
from repro.nn.conv import Conv2d
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.pooling import AvgPool2d, MaxPool2d

__all__ = [
    "AvgPool2d",
    "Conv2d",
    "Flatten",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Parameter",
    "ReLU",
    "Sequential",
    "Tanh",
]
