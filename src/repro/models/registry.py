"""Name-based model construction.

The experiment harness and examples refer to models by name so that
profiles stay declarative; this registry maps names to builders.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.models.lenet import CNN5, LeNetMini
from repro.models.spiking_lenet import build_spiking_cnn5, build_spiking_lenet_mini
from repro.nn.module import Module

_BUILDERS: dict[str, Callable[..., Module]] = {
    "lenet_mini": LeNetMini,
    "cnn5": CNN5,
    "snn_lenet_mini": build_spiking_lenet_mini,
    "snn_cnn5": build_spiking_cnn5,
}


def available_models() -> tuple[str, ...]:
    """Names accepted by :func:`build_model`."""
    return tuple(sorted(_BUILDERS))


def build_model(name: str, **kwargs) -> Module:
    """Build a registered model by name, forwarding keyword arguments.

    >>> model = build_model("lenet_mini", input_size=16, rng=0)
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {available_models()}"
        ) from None
    return builder(**kwargs)
