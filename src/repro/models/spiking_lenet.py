"""Spiking twins of the CNN baselines.

Each builder mirrors the topology of its CNN counterpart layer for layer
(same channel/unit counts), replacing ReLU activations with LIF
populations and the final classifier output with a leaky-integrator
readout, exactly like the Norse-based pipeline the paper used.

Two substrate-specific adaptations (both ablated in ``benchmarks/``):

* **Spiking-aware weight init** — synaptic inputs are sparse binary spike
  tensors (rate ``p`` of a few percent) rather than standardized
  activations, so Kaiming-initialised currents are too weak to reach
  threshold in deep stages.  All transform weights are scaled by
  ``weight_gain`` (default 3.0 ≈ 1/sqrt(p)), which restores signal
  propagation; see docs/reproducing.md, "Caveats".
* **Decoder** — the default is Norse's max-over-time readout membrane
  (what the paper's pipeline used); ``decoder="mean"`` (time-averaged
  membrane) trains slightly better on this substrate but smooths the
  attack gradients, and is kept for the decoder comparison.

Pooling is applied to the *spike* tensors (folded into the next stage's
synaptic transform), preserving the event-based information flow.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.models.lenet import pooled_size
from repro.snn.decoding import (
    LastMembraneDecoder,
    MaxMembraneDecoder,
    MeanMembraneDecoder,
)
from repro.snn.encoding import ConstantCurrentLIFEncoder
from repro.snn.network import SpikingLayer, SpikingNetwork, SpikingReadout
from repro.snn.neuron import LICell, LIFCell, LIFParameters
from repro.utils.seeding import new_rng

__all__ = ["build_spiking_cnn5", "build_spiking_lenet_mini"]

_DECODERS = {
    "mean": MeanMembraneDecoder,
    "max": MaxMembraneDecoder,
    "last": LastMembraneDecoder,
}


def _make_decoder(name: str) -> nn.Module:
    try:
        return _DECODERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown decoder {name!r}; available: {tuple(sorted(_DECODERS))}"
        ) from None


def _apply_weight_gain(network: SpikingNetwork, gain: float) -> None:
    """Scale all synaptic weights (not biases) by ``gain``."""
    if gain <= 0:
        raise ValueError(f"weight_gain must be positive, got {gain}")
    if gain == 1.0:
        return
    for name, parameter in network.named_parameters():
        if name.endswith("weight"):
            parameter.data = parameter.data * gain


def _network(
    stages: list[SpikingLayer],
    readout: SpikingReadout,
    params: LIFParameters,
    time_steps: int,
    input_scale: float,
    vary_encoder_threshold: bool,
    decoder: str,
    weight_gain: float,
) -> SpikingNetwork:
    encoder = ConstantCurrentLIFEncoder(params=params, input_scale=input_scale)
    network = SpikingNetwork(
        encoder=encoder,
        layers=stages,
        readout=readout,
        time_steps=time_steps,
        decoder=_make_decoder(decoder),
        vary_encoder_threshold=vary_encoder_threshold,
    )
    _apply_weight_gain(network, weight_gain)
    return network


def build_spiking_lenet_mini(
    input_size: int = 16,
    num_classes: int = 10,
    time_steps: int = 32,
    lif_params: LIFParameters | None = None,
    input_scale: float = 2.0,
    vary_encoder_threshold: bool = True,
    decoder: str = "max",
    weight_gain: float = 3.0,
    rng: int | np.random.Generator | None = None,
) -> SpikingNetwork:
    """Width-reduced spiking LeNet used by the fast experiment profiles.

    Mirrors :class:`repro.models.lenet.LeNetMini` layer for layer:
    conv8@3x3 - pool - conv16@3x3 - pool - fc64 - readout fc10.
    """
    params = lif_params or LIFParameters()
    params.validate()
    generator = new_rng(rng)
    flat = 16 * pooled_size(input_size, 2) ** 2
    stages = [
        SpikingLayer(nn.Conv2d(1, 8, 3, padding=1, rng=generator), LIFCell(params)),
        SpikingLayer(
            nn.Sequential(nn.MaxPool2d(2), nn.Conv2d(8, 16, 3, padding=1, rng=generator)),
            LIFCell(params),
        ),
        SpikingLayer(
            nn.Sequential(
                nn.MaxPool2d(2), nn.Flatten(), nn.Linear(flat, 64, rng=generator)
            ),
            LIFCell(params),
        ),
    ]
    readout = SpikingReadout(nn.Linear(64, num_classes, rng=generator), LICell(params))
    return _network(
        stages, readout, params, time_steps, input_scale,
        vary_encoder_threshold, decoder, weight_gain,
    )


def build_spiking_cnn5(
    input_size: int = 28,
    num_classes: int = 10,
    time_steps: int = 64,
    channels: tuple[int, int, int] = (8, 16, 16),
    hidden: int = 64,
    lif_params: LIFParameters | None = None,
    input_scale: float = 2.0,
    vary_encoder_threshold: bool = True,
    decoder: str = "max",
    weight_gain: float = 3.0,
    rng: int | np.random.Generator | None = None,
) -> SpikingNetwork:
    """Spiking twin of :class:`repro.models.lenet.CNN5` (paper Fig. 1 SNN).

    Same number of layers and neurons per layer as the CNN, per the
    motivational case study setup.
    """
    params = lif_params or LIFParameters()
    params.validate()
    generator = new_rng(rng)
    c1, c2, c3 = channels
    flat = c3 * pooled_size(input_size, 2) ** 2
    stages = [
        SpikingLayer(nn.Conv2d(1, c1, 3, padding=1, rng=generator), LIFCell(params)),
        SpikingLayer(
            nn.Sequential(nn.MaxPool2d(2), nn.Conv2d(c1, c2, 3, padding=1, rng=generator)),
            LIFCell(params),
        ),
        SpikingLayer(
            nn.Sequential(nn.MaxPool2d(2), nn.Conv2d(c2, c3, 3, padding=1, rng=generator)),
            LIFCell(params),
        ),
        SpikingLayer(
            nn.Sequential(nn.Flatten(), nn.Linear(flat, hidden, rng=generator)),
            LIFCell(params),
        ),
    ]
    readout = SpikingReadout(nn.Linear(hidden, num_classes, rng=generator), LICell(params))
    return _network(
        stages, readout, params, time_steps, input_scale,
        vary_encoder_threshold, decoder, weight_gain,
    )
