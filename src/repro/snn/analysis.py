"""Spike-activity analysis and neuromorphic energy proxies.

The paper motivates SNNs with the energy efficiency of event-driven
neuromorphic hardware (TrueNorth, Loihi), where energy is dominated by
synaptic events: each spike that fans out across ``fan_out`` synapses
costs roughly one synaptic-operation (SynOp) per target.  This module
computes those statistics for a :class:`~repro.snn.network.SpikingNetwork`,
plus a gradient-connectivity diagnostic for the white-box threat model.

Nothing here is needed to reproduce the paper's figures; it supports the
efficiency/robustness trade-off analyses in the examples and the
structural-parameter results described in docs/reproducing.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import input_gradient
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.snn.network import NetworkLanes, SpikingNetwork
from repro.tensor.tensor import Tensor

__all__ = [
    "ActivityReport",
    "gradient_connectivity",
    "spike_activity",
    "synaptic_operations",
]


@dataclass(frozen=True)
class ActivityReport:
    """Spike statistics of one forward pass over a batch.

    All per-layer vectors are ordered encoder-first, then the hidden
    spiking stages in network order.
    """

    num_samples: int
    time_steps: int
    spikes_per_layer: tuple[float, ...]
    """Total spike counts per spiking population (whole batch, all steps)."""

    neurons_per_layer: tuple[int, ...]
    """Population sizes (per sample)."""

    @property
    def total_spikes(self) -> float:
        """All spikes emitted across the network for the whole batch."""
        return float(sum(self.spikes_per_layer))

    @property
    def spikes_per_sample(self) -> float:
        """Average spikes per input sample."""
        return self.total_spikes / self.num_samples

    def firing_rates(self) -> tuple[float, ...]:
        """Per-layer mean firing probability per neuron per time step."""
        rates = []
        for spikes, neurons in zip(self.spikes_per_layer, self.neurons_per_layer):
            denominator = neurons * self.num_samples * self.time_steps
            rates.append(spikes / denominator if denominator else 0.0)
        return tuple(rates)

    def render(self) -> str:
        """One-line-per-layer text summary."""
        lines = [
            f"spike activity: {self.num_samples} samples x T={self.time_steps}",
            f"{'layer':>8} {'neurons':>9} {'spikes':>10} {'rate':>8}",
        ]
        names = ["encoder"] + [f"stage{i}" for i in range(1, len(self.spikes_per_layer))]
        for name, neurons, spikes, rate in zip(
            names, self.neurons_per_layer, self.spikes_per_layer, self.firing_rates()
        ):
            lines.append(f"{name:>8} {neurons:>9d} {spikes:>10.0f} {rate:>8.4f}")
        lines.append(f"total spikes/sample: {self.spikes_per_sample:.0f}")
        return "\n".join(lines)


def spike_activity(network: SpikingNetwork, images: Tensor | np.ndarray) -> ActivityReport:
    """Measure per-layer spike counts of ``network`` on a batch.

    Runs its own no-grad time loop on the network's numpy twins (encoder
    and hidden layers; the readout emits no spikes) over all ``T`` steps.
    It does not read :func:`~repro.snn.backward.run_trace` on purpose:
    that loop skips each stage's steps past its structural window, whose
    spikes never reach the decoded membrane but are still activity.
    """
    image = images.data if isinstance(images, Tensor) else np.asarray(images)
    lanes = NetworkLanes(network)
    alive = [True]
    encoder_state = None
    layer_states: list = [None] * len(lanes.layer_ops)
    totals = [0.0] * (1 + len(lanes.layer_ops))
    neurons = [0] * len(totals)
    for _ in range(network.time_steps):
        spikes, encoder_state = lanes.encoder.step_numpy(image, encoder_state, alive)
        totals[0] += float(spikes.sum())
        neurons[0] = int(np.prod(spikes.shape[1:]))
        for index, op in enumerate(lanes.layer_ops):
            spikes, layer_states[index] = lanes.layer_cells[index].step_numpy(
                op.forward(spikes, alive), layer_states[index]
            )
            totals[index + 1] += float(spikes.sum())
            neurons[index + 1] = int(np.prod(spikes.shape[1:]))
    return ActivityReport(
        num_samples=image.shape[0],
        time_steps=network.time_steps,
        spikes_per_layer=tuple(totals),
        neurons_per_layer=tuple(neurons),
    )


def _fan_out(transform: Module) -> float:
    """Average number of synapses one input spike of ``transform`` drives.

    For a ``Linear(in, out)`` every spike reaches ``out`` synapses; for a
    convolution each input location drives ``out_channels * kh * kw``
    synapses (boundary effects ignored).  Containers are summed over
    their first weighted layer (pooling/flatten are free on event-driven
    hardware).
    """
    for module in transform.modules():
        if isinstance(module, Linear):
            return float(module.out_features)
        if isinstance(module, Conv2d):
            kh, kw = module.kernel_size
            return float(module.out_channels * kh * kw)
    return 0.0


def synaptic_operations(
    network: SpikingNetwork, images: Tensor | np.ndarray
) -> tuple[float, ActivityReport]:
    """Estimate synaptic operations (SynOps) per sample.

    SynOps is the standard neuromorphic energy proxy (e.g. used for
    TrueNorth/Loihi workloads): each spike entering a weighted transform
    costs its fan-out in synaptic events.  Readout fan-out is included.

    Returns ``(synops_per_sample, activity_report)``.
    """
    report = spike_activity(network, images)
    fan_outs = [_fan_out(layer.transform) for layer in network.layers]
    fan_outs.append(_fan_out(network.readout.transform))
    # spikes_per_layer[i] feeds the transform of stage i (encoder spikes
    # feed layer 0, stage k spikes feed stage k+1, last stage feeds readout).
    synops = 0.0
    for spikes, fan in zip(report.spikes_per_layer, fan_outs):
        synops += spikes * fan
    return synops / report.num_samples, report


def gradient_connectivity(
    network: SpikingNetwork,
    images: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Fraction of input pixels with a non-zero white-box gradient.

    Diagnoses gradient masking: each state-coupled stage adds one step of
    input-to-output latency, so for ``T`` smaller than the network depth
    the loss is exactly independent of the image and this returns 0.0 —
    gradient-based attacks are blind.  Values well below 1.0 indicate
    partially masked gradients (sharp surrogates, dead neurons).
    """
    gradient = input_gradient(network, images, labels)
    return float((gradient != 0.0).mean())
