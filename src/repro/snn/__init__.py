"""Spiking neural network substrate (the Norse substitute).

Implements discrete-time leaky-integrate-and-fire dynamics with surrogate
spike gradients, input encoders, membrane decoders, and the time-unrolled
:class:`~repro.snn.network.SpikingNetwork` classifier used throughout the
reproduction.  The two structural parameters the paper explores map to:

* ``Vth`` — :attr:`LIFParameters.v_th`, applied to every LIF population
  (encoder included by default, because the white-box attacker knows it);
* ``T`` — :attr:`SpikingNetwork.time_steps`, the number of simulation steps
  the (static) input is presented for.
"""

from repro.snn.analysis import (
    ActivityReport,
    gradient_connectivity,
    spike_activity,
    synaptic_operations,
)
from repro.snn.decoding import (
    LastMembraneDecoder,
    MaxMembraneDecoder,
    MeanMembraneDecoder,
    SpikeCountDecoder,
)
from repro.snn.encoding import ConstantCurrentLIFEncoder, PoissonEncoder
from repro.snn.network import SpikingLayer, SpikingNetwork, SpikingReadout
from repro.snn.neuron import LICell, LIFCell, LIFParameters
from repro.snn.surrogate import available_surrogates, surrogate_derivative

__all__ = [
    "ActivityReport",
    "ConstantCurrentLIFEncoder",
    "LICell",
    "LIFCell",
    "LIFParameters",
    "LastMembraneDecoder",
    "MaxMembraneDecoder",
    "MeanMembraneDecoder",
    "PoissonEncoder",
    "SpikeCountDecoder",
    "SpikingLayer",
    "SpikingNetwork",
    "SpikingReadout",
    "available_surrogates",
    "gradient_connectivity",
    "spike_activity",
    "surrogate_derivative",
    "synaptic_operations",
]
