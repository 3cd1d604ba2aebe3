"""Spike-activity analysis and energy proxies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.models.spiking_lenet import build_spiking_lenet_mini
from repro.snn import backward as bptt
from repro.snn import (
    ActivityReport,
    LIFParameters,
    gradient_connectivity,
    spike_activity,
    synaptic_operations,
)
from repro.snn.network import NetworkLanes
from repro.tensor import Tensor
from tests.reference_ops import unrolled_spike_counts


@pytest.fixture(scope="module")
def network():
    return build_model("snn_lenet_mini", input_size=12, time_steps=12, rng=0)


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(0).random((4, 1, 12, 12)).astype(np.float32)


class TestSpikeActivity:
    def test_report_structure(self, network, batch):
        report = spike_activity(network, batch)
        assert isinstance(report, ActivityReport)
        assert report.num_samples == 4
        assert report.time_steps == 12
        # encoder + 3 spiking stages
        assert len(report.spikes_per_layer) == 4
        assert len(report.neurons_per_layer) == 4

    def test_neuron_counts_match_topology(self, network, batch):
        report = spike_activity(network, batch)
        assert report.neurons_per_layer[0] == 12 * 12        # encoder (1 ch)
        assert report.neurons_per_layer[1] == 8 * 12 * 12    # conv1 output

    def test_counts_match_spike_counts_diagnostic(self, network, batch):
        report = spike_activity(network, batch)
        assert list(report.spikes_per_layer) == unrolled_spike_counts(network, batch)

    def test_counts_equal_the_oracle_on_silent_steps(self):
        # Bright images: every population fires, but the second conv
        # layer sees no spike at its first step.
        images = 6.0 * np.random.default_rng(0).random((4, 1, 16, 16))
        images = images.astype(np.float32)
        model = build_spiking_lenet_mini(time_steps=8, rng=0)
        tape = bptt.record_forward(NetworkLanes(model), images)
        assert tape.layer_transform_ctxs[1][0][1][0] is None
        report = spike_activity(model, images)
        assert list(report.spikes_per_layer) == unrolled_spike_counts(model, images)
        assert all(count > 0 for count in report.spikes_per_layer[:3])

    def test_firing_rates_bounded(self, network, batch):
        rates = spike_activity(network, batch).firing_rates()
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_totals(self, network, batch):
        report = spike_activity(network, batch)
        assert report.total_spikes == pytest.approx(sum(report.spikes_per_layer))
        assert report.spikes_per_sample == pytest.approx(report.total_spikes / 4)

    def test_render(self, network, batch):
        text = spike_activity(network, batch).render()
        assert "encoder" in text
        assert "stage1" in text

    def test_lower_threshold_more_activity(self, batch):
        dense = build_model(
            "snn_lenet_mini", input_size=12, time_steps=12,
            lif_params=LIFParameters(v_th=0.25), rng=0,
        )
        sparse = build_model(
            "snn_lenet_mini", input_size=12, time_steps=12,
            lif_params=LIFParameters(v_th=2.0), rng=0,
        )
        assert (
            spike_activity(dense, batch).total_spikes
            > spike_activity(sparse, batch).total_spikes
        )

    def test_accepts_tensor_input(self, network, batch):
        report = spike_activity(network, Tensor(batch))
        assert report.num_samples == 4


class TestSynapticOperations:
    def test_positive_and_consistent(self, network, batch):
        synops, report = synaptic_operations(network, batch)
        assert synops > 0
        # SynOps must be at least the spike count (fan-out >= 1 everywhere)
        assert synops >= report.spikes_per_sample

    def test_scales_with_time_window(self, batch):
        short = build_model("snn_lenet_mini", input_size=12, time_steps=8, rng=0)
        long = build_model("snn_lenet_mini", input_size=12, time_steps=32, rng=0)
        synops_short, _ = synaptic_operations(short, batch)
        synops_long, _ = synaptic_operations(long, batch)
        assert synops_long > synops_short


class TestGradientConnectivity:
    def test_zero_when_window_shorter_than_depth(self, batch):
        shallow_window = build_model("snn_cnn5", input_size=12, time_steps=4, rng=0)
        labels = np.zeros(4, dtype=np.int64)
        assert gradient_connectivity(shallow_window, batch, labels) == 0.0

    def test_positive_when_window_covers_depth(self, batch):
        network = build_model(
            "snn_lenet_mini", input_size=12, time_steps=16,
            lif_params=LIFParameters(surrogate_alpha=5.0), rng=0,
        )
        labels = np.zeros(4, dtype=np.int64)
        assert gradient_connectivity(network, batch, labels) > 0.0

    def test_value_is_fraction(self, network, batch):
        labels = np.zeros(4, dtype=np.int64)
        value = gradient_connectivity(network, batch, labels)
        assert 0.0 <= value <= 1.0
