"""Input encoders: static images to spike trains.

The paper's pipeline (built on Norse) presents the image for ``T`` steps
through a **constant-current LIF encoder**: each pixel intensity is a
constant injected current driving a LIF neuron whose spikes feed the first
synaptic layer.  This is differentiable end-to-end through the surrogate
gradient — a requirement of the white-box threat model, where the attacker
back-propagates to the pixels.

:class:`PoissonEncoder` is the alternative for the encoding ablation:
classic rate coding, per-step Bernoulli spikes with probability
proportional to intensity.  Its backward pass uses the straight-through
expectation gradient ``dE[z]/dx = scale``.

Like the neuron cells, an encoder is its three numpy twins —
``step_numpy(image, state)``, ``step_record_numpy(image, state)`` and
``step_backward_numpy(g_spikes, g_state, ctx)``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.snn.neuron import LIFCell, LIFParameters
from repro.tensor.tensor import promote_scalar
from repro.utils.seeding import new_rng

__all__ = ["ConstantCurrentLIFEncoder", "PoissonEncoder"]


class ConstantCurrentLIFEncoder(Module):
    """Encode intensities as spikes of a LIF population driven by them.

    Parameters
    ----------
    params:
        LIF parameters of the encoder population.  When the robustness
        exploration varies ``v_th``, the encoder's threshold is varied too
        (the attacker has white-box knowledge of it); pass a fixed
        ``params`` to pin it instead.
    input_scale:
        Multiplier applied to pixel intensities before injection.  With the
        default LIF constants, a pixel ``x`` drives the encoder membrane
        towards ``5 * input_scale * x`` at steady state, so the default of
        2.0 lets mid-intensity pixels cross thresholds up to ~2.25 within a
        few steps — covering the paper's explored ``Vth`` range.
    """

    def __init__(self, params: LIFParameters | None = None, input_scale: float = 2.0) -> None:
        super().__init__()
        if input_scale <= 0:
            raise ValueError(f"input_scale must be positive, got {input_scale}")
        self.cell = LIFCell(params)
        self.input_scale = input_scale
        self._scale_cache: tuple[float, np.ndarray] | None = None

    def step_numpy(self, image, state=None):
        """Advance the encoder population one step for (static) ``image``."""
        return self.cell.step_numpy(image * self._promoted_scale(), state)

    def _promoted_scale(self) -> np.ndarray:
        cached = self._scale_cache
        if cached is None or cached[0] != self.input_scale:
            cached = (self.input_scale, promote_scalar(self.input_scale))
            self._scale_cache = cached
        return cached[1]

    def step_record_numpy(self, image, state=None):
        """:meth:`step_numpy` that also records the BPTT backward context.

        Delegates to the encoder population's
        :meth:`~repro.snn.neuron.LIFCell.step_record_numpy`; the injection
        current is a pure scaling, so the cell context is all the backward
        needs.  Returns ``(spikes, new_state, ctx)``.
        """
        return self.cell.step_record_numpy(image * self._promoted_scale(), state)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        """Reverse one encoder step; returns ``(g_image_piece, g_prev_state)``.

        ``g_image_piece`` is this step's contribution to the input-pixel
        gradient (the caller accumulates pieces over reverse time exactly
        like the autograd path does).
        """
        g_current, g_prev = self.cell.step_backward_numpy(g_spikes, g_state, ctx)
        return g_current * self._promoted_scale(), g_prev

    def __repr__(self) -> str:
        return (
            f"ConstantCurrentLIFEncoder(v_th={self.cell.params.v_th}, "
            f"input_scale={self.input_scale})"
        )


class PoissonEncoder(Module):
    """Bernoulli/Poisson rate coding with a straight-through gradient.

    At every step each pixel spikes independently with probability
    ``clip(scale * x, 0, 1)``.  The backward pass propagates the gradient
    of the *expected* spike count, which is the standard estimator used
    when attacking rate-coded SNNs.

    Both forward twins draw one ``random`` frame per step from the
    encoder's own generator, so a recorded and an unrecorded pass over the
    same generator state see the same spike trains.  It declares
    :attr:`~repro.nn.module.Module.draws_randomness`, so every pass and
    every step of it runs, read or not.
    """

    draws_randomness = True

    def __init__(self, scale: float = 0.5, rng: int | np.random.Generator | None = None) -> None:
        super().__init__()
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self._rng = new_rng(rng)

    def step_numpy(self, image: np.ndarray, state: object | None = None):
        """Draw one Bernoulli spike frame; returns ``(spikes, None)``."""
        probability = np.clip(self.scale * image, 0.0, 1.0)
        sample = (self._rng.random(image.shape) < probability).astype(image.dtype)
        return sample, None

    def step_record_numpy(self, image: np.ndarray, state: object | None = None):
        """:meth:`step_numpy` that also records the BPTT backward context.

        Returns ``(spikes, None, derivative)`` with the straight-through
        derivative (``scale`` inside the clip's active region) as the
        context.
        """
        sample, _state = self.step_numpy(image)
        active = ((self.scale * image) > 0.0) & ((self.scale * image) < 1.0)
        derivative = self.scale * active.astype(image.dtype)
        return sample, None, derivative

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        """Reverse one encoder step; returns ``(g_image_piece, None)``."""
        return g_spikes * ctx, None

    def __repr__(self) -> str:
        return f"PoissonEncoder(scale={self.scale})"
