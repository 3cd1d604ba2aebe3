"""Attack base class and shared white-box utilities."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["Attack", "input_gradient", "predict_batched"]


def input_gradient(model: Module, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the cross-entropy loss w.r.t. the input pixels.

    This is the core white-box primitive (Eq. 3 of the paper uses its
    sign).  For spiking models the gradient flows through the unrolled
    time loop and the surrogate spike derivatives.

    The model is forced into eval mode for the duration of the pass (and
    restored afterwards): attack gradients must be taken against the
    deterministic inference behaviour — a layer that is stochastic in
    training mode would redraw its noise between PGD iterations and
    randomize the attack direction.

    Models with a ``fused_input_gradient`` (i.e.
    :class:`~repro.snn.network.SpikingNetwork`) take that graph-free
    reverse-time path, which produces bitwise the gradients of the
    unrolled autograd graph at a fraction of the cost; everything else
    differentiates its own autograd graph.

    Returns zeros when the loss does not depend on the input at all.
    This is a real phenomenon in SNNs, not an error: each state-coupled
    stage adds one step of input-to-output latency, so when the time
    window ``T`` is smaller than the network depth the readout trace is
    (exactly) independent of the image — the white-box gradient vanishes
    and gradient-based attacks are blinded.
    """
    # Save per-module modes: a blanket train()/eval() round-trip would
    # flatten deliberately frozen submodules (e.g. a sub-network pinned to
    # eval inside an otherwise training model).
    modules = list(model.modules()) if hasattr(model, "modules") else []
    saved_modes = [(module, module.training) for module in modules]
    force_eval = any(mode for _module, mode in saved_modes)
    if force_eval:
        model.eval()
    try:
        fused = getattr(model, "fused_input_gradient", None)
        if fused is not None:
            return fused(images, labels)
        x = Tensor(images.copy(), requires_grad=True)
        logits = model(x)
        loss = F.cross_entropy(logits, labels)
        loss.backward()
        if x.grad is None:
            return np.zeros_like(x.data)
        return x.grad
    finally:
        if force_eval:
            for module, mode in saved_modes:
                module.training = mode


def predict_batched(model: Module, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Class predictions without building autograd graphs.

    Runs under ``no_grad()``, so spiking models take their fused numpy
    inference path (:meth:`repro.snn.network.SpikingNetwork.forward`) —
    the logits are bitwise identical to the graph path, just cheaper.
    """
    predictions = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            predictions.append(logits.data.argmax(axis=1))
    return np.concatenate(predictions) if predictions else np.empty(0, dtype=np.int64)


class Attack:
    """Base class: bounded perturbation crafting on ``[0, 1]`` images.

    Parameters
    ----------
    epsilon:
        L-infinity noise budget ``ε >= 0`` (paper notation).  ``ε = 0``
        returns the input unchanged, so robustness curves start at the
        clean accuracy.
    clip_min, clip_max:
        Valid pixel range (the projection set ``S_x`` includes it).
    """

    name: str = "attack"

    def __init__(
        self,
        epsilon: float,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        targeted: bool = False,
    ) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if clip_min >= clip_max:
            raise ValueError(f"need clip_min < clip_max, got {clip_min} >= {clip_max}")
        self.epsilon = float(epsilon)
        self.clip_min = float(clip_min)
        self.clip_max = float(clip_max)
        self.targeted = bool(targeted)

    @property
    def _gradient_sign(self) -> float:
        """+1 ascends the loss (untargeted); -1 descends it (targeted).

        For targeted attacks the ``labels`` passed to :meth:`generate` are
        the attacker's *target* classes and the perturbation walks towards
        them instead of away from the true class.
        """
        return -1.0 if self.targeted else 1.0

    # -- interface -----------------------------------------------------------

    def generate(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        clean_gradient: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return adversarial examples of the same shape as ``images``.

        ``clean_gradient`` is ``input_gradient(model, images, labels)``
        when the caller already has it: an ε sweep computes it once per
        batch for every budget.  It reaches :meth:`_perturb` only when
        :attr:`reuses_clean_gradient` holds; otherwise ``_perturb`` gets
        ``None``.
        """
        images = np.asarray(images)
        labels = np.asarray(labels)
        if len(images) != len(labels):
            raise ValueError("images and labels must agree on the batch dimension")
        if self.epsilon == 0.0:
            return images.copy()
        if not self.reuses_clean_gradient:
            clean_gradient = None
        adversarial = self._perturb(model, images, labels, clean_gradient)
        return self.project(images, adversarial)

    def _perturb(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        clean_gradient: np.ndarray | None,
    ) -> np.ndarray:
        """The attack itself: the crafting hook every subclass implements.

        ``clean_gradient`` is the loss gradient at ``images`` or ``None``
        (compute it if needed); :meth:`generate` projects the result.
        """
        raise NotImplementedError

    @property
    def reuses_clean_gradient(self) -> bool:
        """Whether :meth:`_perturb` uses a precomputed clean-input gradient.

        The loss gradient at the *clean* input does not depend on ε, so a
        K-point sweep can compute it once and hand it to every budget.
        Single-step sign attacks (FGSM) are built entirely from it;
        iterative attacks starting at the clean input (BIM, PGD without
        random start) reuse it for their first step.
        """
        return False

    # -- helpers ---------------------------------------------------------------

    def project(self, reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
        """Projection ``P_Sx``: intersect the ε-ball around ``reference``
        with the valid pixel box."""
        low = np.maximum(reference - self.epsilon, self.clip_min)
        high = np.minimum(reference + self.epsilon, self.clip_max)
        return np.clip(candidate, low, high).astype(reference.dtype, copy=False)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(epsilon={self.epsilon})"

