"""The Adam optimizer."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.optimizer import Optimizer


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias-corrected moment estimates.

    ``weight_decay`` is the classic L2-penalty formulation (added to the
    gradient).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.betas = (beta1, beta2)
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: list[np.ndarray | None] = [None] * len(self.parameters)
        self._v: list[np.ndarray | None] = [None] * len(self.parameters)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Moment estimates and step count as a flat array mapping.

        The inverse of :meth:`load_state_dict`; together they make a
        resumed training run a bitwise *continuation* rather than a
        re-anneal (see ``Trainer.fit``).  Parameters that never received
        a gradient have no entries.
        """
        state: dict[str, np.ndarray] = {
            "step_count": np.asarray(self._step_count, dtype=np.int64)
        }
        for index, (m, v) in enumerate(zip(self._m, self._v)):
            if m is not None:
                state[f"m{index}"] = m
                state[f"v{index}"] = v
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore moments previously exported by :meth:`state_dict`.

        The optimizer must manage the same parameter list (same order and
        shapes) the state was exported from; shape mismatches raise
        ``ValueError`` rather than corrupting the update arithmetic.
        """
        self._step_count = int(state["step_count"])
        for index, parameter in enumerate(self.parameters):
            m = state.get(f"m{index}")
            v = state.get(f"v{index}")
            if m is None or v is None:
                self._m[index] = None
                self._v[index] = None
                continue
            m = np.asarray(m)
            v = np.asarray(v)
            if m.shape != parameter.data.shape or v.shape != parameter.data.shape:
                raise ValueError(
                    f"optimizer state {index} has shape {m.shape}/{v.shape}, "
                    f"parameter expects {parameter.data.shape}"
                )
            self._m[index] = m
            self._v[index] = v

    def step(self) -> None:
        """Apply one Adam update to every parameter with a gradient."""
        super().step()
        beta1, beta2 = self.betas
        t = self.step_count
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m = self._m[index]
            v = self._v[index]
            if m is None:
                m = np.zeros_like(parameter.data)
                v = np.zeros_like(parameter.data)
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * (grad * grad)
            self._m[index] = m
            self._v[index] = v
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

