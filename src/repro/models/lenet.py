"""Non-spiking CNN baselines.

These are the paper's comparators: the accuracy of each spiking model is
tracked against the equal-topology CNN trained on the same data under the
same attack (paper Figs. 1 and 9).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.tensor.tensor import Tensor
from repro.utils.seeding import new_rng

__all__ = ["CNN5", "LeNetMini", "pooled_size"]


def pooled_size(input_size: int, times: int) -> int:
    """Spatial size after ``times`` 2x2 poolings of ``input_size``."""
    size = input_size
    for _ in range(times):
        size //= 2
    if size < 1:
        raise ValueError(f"input_size {input_size} too small for {times} poolings")
    return size


class LeNetMini(nn.Module):
    """Width-reduced LeNet-shaped CNN for the fast experiment profiles.

    LeNet-5's 2-conv + FC shape with 8/16 channels and a 64-unit hidden
    FC layer, mirroring the spiking mini twin exactly
    (:func:`repro.models.spiking_lenet.build_spiking_lenet_mini`).
    """

    def __init__(
        self,
        input_size: int = 16,
        num_classes: int = 10,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        generator = new_rng(rng)
        self.input_size = input_size
        self.num_classes = num_classes
        flat = 16 * pooled_size(input_size, 2) ** 2
        self.features = nn.Sequential(
            nn.Conv2d(1, 8, 3, padding=1, rng=generator),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(8, 16, 3, padding=1, rng=generator),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
        )
        self.classifier = nn.Sequential(
            nn.Linear(flat, 64, rng=generator),
            nn.ReLU(),
            nn.Linear(64, num_classes, rng=generator),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(self._as_tensor(x)))


class CNN5(nn.Module):
    """The motivational 5-layer CNN of paper Fig. 1 (3 conv + 2 FC)."""

    def __init__(
        self,
        input_size: int = 28,
        num_classes: int = 10,
        channels: tuple[int, int, int] = (8, 16, 16),
        hidden: int = 64,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        generator = new_rng(rng)
        self.input_size = input_size
        self.num_classes = num_classes
        c1, c2, c3 = channels
        flat = c3 * pooled_size(input_size, 2) ** 2
        self.features = nn.Sequential(
            nn.Conv2d(1, c1, 3, padding=1, rng=generator),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(c1, c2, 3, padding=1, rng=generator),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(c2, c3, 3, padding=1, rng=generator),
            nn.ReLU(),
            nn.Flatten(),
        )
        self.classifier = nn.Sequential(
            nn.Linear(flat, hidden, rng=generator),
            nn.ReLU(),
            nn.Linear(hidden, num_classes, rng=generator),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(self._as_tensor(x)))
