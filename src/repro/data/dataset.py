"""In-memory dataset and mini-batch loader."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.utils.seeding import new_rng


class ArrayDataset:
    """Paired image/label arrays held fully in memory.

    Parameters
    ----------
    images:
        Float array of shape ``(N, C, H, W)`` (or any ``(N, ...)``).
    labels:
        Integer array of shape ``(N,)``.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images)
        labels = np.asarray(labels, dtype=np.int64)
        if len(images) != len(labels):
            raise ShapeError(
                f"images ({len(images)}) and labels ({len(labels)}) disagree on N"
            )
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int | slice | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.images[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        """Number of distinct labels (max label + 1)."""
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Return a new dataset restricted to ``indices``."""
        indices = np.asarray(indices)
        return ArrayDataset(self.images[indices], self.labels[indices])

    def take(self, count: int) -> "ArrayDataset":
        """Return the first ``count`` samples (all if ``count`` exceeds N)."""
        return ArrayDataset(self.images[:count], self.labels[:count])

    def class_counts(self) -> np.ndarray:
        """Histogram of labels, length ``num_classes``."""
        return np.bincount(self.labels, minlength=self.num_classes)


class DataLoader:
    """Deterministic mini-batch iterator over an :class:`ArrayDataset`.

    Shuffling (when enabled) reshuffles every epoch using a generator
    derived from ``seed``, so iteration order is reproducible.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 32,
        shuffle: bool = False,
        seed: int | None = None,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = new_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def skip_epochs(self, count: int) -> None:
        """Advance the shuffle stream past ``count`` epochs without yielding.

        A training run resumed at epoch ``k`` from checkpointed weights
        must iterate the *same* batch order a continuous run would have
        seen at that epoch; burning the first ``k`` permutations keeps the
        per-epoch shuffle stream aligned.  A no-op when shuffling is off
        (iteration order is then epoch-independent).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if self.shuffle:
            n = len(self.dataset)
            for _ in range(count):
                self._rng.permutation(n)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            if self.drop_last and len(batch_idx) < self.batch_size:
                return
            yield self.dataset[batch_idx]
