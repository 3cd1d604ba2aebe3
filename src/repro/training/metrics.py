"""Classification metrics over numpy predictions."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of matching entries (0.0 for empty input)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"predictions {predictions.shape} and labels {labels.shape} differ"
        )
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())

