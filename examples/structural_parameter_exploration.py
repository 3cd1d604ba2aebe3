#!/usr/bin/env python3
"""Algorithm 1 in miniature: explore (Vth, T) learnability and robustness.

This is the paper's core methodology on a small grid (four combinations,
a few minutes on CPU): train an SNN per combination, gate on baseline
accuracy, then measure PGD robustness for the survivors and print the
heat maps that correspond to paper Figures 6 and 7.

Usage::

    python examples/structural_parameter_exploration.py
"""

from __future__ import annotations

from repro.data import MNIST_MEAN, MNIST_STD, ArrayDataset, Normalize, load_synthetic_mnist
from repro.data.transforms import normalized_bounds
from repro.engine import JobContext, build_cell_tasks, run_cell_tasks
from repro.experiments.fig678_grid import cell_progress, grid_result
from repro.models import build_model
from repro.robustness import ExplorationConfig, render_heatmap
from repro.snn import LIFParameters
from repro.training import TrainingConfig


def main() -> None:
    # MNIST-style normalization puts epsilon on the paper's scale.
    raw_train, raw_test = load_synthetic_mnist(600, 100, image_size=16, seed=1)
    normalize = Normalize(MNIST_MEAN, MNIST_STD)
    train = ArrayDataset(normalize(raw_train.images), raw_train.labels)
    test = ArrayDataset(normalize(raw_test.images), raw_test.labels)
    clip_min, clip_max = normalized_bounds()

    def factory(v_th: float, time_window: int, seed: int):
        return build_model(
            "snn_lenet_mini",
            input_size=16,
            time_steps=int(time_window),
            lif_params=LIFParameters(v_th=float(v_th)),
            input_scale=1.0,  # normalized inputs carry their own scale
            rng=seed,
        )

    config = ExplorationConfig(
        v_thresholds=(0.5, 1.0),
        time_windows=(16, 32),
        epsilons=(1.0,),
        accuracy_threshold=0.70,   # the paper's Ath
        attack="pgd",
        attack_steps=8,
        clip_min=clip_min,
        clip_max=clip_max,
        training=TrainingConfig(epochs=5, batch_size=32),
        seed=7,
    )
    # One gated engine task per (Vth, T) cell, run as the CLI runs them.
    context = JobContext.for_grid(config, factory, train, test.take(48))
    tasks = build_cell_tasks(config)
    cells, stats = run_cell_tasks(context, tasks, progress=cell_progress(True, len(tasks)))
    result = grid_result(config, context, cells, stats)

    print()
    print(render_heatmap(
        result.accuracy_grid(), result.row_labels(), result.column_labels(),
        title="Learnability (clean accuracy %, cf. paper Fig. 6)",
    ))
    print()
    print(render_heatmap(
        result.robustness_grid(1.0), result.row_labels(), result.column_labels(),
        title="Robustness under PGD eps=1 (%; '--' failed the Ath gate, cf. Fig. 7)",
    ))
    print()
    learnable = [c for c in result.cells if c.learnable]
    if learnable:
        best = result.best_cell(1.0)
        print(
            f"most robust learnable combination: (Vth={best.v_th:g}, T={best.time_window}) "
            f"with robustness {best.robustness[1.0] * 100:.1f}%"
        )


if __name__ == "__main__":
    main()
