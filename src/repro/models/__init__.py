"""Reference models: the paper's CNNs and their spiking twins.

The paper compares equal-topology pairs:

* Fig. 1 (motivation): a 5-layer CNN (3 conv + 2 FC) vs. an SNN with the
  same layer/neuron counts — :class:`CNN5` / :func:`build_spiking_cnn5`.
* Figs. 6-9 (evaluation): LeNet-5 adapted to the spiking domain —
  :class:`LeNet5` / :func:`build_spiking_lenet5`.

``*Mini`` variants keep the topology shape but shrink widths; the fast
experiment profiles use them so the full `(Vth, T)` grid runs on CPU in
minutes (docs/reproducing.md, "Expected runtimes").
"""

from repro.models.lenet import CNN5, LeNet5, LeNetMini
from repro.models.registry import available_models, build_model
from repro.models.spiking_lenet import (
    build_spiking_cnn5,
    build_spiking_lenet5,
    build_spiking_lenet_mini,
)

__all__ = [
    "CNN5",
    "LeNet5",
    "LeNetMini",
    "available_models",
    "build_model",
    "build_spiking_cnn5",
    "build_spiking_lenet5",
    "build_spiking_lenet_mini",
]
