"""repro — reproduction of El-Allami et al., DATE 2021.

"Securing Deep Spiking Neural Networks against Adversarial Attacks through
Inherent Structural Parameters".

The library is organised as a stack:

* :mod:`repro.tensor` — numpy autograd engine (PyTorch substitute)
* :mod:`repro.nn`, :mod:`repro.optim` — layers and optimizers
* :mod:`repro.snn` — LIF neurons, surrogate gradients, encoders/decoders
* :mod:`repro.models` — the LeNet-shaped and 5-layer CNNs and their spiking twins
* :mod:`repro.data` — synthetic MNIST substitute and loaders
* :mod:`repro.attacks` — FGSM / BIM / PGD white-box attacks
* :mod:`repro.training` — training loop
* :mod:`repro.robustness` — the paper's Algorithm 1 exploration
* :mod:`repro.engine` — parallel, resumable cell-job execution
* :mod:`repro.experiments` — per-figure reproduction harness

Quickstart
----------
>>> from repro.data import load_synthetic_mnist
>>> from repro.models import build_model
>>> from repro.training import Trainer, TrainingConfig
>>> from repro.attacks import PGD, evaluate_attack
>>> train, test = load_synthetic_mnist(600, 100, seed=0)
>>> snn = build_model("snn_lenet_mini", input_size=16, time_steps=16, rng=0)
>>> Trainer(snn, TrainingConfig(epochs=3)).fit(train)   # doctest: +SKIP
>>> evaluate_attack(snn, PGD(0.1), test).robustness     # doctest: +SKIP
"""

from repro.tensor import Tensor, no_grad

__version__ = "1.0.0"

__all__ = ["Tensor", "no_grad", "__version__"]
