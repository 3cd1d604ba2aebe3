"""White-box adversarial attacks (the Foolbox substitute).

All attacks operate on any differentiable classifier (CNN or SNN alike):
``model(Tensor(images)) -> logits``.  Gradients with respect to the *input
pixels* are obtained through the full autograd graph — for SNNs that means
backpropagating through the unrolled simulation and the surrogate spike
gradients, which is exactly the strong white-box setting of the paper's
threat model (the attacker knows architecture, weights, and the structural
parameters ``Vth``/``T``).

Images are assumed to live in ``[0, 1]``; every attack clips its output
back into that box.
"""

from repro.attacks.base import Attack, input_gradient, predict_batched
from repro.attacks.fgsm import BIM, FGSM
from repro.attacks.metrics import (
    AttackEvaluation,
    evaluate_attack,
    evaluate_attack_sweep,
    evaluate_clean_accuracy,
    perturbation_norms,
)
from repro.attacks.noise import GaussianNoise, SignNoise, UniformNoise
from repro.attacks.pgd import PGD
from repro.attacks.transfer import TransferEvaluation, evaluate_transfer_attack

__all__ = [
    "Attack",
    "AttackEvaluation",
    "BIM",
    "FGSM",
    "GaussianNoise",
    "PGD",
    "SignNoise",
    "TransferEvaluation",
    "UniformNoise",
    "evaluate_attack",
    "evaluate_attack_sweep",
    "evaluate_clean_accuracy",
    "evaluate_transfer_attack",
    "input_gradient",
    "perturbation_norms",
    "predict_batched",
]
