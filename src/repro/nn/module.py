"""Base class for all layers and models.

A :class:`Module` discovers its children by inspecting instance attributes:
any attribute that is a :class:`~repro.nn.parameter.Parameter` is a trainable
parameter, any attribute that is itself a :class:`Module` (or a
``list``/``tuple`` of modules, see :class:`~repro.nn.container.ModuleList`)
is a sub-module.  This keeps registration implicit and the user code
explicit, mirroring the familiar PyTorch idiom without metaclasses.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.nn.parameter import Parameter
from repro.tensor.tensor import Tensor


class Module:
    """Base class of all neural-network modules.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    """

    draws_randomness: bool = False
    """Whether this module's own forward draws from a random generator (a
    :class:`~repro.snn.encoding.PoissonEncoder` does).  Such a pass must
    run even when nothing reads its output, so the generator's stream
    stays where a full run leaves it; a pure pass whose output nothing
    reads may be skipped.  :meth:`forward_draws_randomness` asks it of a
    whole model."""

    def __init__(self) -> None:
        self.training: bool = True

    # -- forward -----------------------------------------------------------

    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- tree traversal ------------------------------------------------------

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        """Yield ``(name, module)`` for direct sub-modules."""
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for self and all descendants."""
        yield prefix, self
        for name, child in self.named_children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        """Yield self and all descendant modules."""
        for _name, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` over the whole subtree."""
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}.{name}" if prefix else name), value
        for name, child in self.named_children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter in the subtree."""
        for _name, parameter in self.named_parameters():
            yield parameter

    def forward_draws_randomness(self) -> bool:
        """Whether any module of the subtree declares :attr:`draws_randomness`."""
        return any(module.draws_randomness for module in self.modules())

    def num_parameters(self) -> int:
        """Total number of trainable scalar weights."""
        return sum(p.size for p in self.parameters())

    # -- train / eval ----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Switch the subtree into training (or eval) mode; returns self."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch the subtree into evaluation mode; returns self."""
        return self.train(False)

    # -- gradients ------------------------------------------------------------

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- persistence -------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat mapping ``name -> array copy`` of all parameters."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values produced by :meth:`state_dict`.

        With ``strict=True`` (default) the key sets must match exactly.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, parameter in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != parameter.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: cannot load shape {value.shape} into "
                    f"{parameter.data.shape}"
                )
            parameter.data = value.astype(parameter.data.dtype, copy=True)

    # -- misc ------------------------------------------------------------------

    def __repr__(self) -> str:
        children = ", ".join(name for name, _ in self.named_children())
        inner = f"children=[{children}]" if children else "leaf"
        return f"{type(self).__name__}({inner})"

    @staticmethod
    def _as_tensor(value: object) -> Tensor:
        """Coerce numpy input at module boundaries."""
        return value if isinstance(value, Tensor) else Tensor(value)
