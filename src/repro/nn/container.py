"""Module containers."""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.nn.module import Module
from repro.tensor.tensor import Tensor


class ModuleList(Module):
    """An indexable list of sub-modules that registers its children.

    Because :class:`Module` discovers children via instance attributes, a
    plain Python list would hide its contents from ``parameters()``;
    ``ModuleList`` stores each entry as a numbered attribute instead.
    """

    def __init__(self, modules: Sequence[Module] = ()) -> None:
        super().__init__()
        self._length = 0
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        """Add a module to the end of the list."""
        if not isinstance(module, Module):
            raise TypeError(f"ModuleList.append expects a Module, got {type(module)}")
        setattr(self, str(self._length), module)
        self._length += 1
        return self

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Module]:
        for index in range(self._length):
            yield getattr(self, str(index))

    def __getitem__(self, index: int) -> Module:
        if not -self._length <= index < self._length:
            raise IndexError(f"index {index} out of range for length {self._length}")
        return getattr(self, str(index % self._length))

    def forward(self, *args, **kwargs):
        raise NotImplementedError("ModuleList is a container and cannot be called")


class Sequential(Module):
    """Apply modules in order: ``Sequential(a, b)(x) == b(a(x))``."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = ModuleList(modules)

    def append(self, module: Module) -> "Sequential":
        """Add a module at the end of the pipeline."""
        self.layers.append(module)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def forward_numpy(self, x):
        """Graph-free twin of :meth:`forward`: chain the members' twins.

        Callers must establish that every member has a trusted
        ``forward_numpy`` first (the fused SNN path checks recursively via
        its ``_has_numpy_twin`` contract); an untrusted member means this
        raises or, worse, silently diverges from the Tensor path.
        """
        for layer in self.layers:
            x = layer.forward_numpy(x)
        return x

    def forward_record_numpy(self, x):
        """:meth:`forward_numpy` plus the per-member backward contexts.

        As with :meth:`forward_numpy`, callers must establish first that
        every member honours the record/backward twin contract (the fused
        BPTT path checks recursively).
        """
        contexts = []
        for layer in self.layers:
            x, ctx = layer.forward_record_numpy(x)
            contexts.append(ctx)
        return x, contexts

    def backward_numpy(
        self, g, ctx, param_sink: list | None = None, *, want_input_grad: bool = True
    ):
        """Graph-free backward twin: chain the members' backwards in reverse.

        Members append their ``(param, grad)`` pairs to the shared
        ``param_sink`` deepest-first — the order the autograd engine
        processes them within one application of the pipeline.
        ``want_input_grad`` reaches the first member only: every other
        member's input gradient feeds the member before it.
        """
        for index in reversed(range(len(self.layers))):
            g = self.layers[index].backward_numpy(
                g, ctx[index], param_sink, want_input_grad=want_input_grad or index > 0
            )
        return g
