"""The :class:`Tensor` class: numpy arrays with reverse-mode autograd.

The implementation follows the classic tape-less design: every operation
returns a new :class:`Tensor` holding references to its parent tensors and a
backward closure.  :meth:`Tensor.backward` performs an iterative topological
sort (safe for graphs thousands of nodes deep, e.g. SNNs unrolled over many
time steps) and accumulates gradients.

Only *primitive* operations live here; composite operations (convolution,
pooling, losses, softmax) are built in :mod:`repro.tensor.functional`.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Sequence
from typing import Iterator

import numpy as np

from repro.config import DEFAULT_DTYPE
from repro.errors import AutogradError, ShapeError

__all__ = [
    "Tensor",
    "apply_op",
    "is_grad_enabled",
    "no_grad",
    "promote_scalar",
    "stack",
]

# --------------------------------------------------------------------------
# Global autograd switch
# --------------------------------------------------------------------------

_GRAD_ENABLED: bool = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording.

    Used for evaluation loops and optimizer updates, exactly like
    ``torch.no_grad()``::

        with no_grad():
            logits = model(x)
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (gdim, sdim) in enumerate(zip(grad.shape, shape)) if sdim == 1 and gdim != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: object, dtype: np.dtype | None = None) -> np.ndarray:
    """Coerce ``value`` to a float numpy array (default dtype if untyped)."""
    if isinstance(value, (int, float)) and not isinstance(value, np.generic):
        # Plain Python scalars adopt the library default dtype so that
        # ``float32_tensor * 2.0`` stays float32 instead of silently
        # promoting the whole graph to float64.  Numpy scalars (which
        # subclass Python float) keep their own dtype.
        return np.asarray(value, dtype=dtype or DEFAULT_DTYPE)
    if isinstance(value, np.ndarray):
        if dtype is not None and value.dtype != dtype:
            return value.astype(dtype)
        if not np.issubdtype(value.dtype, np.floating):
            return value.astype(DEFAULT_DTYPE)
        return value
    array = np.asarray(value, dtype=dtype)
    if not np.issubdtype(array.dtype, np.floating):
        array = array.astype(DEFAULT_DTYPE)
    return array


def promote_scalar(value: object) -> np.ndarray:
    """Coerce a scalar exactly as tensor operations do.

    Graph-free fast paths (e.g. the fused SNN inference loop) use this so
    their arithmetic promotes python and numpy scalars identically to the
    autograd path — plain python scalars adopt the library default dtype,
    numpy scalars keep their own — keeping results bitwise identical.
    """
    return _as_array(value)


BackwardFn = Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything :func:`numpy.asarray` accepts.  Integer inputs are promoted
        to the library default float dtype, because every tensor in this
        engine is differentiable-by-construction.
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Optional explicit numpy dtype.

    Examples
    --------
    >>> x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    >>> y = (x * x).sum()
    >>> y.backward()
    >>> x.grad
    array([2., 4., 6.], dtype=float32)
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        dtype: np.dtype | None = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: BackwardFn | None = None
        self._op: str = ""

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Numpy dtype of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-compatible name
        """Transpose of a 2-D tensor (alias for :meth:`transpose`)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = f", op={self._op!r}" if self._op else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag}{op})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy; treat as read-only)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def requires_grad_(self, flag: bool = True) -> "Tensor":
        """In-place toggle of :attr:`requires_grad`; returns ``self``."""
        self.requires_grad = bool(flag)
        return self

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False, dtype: np.dtype | None = None) -> "Tensor":
        """Tensor of zeros with the given shape."""
        return Tensor(np.zeros(shape, dtype=dtype or DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False, dtype: np.dtype | None = None) -> "Tensor":
        """Tensor of ones with the given shape."""
        return Tensor(np.ones(shape, dtype=dtype or DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def full(
        shape: tuple[int, ...],
        value: float,
        requires_grad: bool = False,
        dtype: np.dtype | None = None,
    ) -> "Tensor":
        """Tensor filled with ``value``."""
        return Tensor(
            np.full(shape, value, dtype=dtype or DEFAULT_DTYPE), requires_grad=requires_grad
        )

    @staticmethod
    def randn(
        *shape: int,
        rng: np.random.Generator | None = None,
        requires_grad: bool = False,
        dtype: np.dtype | None = None,
    ) -> "Tensor":
        """Tensor of standard-normal samples (seeded via ``rng``)."""
        gen = rng if rng is not None else np.random.default_rng()
        data = gen.standard_normal(shape).astype(dtype or DEFAULT_DTYPE)
        return Tensor(data, requires_grad=requires_grad)

    @staticmethod
    def rand(
        *shape: int,
        rng: np.random.Generator | None = None,
        requires_grad: bool = False,
        dtype: np.dtype | None = None,
    ) -> "Tensor":
        """Tensor of uniform [0, 1) samples (seeded via ``rng``)."""
        gen = rng if rng is not None else np.random.default_rng()
        data = gen.random(shape).astype(dtype or DEFAULT_DTYPE)
        return Tensor(data, requires_grad=requires_grad)

    # -- backward ------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            May be omitted only for single-element tensors, in which case
            it defaults to 1 (the usual scalar-loss convention).
        """
        if not self.requires_grad:
            raise AutogradError(
                "backward() called on a tensor that does not require grad; "
                "create inputs with requires_grad=True or check no_grad() scope"
            )
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    f"backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"output gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        order = self._topological_order()
        self.grad = grad if self.grad is None else self.grad + grad
        for node in order:
            backward_fn = node._backward_fn
            if backward_fn is None or node.grad is None:
                continue
            parent_grads = backward_fn(node.grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                if parent_grad.shape != parent.data.shape:
                    raise ShapeError(
                        f"op {node._op!r} produced gradient of shape "
                        f"{parent_grad.shape} for parent of shape {parent.data.shape}"
                    )
                if parent.grad is None:
                    parent.grad = parent_grad
                else:
                    parent.grad = parent.grad + parent_grad
            # Release references so intermediate buffers can be collected as
            # soon as the backward sweep has passed a node.  Nodes reaching
            # this point are interior (they had a backward_fn); leaves keep
            # their accumulated gradient.
            if node is not self:
                node._backward_fn = None
                node._parents = ()
                node.grad = None

    def _topological_order(self) -> list["Tensor"]:
        """Iterative post-order DFS returning nodes output-first."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: object) -> "Tensor":
        other_t = _ensure_tensor(other)
        a, b = self, other_t

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return apply_op(a.data + b.data, (a, b), backward, "add")

    __radd__ = __add__

    def __sub__(self, other: object) -> "Tensor":
        other_t = _ensure_tensor(other)
        a, b = self, other_t

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

        return apply_op(a.data - b.data, (a, b), backward, "sub")

    def __rsub__(self, other: object) -> "Tensor":
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other: object) -> "Tensor":
        other_t = _ensure_tensor(other)
        a, b = self, other_t

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return apply_op(a.data * b.data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Tensor":
        other_t = _ensure_tensor(other)
        a, b = self, other_t

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            grad_a = _unbroadcast(g / b.data, a.shape)
            grad_b = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            return grad_a, grad_b

        return apply_op(a.data / b.data, (a, b), backward, "div")

    def __rtruediv__(self, other: object) -> "Tensor":
        return _ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (-g,)

        return apply_op(-a.data, (a,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        a = self
        e = float(exponent)

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g * e * np.power(a.data, e - 1.0),)

        return apply_op(np.power(a.data, e), (a,), backward, "pow")

    def __matmul__(self, other: object) -> "Tensor":
        other_t = _ensure_tensor(other)
        a, b = self, other_t
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(
                f"matmul requires operands with ndim >= 2, got {a.ndim} and {b.ndim}"
            )

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            grad_a = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
            grad_b = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
            return grad_a, grad_b

        return apply_op(a.data @ b.data, (a, b), backward, "matmul")

    # -- comparisons (non-differentiable, return numpy bool arrays) -------------

    def __gt__(self, other: object) -> np.ndarray:
        return self.data > _raw(other)

    def __ge__(self, other: object) -> np.ndarray:
        return self.data >= _raw(other)

    def __lt__(self, other: object) -> np.ndarray:
        return self.data < _raw(other)

    def __le__(self, other: object) -> np.ndarray:
        return self.data <= _raw(other)

    # -- elementwise functions ---------------------------------------------------

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        a = self
        out_data = np.tanh(a.data)

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g * (1.0 - out_data * out_data),)

        return apply_op(out_data, (a,), backward, "tanh")

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        a = self
        mask = a.data > 0

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g * mask,)

        return apply_op(a.data * mask, (a,), backward, "relu")

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at the kink)."""
        a = self
        sign = np.sign(a.data)

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g * sign,)

        return apply_op(np.abs(a.data), (a,), backward, "abs")

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when ``None``)."""
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            expanded = _expand_reduced(g, a.shape, axis, keepdims)
            return (np.broadcast_to(expanded, a.shape).astype(a.data.dtype, copy=False).copy(),)

        return apply_op(out_data, (a,), backward, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (all axes when ``None``)."""
        a = self
        out_data = a.data.mean(axis=axis, keepdims=keepdims)
        count = a.data.size if axis is None else _axis_size(a.shape, axis)

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            expanded = _expand_reduced(g, a.shape, axis, keepdims)
            full = np.broadcast_to(expanded, a.shape) / count
            return (full.astype(a.data.dtype, copy=False).copy(),)

        return apply_op(out_data, (a,), backward, "mean")

    def max(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties share the gradient equally."""
        return self._extremum(axis, keepdims, np.max, "max")

    def min(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Minimum over ``axis``; ties share the gradient equally."""
        return self._extremum(axis, keepdims, np.min, "min")

    def _extremum(
        self,
        axis: int | tuple[int, ...] | None,
        keepdims: bool,
        reducer: Callable[..., np.ndarray],
        name: str,
    ) -> "Tensor":
        a = self
        out_data = reducer(a.data, axis=axis, keepdims=keepdims)
        out_keep = reducer(a.data, axis=axis, keepdims=True)
        mask = a.data == out_keep
        tie_count = mask.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            expanded = _expand_reduced(g, a.shape, axis, keepdims)
            grad = mask * (expanded / tie_count)
            return (grad.astype(a.data.dtype, copy=False),)

        return apply_op(out_data, (a,), backward, name)

    # -- shape manipulation ----------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        """Return a tensor with the same data viewed under ``shape``."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g.reshape(a.shape),)

        return apply_op(a.data.reshape(shape), (a,), backward, "reshape")

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onward into one."""
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        """Permute dimensions (reverse all when ``axes`` is ``None``)."""
        a = self
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g.transpose(inverse),)

        return apply_op(a.data.transpose(axes), (a,), backward, "transpose")

    def __getitem__(self, index: object) -> "Tensor":
        """Basic/advanced indexing; backward scatters with ``np.add.at``."""
        a = self
        out_data = a.data[index]

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            grad = np.zeros_like(a.data)
            np.add.at(grad, index, g)
            return (grad,)

        return apply_op(np.ascontiguousarray(out_data), (a,), backward, "getitem")

# --------------------------------------------------------------------------
# Free functions over tensors
# --------------------------------------------------------------------------


def apply_op(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: BackwardFn,
    op_name: str,
) -> Tensor:
    """Create the result tensor of a primitive operation.

    This is the extension hook for custom differentiable ops (the SNN
    surrogate-gradient spike function is built on it).  ``backward_fn``
    receives the gradient of the loss w.r.t. ``data`` and must return one
    gradient (or ``None``) per parent, already shaped like that parent.
    """
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._op = op_name
    return out


def _ensure_tensor(value: object) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _raw(value: object) -> np.ndarray | float:
    return value.data if isinstance(value, Tensor) else value


def _raise_item(tensor: Tensor) -> float:
    raise ValueError(f"item() requires a single-element tensor, got shape {tensor.shape}")


def _expand_reduced(
    grad: np.ndarray,
    original_shape: tuple[int, ...],
    axis: int | tuple[int, ...] | None,
    keepdims: bool,
) -> np.ndarray:
    """Reshape a reduced gradient so it broadcasts against the input shape."""
    if axis is None:
        return np.asarray(grad).reshape((1,) * len(original_shape))
    if keepdims:
        return grad
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(original_shape) for a in axes)
    shape = tuple(
        1 if i in axes else dim for i, dim in enumerate(original_shape)
    )
    return grad.reshape(shape)


def _axis_size(shape: tuple[int, ...], axis: int | tuple[int, ...]) -> int:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    size = 1
    for a in axes:
        size *= shape[a % len(shape)]
    return size


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors of identical shape along a new axis."""
    tensors = [_ensure_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("stack() needs at least one tensor")
    first_shape = tensors[0].shape
    for t in tensors:
        if t.shape != first_shape:
            raise ShapeError(f"stack() shape mismatch: {t.shape} vs {first_shape}")
    out_data = np.stack([t.data for t in tensors], axis=axis)
    norm_axis = axis % out_data.ndim

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        pieces = np.split(g, len(tensors), axis=norm_axis)
        return tuple(np.squeeze(piece, axis=norm_axis) for piece in pieces)

    return apply_op(out_data, tuple(tensors), backward, "stack")

