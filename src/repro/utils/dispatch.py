"""MRO-based trust checks for paired fast-path methods.

Some hot paths in the reproduction pair a canonical method with a
"twin" that must implement the exact same semantics on a faster path
(``forward``/``decode_numpy`` on trace decoders, ``_perturb``/
``generate_shared`` on attacks).  A twin may only be trusted when it was
written *for* the class whose primary method runs — a subclass
overriding the primary without overriding the twin would otherwise
silently execute mismatched base-class semantics on the fast path.
"""

from __future__ import annotations

__all__ = ["has_trusted_twin"]


def has_trusted_twin(obj: object, primary: str, twin: str) -> bool:
    """Whether ``obj`` can be trusted on a fast path keyed by ``primary``.

    True iff ``twin`` exists and is defined at (or below) the class in the
    MRO that defines ``primary``.  A subclass overriding ``primary`` (e.g.
    a custom decoder ``forward``) without a matching ``twin`` override must
    fall back to the canonical path instead of silently inheriting a
    mismatched fast-path implementation.
    """
    mro = type(obj).__mro__
    twin_cls = next((c for c in mro if twin in vars(c)), None)
    if twin_cls is None:
        return False
    primary_cls = next((c for c in mro if primary in vars(c)), None)
    if primary_cls is None:
        return True
    return mro.index(twin_cls) <= mro.index(primary_cls)
