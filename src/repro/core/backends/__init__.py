"""Pluggable execution backends for the block-PD kernel.

Every matmul path in the repo dispatches through this registry instead of
hard-coding scipy-vs-numpy branching:

- ``gather`` -- pure numpy fancy-indexing + einsum; always available.
- ``csr``    -- scipy sparse products reading the stored values in place;
  the default whenever scipy imports.
- ``numba``  -- JIT-compiled parallel loops; auto-detected, optional.

Selection precedence, per product call:

1. the matrix's own ``backend=`` (constructor argument or
   :meth:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix.set_backend`);
2. the process-wide default set by :func:`set_default_backend`;
3. the ``REPRO_BACKEND`` environment variable;
4. ``auto``: ``csr`` when scipy is importable, else ``gather``.

Backend objects are stateless singletons (see
:class:`~repro.core.backends.base.KernelBackend`); per-matrix caches stay
on the matrix, so backends can be switched at any time without invalidating
plans.
"""

from __future__ import annotations

import os

from repro.core.backends.base import (
    BackendUnavailableError,
    KernelBackend,
    UnknownBackendError,
)
from repro.core.backends.csr import CsrBackend
from repro.core.backends.gather import GatherBackend
from repro.core.backends.numba_backend import NumbaBackend

__all__ = [
    "AUTO",
    "BackendUnavailableError",
    "KernelBackend",
    "UnknownBackendError",
    "available_backends",
    "backend_names",
    "default_backend",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "validate_backend_name",
]

#: Sentinel name meaning "pick the best available backend".
AUTO = "auto"

_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}

# Process-wide default; ``None`` defers to ``REPRO_BACKEND`` / AUTO so the
# environment variable is re-read until someone pins a default explicitly.
_default: str | None = None


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Add a :class:`KernelBackend` subclass to the registry (by its name)."""
    if not cls.name or cls.name == AUTO:
        raise ValueError(f"invalid backend name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    _INSTANCES.pop(cls.name, None)
    return cls


def backend_names() -> tuple[str, ...]:
    """All registered backend names, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Registered backends whose dependencies import on this machine."""
    return tuple(n for n, cls in _REGISTRY.items() if cls.is_available())


def validate_backend_name(name: str) -> str:
    """Normalize ``name`` and reject unknown backends (``auto`` allowed)."""
    normalized = str(name).strip().lower()
    if normalized != AUTO and normalized not in _REGISTRY:
        known = ", ".join((AUTO,) + backend_names())
        raise UnknownBackendError(
            f"unknown kernel backend {name!r}; choose from: {known}"
        )
    return normalized


def get_backend(name: str) -> KernelBackend:
    """The singleton backend registered under ``name``.

    Raises:
        UnknownBackendError: ``name`` is not registered.
        BackendUnavailableError: registered, but its dependency is missing
            (checked on every call, so monkeypatched/changed environments
            take effect immediately).
    """
    normalized = validate_backend_name(name)
    if normalized == AUTO:
        raise UnknownBackendError("'auto' must be resolved by the caller")
    cls = _REGISTRY[normalized]
    if not cls.is_available():
        raise BackendUnavailableError(
            f"kernel backend {normalized!r} is not available on this system "
            f"(available: {', '.join(available_backends()) or 'none'})"
        )
    instance = _INSTANCES.get(normalized)
    if instance is None:
        instance = _INSTANCES[normalized] = cls()
    return instance


def set_default_backend(name: str | None) -> None:
    """Set the process-wide default backend.

    ``None`` restores the startup behaviour (``REPRO_BACKEND`` env var,
    else ``auto``).  An explicit non-``auto`` name is validated and checked
    for availability immediately so misconfiguration fails loudly here, not
    inside some later product call.
    """
    global _default
    if name is None:
        _default = None
        return
    normalized = validate_backend_name(name)
    if normalized != AUTO:
        get_backend(normalized)  # availability check, raises if missing
    _default = normalized


def default_backend() -> str:
    """The current default backend name (possibly ``"auto"``)."""
    if _default is not None:
        return _default
    env = os.environ.get("REPRO_BACKEND", "").strip().lower()
    return env or AUTO


register_backend(GatherBackend)
register_backend(CsrBackend)
register_backend(NumbaBackend)
