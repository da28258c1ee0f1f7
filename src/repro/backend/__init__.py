"""Pluggable array backends for the ensemble engines.

The replica-ensemble engines run their hot loops through the
:class:`~repro.backend.base.ArrayBackend` interface (conventionally bound
to a local ``xp``), so one engine implementation serves numpy, torch CPU
and torch CUDA.

Selection order, everywhere a backend can be named::

    explicit argument  >  JobSpec.backend  >  $REPRO_BACKEND  >  "numpy"

Registered names:

``numpy``
    The default and bit-identical reference (pure numpy/scipy).
``torch``
    Torch on CUDA when a device is visible, else torch CPU.
``torch-cpu`` / ``torch-cuda``
    Torch pinned to one device class.

Unknown names raise :class:`~repro.errors.BackendError` listing the
registered backends; a known-but-unusable backend (torch not installed,
CUDA not visible) raises :class:`~repro.errors.BackendUnavailableError`
at construction time, before any sampling work starts.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.errors import BackendError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: dict[str, ArrayBackend] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register ``factory`` under ``name`` (replacing any previous entry).

    The factory runs lazily on first :func:`get_backend` use, so
    registering a backend whose library is not installed is free.
    """
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted (registered, not necessarily usable)."""
    return tuple(sorted(_FACTORIES))


def resolve_backend_name(name: str | None = None) -> str:
    """The backend name a call with ``backend=name`` will use.

    ``None`` falls back to ``$REPRO_BACKEND``, then ``"numpy"``.  Raises
    :class:`BackendError` for names not in the registry.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "numpy"
    if name not in _FACTORIES:
        raise BackendError(
            f"unknown array backend {name!r}; available backends: "
            + ", ".join(available_backends())
        )
    return name


def get_backend(backend: str | ArrayBackend | None = None) -> ArrayBackend:
    """The :class:`ArrayBackend` instance for ``backend``.

    Accepts an instance (returned as-is), a registered name, or ``None``
    (resolved via :func:`resolve_backend_name`).  Instances are constructed
    once and cached, so an unusable backend fails here — at construction —
    with :class:`~repro.errors.BackendUnavailableError`.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    name = resolve_backend_name(backend)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _FACTORIES[name]()
        _INSTANCES[name] = instance
    return instance


def _torch_factory(device: str | None, name: str) -> Callable[[], ArrayBackend]:
    def factory() -> ArrayBackend:
        from repro.backend.torch_backend import TorchBackend

        return TorchBackend(device=device, name=name)

    return factory


register_backend("numpy", NumpyBackend)
register_backend("torch", _torch_factory(None, "torch"))
register_backend("torch-cpu", _torch_factory("cpu", "torch-cpu"))
register_backend("torch-cuda", _torch_factory("cuda", "torch-cuda"))
