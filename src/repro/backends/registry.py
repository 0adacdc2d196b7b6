"""Backend registry: estimator backends addressable by name.

The serving layer, CLI, and experiments select backends by the names
registered here.  A factory is any ``network -> EstimatorBackend``
callable; :func:`create_backend` instantiates one per system and checks
that the instance answers to the name it was registered under (metric
labels, coalescing keys, and snapshot state blobs are all keyed by that
name, so a mismatch would silently cross wires).

The built-in backends (``per``, ``lasso``, ``grmc``, ``lsmrn``,
``gmrf``) are registered when :mod:`repro.backends` is imported;
library users add their own with :func:`register_backend`.  The name
:data:`DEFAULT_BACKEND` is reserved for the pipeline's own RTF + GSP
path and cannot be registered.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, Tuple

from repro.backends.base import EstimatorBackend
from repro.errors import BackendError
from repro.network.graph import TrafficNetwork

#: Factory signature: bind the backend's stateless math to one network.
BackendFactory = Callable[[TrafficNetwork], EstimatorBackend]

#: The paper's estimator: the pipeline's own RTF + GSP path, which every
#: request takes unless it names a registered backend.
DEFAULT_BACKEND = "rtf_gsp"

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

_registry_lock = threading.Lock()
_registry: Dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Args:
        name: Lowercase identifier (``[a-z][a-z0-9_]*``).
        factory: ``network -> EstimatorBackend`` callable.
        replace: Allow overwriting an existing registration; without it
            a duplicate name raises :class:`~repro.errors.BackendError`
            (two libraries silently fighting over one name is a bug).
    """
    if not isinstance(name, str) or _NAME_RE.match(name) is None:
        raise BackendError(
            f"invalid backend name {name!r}: expected a lowercase "
            "identifier matching [a-z][a-z0-9_]*"
        )
    if name == DEFAULT_BACKEND:
        raise BackendError(
            f"{DEFAULT_BACKEND!r} is reserved for the pipeline's own RTF + GSP path"
        )
    if not callable(factory):
        raise BackendError(f"backend factory for {name!r} is not callable")
    with _registry_lock:
        if name in _registry and not replace:
            raise BackendError(
                f"backend {name!r} is already registered; pass replace=True "
                "to overwrite it deliberately"
            )
        _registry[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registration (testing hook; unknown names raise)."""
    with _registry_lock:
        if name not in _registry:
            raise BackendError(f"backend {name!r} is not registered")
        del _registry[name]


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    with _registry_lock:
        return tuple(sorted(_registry))


def create_backend(name: str, network: TrafficNetwork) -> EstimatorBackend:
    """Instantiate the backend registered under ``name`` for ``network``.

    Raises:
        BackendError: For unknown names, or when the factory produces an
            instance whose ``.name`` differs from the registered name.
    """
    with _registry_lock:
        factory = _registry.get(name)
    if factory is None:
        raise BackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{list(available_backends())}"
        )
    backend = factory(network)
    if backend.name != name:
        raise BackendError(
            f"factory registered as {name!r} produced a backend named "
            f"{backend.name!r}; registry name and instance name must match"
        )
    return backend
