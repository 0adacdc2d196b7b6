"""Property-based tests (hypothesis) for the backend registry and states.

Three invariant families:

* **Registry** — register/create/unregister round-trips for arbitrary
  valid names, duplicate rejection, and invalid-name rejection.
* **Snapshot round-trip** — for every attached backend, estimates off a
  pinned snapshot are deterministic and immune to later refreshes
  (states are copy-on-write snapshot citizens).
* **Serialization** — every backend's state blob pickles, and the
  revived blob answers bit-identically.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.backends import (
    DEFAULT_BACKEND,
    EstimatorBackend,
    GMRFBackend,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.registry import _NAME_RE
from repro.errors import BackendError

BUILTINS = ("gmrf", "grmc", "lasso", "lsmrn", "per")

valid_names = st.from_regex(r"[a-z][a-z0-9_]{0,20}", fullmatch=True)


@pytest.fixture(scope="module")
def world(tiny_dataset):
    """A fitted system with every built-in backend attached, refreshed once.

    Returns the system plus the pre-refresh pinned snapshot, so
    properties can check that the old generation is frozen.
    """
    data = tiny_dataset
    system = repro.CrowdRTSE.fit(
        data.network, data.train_history, slots=[data.slot]
    )
    for name in BUILTINS:
        system.attach_backend(name, history=data.train_history)
    old = system.store.current()
    day = data.test_history.slot_samples(data.slot)[0]
    system.refresh({data.slot: day}, learning_rate=0.2)
    return {"data": data, "system": system, "old": old}


def probe_sets(n_roads):
    return st.dictionaries(
        st.integers(min_value=0, max_value=n_roads - 1),
        st.floats(min_value=5.0, max_value=120.0, allow_nan=False),
        max_size=8,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistryProperties:
    @given(name=valid_names)
    @settings(max_examples=50, deadline=None)
    def test_register_create_unregister_roundtrip(self, name):
        assume(name not in available_backends() and name != DEFAULT_BACKEND)

        def factory(network, _name=name):
            backend = GMRFBackend(network)
            backend.name = _name  # instance attribute shadows the class
            return backend

        register_backend(name, factory)
        try:
            assert name in available_backends()
            backend = create_backend(name, repro.line_network(4))
            assert isinstance(backend, EstimatorBackend)
            assert backend.name == name
            with pytest.raises(BackendError, match="already registered"):
                register_backend(name, factory)
            register_backend(name, factory, replace=True)  # explicit wins
        finally:
            unregister_backend(name)
        assert name not in available_backends()
        with pytest.raises(BackendError, match="not registered"):
            unregister_backend(name)

    @given(name=st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_invalid_names_rejected(self, name):
        assume(_NAME_RE.match(name) is None)
        with pytest.raises(BackendError, match="invalid backend name"):
            register_backend(name, lambda network: GMRFBackend(network))

    @given(name=valid_names)
    @settings(max_examples=25, deadline=None)
    def test_registration_never_leaks_on_factory_mismatch(self, name):
        assume(name not in available_backends() and name != DEFAULT_BACKEND)
        register_backend(name, GMRFBackend)  # factory makes "gmrf"
        try:
            with pytest.raises(BackendError, match="produced a backend"):
                create_backend(name, repro.line_network(4))
            assert available_backends() == tuple(sorted(available_backends()))
        finally:
            unregister_backend(name)


# ----------------------------------------------------------------------
# Snapshot round-trip and serialization
# ----------------------------------------------------------------------


class TestSnapshotProperties:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_pinned_estimates_deterministic_across_refresh(self, world, data):
        """publish -> pin -> estimate: the old generation never moves."""
        system, old = world["system"], world["old"]
        slot = world["data"].slot
        probes = data.draw(probe_sets(system.network.n_roads))
        for name in BUILTINS:
            first = system.estimate_with_backend(
                name, probes, slot, snapshot=old
            )
            second = system.estimate_with_backend(
                name, probes, slot, snapshot=old
            )
            np.testing.assert_array_equal(first.speeds, second.speeds)
            assert first.backend == name
            assert first.speeds.shape == (system.network.n_roads,)
            assert np.all(np.isfinite(first.speeds))
            # The pinned snapshot still serves the pre-refresh state blob.
            assert old.backend_state(name) is not (
                system.store.current().backend_state(name)
            )

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_state_blobs_pickle_roundtrip(self, world, data):
        system = world["system"]
        slot = world["data"].slot
        probes = data.draw(probe_sets(system.network.n_roads))
        snapshot = system.store.current()
        for name in BUILTINS:
            state = snapshot.backend_state(name)
            revived = pickle.loads(pickle.dumps(state))
            backend = system.store.backend_instance(name)
            direct = backend.estimate(state, probes, slot)
            from_pickle = backend.estimate(revived, probes, slot)
            np.testing.assert_array_equal(direct.speeds, from_pickle.speeds)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_probes_always_pinned_in_output(self, world, data):
        """Every probe-pinning backend returns probes verbatim."""
        system = world["system"]
        slot = world["data"].slot
        probes = data.draw(
            probe_sets(system.network.n_roads).filter(lambda p: len(p) > 0)
        )
        for name in ("gmrf", "grmc", "lasso", "lsmrn"):
            estimate = system.estimate_with_backend(name, probes, slot)
            for road, speed in probes.items():
                assert estimate.speeds[road] == pytest.approx(speed)
