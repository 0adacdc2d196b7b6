"""The CrowdRTSE facade — the hybrid offline/online workflow of Fig. 1.

Offline, :meth:`CrowdRTSE.fit` trains the RTF model from history and
publishes it as version 1 of a :class:`~repro.core.store.ModelStore`.
Online, :meth:`answer_query` runs the three-step loop — OCS selects the
crowdsourced roads, the crowd market probes them, and GSP propagates the
probes into a full-network speed field — against **one pinned
snapshot**, so a concurrent :meth:`refresh` (which publishes a new
model version copy-on-write) can never mix parameter generations inside
a single answer.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    ContextManager,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import (
    BackendError,
    ModelError,
    QueryTimeoutError,
    SelectionError,
    wrap_internal,
)
from repro.obs import DEFAULT_TIME_BUCKETS, get_metrics, get_tracer
from repro.core.correlation import CorrelationTable, PathWeightMode
from repro.core.gsp import GSPConfig, GSPEngine, GSPResult, PrecisionPolicy
from repro.core.request import EstimationRequest
from repro.core.inference import InferenceDiagnostics, RTFInferenceConfig, fit_rtf
from repro.core.ocs import (
    SELECTORS,
    OCSInstance,
    OCSResult,
    random_selection,
    trivial_solution,
)
from repro.core.rtf import RTFModel
from repro.core.store import ModelSnapshot, ModelStore
from repro.crowd.market import BudgetLedger, CrowdMarket, ProbeReceipt, TruthOracle
from repro.network.graph import TrafficNetwork
from repro.traffic.history import SpeedHistory

if TYPE_CHECKING:  # pragma: no cover - circular-import guard (typing only)
    from repro.backends.base import BackendEstimate, EstimatorBackend

@dataclass(frozen=True)
class Deadline:
    """A per-request wall-clock budget over the OCS → probe → GSP span.

    Built from a relative budget with :meth:`after`; stages call
    :meth:`check` at their boundary and get a typed
    :class:`~repro.errors.QueryTimeoutError` once the budget is spent.
    Times are ``time.monotonic`` based, so a system clock step cannot
    expire (or resurrect) in-flight requests.
    """

    expires_at: float
    budget_seconds: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """Deadline ``seconds`` from now."""
        return cls(time.monotonic() + float(seconds), float(seconds))

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`QueryTimeoutError` when expired at ``stage``."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise QueryTimeoutError(
                stage, self.budget_seconds - remaining, self.budget_seconds
            )


@dataclass(frozen=True)
class QueryResult:
    """Answer to one realtime traffic-speed query.

    Attributes:
        queried: Queried road indices, in request order.
        estimates_kmh: Estimated speed per queried road, aligned with
            ``queried``.
        full_field_kmh: Inferred speed for every road in the network.
        selection: The OCS outcome (which roads were crowdsourced).
        probes: Aggregated crowd answers per crowdsourced road.
        receipts: Detailed probe receipts (answers, payments).
        gsp: The propagation diagnostics (``None`` when a non-GSP
            estimator backend produced the field; its diagnostics live
            in the backend's provenance instead).
        budget_spent: Units actually paid.
        model_version: Version of the :class:`ModelSnapshot` the whole
            answer was served from (0 for results assembled outside a
            store, e.g. in unit tests building the dataclass directly).
        backend: Registry name of the estimator backend that produced
            the field (``"rtf_gsp"`` for the paper's default pipeline).
    """

    queried: Tuple[int, ...]
    estimates_kmh: np.ndarray
    full_field_kmh: np.ndarray
    selection: OCSResult
    probes: Dict[int, float]
    receipts: Tuple[ProbeReceipt, ...]
    gsp: Optional[GSPResult]
    budget_spent: int
    model_version: int = 0
    backend: str = "rtf_gsp"

    def estimate_of(self, road_index: int) -> float:
        """Estimated speed of one queried road."""
        try:
            pos = self.queried.index(road_index)
        except ValueError:
            raise ModelError(f"road {road_index} was not part of the query") from None
        return float(self.estimates_kmh[pos])


class CrowdRTSE:
    """End-to-end CrowdRTSE system (paper Fig. 1).

    Build it offline with :meth:`fit` (or hand it an existing
    :class:`~repro.core.store.ModelStore`), then answer queries online
    with :meth:`answer_query` and absorb new days with :meth:`refresh`.
    The engine itself is stateless between queries: all model state
    lives in the store's immutable snapshots, and each query pins one
    snapshot for its whole OCS → probe → GSP span.
    """

    def __init__(self, network: TrafficNetwork, *, store: ModelStore) -> None:
        if store.network is not network and store.network != network:
            raise ModelError("store belongs to a different network")
        self._store = store
        self._network = network
        self._fit_diagnostics: Optional[Dict[int, InferenceDiagnostics]] = None
        # One engine per system: repeated queries share the cached CSR
        # structures and BFS/colouring compilations across slots.  The
        # structure cache is keyed by parameter digest, so a refresh
        # invalidates exactly the touched slots' compilations.
        self._gsp_engine = GSPEngine(network)

    @classmethod
    def fit(
        cls,
        network: TrafficNetwork,
        history: SpeedHistory,
        slots: Optional[Sequence[int]] = None,
        inference_config: Optional[RTFInferenceConfig] = None,
        path_mode: PathWeightMode = PathWeightMode.LOG,
    ) -> "CrowdRTSE":
        """Offline stage: train RTF and publish it as store version 1.

        Correlation matrices Γ_R are **not** materialized here any more;
        they are derived lazily per slot on first use, keyed by the
        slot's parameter digest (see
        :meth:`~repro.core.store.ModelSnapshot.correlation_matrix`).

        Args:
            network: Road graph.
            history: Offline speed record.
            slots: Slots to fit (default: all covered by the history).
            inference_config: Alg. 1 knobs.
            path_mode: Path-weight transform for correlation derivation.
        """
        model, diagnostics = fit_rtf(network, history, slots, inference_config)
        system = cls(network, store=ModelStore(model, path_mode=path_mode))
        system._fit_diagnostics = dict(diagnostics)
        return system

    @property
    def network(self) -> TrafficNetwork:
        """The road graph."""
        return self._network

    @property
    def store(self) -> ModelStore:
        """The versioned model store serving this system."""
        return self._store

    @property
    def model(self) -> RTFModel:
        """The current snapshot's parameters as an :class:`RTFModel` view."""
        return self._store.current().model

    @property
    def correlations(self) -> CorrelationTable:
        """Lazy Γ_R table view over the current snapshot."""
        return self._store.current().correlations

    @property
    def fit_diagnostics(self) -> Optional[Dict[int, InferenceDiagnostics]]:
        """Per-slot Alg. 1 convergence diagnostics from :meth:`fit`.

        ``None`` when the system was constructed from an existing model
        or store rather than fitted here.
        """
        return self._fit_diagnostics

    @property
    def gsp_engine(self) -> GSPEngine:
        """The propagation engine (exposes cache stats for diagnostics)."""
        return self._gsp_engine

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def refresh(
        self,
        day_samples: Mapping[int, np.ndarray],
        learning_rate: float = 0.05,
    ) -> ModelSnapshot:
        """Absorb one day of speeds and publish a new model version.

        End-to-end wiring of
        :class:`~repro.core.online_update.OnlineRTFUpdater`: moments of
        the touched slots are advanced, correlations re-derive lazily
        for exactly those slots (new digests), and GSP structure caches
        stay warm for every untouched slot.  Queries running
        concurrently keep their pinned snapshot; queries started after
        this call see the new version.

        Args:
            day_samples: Today's per-road speed vector per global slot.
            learning_rate: Forgetting factor η in (0, 1).

        Returns:
            The freshly published snapshot.
        """
        return self._store.refresh(day_samples, learning_rate)

    # ------------------------------------------------------------------
    # Estimator backends
    # ------------------------------------------------------------------

    def attach_backend(
        self,
        name: str,
        history: Optional[SpeedHistory] = None,
        state: Optional[object] = None,
        backend: Optional["EstimatorBackend"] = None,
    ) -> ModelSnapshot:
        """Fit (or adopt) an estimator backend and attach it to the store.

        After attaching, requests with ``backend=name`` estimate with it,
        :meth:`refresh` advances the backend's state blob alongside the
        RTF slots, and the serving layer can select (or shadow-score)
        the backend per request.

        Args:
            name: Registry name (see
                :func:`repro.backends.available_backends`).
            history: Offline record to fit the initial state from; the
                backend fits exactly the store's currently fitted slots.
            state: Pre-fitted state blob to adopt instead of fitting.
            backend: Pre-built backend instance (default: instantiate
                from the registry for this system's network).

        Returns:
            The freshly published :class:`ModelSnapshot` carrying the
            backend state.

        Raises:
            BackendError: For ``"rtf_gsp"`` — that name is the pipeline's
                own RTF + GSP path, not an attachable backend — and for
                names the registry does not know.
        """
        # Imported lazily: repro.backends imports core modules for its
        # adapters, so a module-level import here would be circular.
        from repro.backends.registry import DEFAULT_BACKEND, create_backend

        if name == DEFAULT_BACKEND:
            raise BackendError(
                f"{DEFAULT_BACKEND!r} is the pipeline's own RTF + GSP path "
                "and cannot be attached as a backend"
            )
        if backend is None:
            backend = create_backend(name, self._network)
        if state is None:
            if history is None:
                raise ModelError(
                    f"attach_backend({name!r}) needs a history to fit from "
                    f"or a pre-fitted state"
                )
            state = backend.fit(history, slots=self._store.current().slots)
        return self._store.attach_backend(name, backend, state)

    def estimate_with_backend(
        self,
        name: str,
        probes: Mapping[int, float],
        slot: int,
        snapshot: Optional[ModelSnapshot] = None,
        deadline: Optional[Deadline] = None,
    ) -> "BackendEstimate":
        """Run one attached backend's estimator on already-gathered probes.

        The backend-path analogue of the GSP stage: :meth:`answer_query`
        calls it for requests naming a backend, and the serving layer's
        shadow mode re-estimates a served answer's probes with it.

        Args:
            name: Attached backend name.
            probes: Probed speeds keyed by road index.
            slot: Global time slot.
            snapshot: Pinned model version (defaults to current).
            deadline: Optional wall-clock budget.

        Returns:
            The backend's ``BackendEstimate`` (field + provenance).
        """
        snap = snapshot if snapshot is not None else self._store.current()
        backend = self._store.backend_instance(name)
        state = snap.backend_state(name)
        estimate = getattr(backend, "estimate")
        with wrap_internal("backend"):
            return estimate(state, probes, int(slot), deadline)

    # ------------------------------------------------------------------
    # Online stage
    # ------------------------------------------------------------------

    def build_ocs_instance(
        self,
        queried: Sequence[int],
        slot: int,
        budget: float,
        market: CrowdMarket,
        theta: float = 0.92,
        snapshot: Optional[ModelSnapshot] = None,
    ) -> OCSInstance:
        """Assemble the OCS problem for one query.

        Candidates are the roads that currently have workers; costs come
        from the market's cost model; σ weights from the RTF slot.

        Args:
            snapshot: Pinned model version to read from (defaults to the
                store's current snapshot).
        """
        snap = snapshot if snapshot is not None else self._store.current()
        candidates = market.candidate_roads()
        if not candidates:
            raise SelectionError("no roads currently have workers (R^w is empty)")
        params = snap.slot(slot)
        return OCSInstance(
            queried=tuple(int(q) for q in queried),
            candidates=candidates,
            costs=market.cost_model.costs_of(candidates).astype(float),
            budget=float(budget),
            theta=theta,
            corr=snap.correlation_matrix(slot),
            sigma=params.sigma,
        )

    def _select_and_probe(
        self,
        request: EstimationRequest,
        snapshot: ModelSnapshot,
        deadline: Optional[Deadline],
    ) -> Tuple[OCSResult, Dict[int, float], Tuple[ProbeReceipt, ...], BudgetLedger]:
        """OCS selection + crowd probing against one pinned snapshot.

        The first two stages of the Fig. 1 online loop.  Remark 2's
        closed-form optima (θ = 1, unit costs, over-adequate budget or
        few queried roads) replace the greedy whenever they apply.
        Deadlines are checked at each stage boundary; stray internal
        exceptions are wrapped per the docs/API.md exception contract.
        """
        assert request.market is not None and request.truth is not None
        selector = request.selector
        if deadline is not None:
            deadline.check("ocs")
        with wrap_internal("ocs"):
            instance = self.build_ocs_instance(
                request.queried, request.slot, request.budget, request.market,
                request.theta, snapshot=snapshot,
            )
            with get_tracer().span("ocs.select", selector=selector) as select_span:
                if selector == "random":
                    selection = random_selection(instance, request.rng)
                else:
                    # Both names are looked up here at call time, so a
                    # wrapper installed on the module is what runs.
                    trivial = trivial_solution(instance)
                    selection = (
                        trivial if trivial is not None
                        else SELECTORS[selector](instance)
                    )
                select_span.set_attr("algorithm", selection.algorithm)
                select_span.set_attr("selected", len(selection.selected))

        if deadline is not None:
            deadline.check("probe")
        ledger = BudgetLedger(request.budget)
        with wrap_internal("probe"):
            probes, receipts = request.market.probe(
                selection.selected, request.truth, ledger
            )
        return selection, probes, tuple(receipts), ledger

    def answer_query(
        self,
        request: EstimationRequest,
        market: Optional[CrowdMarket] = None,
        truth: Optional[TruthOracle] = None,
        gsp_config: Optional[GSPConfig] = None,
        snapshot: Optional[ModelSnapshot] = None,
        deadline: Optional[Deadline] = None,
        probe_lock: Optional[ContextManager[object]] = None,
    ) -> QueryResult:
        """Online stage: OCS → crowd probe → estimate → answer (Fig. 1).

        Every query takes this one path, whether called directly or by
        the serving layer.  ``request.backend`` picks the estimator:
        ``"rtf_gsp"`` (default) propagates the probes with GSP; any
        other name runs that attached backend instead::

            system.answer_query(
                EstimationRequest(queried=(3, 7), slot=93, budget=20.0),
                market=market, truth=truth,
            )

        Args:
            request: The query.
            market: The crowd marketplace; fills a request whose
                ``market`` is unset.
            truth: Ground-truth oracle the (simulated) workers measure;
                fills a request whose ``truth`` is unset.
            gsp_config: Propagation knobs; the request's ``precision``
                is applied on top via
                :meth:`~repro.core.gsp.GSPConfig.with_precision`.
            snapshot: Pre-pinned model version to serve from.  The
                serving layer pins one snapshot per worker batch and
                passes it here; direct callers leave it ``None`` and the
                query pins the store's current version itself.
            deadline: Explicit wall-clock budget, checked at the OCS,
                probe, and GSP stage boundaries
                (:class:`~repro.errors.QueryTimeoutError` on expiry).
                When ``None``, a request's ``deadline_s`` starts its
                budget here.
            probe_lock: Held over OCS + probing only, never over the
                estimator, so a market shared between threads is driven
                by one query at a time while GSP runs concurrently.

        Returns:
            A :class:`QueryResult`.

        Raises:
            QueryTimeoutError: When the deadline expires mid-pipeline.
            ReproError: Every intentional failure; stray internal
                ``ValueError``/``KeyError`` surface as
                :class:`~repro.errors.InternalError`.
        """
        if not isinstance(request, EstimationRequest):
            raise ModelError(
                "answer_query takes an EstimationRequest; the loose "
                "(queried, slot, budget, ...) spelling was removed in v2.0"
            )
        req = request.bound(market, truth)
        if req.market is None or req.truth is None:
            raise ModelError(
                "answer_query needs a market and a truth oracle (on the "
                "request or as arguments)"
            )
        if deadline is None and req.deadline_s is not None:
            deadline = Deadline.after(req.deadline_s)

        start = time.perf_counter()
        # Pin ONE model version for the whole query: a refresh published
        # while this query is in flight must not mix generations between
        # the OCS correlations and the GSP parameters.
        snap = snapshot if snapshot is not None else self._store.current()
        with get_tracer().span(
            "pipeline.answer_query",
            slot=req.slot,
            budget=req.budget,
            queried=len(req.queried),
            selector=req.selector,
            model_version=snap.version,
        ) as query_span:
            with probe_lock if probe_lock is not None else nullcontext():
                # The transitive wait is the artifact cache's single-flight
                # Event (Γ_R derivation): bounded by one derivation on a
                # thread that never takes the probe lock, and a caller
                # passing probe_lock opts into exactly this hold.
                selection, probes, receipts, ledger = self._select_and_probe(  # repro: noqa[RA012]
                    req, snap, deadline
                )
            gsp_result: Optional[GSPResult] = None
            if req.backend == "rtf_gsp":
                if deadline is not None:
                    deadline.check("gsp")
                gsp_result = self._propagate(req, probes, snap, gsp_config)
                field = gsp_result.speeds
                query_span.set_attr("gsp_sweeps", gsp_result.sweeps)
            else:
                # Pluggable-estimator path: the attached backend turns
                # the probes into the field; GSP never runs.
                field = self.estimate_with_backend(
                    req.backend, probes, req.slot, snapshot=snap, deadline=deadline
                ).speeds
                query_span.set_attr("backend", req.backend)
            query_span.set_attr("budget_spent", ledger.spent)
        self._record_query_metrics(
            req.selector, ledger, time.perf_counter() - start
        )
        return QueryResult(
            queried=req.queried,
            estimates_kmh=field[np.asarray(req.queried, dtype=int)],
            full_field_kmh=field,
            selection=selection,
            probes=probes,
            receipts=receipts,
            gsp=gsp_result,
            budget_spent=ledger.spent,
            model_version=snap.version,
            backend=req.backend,
        )

    # -- GSP stage ------------------------------------------------------

    @staticmethod
    def resolve_gsp_config(
        gsp_config: Optional[GSPConfig], precision: str
    ) -> Optional[GSPConfig]:
        """The effective propagation config under a request's precision.

        ``float64`` leaves ``gsp_config`` untouched (including ``None``
        → engine default), so the reference path stays bit-identical;
        any other policy is applied via
        :meth:`~repro.core.gsp.GSPConfig.with_precision`.
        """
        policy = PrecisionPolicy.coerce(precision)
        if policy is PrecisionPolicy.FLOAT64:
            return gsp_config
        base = gsp_config if gsp_config is not None else GSPConfig()
        return base.with_precision(policy)

    def _propagate(
        self,
        request: EstimationRequest,
        probes: Dict[int, float],
        snapshot: ModelSnapshot,
        gsp_config: Optional[GSPConfig],
    ) -> GSPResult:
        """The GSP stage of one query, warm start managed.

        The ``gsp.warm_start`` counter records the seed lookup: ``used``
        (seed found for this exact digest + R^c), ``miss`` (nothing
        cached), ``mismatch`` (seeds cached only under other R^c), or
        ``disabled`` (request opted out).  A converged field is written
        back as the seed for this slot and R^c.
        """
        cfg = self.resolve_gsp_config(gsp_config, request.precision)
        observed_key = frozenset(probes)
        seed: Optional[np.ndarray] = None
        if request.warm_start:
            seed, outcome = snapshot.warm_field(request.slot, observed_key)
            if outcome == "hit":
                outcome = "used"
        else:
            outcome = "disabled"
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("gsp.warm_start", {"outcome": outcome}).inc()
        with wrap_internal("gsp"):
            gsp_result = self._gsp_engine.propagate(
                snapshot.slot(request.slot), probes, cfg, initial_field=seed
            )
        if request.warm_start and gsp_result.converged:
            snapshot.store_warm_field(request.slot, observed_key, gsp_result.speeds)
        return gsp_result

    @staticmethod
    def _record_query_metrics(
        selector: str, ledger: BudgetLedger, latency_seconds: float
    ) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        labels = {"selector": selector}
        metrics.counter("pipeline.queries", labels).inc()
        metrics.histogram(
            "pipeline.latency_seconds", DEFAULT_TIME_BUCKETS, labels
        ).observe(latency_seconds)
        metrics.counter("pipeline.budget_spent").inc(ledger.spent)

    def propagate_slots(
        self,
        observations: Mapping[int, Mapping[int, float]],
        gsp_config: Optional[GSPConfig] = None,
    ) -> Dict[int, GSPResult]:
        """Propagate probe sets for several time slots in one call.

        Batched counterpart of the GSP step of :meth:`answer_query` —
        drivers that replay a day (or answer one query across adjacent
        slots) hand every slot's probes over at once and the engine
        shares its cached structures across the batch: the BFS layers /
        colourings are keyed by the observed set alone, so slots probing
        the same roads compile the schedule exactly once.

        Args:
            observations: Probed speeds per road, keyed by slot index;
                every slot must be fitted.
            gsp_config: Propagation knobs applied to every slot.

        Returns:
            The :class:`GSPResult` per slot, keyed like the input.
        """
        slots = list(observations)
        snapshot = self._store.current()
        with get_tracer().span("pipeline.propagate_slots", slots=len(slots)):
            results = self._gsp_engine.propagate_batch(
                [(snapshot.slot(t), observations[t]) for t in slots], gsp_config
            )
        return dict(zip(slots, results))
