"""Graph-based Speed Propagation — GSP (paper §VI, Alg. 5).

Given probed speeds for the crowdsourced roads ``R^c``, GSP infers the
most-likely speeds of all other roads under the RTF model by coordinate
maximization of Eq. 16.  Each non-observed road's optimal value given
its neighbours is the precision-weighted blend of its own prior mean and
its neighbours' propagated values (Eq. 18):

.. math::

    v_i^* = \\frac{\\mu_i/\\sigma_i^2 + \\sum_{j \\in n(i)}
                   (v_j + \\mu_{ij})/\\sigma_{ij}^2}
                 {1/\\sigma_i^2 + \\sum_{j \\in n(i)} 1/\\sigma_{ij}^2}

Updates are scheduled by BFS layers from ``R^c`` (closest roads first),
swept repeatedly until the largest value change drops below ε.  Two
alternative schedules (random order, plain index order) are provided for
the ablation bench, plus a layer-parallel Jacobi variant matching the
parallelization discussion at the end of §VI.

Two kernels implement the sweep:

* the **reference** kernel — the per-node Python loop of Alg. 5, kept
  verbatim as the correctness oracle, and
* the **vectorized** kernel — a CSR-style flat neighbour structure
  (:class:`PropagationStructure`) plus per-group gather/segment-sum
  arrays (:class:`CompiledSchedule`), which updates a whole BFS layer
  (``BFS_PARALLEL``) or colour group (``BFS_COLORED``) in one fused
  numpy operation.  §VI's parallelization condition (same group, not
  adjacent) is exactly what makes the fused group update equal the
  sequential sweep.

:class:`GSPEngine` owns both kernels for one network and caches the
expensive precomputations: the propagation structure per slot-parameter
signature, and the BFS layers / colourings per ``frozenset(R^c)``, so
repeated queries with overlapping selections skip the graph work.
"""

from __future__ import annotations

import enum
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConvergenceError,
    ConvergenceWarning,
    ModelError,
)
from repro.core.rtf import RTFSlot, params_signature
from repro.network.graph import TrafficNetwork
from repro.obs import DEFAULT_ITERATION_BUCKETS, DEFAULT_TIME_BUCKETS, get_metrics, get_tracer


class GSPSchedule(str, enum.Enum):
    """Order in which non-observed roads are updated within one sweep."""

    #: Paper Alg. 5: ascending hop count from R^c, Gauss-Seidel.
    BFS = "bfs"
    #: Same BFS layers, but Jacobi *within* each layer (parallelizable).
    BFS_PARALLEL = "bfs-parallel"
    #: BFS layers split into independent (non-adjacent) colour groups —
    #: the exact parallelization condition of §VI: updates within one
    #: group commute, so the result equals the sequential sweep.
    BFS_COLORED = "bfs-colored"
    #: Random permutation per sweep (ablation).
    RANDOM = "random"
    #: Plain index order (ablation).
    INDEX = "index"


class GSPKernel(str, enum.Enum):
    """Which sweep implementation to run."""

    #: Vectorized for parallel schedules, reference otherwise.
    AUTO = "auto"
    #: The per-node Python loop (Alg. 5 verbatim) — the testing oracle.
    REFERENCE = "reference"
    #: Fused numpy group updates; requires ``BFS_PARALLEL``/``BFS_COLORED``.
    VECTORIZED = "vectorized"


class PrecisionPolicy(str, enum.Enum):
    """Numeric precision of the propagation sweep.

    The **tolerance contract**: ``FLOAT64`` is the reference precision —
    every differential test and the batched/coalesced serving paths are
    bit-identical under it.  ``FLOAT32`` is an opt-in speed/memory mode
    for the vectorized kernel: the sweep state and folded parameters are
    cast down once, sweeps run in single precision, and the returned
    field is upcast with observed roads re-clamped to their exact probed
    values.  Non-observed roads are guaranteed within
    :attr:`field_rtol` relative divergence of the float64 field on
    converged runs (enforced by ``tests/test_precision.py``); selections
    and everything upstream of GSP are precision-independent.
    """

    FLOAT64 = "float64"
    FLOAT32 = "float32"

    @property
    def dtype(self) -> "np.dtype":
        """The numpy dtype sweeps run in."""
        return np.dtype(np.float32 if self is PrecisionPolicy.FLOAT32 else np.float64)

    @property
    def field_rtol(self) -> float:
        """Documented relative divergence bound vs the float64 field."""
        return 5e-4 if self is PrecisionPolicy.FLOAT32 else 0.0

    @classmethod
    def coerce(cls, value: "str | PrecisionPolicy") -> "PrecisionPolicy":
        """Accept a policy or its string spelling (``"float32"``)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ModelError(
                f"unknown precision {value!r}; expected one of "
                f"{sorted(p.value for p in cls)}"
            ) from None


#: Schedules whose group updates commute, so the vectorized kernel's
#: fused group update reproduces the sequential result exactly.
VECTORIZABLE_SCHEDULES = frozenset(
    {GSPSchedule.BFS_PARALLEL, GSPSchedule.BFS_COLORED}
)


def independent_update_groups(
    network: TrafficNetwork, layer: Sequence[int]
) -> List[List[int]]:
    """Split one BFS layer into mutually non-adjacent groups.

    Paper §VI: two variables can be updated in parallel iff they are in
    the same partitioned group *and* not adjacent.  A greedy colouring
    realizes that: within each returned group no two roads share an
    edge, so their Eq. 18 updates read disjoint state and commute.

    Args:
        network: Road graph.
        layer: Road indices of one BFS layer.

    Returns:
        Colour groups, each a list of road indices; their union is the
        input layer.
    """
    color_of: Dict[int, int] = {}
    groups: List[List[int]] = []
    for road in layer:
        used = {
            color_of[j] for j in network.neighbors(road) if j in color_of
        }
        color = 0
        while color in used:
            color += 1
        color_of[road] = color
        while len(groups) <= color:
            groups.append([])
        groups[color].append(road)
    return groups


@dataclass(frozen=True)
class GSPConfig:
    """Knobs of Alg. 5.

    Attributes:
        epsilon: Convergence threshold on the max per-road change.
        max_sweeps: Sweep cap; a sweep updates every non-observed road.
        schedule: Update ordering; see :class:`GSPSchedule`.
        kernel: Sweep implementation; see :class:`GSPKernel`.  The
            vectorized kernel only supports the parallel schedules
            (``BFS_PARALLEL``, ``BFS_COLORED``) whose group updates
            commute; requesting it with any other schedule raises
            :class:`ModelError` at propagation time.
        strict: Raise :class:`ConvergenceError` when the sweep budget is
            exhausted (default: return the last iterate).
        seed: RNG seed for the RANDOM schedule.
        precision: Sweep precision; see :class:`PrecisionPolicy`.
            ``FLOAT32`` requires the vectorized kernel (use
            :meth:`with_precision` to adjust the schedule when needed).
    """

    epsilon: float = 1e-3
    max_sweeps: int = 200
    schedule: GSPSchedule = GSPSchedule.BFS
    kernel: GSPKernel = GSPKernel.AUTO
    strict: bool = False
    seed: Optional[int] = None
    precision: PrecisionPolicy = PrecisionPolicy.FLOAT64

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ModelError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_sweeps <= 0:
            raise ModelError(f"max_sweeps must be positive, got {self.max_sweeps}")
        object.__setattr__(self, "precision", PrecisionPolicy.coerce(self.precision))

    def with_precision(self, precision: "str | PrecisionPolicy") -> "GSPConfig":
        """This config adjusted to run under ``precision``.

        ``FLOAT32`` only runs on the vectorized kernel; when the current
        schedule is not vectorizable and the kernel is ``AUTO``, the
        schedule is upgraded to ``BFS_PARALLEL`` (an explicitly
        ``REFERENCE`` kernel raises :class:`ModelError` instead).
        """
        from dataclasses import replace

        policy = PrecisionPolicy.coerce(precision)
        if policy is PrecisionPolicy.FLOAT64:
            return replace(self, precision=policy)
        if self.schedule in VECTORIZABLE_SCHEDULES:
            if self.kernel is GSPKernel.REFERENCE:
                raise ModelError(
                    "float32 precision requires the vectorized kernel; "
                    "the reference kernel is float64-only"
                )
            return replace(self, precision=policy)
        if self.kernel is not GSPKernel.AUTO:
            raise ModelError(
                "float32 precision requires a vectorizable schedule "
                f"({sorted(s.value for s in VECTORIZABLE_SCHEDULES)}); "
                f"got {self.schedule.value!r} with kernel {self.kernel.value!r}"
            )
        return replace(
            self, precision=policy, schedule=GSPSchedule.BFS_PARALLEL
        )

    def resolved_kernel(self) -> GSPKernel:
        """The concrete kernel AUTO resolves to for this schedule."""
        if self.kernel is GSPKernel.AUTO:
            if self.schedule in VECTORIZABLE_SCHEDULES:
                return GSPKernel.VECTORIZED
            return GSPKernel.REFERENCE
        if (
            self.kernel is GSPKernel.VECTORIZED
            and self.schedule not in VECTORIZABLE_SCHEDULES
        ):
            raise ModelError(
                f"vectorized kernel requires a parallel schedule "
                f"({sorted(s.value for s in VECTORIZABLE_SCHEDULES)}), "
                f"got {self.schedule.value!r}"
            )
        return self.kernel


@dataclass(frozen=True)
class GSPProvenance:
    """Cache provenance of one propagation.

    Mirrors the ``gsp.cache.lookups`` metric series; kept on the result
    so a single propagation stays self-describing without reading the
    registry.

    Attributes:
        structure_cache_hit: Whether the propagation structure came out
            of the engine cache (False for cold runs and the stateless
            reference builder).
        schedule_cache_hit: Whether the BFS layers / colouring came out
            of the engine cache.
        warm_start: Whether the sweep was seeded from a caller-provided
            field instead of the prior means μ.
    """

    structure_cache_hit: bool = False
    schedule_cache_hit: bool = False
    warm_start: bool = False


@dataclass(frozen=True)
class GSPResult:
    """Outcome of one propagation.

    Attributes:
        speeds: Inferred speed per road, shape ``(n_roads,)``; observed
            roads keep their probed values.
        sweeps: Sweeps performed.
        converged: Whether the ε threshold was met.
        max_delta_history: Largest per-road change after each sweep.
        runtime_seconds: Wall-clock time.
        schedule: Update ordering that produced this result.
        kernel: Code path that produced it (``REFERENCE``/``VECTORIZED``).
        provenance: Cache hit/miss provenance of this propagation; the
            same facts are published on the ``gsp.cache.lookups`` metric
            and the ``gsp.cache`` trace events.
    """

    speeds: np.ndarray
    sweeps: int
    converged: bool
    max_delta_history: Tuple[float, ...]
    runtime_seconds: float
    schedule: GSPSchedule = GSPSchedule.BFS
    kernel: GSPKernel = GSPKernel.REFERENCE
    provenance: GSPProvenance = field(default_factory=GSPProvenance)


# ----------------------------------------------------------------------
# Cached precomputations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationStructure:
    """CSR-style neighbour structure for one ``(network, slot)`` pair.

    Flat arrays over all *directed* neighbour slots: road ``i``'s
    neighbours occupy ``indices[indptr[i]:indptr[i+1]]`` with edge
    precisions ``weights`` (``1/σ_ij²``) in the matching positions.  The
    value-independent parts of Eq. 18 are folded once:

    * ``const_pull[i] = μ_i/σ_i² + Σ_j (μ_i - μ_j)/σ_ij²`` and
    * ``denom[i]      = 1/σ_i²  + Σ_j 1/σ_ij²``,

    so a sweep only gathers neighbour values and segment-sums
    ``weights * v[indices]``.

    Attributes:
        indptr: Row pointers, shape ``(n_roads + 1,)``.
        indices: Flat neighbour indices, shape ``(2·n_edges,)``.
        weights: Edge precisions per flat slot, shape ``(2·n_edges,)``.
        const_pull: Value-independent numerator per road.
        denom: Eq. 18 denominator per road.
        mu: Prior means (the propagation's initial iterate).
        signature: Content digest of the slot parameters this structure
            was compiled from — the engine's cache key.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    const_pull: np.ndarray
    denom: np.ndarray
    mu: np.ndarray
    signature: bytes

    @property
    def n_roads(self) -> int:
        """Number of roads the structure covers."""
        return self.denom.shape[0]


@dataclass(frozen=True)
class _GroupKernel:
    """Gather/segment-sum arrays for one fused group update.

    ``nodes`` are the group's road indices; ``flat`` indexes the
    structure's CSR arrays (all neighbour slots of the group's nodes,
    concatenated in node order) and ``owner`` maps each flat slot back
    to its position within ``nodes``.
    """

    nodes: np.ndarray
    flat: np.ndarray
    owner: np.ndarray


@dataclass(frozen=True)
class CompiledSchedule:
    """BFS layers / colour groups compiled against the CSR layout.

    Depends only on the topology and ``frozenset(R^c)`` — never on slot
    parameters — so one compilation serves every slot.

    Attributes:
        schedule: The ordering this compilation realizes.
        groups: Fused-update groups, swept in order (layers for
            ``BFS_PARALLEL``, colour groups for ``BFS_COLORED``).
        node_groups: The same groups as plain index lists, for the
            reference kernel.
    """

    schedule: GSPSchedule
    groups: Tuple[_GroupKernel, ...]
    node_groups: Tuple[Tuple[int, ...], ...]


def build_propagation_structure(
    network: TrafficNetwork, params: RTFSlot
) -> PropagationStructure:
    """Compile the CSR neighbour structure for one slot (vectorized).

    Uses :meth:`RTFSlot.propagation_arrays` for the per-road and
    per-edge precisions; every step below is array work, no per-node
    Python loop.
    """
    params.check_against(network)
    n = network.n_roads
    prior_precision, prior_pull, edge_precision, edge_mu = params.propagation_arrays(
        network
    )
    if network.edges:
        ei, ej = np.array(network.edges, dtype=np.intp).T
        src = np.concatenate([ei, ej])
        dst = np.concatenate([ej, ei])
        w = np.concatenate([edge_precision, edge_precision])
        # mu_ij is order-sensitive: from i's viewpoint the pull constant
        # is w_ij * (mu_i - mu_j) = w_ij * mu_src-to-dst difference.
        pull_const = np.concatenate([edge_mu * edge_precision, -edge_mu * edge_precision])
        order = np.argsort(src, kind="stable")
        src = src[order]
        indices = dst[order]
        weights = w[order]
        pull_const = pull_const[order]
        counts = np.bincount(src, minlength=n)
        const_pull = prior_pull + np.bincount(src, weights=pull_const, minlength=n)
        denom = prior_precision + np.bincount(src, weights=weights, minlength=n)
    else:
        indices = np.zeros(0, dtype=np.intp)
        weights = np.zeros(0)
        counts = np.zeros(n, dtype=np.intp)
        const_pull = prior_pull.copy()
        denom = prior_precision.copy()
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return PropagationStructure(
        indptr=indptr,
        indices=indices,
        weights=weights,
        const_pull=const_pull,
        denom=denom,
        mu=params.mu.astype(np.float64, copy=True),
        signature=params_signature(params),
    )


def _compile_groups(
    structure_indptr: np.ndarray, node_groups: Sequence[Sequence[int]]
) -> Tuple[_GroupKernel, ...]:
    """Build the gather/segment arrays for each update group."""
    kernels: List[_GroupKernel] = []
    for group in node_groups:
        nodes = np.asarray(group, dtype=np.intp)
        starts = structure_indptr[nodes]
        counts = structure_indptr[nodes + 1] - starts
        total = int(counts.sum())
        owner = np.repeat(np.arange(nodes.size, dtype=np.intp), counts)
        offsets = np.zeros(nodes.size, dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        flat = np.arange(total, dtype=np.intp) - offsets[owner] + starts[owner]
        kernels.append(_GroupKernel(nodes=nodes, flat=flat, owner=owner))
    return tuple(kernels)


def _schedule_node_groups(
    network: TrafficNetwork,
    schedule: GSPSchedule,
    sources: Sequence[int],
    clamped: np.ndarray,
    free: Sequence[int],
) -> List[List[int]]:
    """The update groups of one sweep (sweep-invariant schedules only)."""
    if schedule in (
        GSPSchedule.BFS,
        GSPSchedule.BFS_PARALLEL,
        GSPSchedule.BFS_COLORED,
    ):
        if sources:
            layers = [
                [i for i in layer if not clamped[i]]
                for layer in network.bfs_layers(sorted(sources))
            ]
            layers = [layer for layer in layers if layer]
        else:
            layers = [list(free)] if free else []
        if schedule is GSPSchedule.BFS_COLORED:
            # Refine each layer into independent groups; groups are then
            # swept Gauss-Seidel, but within a group every update could
            # run on its own core with an identical result.
            layers = [
                group
                for layer in layers
                for group in independent_update_groups(network, layer)
            ]
        return layers
    if schedule is GSPSchedule.INDEX:
        return [list(free)] if free else []
    if schedule is GSPSchedule.RANDOM:
        return [list(free)] if free else []  # permuted per sweep by the kernel
    raise ModelError(f"unknown schedule {schedule!r}")  # pragma: no cover


@dataclass
class GSPCacheStats:
    """Hit/miss counters of one :class:`GSPEngine`."""

    structure_hits: int = 0
    structure_misses: int = 0
    schedule_hits: int = 0
    schedule_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for logs and tests)."""
        return {
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
            "schedule_hits": self.schedule_hits,
            "schedule_misses": self.schedule_misses,
        }


class GSPEngine:
    """Vectorized GSP solver with cached precomputations for one network.

    The engine owns two keyed LRU caches:

    * **structures** — :class:`PropagationStructure` per slot-parameter
      content digest (:func:`params_signature`).  Changing ``mu`` /
      ``sigma`` / ``rho`` changes the digest, so stale precisions can
      never be reused.
    * **schedules** — :class:`CompiledSchedule` per
      ``(schedule, frozenset(R^c))``.  Layers and colourings depend only
      on topology and the observed set, so one compilation serves every
      slot and every repeated query with the same selection.

    The engine is bound to one immutable :class:`TrafficNetwork`;
    propagating with parameters of mismatched dimensions raises
    :class:`ModelError` (networks themselves are immutable, so a changed
    road graph is necessarily a *different* network object and gets a
    fresh engine — see :func:`engine_for`).

    Args:
        network: The road graph.
        max_structures: LRU capacity of the structure cache.
        max_schedules: LRU capacity of the schedule cache.
    """

    def __init__(
        self,
        network: TrafficNetwork,
        max_structures: int = 8,
        max_schedules: int = 64,
    ) -> None:
        if max_structures <= 0 or max_schedules <= 0:
            raise ModelError("cache capacities must be positive")
        self._network = network
        self._max_structures = max_structures
        self._max_schedules = max_schedules
        self._structures: "OrderedDict[bytes, PropagationStructure]" = OrderedDict()
        self._schedules: "OrderedDict[Tuple[GSPSchedule, frozenset], CompiledSchedule]" = (
            OrderedDict()
        )
        # Guards the two LRU OrderedDicts: concurrent readers (snapshot-
        # isolated answer_query calls) share one engine, and OrderedDict
        # mutation is not thread-safe.  Compilation on miss happens
        # outside the lock; a racing duplicate build is harmless (last
        # write wins on identical immutable values).
        self._lock = threading.RLock()
        self.stats = GSPCacheStats()

    @property
    def network(self) -> TrafficNetwork:
        """The road graph this engine is compiled against."""
        return self._network

    def clear(self) -> None:
        """Drop both caches (counters are kept)."""
        with self._lock:
            self._structures.clear()
            self._schedules.clear()

    # -- cache plumbing -------------------------------------------------

    def structure_for(
        self, params: RTFSlot
    ) -> Tuple[PropagationStructure, bool]:
        """The CSR structure for one slot, compiling on miss.

        Returns:
            ``(structure, cache_hit)``.
        """
        key = params_signature(params)
        metrics = get_metrics()
        with self._lock:
            cached = self._structures.get(key)
            if cached is not None:
                self._structures.move_to_end(key)
                self.stats.structure_hits += 1
                metrics.counter(
                    "gsp.cache.lookups", {"cache": "structure", "result": "hit"}
                ).inc()
                return cached, True
        structure = build_propagation_structure(self._network, params)
        with self._lock:
            self._structures[key] = structure
            if len(self._structures) > self._max_structures:
                self._structures.popitem(last=False)
            self.stats.structure_misses += 1
        metrics.counter(
            "gsp.cache.lookups", {"cache": "structure", "result": "miss"}
        ).inc()
        return structure, False

    def schedule_for(
        self,
        schedule: GSPSchedule,
        observed_roads: frozenset,
        structure: PropagationStructure,
    ) -> Tuple[CompiledSchedule, bool]:
        """The compiled update groups for one ``(schedule, R^c)`` pair.

        Returns:
            ``(compiled, cache_hit)``.
        """
        key = (schedule, observed_roads)
        metrics = get_metrics()
        with self._lock:
            cached = self._schedules.get(key)
            if cached is not None:
                self._schedules.move_to_end(key)
                self.stats.schedule_hits += 1
                metrics.counter(
                    "gsp.cache.lookups", {"cache": "schedule", "result": "hit"}
                ).inc()
                return cached, True
        n = self._network.n_roads
        clamped = np.zeros(n, dtype=bool)
        for road in observed_roads:
            clamped[road] = True
        free = [i for i in range(n) if not clamped[i]]
        node_groups = _schedule_node_groups(
            self._network, schedule, sorted(observed_roads), clamped, free
        )
        compiled = CompiledSchedule(
            schedule=schedule,
            groups=_compile_groups(structure.indptr, node_groups),
            node_groups=tuple(tuple(int(i) for i in g) for g in node_groups),
        )
        with self._lock:
            self._schedules[key] = compiled
            if len(self._schedules) > self._max_schedules:
                self._schedules.popitem(last=False)
            self.stats.schedule_misses += 1
        metrics.counter(
            "gsp.cache.lookups", {"cache": "schedule", "result": "miss"}
        ).inc()
        return compiled, False

    # -- solving --------------------------------------------------------

    def propagate(
        self,
        params: RTFSlot,
        observed: Mapping[int, float],
        config: Optional[GSPConfig] = None,
        *,
        initial_field: Optional[np.ndarray] = None,
    ) -> GSPResult:
        """Run GSP for one slot (Alg. 5), using the cached structures.

        Args:
            params: RTF parameters of the query slot.
            observed: Probed speeds keyed by road index; clamped.
            config: Solver knobs.
            initial_field: Optional warm-start seed, shape
                ``(n_roads,)`` — the sweep starts from this field instead
                of the prior means μ (observed roads are still clamped to
                their probed values).  Converges to the same fixed point;
                a seed near it (e.g. the previous slot's converged field)
                cuts sweeps-to-convergence.  Callers are responsible for
                the seed's freshness — see
                ``ModelSnapshot.warm_field``/``store_warm_field``.

        Returns:
            A :class:`GSPResult`.

        Raises:
            ModelError: On index/shape problems or an impossible
                kernel/schedule/precision combination.
            ConvergenceError: In ``strict`` mode when ε is not reached.

        Warns:
            ConvergenceWarning: In non-strict mode when the sweep budget
                is exhausted before ε (also counted on the
                ``gsp.convergence.failures`` metric).
        """
        cfg = config or GSPConfig()
        kernel = cfg.resolved_kernel()
        if cfg.precision is PrecisionPolicy.FLOAT32 and kernel is not GSPKernel.VECTORIZED:
            raise ModelError(
                "float32 precision requires the vectorized kernel "
                "(see GSPConfig.with_precision)"
            )
        params.check_against(self._network)
        n = self._network.n_roads
        for road, value in observed.items():
            if not 0 <= road < n:
                raise ModelError(f"observed road index {road} outside 0..{n - 1}")
            if not np.isfinite(value) or value <= 0:
                raise ModelError(f"observed speed for road {road} must be positive")
        if initial_field is not None:
            seed_field = np.asarray(initial_field, dtype=np.float64)
            if seed_field.shape != (n,):
                raise ModelError(
                    f"initial_field shape {seed_field.shape} does not match "
                    f"{n} roads"
                )
            if not np.all(np.isfinite(seed_field)):
                raise ModelError("initial_field must be finite")
        else:
            seed_field = None

        tracer = get_tracer()
        with tracer.span(
            "gsp.propagate",
            slot=int(params.slot),
            schedule=cfg.schedule.value,
            kernel=kernel.value,
            observed_roads=len(observed),
            warm_start=seed_field is not None,
        ) as span:
            start = time.perf_counter()
            if seed_field is not None:
                speeds = seed_field.copy()
            else:
                speeds = params.mu.astype(np.float64).copy()
            for road, value in observed.items():
                speeds[road] = float(value)
            observed_set = frozenset(int(road) for road in observed)
            if len(observed_set) == n:
                runtime = time.perf_counter() - start
                span.set_attr("sweeps", 0)
                span.set_attr("converged", True)
                self._record_metrics(cfg, kernel, 0, True, (), runtime, observed_set)
                return GSPResult(
                    speeds=speeds,
                    sweeps=0,
                    converged=True,
                    max_delta_history=(),
                    runtime_seconds=runtime,
                    schedule=cfg.schedule,
                    kernel=kernel,
                    provenance=GSPProvenance(warm_start=seed_field is not None),
                )

            if kernel is GSPKernel.VECTORIZED:
                structure, structure_hit = self.structure_for(params)
                compiled, schedule_hit = self.schedule_for(
                    cfg.schedule, observed_set, structure
                )
                tracer.event(
                    "gsp.cache", structure_hit=structure_hit, schedule_hit=schedule_hit
                )
                speeds, sweeps, converged, history = _vectorized_sweeps(
                    structure, compiled, speeds, cfg
                )
                if cfg.precision is PrecisionPolicy.FLOAT32:
                    # Upcast and re-clamp: observed roads keep their exact
                    # probed values regardless of the sweep precision.
                    speeds = speeds.astype(np.float64)
                    for road, value in observed.items():
                        speeds[road] = float(value)
            else:
                structure_hit = schedule_hit = False
                speeds, sweeps, converged, history = _reference_sweeps(
                    self._network, params, observed_set, speeds, cfg
                )

            runtime = time.perf_counter() - start
            span.set_attr("sweeps", sweeps)
            span.set_attr("converged", converged)
            self._record_metrics(
                cfg, kernel, sweeps, converged, history, runtime, observed_set
            )
            if not converged:
                residual = history[-1] if history else float("inf")
                if cfg.strict:
                    raise ConvergenceError(
                        f"GSP did not reach epsilon={cfg.epsilon} within "
                        f"{cfg.max_sweeps} sweeps (last delta {residual:.4g})"
                    )
                warnings.warn(
                    f"GSP stopped at the max_sweeps={cfg.max_sweeps} cap without "
                    f"reaching epsilon={cfg.epsilon} (residual {residual:.4g}); "
                    f"returning the last iterate",
                    ConvergenceWarning,
                    stacklevel=3,
                )
            return GSPResult(
                speeds=speeds,
                sweeps=sweeps,
                converged=converged,
                max_delta_history=tuple(history),
                runtime_seconds=runtime,
                schedule=cfg.schedule,
                kernel=kernel,
                provenance=GSPProvenance(
                    structure_cache_hit=structure_hit,
                    schedule_cache_hit=schedule_hit,
                    warm_start=seed_field is not None,
                ),
            )

    def _record_metrics(
        self,
        cfg: GSPConfig,
        kernel: GSPKernel,
        sweeps: int,
        converged: bool,
        history: Sequence[float],
        runtime: float,
        observed_set: frozenset,
    ) -> None:
        """Publish one propagation's counters (no-op while disabled)."""
        metrics = get_metrics()
        if not metrics.enabled:
            return
        labels = {"schedule": cfg.schedule.value, "kernel": kernel.value}
        metrics.counter("gsp.propagations", labels).inc()
        metrics.histogram("gsp.sweeps", DEFAULT_ITERATION_BUCKETS, labels).observe(sweeps)
        metrics.histogram("gsp.runtime_seconds", DEFAULT_TIME_BUCKETS, labels).observe(
            runtime
        )
        metrics.counter("gsp.clamped_roads").inc(len(observed_set))
        metrics.gauge("gsp.last_max_delta").set(history[-1] if history else 0.0)
        if not converged:
            metrics.counter("gsp.convergence.failures", labels).inc()

    def propagate_batch(
        self,
        items: Sequence[Tuple[RTFSlot, Mapping[int, float]]],
        config: Optional[GSPConfig] = None,
    ) -> List[GSPResult]:
        """Answer several time slots in one call.

        Each item is a ``(slot parameters, observed speeds)`` pair; the
        BFS/colouring compilation is shared across items whose observed
        sets coincide, and structures are shared across items that reuse
        a slot's parameters.

        Args:
            items: Per-slot propagation inputs.
            config: Solver knobs applied to every item.

        Returns:
            One :class:`GSPResult` per item, in input order.
        """
        return [self.propagate(params, observed, config) for params, observed in items]


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------


def _vectorized_sweeps(
    structure: PropagationStructure,
    compiled: CompiledSchedule,
    speeds: np.ndarray,
    cfg: GSPConfig,
) -> Tuple[np.ndarray, int, bool, List[float]]:
    """Fused group updates until ε-convergence (Eq. 18, whole groups)."""
    # Gather the per-group parameter slices once per call; only the
    # neighbour-value gather remains inside the sweep loop.  Under the
    # FLOAT32 policy the folded parameters and the iterate are cast down
    # once here and the whole sweep runs single-precision.
    dtype = cfg.precision.dtype
    if speeds.dtype != dtype:
        speeds = speeds.astype(dtype)
    prepared = []
    for group in compiled.groups:
        prepared.append(
            (
                group.nodes,
                structure.indices[group.flat],
                structure.weights[group.flat].astype(dtype, copy=False),
                group.owner,
                structure.const_pull[group.nodes].astype(dtype, copy=False),
                structure.denom[group.nodes].astype(dtype, copy=False),
                group.nodes.size,
            )
        )
    tracer = get_tracer()
    trace_sweeps = tracer.enabled  # one bool check per sweep when disabled
    history: List[float] = []
    converged = False
    sweeps = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        sweeps = sweep
        max_delta = 0.0
        for nodes, gather, weights, owner, const_pull, denom, size in prepared:
            contrib = np.bincount(owner, weights=weights * speeds[gather], minlength=size)
            new = (const_pull + contrib) / denom
            if size:
                delta = float(np.max(np.abs(new - speeds[nodes])))
                if delta > max_delta:
                    max_delta = delta
                speeds[nodes] = new
        history.append(max_delta)
        if trace_sweeps:
            tracer.event("gsp.sweep", sweep=sweep, max_delta=max_delta)
        if max_delta < cfg.epsilon:
            converged = True
            break
    return speeds, sweeps, converged, history


def _build_update_structure(
    network: TrafficNetwork, params: RTFSlot
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Precompute, per road, its neighbour arrays and edge precisions.

    Returns ``(prior_precision, prior_pull, neighbor_idx, edge_weight)``
    where for road i the Eq. 18 update is::

        v_i = (prior_pull[i] + Σ_k edge_weight[i][k] * (v[neighbor_idx[i][k]] + mu_ij))
              / (prior_precision[i] + Σ_k edge_weight[i][k])

    The ``mu_ij`` pull is folded into a constant, so the loop only
    gathers neighbour values.  This is the reference kernel's builder;
    it deliberately goes through the per-node ``neighbors``/``edge_id``
    API rather than the CSR export, so the two kernels compute their
    precisions through independent code paths.
    """
    n = network.n_roads
    sigma2 = params.sigma * params.sigma
    prior_precision = 1.0 / sigma2
    prior_pull = params.mu / sigma2
    edge_var = params.edge_variance(network)
    neighbor_idx: List[np.ndarray] = []
    edge_weight: List[np.ndarray] = []
    for i in range(n):
        neigh = np.array(network.neighbors(i), dtype=int)
        if neigh.size:
            weights = np.array(
                [1.0 / edge_var[network.edge_id(i, int(j))] for j in neigh]
            )
        else:
            weights = np.zeros(0)
        neighbor_idx.append(neigh)
        edge_weight.append(weights)
    return prior_precision, prior_pull, neighbor_idx, edge_weight


def _reference_sweeps(
    network: TrafficNetwork,
    params: RTFSlot,
    observed_set: frozenset,
    speeds: np.ndarray,
    cfg: GSPConfig,
) -> Tuple[np.ndarray, int, bool, List[float]]:
    """The per-node Alg. 5 loop — the oracle the fast path is tested against."""
    n = network.n_roads
    clamped = np.zeros(n, dtype=bool)
    for road in observed_set:
        clamped[road] = True
    free = [i for i in range(n) if not clamped[i]]
    prior_precision, prior_pull, neighbor_idx, edge_weight = _build_update_structure(
        network, params
    )
    mu = params.mu
    rng = np.random.default_rng(cfg.seed)
    layers = _schedule_node_groups(network, cfg.schedule, sorted(observed_set), clamped, free)

    def updated_value(i: int, values: np.ndarray) -> float:
        neigh = neighbor_idx[i]
        if neigh.size:
            w = edge_weight[i]
            # mu_ij = mu_i - mu_j folded in: neighbour j contributes
            # (v_j + mu_i - mu_j) * w_ij.
            pull = prior_pull[i] + float(np.dot(w, values[neigh] + mu[i] - mu[neigh]))
            precision = prior_precision[i] + float(w.sum())
        else:
            pull = prior_pull[i]
            precision = prior_precision[i]
        return pull / precision

    tracer = get_tracer()
    trace_sweeps = tracer.enabled
    history: List[float] = []
    converged = False
    sweeps = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        sweeps = sweep
        max_delta = 0.0
        if cfg.schedule is GSPSchedule.RANDOM:
            order_layers = [list(rng.permutation(free))]
        else:
            order_layers = layers
        if cfg.schedule is GSPSchedule.BFS_PARALLEL:
            for layer in order_layers:
                # Jacobi within the layer: all reads before any write.
                new_values = [updated_value(int(i), speeds) for i in layer]
                for i, value in zip(layer, new_values):
                    max_delta = max(max_delta, abs(value - speeds[int(i)]))
                    speeds[int(i)] = value
        else:
            for layer in order_layers:
                for i in layer:
                    value = updated_value(int(i), speeds)
                    max_delta = max(max_delta, abs(value - speeds[int(i)]))
                    speeds[int(i)] = value
        history.append(max_delta)
        if trace_sweeps:
            tracer.event("gsp.sweep", sweep=sweep, max_delta=max_delta)
        if max_delta < cfg.epsilon:
            converged = True
            break
    return speeds, sweeps, converged, history


# ----------------------------------------------------------------------
# Module-level facade
# ----------------------------------------------------------------------

#: Engines keyed by network, LRU-bounded.  Keyed by network *content*
#: (TrafficNetwork is immutable with value equality/hash), so an equal
#: rebuild of the same city shares its engine while any topology change
#: necessarily maps to a fresh one.
_ENGINES: "OrderedDict[TrafficNetwork, GSPEngine]" = OrderedDict()
_MAX_ENGINES = 4
_ENGINES_LOCK = threading.Lock()


def engine_for(network: TrafficNetwork) -> GSPEngine:
    """The shared :class:`GSPEngine` for a network (created on demand)."""
    with _ENGINES_LOCK:
        engine = _ENGINES.get(network)
        if engine is None:
            engine = GSPEngine(network)
            _ENGINES[network] = engine
            if len(_ENGINES) > _MAX_ENGINES:
                _ENGINES.popitem(last=False)
        else:
            _ENGINES.move_to_end(network)
        return engine


def clear_engine_cache() -> None:
    """Drop every shared engine (mainly for tests)."""
    with _ENGINES_LOCK:
        _ENGINES.clear()


def propagate(
    network: TrafficNetwork,
    params: RTFSlot,
    observed: Mapping[int, float],
    config: Optional[GSPConfig] = None,
) -> GSPResult:
    """Run GSP (Alg. 5).

    Stateless facade over the shared per-network :class:`GSPEngine`, so
    repeated calls on the same network reuse cached structures.

    Args:
        network: Road graph.
        params: RTF parameters of the query slot.
        observed: Probed speeds keyed by road index (the crowdsourced
            data ``V̂_{R^c}``); these roads stay clamped.
        config: Solver knobs.

    Returns:
        A :class:`GSPResult` with the inferred full speed field.

    Raises:
        ModelError: On index/shape problems.
        ConvergenceError: In ``strict`` mode when ε is not reached.
    """
    return engine_for(network).propagate(params, observed, config)


def propagate_batch(
    network: TrafficNetwork,
    items: Sequence[Tuple[RTFSlot, Mapping[int, float]]],
    config: Optional[GSPConfig] = None,
) -> List[GSPResult]:
    """Answer several time slots in one call (see :meth:`GSPEngine.propagate_batch`)."""
    return engine_for(network).propagate_batch(items, config)
