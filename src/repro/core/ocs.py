"""Optimal Crowdsourced-road Selection — OCS (paper §V).

Maximize the periodicity-weighted correlation (Eq. 13)

.. math::

    \\widehat{corr}(R^q, R^c) = \\sum_{r_i \\in R^q} \\sigma_i^t \\cdot
        corr^t(r_i, R^c)

subject to ``R^c ⊆ R^w``, the budget ``Σ c_i ≤ K`` and the pairwise
redundancy bound ``corr(r_i, r_j) ≤ θ`` for all selected pairs (Eq. 15).
The problem is NP-hard (Theorem 1, reduction from Maximum k-Coverage).

Solvers:

* :func:`ratio_greedy` — Alg. 2; picks the best objective-gain / cost
  ratio each round; ``O(K |R^w|)`` but unboundedly bad in the worst case
  (paper Example 1).
* :func:`objective_greedy` — Alg. 3; picks the best raw objective gain.
* :func:`hybrid_greedy` — Alg. 4; the better of the two, with the
  ``(1 - 1/e)/2`` approximation guarantee of Theorem 2.
* :func:`random_selection` — the paper's "Rand" baseline (Fig. 3c).
* :func:`brute_force_ocs` — exact optimum by exhaustive search; only
  for small instances, used to measure empirical approximation ratios.
* :func:`trivial_solution` — the two closed-form cases of Remark 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import BudgetError, SelectionError
from repro.obs import DEFAULT_SIZE_BUCKETS, DEFAULT_TIME_BUCKETS, get_metrics

#: Hard cap for :func:`brute_force_ocs`; beyond this the search space
#: (2^n subsets) is unreasonable.
BRUTE_FORCE_LIMIT = 22

@dataclass(frozen=True)
class OCSInstance:
    """One OCS problem (Eq. 15).

    Attributes:
        queried: Queried roads ``R^q`` (network indices).
        candidates: Roads with workers available, ``R^w``.
        costs: Cost per candidate (answers required), aligned with
            ``candidates``; strictly positive.
        budget: Total payment budget ``K``.
        theta: Redundancy threshold ``θ`` in ``(0, 1]``.
        corr: All-pairs correlation matrix for the query slot
            (``Γ_R`` row/col indexed by road).
        sigma: Periodicity intensities ``sigma_i^t`` per road.
    """

    queried: Tuple[int, ...]
    candidates: Tuple[int, ...]
    costs: np.ndarray
    budget: float
    theta: float
    corr: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        if not self.queried:
            raise SelectionError("queried road set R^q must not be empty")
        if not self.candidates:
            raise SelectionError("candidate road set R^w must not be empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise SelectionError("candidate roads contain duplicates")
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.shape != (len(self.candidates),):
            raise SelectionError(
                f"costs shape {costs.shape} does not match {len(self.candidates)} candidates"
            )
        if np.any(costs <= 0):
            raise BudgetError("all candidate costs must be strictly positive")
        if self.budget <= 0:
            raise BudgetError(f"budget must be positive, got {self.budget}")
        if not 0.0 < self.theta <= 1.0:
            raise SelectionError(f"theta must be in (0, 1], got {self.theta}")
        n = self.corr.shape[0]
        if self.corr.shape != (n, n):
            raise SelectionError(f"corr must be square, got {self.corr.shape}")
        if self.sigma.shape != (n,):
            raise SelectionError(
                f"sigma shape {self.sigma.shape} does not match corr size {n}"
            )
        indices = list(self.queried) + list(self.candidates)
        if min(indices) < 0 or max(indices) >= n:
            raise SelectionError("queried/candidate indices outside the network")

    @property
    def n_candidates(self) -> int:
        """Number of candidate roads |R^w|."""
        return len(self.candidates)

    def objective(self, selection: Sequence[int]) -> float:
        """Eq. 13 for an explicit selection (empty selection → 0)."""
        selection = list(selection)
        if not selection:
            return 0.0
        q = np.asarray(self.queried, dtype=int)
        best = self.corr[np.ix_(q, np.asarray(selection, dtype=int))].max(axis=1)
        return float(np.dot(self.sigma[q], best))

    def selection_cost(self, selection: Sequence[int]) -> float:
        """Total cost of a selection (roads must be candidates)."""
        cost_by_road = {road: float(c) for road, c in zip(self.candidates, self.costs)}
        try:
            return sum(cost_by_road[road] for road in selection)
        except KeyError as exc:
            raise SelectionError(f"road {exc.args[0]} is not a candidate") from None

    def is_feasible(self, selection: Sequence[int]) -> bool:
        """Check all three constraints of Eq. 15."""
        selection = list(selection)
        if len(set(selection)) != len(selection):
            return False
        if not set(selection) <= set(self.candidates):
            return False
        if self.selection_cost(selection) > self.budget + 1e-9:
            return False
        for a, b in combinations(selection, 2):
            if self.corr[a, b] > self.theta + 1e-12:
                return False
        return True


@dataclass(frozen=True)
class OCSResult:
    """Outcome of one OCS solver run.

    Attributes:
        selected: Chosen crowdsourced roads ``R^c`` (network indices,
            in selection order).
        objective: Eq. 13 value of the selection.
        cost: Total cost spent.
        iterations: Greedy rounds performed (subset count for brute
            force).
        runtime_seconds: Wall-clock solve time.
        algorithm: Solver name.
    """

    selected: Tuple[int, ...]
    objective: float
    cost: float
    iterations: int
    runtime_seconds: float
    algorithm: str


class _GreedyState:
    """Shared bookkeeping of the greedy solvers.

    Tracks, for every candidate, whether it is still feasible, and for
    every queried road the best correlation achieved by the current
    selection.  In the default *incremental* mode the per-candidate
    marginal gains are materialized once and then delta-updated on every
    pick: committing a candidate can only change a queried road's
    contribution where the new road's correlation beats the previous
    best, so only those touched rows are re-accumulated —
    ``O(|T| · |R^w|)`` instead of the ``O(|R^q| · |R^w|)`` full rescan
    per round.  Untouched rows contribute an exact-zero delta, so the
    incremental gains match the rescan bit-for-bit on exactly
    representable inputs and ties break identically.
    """

    def __init__(self, instance: OCSInstance, *, incremental: bool = True) -> None:
        self.instance = instance
        self.incremental = incremental
        self.q = np.asarray(instance.queried, dtype=int)
        self.c = np.asarray(instance.candidates, dtype=int)
        self.costs = np.asarray(instance.costs, dtype=np.float64)
        self.sigma_q = instance.sigma[self.q]
        # (|q|, |c|) correlation block, computed once.
        self.corr_qc = instance.corr[np.ix_(self.q, self.c)]
        self.best = np.zeros(len(self.q))
        self.available = np.ones(len(self.c), dtype=bool)
        self.remaining = float(instance.budget)
        self.selected: List[int] = []
        self.iterations = 0
        self._gains: Optional[np.ndarray] = None
        # Telemetry tallies, flushed once per solve (see
        # ``_flush_solver_metrics``): how many per-candidate marginal
        # gains were evaluated, how many candidates the θ-redundancy
        # bound pruned from R^w, and how much work the incremental mode
        # actually did (delta passes and queried rows touched by them).
        self.gain_calls = 0
        self.candidate_evaluations = 0
        self.pruned = 0
        self.delta_updates = 0
        self.touched_rows = 0

    def gains(self) -> np.ndarray:
        """Objective increment of adding each candidate (vector |c|)."""
        self.gain_calls += 1
        if self._gains is None or not self.incremental:
            self.candidate_evaluations += self.c.size
            improvement = np.clip(self.corr_qc - self.best[:, None], 0.0, None)
            self._gains = self.sigma_q @ improvement
        return self._gains

    def feasible_mask(self) -> np.ndarray:
        """Candidates that fit the remaining budget and redundancy bound."""
        return self.available & (self.costs <= self.remaining + 1e-9)

    def take(self, candidate_pos: int) -> None:
        """Commit candidate at position ``candidate_pos`` into R^c."""
        road = int(self.c[candidate_pos])
        self.selected.append(road)
        self.remaining -= float(self.costs[candidate_pos])
        new_col = self.corr_qc[:, candidate_pos]
        if self.incremental and self._gains is not None:
            touched = new_col > self.best
            n_touched = int(np.count_nonzero(touched))
            if n_touched:
                block = self.corr_qc[touched]
                old_clip = np.clip(block - self.best[touched, None], 0.0, None)
                new_clip = np.clip(block - new_col[touched, None], 0.0, None)
                self._gains = self._gains + self.sigma_q[touched] @ (new_clip - old_clip)
                self.delta_updates += 1
                self.touched_rows += n_touched
        self.best = np.maximum(self.best, new_col)
        self.available[candidate_pos] = False
        # Redundancy: drop candidates too correlated with the new road.
        too_close = self.instance.corr[road, self.c] > self.instance.theta + 1e-12
        self.pruned += int(np.count_nonzero(self.available & too_close))
        self.available &= ~too_close
        self.iterations += 1


def _flush_solver_metrics(
    result: OCSResult,
    instance: OCSInstance,
    state: Optional[_GreedyState] = None,
    objective_evaluations: int = 0,
) -> None:
    """Publish one solver run's counters (single branch while disabled).

    Greedy solvers hand their :class:`_GreedyState` over so the
    per-round tallies (marginal-gain calls, candidate evaluations,
    θ-pruned candidates) land on the registry in one flush instead of
    touching it inside the selection loop.
    """
    metrics = get_metrics()
    if not metrics.enabled:
        return
    labels = {"algorithm": result.algorithm}
    metrics.counter("ocs.solves", labels).inc()
    metrics.histogram("ocs.runtime_seconds", DEFAULT_TIME_BUCKETS, labels).observe(
        result.runtime_seconds
    )
    metrics.histogram("ocs.selected_size", DEFAULT_SIZE_BUCKETS, labels).observe(
        len(result.selected)
    )
    if objective_evaluations:
        metrics.counter("ocs.objective_evaluations", labels).inc(objective_evaluations)
    if state is not None:
        metrics.counter("ocs.marginal_gain_calls", labels).inc(state.gain_calls)
        metrics.counter("ocs.candidate_evaluations", labels).inc(
            state.candidate_evaluations
        )
        metrics.counter("ocs.pruned_candidates", labels).inc(state.pruned)
        metrics.gauge("ocs.pruning_rate", labels).set(
            state.pruned / instance.n_candidates
        )
        if state.delta_updates:
            metrics.counter("ocs.incremental.updates", labels).inc(state.delta_updates)
            metrics.histogram(
                "ocs.incremental.touched_rows", DEFAULT_SIZE_BUCKETS, labels
            ).observe(state.touched_rows)


def _run_greedy(
    instance: OCSInstance,
    score: Callable[[_GreedyState, np.ndarray, np.ndarray], np.ndarray],
    name: str,
    *,
    incremental: bool = True,
) -> OCSResult:
    start = time.perf_counter()
    state = _GreedyState(instance, incremental=incremental)
    while True:
        mask = state.feasible_mask()
        if not mask.any():
            break
        gains = state.gains()
        scores = score(state, gains, mask)
        scores = np.where(mask, scores, -np.inf)
        best_pos = int(np.argmax(scores))
        if not np.isfinite(scores[best_pos]):
            break
        state.take(best_pos)
    runtime = time.perf_counter() - start
    result = OCSResult(
        selected=tuple(state.selected),
        objective=instance.objective(state.selected),
        cost=instance.selection_cost(state.selected),
        iterations=state.iterations,
        runtime_seconds=runtime,
        algorithm=name,
    )
    _flush_solver_metrics(result, instance, state)
    return result


def ratio_greedy(instance: OCSInstance, *, incremental: bool = True) -> OCSResult:
    """Alg. 2: maximize objective-gain / cost each round.

    ``incremental=False`` forces the full-rescan gain evaluation each
    round — the oracle the incremental mode is differential-tested
    against.
    """
    return _run_greedy(
        instance,
        lambda state, gains, mask: gains / state.costs,
        "ratio-greedy",
        incremental=incremental,
    )


def objective_greedy(instance: OCSInstance, *, incremental: bool = True) -> OCSResult:
    """Alg. 3: maximize the raw objective gain each round."""
    return _run_greedy(
        instance,
        lambda state, gains, mask: gains,
        "objective-greedy",
        incremental=incremental,
    )


def hybrid_greedy(instance: OCSInstance, *, incremental: bool = True) -> OCSResult:
    """Alg. 4: run both greedies, keep the better objective.

    Achieves the ``(1 - 1/e)/2`` approximation ratio of Theorem 2.
    """
    start = time.perf_counter()
    ratio = ratio_greedy(instance, incremental=incremental)
    objective = objective_greedy(instance, incremental=incremental)
    winner = ratio if ratio.objective >= objective.objective else objective
    runtime = time.perf_counter() - start
    result = OCSResult(
        selected=winner.selected,
        objective=winner.objective,
        cost=winner.cost,
        iterations=ratio.iterations + objective.iterations,
        runtime_seconds=runtime,
        algorithm="hybrid-greedy",
    )
    # The two sub-greedies already flushed their own tallies; this only
    # counts the hybrid solve itself.
    _flush_solver_metrics(result, instance)
    return result


def random_selection(
    instance: OCSInstance, rng: Optional[np.random.Generator] = None
) -> OCSResult:
    """The paper's "Rand" baseline: add shuffled candidates while feasible."""
    start = time.perf_counter()
    # Deliberate: the Rand baseline accepts an injected rng for tests.
    rng = rng or np.random.default_rng()  # repro: noqa[RA006]
    state = _GreedyState(instance)
    order = rng.permutation(len(state.c))
    for pos in order:
        if state.available[pos] and state.costs[pos] <= state.remaining + 1e-9:
            state.take(int(pos))
    runtime = time.perf_counter() - start
    result = OCSResult(
        selected=tuple(state.selected),
        objective=instance.objective(state.selected),
        cost=instance.selection_cost(state.selected),
        iterations=state.iterations,
        runtime_seconds=runtime,
        algorithm="random",
    )
    _flush_solver_metrics(result, instance, state)
    return result


def brute_force_ocs(instance: OCSInstance) -> OCSResult:
    """Exact optimum by exhaustive subset search (small instances only).

    Raises:
        SelectionError: When ``|R^w|`` exceeds :data:`BRUTE_FORCE_LIMIT`.
    """
    if instance.n_candidates > BRUTE_FORCE_LIMIT:
        raise SelectionError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} candidates, "
            f"got {instance.n_candidates}"
        )
    start = time.perf_counter()
    candidates = list(instance.candidates)
    costs = np.asarray(instance.costs, dtype=np.float64)
    best_sel: Tuple[int, ...] = ()
    best_obj = 0.0
    examined = 0

    def recurse(pos: int, chosen: List[int], spent: float) -> None:
        nonlocal best_sel, best_obj, examined
        examined += 1
        obj = instance.objective(chosen)
        if obj > best_obj:
            best_obj = obj
            best_sel = tuple(chosen)
        if pos == len(candidates):
            return
        for nxt in range(pos, len(candidates)):
            road = candidates[nxt]
            if spent + costs[nxt] > instance.budget + 1e-9:
                continue
            if any(
                instance.corr[road, prev] > instance.theta + 1e-12 for prev in chosen
            ):
                continue
            chosen.append(road)
            recurse(nxt + 1, chosen, spent + float(costs[nxt]))
            chosen.pop()

    recurse(0, [], 0.0)
    runtime = time.perf_counter() - start
    result = OCSResult(
        selected=best_sel,
        objective=best_obj,
        cost=instance.selection_cost(best_sel),
        iterations=examined,
        runtime_seconds=runtime,
        algorithm="brute-force",
    )
    _flush_solver_metrics(result, instance, objective_evaluations=examined)
    return result


def trivial_solution(instance: OCSInstance) -> Optional[OCSResult]:
    """Remark 2's closed-form optima (θ = 1, unit costs).

    Returns ``None`` when neither trivial case applies.

    * Over-adequate budget (``|R^w| ≤ K``): select all candidates.
    * Few queried roads (``|R^q| < K``): pick, for each queried road,
      the candidate most correlated with it.
    """
    unit_costs = bool(np.all(np.asarray(instance.costs) == 1))
    if instance.theta < 1.0 or not unit_costs:
        return None
    start = time.perf_counter()
    if instance.n_candidates <= instance.budget:
        selected: Tuple[int, ...] = tuple(instance.candidates)
    elif len(instance.queried) < instance.budget:
        c = np.asarray(instance.candidates, dtype=int)
        picks: Set[int] = set()
        for q in instance.queried:
            picks.add(int(c[np.argmax(instance.corr[q, c])]))
        selected = tuple(sorted(picks))
    else:
        return None
    runtime = time.perf_counter() - start
    result = OCSResult(
        selected=selected,
        objective=instance.objective(selected),
        cost=instance.selection_cost(selected),
        iterations=0,
        runtime_seconds=runtime,
        algorithm="trivial",
    )
    _flush_solver_metrics(result, instance)
    return result


#: Named greedy OCS solvers a query may pick; ``"random"`` (the "Rand"
#: baseline) is the only other selector, as it also takes an RNG.
SELECTORS: Mapping[str, Callable[[OCSInstance], OCSResult]] = {
    "hybrid": hybrid_greedy,
    "ratio": ratio_greedy,
    "objective": objective_greedy,
}
