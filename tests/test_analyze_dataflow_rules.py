"""RA007–RA012 rule tests: seeded-bug and clean fixtures per rule.

Each rule gets at least one fixture that plants the exact bug the rule
exists for (proving it fires) and one idiomatic-clean fixture (proving
it stays quiet on the pattern the codebase actually uses).
"""

from __future__ import annotations

from tests.analyze_util import check
from tools.analyze.rules.ra007_snapshot_pinning import RA007SnapshotPinning
from tools.analyze.rules.ra008_deadline_propagation import RA008DeadlinePropagation
from tools.analyze.rules.ra009_precision_escape import RA009PrecisionEscape
from tools.analyze.rules.ra010_mmap_write_safety import RA010MmapWriteSafety
from tools.analyze.rules.ra011_metrics_cardinality import RA011MetricsCardinality
from tools.analyze.rules.ra012_blocking_under_lock import RA012BlockingUnderLock


class TestRA007SnapshotPinning:
    def test_torn_two_snapshot_request_fires(self, tmp_path):
        """The seeded bug: two store reads straddling one request."""
        findings = check(RA007SnapshotPinning(), tmp_path, {
            "src/pipeline.py": """
    def serve_request(store, roads):
        snap_a = store.current()
        speeds = snap_a.speeds(roads)
        snap_b = store.current()
        return speeds, snap_b.version
""",
        })
        assert len(findings) == 1
        assert findings[0].rule == "RA007"
        assert "acquires 2 snapshots" in findings[0].message
        assert "serve_request" in findings[0].message

    def test_single_pin_passed_through_is_clean(self, tmp_path):
        findings = check(RA007SnapshotPinning(), tmp_path, {
            "src/pipeline.py": """
    def serve_request(store, roads):
        snapshot = store.current()
        return handle(snapshot, roads)

    def handle(snapshot, roads):
        return snapshot.speeds(roads)
""",
        })
        assert findings == []

    def test_raw_store_internal_access_fires(self, tmp_path):
        findings = check(RA007SnapshotPinning(), tmp_path, {
            "src/serve/handlers.py": """
    def peek(store):
        return store._slots
""",
        })
        assert len(findings) == 1
        assert "._slots" in findings[0].message
        assert "ModelStore" in findings[0].message

    def test_raw_snapshot_internal_access_fires(self, tmp_path):
        findings = check(RA007SnapshotPinning(), tmp_path, {
            "src/backends/impl.py": """
    def read(snapshot):
        return snapshot._params
""",
        })
        assert len(findings) == 1
        assert "ModelSnapshot" in findings[0].message

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        """The pin contract only binds request-path modules."""
        findings = check(RA007SnapshotPinning(), tmp_path, {
            "src/offline_tools.py": """
    def compare(store):
        before = store.current()
        after = store.current()
        return before, after, store._slots
""",
        })
        assert findings == []

    def test_conditional_refetch_fallback_counts_sites(self, tmp_path):
        """Two lexical acquisition sites fire even under branches —
        the idiomatic fallback acquires at most one at runtime but
        should still route through a single pin site."""
        findings = check(RA007SnapshotPinning(), tmp_path, {
            "src/pipeline.py": """
    def serve(store, snapshot, roads):
        if snapshot is None:
            snapshot = store.current()
        return snapshot.speeds(roads)
""",
        })
        assert findings == []


class TestRA008DeadlinePropagation:
    def test_dropped_deadline_on_blocking_callee_fires(self, tmp_path):
        """The seeded bug: a serve path that forgets the deadline."""
        findings = check(RA008DeadlinePropagation(), tmp_path, {
            "src/serve/app.py": """
    import time

    def blocking_fetch(payload, deadline=None):
        time.sleep(0.1)
        return payload

    def handle(request, deadline):
        return blocking_fetch(request)
""",
        })
        assert len(findings) == 1
        assert findings[0].rule == "RA008"
        assert "never passes its deadline" in findings[0].message
        assert "blocking" in findings[0].message

    def test_explicit_none_fires(self, tmp_path):
        findings = check(RA008DeadlinePropagation(), tmp_path, {
            "src/serve/app.py": """
    import time

    def blocking_fetch(payload, deadline=None):
        time.sleep(0.1)
        return payload

    def handle(request, deadline):
        return blocking_fetch(request, deadline=None)
""",
        })
        assert len(findings) == 1
        assert "binds deadline=None" in findings[0].message

    def test_forwarded_deadline_is_clean(self, tmp_path):
        findings = check(RA008DeadlinePropagation(), tmp_path, {
            "src/serve/app.py": """
    import time

    def blocking_fetch(payload, deadline=None):
        time.sleep(0.1)
        return payload

    def handle(request, deadline):
        return blocking_fetch(request, deadline=deadline)

    def positional(request, deadline):
        return blocking_fetch(request, deadline)
""",
        })
        assert findings == []

    def test_deadline_checking_callee_counts(self, tmp_path):
        """A callee that consults its deadline (even without blocking)
        loses real cancellation when the caller drops it."""
        findings = check(RA008DeadlinePropagation(), tmp_path, {
            "src/serve/app.py": """
    def guarded(work, deadline=None):
        if deadline is not None and deadline.remaining() <= 0:
            raise TimeoutError("late")
        return work

    def handle(request, deadline):
        return guarded(request)
""",
        })
        assert len(findings) == 1
        assert "deadline-checking" in findings[0].message

    def test_non_blocking_callee_is_skipped(self, tmp_path):
        findings = check(RA008DeadlinePropagation(), tmp_path, {
            "src/serve/app.py": """
    def pure(payload, deadline=None):
        return payload * 2

    def handle(request, deadline):
        return pure(request)
""",
        })
        assert findings == []


class TestRA009PrecisionEscape:
    def test_float32_into_query_result_fires(self, tmp_path):
        findings = check(RA009PrecisionEscape(), tmp_path, {
            "src/results.py": """
    import numpy as np

    def publish(speeds):
        compact = speeds.astype(np.float32)
        return QueryResult(speeds=compact)
""",
        })
        assert len(findings) == 1
        assert findings[0].rule == "RA009"
        assert "float32" in findings[0].message
        assert "QueryResult" in findings[0].message

    def test_laundered_float64_is_clean(self, tmp_path):
        findings = check(RA009PrecisionEscape(), tmp_path, {
            "src/results.py": """
    import numpy as np

    def publish(speeds):
        compact = speeds.astype(np.float32)
        out = compact.astype(np.float64)
        return QueryResult(speeds=out)
""",
        })
        assert findings == []

    def test_taint_flows_through_helper_returns(self, tmp_path):
        findings = check(RA009PrecisionEscape(), tmp_path, {
            "src/results.py": """
    import numpy as np

    def kernel(speeds):
        return np.asarray(speeds, dtype=np.float32)

    def publish(speeds):
        estimate = kernel(speeds)
        return BackendEstimate(speeds=estimate)
""",
        })
        assert len(findings) == 1
        assert "BackendEstimate" in findings[0].message

    def test_strong_update_launders_rebinding(self, tmp_path):
        """``x = x.astype(np.float64)`` kills the taint on x itself."""
        findings = check(RA009PrecisionEscape(), tmp_path, {
            "src/results.py": """
    import numpy as np

    def publish(speeds):
        speeds = speeds.astype(np.float32)
        speeds = speeds.astype(np.float64)
        return QueryResult(speeds=speeds)
""",
        })
        assert findings == []

    def test_conditional_cast_keeps_taint(self, tmp_path):
        """A branch-local float32 cast may or may not run; the merged
        state must stay tainted (weak update)."""
        findings = check(RA009PrecisionEscape(), tmp_path, {
            "src/results.py": """
    import numpy as np

    def publish(speeds, compact):
        if compact:
            speeds = speeds.astype(np.float32)
        return QueryResult(speeds=speeds)
""",
        })
        assert len(findings) == 1

    def test_dtype_string_source(self, tmp_path):
        findings = check(RA009PrecisionEscape(), tmp_path, {
            "src/results.py": """
    import numpy as np

    def publish(speeds):
        compact = np.asarray(speeds, dtype="float32")
        return QueryResult(speeds=compact)
""",
        })
        assert len(findings) == 1


class TestRA010MmapWriteSafety:
    def test_inplace_write_to_snapshot_view_fires(self, tmp_path):
        findings = check(RA010MmapWriteSafety(), tmp_path, {
            "src/loader.py": """
    def corrupt(path, network):
        snap = read_snapshot(path, network)
        view = snap.slot_view(0)
        view[0] = 99.0
        return view
""",
        })
        assert len(findings) == 1
        assert findings[0].rule == "RA010"
        assert "subscript store" in findings[0].message

    def test_copy_before_write_is_clean(self, tmp_path):
        findings = check(RA010MmapWriteSafety(), tmp_path, {
            "src/loader.py": """
    def patch(path, network):
        snap = read_snapshot(path, network)
        fixed = snap.slot_view(0).copy()
        fixed[0] = 99.0
        return fixed
""",
        })
        assert findings == []

    def test_taint_survives_helper_return(self, tmp_path):
        findings = check(RA010MmapWriteSafety(), tmp_path, {
            "src/loader.py": """
    def load(path, network):
        snap = read_snapshot(path, network)
        return snap.slot_view(0)

    def corrupt(path, network):
        view = load(path, network)
        view += 1.0
        return view
""",
        })
        assert len(findings) == 1
        assert "augmented assignment" in findings[0].message

    def test_mutating_helper_flagged_at_call_site(self, tmp_path):
        """Interprocedural param sink: passing a view to a function
        that writes its parameter in place."""
        findings = check(RA010MmapWriteSafety(), tmp_path, {
            "src/loader.py": """
    def scale(arr, factor):
        arr[:] = arr * factor

    def apply(path, network):
        view = read_snapshot(path, network)
        scale(view, 2.0)
""",
        })
        assert len(findings) == 1
        assert "scale" in findings[0].message
        assert "arr" in findings[0].message

    def test_out_kwarg_fires(self, tmp_path):
        findings = check(RA010MmapWriteSafety(), tmp_path, {
            "src/loader.py": """
    import numpy as np

    def accumulate(path, network, delta):
        view = read_snapshot(path, network)
        np.add(view, delta, out=view)
""",
        })
        assert any("out= argument" in f.message for f in findings)

    def test_setflags_readonly_hardening_is_clean(self, tmp_path):
        """``setflags(write=False)`` protects the view — not a write."""
        findings = check(RA010MmapWriteSafety(), tmp_path, {
            "src/loader.py": """
    def harden(path, network):
        view = read_snapshot(path, network)
        view.setflags(write=False)
        return view
""",
        })
        assert findings == []

    def test_setflags_enabling_write_fires(self, tmp_path):
        findings = check(RA010MmapWriteSafety(), tmp_path, {
            "src/loader.py": """
    def unprotect(path, network):
        view = read_snapshot(path, network)
        view.setflags(write=True)
        return view
""",
        })
        assert len(findings) == 1
        assert ".setflags()" in findings[0].message


class TestRA011MetricsCardinality:
    def test_fstring_label_fires(self, tmp_path):
        findings = check(RA011MetricsCardinality(), tmp_path, {
            "src/obs_site.py": """
    def record(metrics, road_id):
        metrics.counter("app.requests", {"road": f"road-{road_id}"}).inc()
""",
        })
        assert len(findings) == 1
        assert findings[0].rule == "RA011"
        assert "'road'" in findings[0].message
        assert "unbounded" in findings[0].message

    def test_str_of_variable_fires(self, tmp_path):
        findings = check(RA011MetricsCardinality(), tmp_path, {
            "src/obs_site.py": """
    def record(metrics, version):
        metrics.gauge("app.version", labels={"v": str(version)}).set(1)
""",
        })
        assert len(findings) == 1

    def test_non_string_constant_fires(self, tmp_path):
        findings = check(RA011MetricsCardinality(), tmp_path, {
            "src/obs_site.py": """
    def record(metrics):
        metrics.counter("app.requests", {"slot": 3}).inc()
""",
        })
        assert len(findings) == 1
        assert "non-string constant" in findings[0].message

    def test_dynamic_metric_name_fires(self, tmp_path):
        findings = check(RA011MetricsCardinality(), tmp_path, {
            "src/obs_site.py": """
    def record(metrics, backend):
        metrics.counter(f"app.{backend}.requests").inc()
""",
        })
        assert len(findings) == 1
        assert "metric name" in findings[0].message

    def test_literals_and_bounded_variables_are_clean(self, tmp_path):
        """The codebase's real idioms: literal values and enum-ish
        variables (``{"outcome": outcome}``) stay allowed."""
        findings = check(RA011MetricsCardinality(), tmp_path, {
            "src/obs_site.py": """
    def record(metrics, outcome, backend):
        metrics.counter("app.requests", {"outcome": "ok"}).inc()
        metrics.counter("app.requests", {"outcome": outcome}).inc()
        metrics.histogram(
            "app.latency", [0.1, 1.0], {"backend": backend}
        ).observe(0.5)
""",
        })
        assert findings == []

    def test_dyn_taint_flows_through_assignment(self, tmp_path):
        findings = check(RA011MetricsCardinality(), tmp_path, {
            "src/obs_site.py": """
    def record(metrics, road_id):
        label = f"road-{road_id}"
        metrics.counter("app.requests", {"road": label}).inc()
""",
        })
        assert len(findings) == 1


class TestRA012BlockingUnderLock:
    def test_sleep_under_lock_fires(self, tmp_path):
        findings = check(RA012BlockingUnderLock(), tmp_path, {
            "src/worker.py": """
    import threading
    import time

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()

        def bad(self):
            with self._lock:
                time.sleep(0.1)
""",
        })
        assert len(findings) == 1
        assert findings[0].rule == "RA012"
        assert "sleep" in findings[0].message
        assert "_lock" in findings[0].message

    def test_transitively_blocking_callee_fires(self, tmp_path):
        findings = check(RA012BlockingUnderLock(), tmp_path, {
            "src/worker.py": """
    import threading
    import time

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()

        def _flush(self):
            time.sleep(0.5)

        def indirect(self):
            with self._lock:
                self._flush()
""",
        })
        assert len(findings) == 1
        assert "may block" in findings[0].message
        assert "_flush" in findings[0].message

    def test_blocking_callee_under_passed_in_lock_fires(self, tmp_path):
        """A lock handed over as a parameter and entered by the callee is
        a held lock too (the service probe lock in ``answer_query``)."""
        findings = check(RA012BlockingUnderLock(), tmp_path, {
            "src/pipe.py": """
    import threading
    from contextlib import nullcontext

    class Pipeline:
        def __init__(self):
            self._ready = threading.Event()

        def _derive(self):
            self._ready.wait()

        def answer(self, probe_lock=None):
            with probe_lock if probe_lock is not None else nullcontext():
                self._derive()
""",
        })
        assert len(findings) == 1
        assert "may block" in findings[0].message
        assert "Pipeline.answer.probe_lock" in findings[0].message

    def test_io_outside_lock_is_clean(self, tmp_path):
        findings = check(RA012BlockingUnderLock(), tmp_path, {
            "src/worker.py": """
    import threading
    import time

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self._state = {}

        def good(self):
            with self._lock:
                snapshot = dict(self._state)
            time.sleep(0.1)
            return snapshot
""",
        })
        assert findings == []

    def test_condition_wait_on_held_lock_is_exempt(self, tmp_path):
        """``cond.wait()`` releases the lock it wraps — the
        release-and-wait idiom, not blocking under a lock."""
        findings = check(RA012BlockingUnderLock(), tmp_path, {
            "src/worker.py": """
    import threading

    class Mailbox:
        def __init__(self):
            self._lock = threading.Lock()
            self._ready = threading.Condition(self._lock)
            self._items = []

        def take(self):
            with self._ready:
                while not self._items:
                    self._ready.wait()
                return self._items.pop()
""",
        })
        assert findings == []

    def test_file_io_under_lock_fires(self, tmp_path):
        findings = check(RA012BlockingUnderLock(), tmp_path, {
            "src/worker.py": """
    import threading

    class Recorder:
        def __init__(self):
            self._lock = threading.Lock()
            self._events = []

        def dump(self, path):
            with self._lock:
                with open(path, "w") as fh:
                    fh.write(str(self._events))
""",
        })
        assert len(findings) == 1
        assert "file I/O" in findings[0].message
