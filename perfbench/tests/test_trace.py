"""Span recording, wrapper install/restore and self-time subtraction."""

import threading
import time
import types

import pytest

from crowdbench.trace import (
    Recorder, Span, attach, children_by_parent, covered, self_time, wrapper_cost_s,
)


def _span(id, start, end, thread=1, parent=None):
    return Span(id=id, name=f"s{id}", layer="x", start=start, end=end, thread=thread, parent=parent)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered([(-5, 2), (2, 3)], 0, 10) == pytest.approx(3)
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_children_from_two_threads_once():
    root = _span(1, 0.0, 10.0, thread=1)
    # Two children on different threads overlap on [3, 4]; a third runs
    # past the root's end and counts only up to it.
    children = [_span(2, 1.0, 4.0, thread=2), _span(3, 3.0, 6.0, thread=3),
                _span(4, 8.0, 12.0, thread=2)]
    assert self_time(root, children) == pytest.approx(3.0)
    # A grandchild reduces its parent's self time, not the root's again.
    grandchild = _span(5, 1.5, 2.5, thread=2, parent=2)
    assert self_time(children[0], children_by_parent([grandchild])[2]) == pytest.approx(2.0)


def test_nested_spans_recorded_live_on_two_threads():
    rec = Recorder()
    with rec.span("root", "pipeline") as root:
        with rec.span("local", "serve"):
            time.sleep(0.01)

        def work():
            with rec.span("remote", "gsp"):
                with rec.span("inner", "store"):
                    time.sleep(0.01)
                time.sleep(0.01)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    spans = {s.name: s for s in rec.spans}
    local, remote, inner = spans["local"], spans["remote"], spans["inner"]
    assert local.parent == root.id
    assert remote.parent is None and remote.thread != root.thread
    assert inner.parent == remote.id
    # The worker's top-level span joins the root by time window.
    attached = attach({root.id: (root.start, root.end)}, [remote])
    assert attached[root.id] == [remote] and remote.requests == (root.id,)
    children = children_by_parent(rec.spans)
    expected = root.duration - local.duration - remote.duration
    assert self_time(root, children[root.id] + attached[root.id]) == pytest.approx(expected)
    assert self_time(remote, children[remote.id]) == pytest.approx(remote.duration - inner.duration)


def test_attach_shares_batch_work_between_coalesced_requests():
    work = _span(10, 5.0, 6.0, thread=2)
    late = _span(11, 9.0, 9.5, thread=2)
    attached = attach({1: (4.0, 7.0), 2: (4.5, 7.0), 3: (8.0, 10.0)}, [work, late])
    assert attached == {1: [work], 2: [work], 3: [late]}
    assert work.requests == (1, 2)


class _Engine:
    def propagate(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return 2 * x


def test_wrap_records_nesting_and_restore_removes_every_wrapper():
    rec = Recorder()
    engine = _Engine()
    table = {"solve": lambda x: -x}
    module = types.SimpleNamespace(helper=lambda: "orig")
    original_helper = module.helper
    notes = []
    rec.wrap(engine, "propagate", "gsp.propagate", "gsp",
             note=lambda span, result, token: notes.append((result, token)),
             before=lambda: "token")
    rec.wrap(engine, "inner", "gsp.inner", "gsp")
    rec.wrap(table, "solve", "ocs.solve", "ocs")
    rec.wrap(module, "helper", "mod.helper", "mod")
    assert engine.propagate(3) == 7
    assert table["solve"](4) == -4
    assert module.helper() == "orig"
    outer, = [s for s in rec.spans if s.name == "gsp.propagate"]
    inner, = [s for s in rec.spans if s.name == "gsp.inner"]
    assert inner.parent == outer.id
    assert notes == [(7, "token")]
    rec.restore()
    assert "propagate" not in vars(engine) and "inner" not in vars(engine)
    assert module.helper is original_helper
    assert table["solve"](4) == -4 and table["solve"].__name__ == "<lambda>"
    count = len(rec.spans)
    engine.propagate(1)
    assert len(rec.spans) == count


def test_wrapper_cost_is_microseconds():
    cost = wrapper_cost_s(calls=2000, rounds=3)
    assert 0 < cost < 1e-3
