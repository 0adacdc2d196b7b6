"""Unit tests for the shared interprocedural engine.

Covers call-graph construction/resolution (`callgraph`), the forward
taint walk (`dataflow`), and blocking-atom classification (`blocking`)
— the machinery under RA002 and RA007–RA012.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from tests.analyze_util import make_project
from tools.analyze.blocking import blocking_atom, function_atoms, may_block
from tools.analyze.callgraph import (
    FunctionInfo,
    UnionFind,
    bind_call_args,
    build_callgraph,
)
from tools.analyze.dataflow import TaintSpec, run_taint


def _graph(tmp_path, files):
    return build_callgraph(make_project(tmp_path, files))


class TestCallGraph:
    def test_graph_is_cached_per_project(self, tmp_path):
        project = make_project(tmp_path, {"src/m.py": "def f():\n    pass\n"})
        assert build_callgraph(project) is build_callgraph(project)

    def test_self_method_resolves_exactly(self, tmp_path):
        graph = _graph(tmp_path, {"src/m.py": """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()

        def outer(self):
            self.inner()

        def inner(self):
            return 1
"""})
        outer = graph.functions["src/m.py::Box.outer"]
        (site,) = outer.calls
        assert graph.resolve(site.desc) == ["src/m.py::Box.inner"]

    def test_module_function_and_constructor_resolution(self, tmp_path):
        graph = _graph(tmp_path, {"src/m.py": """
    class Widget:
        def __init__(self):
            self.x = 1

    def helper():
        return Widget()

    def caller():
        return helper()
"""})
        caller = graph.functions["src/m.py::caller"]
        (site,) = caller.calls
        assert graph.resolve(site.desc) == ["src/m.py::helper"]
        helper = graph.functions["src/m.py::helper"]
        (ctor_site,) = helper.calls
        assert graph.resolve(ctor_site.desc) == ["src/m.py::Widget.__init__"]

    def test_numpy_array_never_resolves_to_project_method(self, tmp_path):
        """`np.array(...)` colliding with a project method named `array`
        must stay unresolved — the misresolution wired fake file-I/O
        into every numpy caller."""
        graph = _graph(tmp_path, {"src/m.py": """
    import numpy as np

    class Store:
        def array(self, name):
            with open(name) as fh:
                return fh.read()

    def pure(values):
        return np.array(values).T
"""})
        pure = graph.functions["src/m.py::pure"]
        (site,) = pure.calls
        assert site.desc is None
        assert may_block(graph).get("src/m.py::pure", set()) == set()

    def test_held_locks_annotate_call_sites(self, tmp_path):
        graph = _graph(tmp_path, {"src/m.py": """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()

        def locked(self):
            with self._lock:
                self.work()
            self.work()

        def work(self):
            return 1
"""})
        locked = graph.functions["src/m.py::Box.locked"]
        held = [sorted(site.held) for site in locked.calls]
        assert held == [["src/m.py::Box._lock"], []]

    def test_entered_lock_parameter_is_held_and_aliased(self, tmp_path):
        graph = _graph(tmp_path, {"src/pipe.py": """
    from contextlib import nullcontext

    class Pipeline:
        def answer(self, request, probe_lock=None):
            with probe_lock if probe_lock is not None else nullcontext():
                self.select(request)
            self.estimate(request)

        def select(self, request):
            return request

        def estimate(self, request):
            return request
""", "src/service.py": """
    import threading

    class Service:
        def __init__(self, pipeline):
            self._probe_lock = threading.Lock()
            self._pipeline = pipeline

        def serve(self, request, serialize):
            self._pipeline.answer(
                request, probe_lock=self._probe_lock if serialize else None
            )
"""})
        answer = graph.functions["src/pipe.py::Pipeline.answer"]
        node = "src/pipe.py::Pipeline.answer.probe_lock"
        assert answer.param_locks == {"probe_lock": node}
        held = {
            site.node.func.attr: sorted(site.held)
            for site in answer.calls
            if isinstance(site.node.func, ast.Attribute)
        }
        assert held == {"select": [node], "estimate": []}
        assert graph.aliases.find(node) == graph.aliases.find(
            "src/service.py::Service._probe_lock"
        )

    def test_bind_call_args_drops_self_and_binds_keywords(self, tmp_path):
        graph = _graph(tmp_path, {"src/m.py": """
    class Box:
        def put(self, item, slot=0, force=False):
            return item

    def use(box, thing):
        box.put(thing, force=True)
"""})
        use = graph.functions["src/m.py::use"]
        (site,) = use.calls
        callee = graph.functions["src/m.py::Box.put"]
        bound = bind_call_args(site.node, callee)
        assert set(bound) == {"item", "force"}
        assert isinstance(bound["item"], ast.Name) and bound["item"].id == "thing"

    def test_fixpoint_absorbs_callee_properties(self, tmp_path):
        graph = _graph(tmp_path, {"src/m.py": """
    def leaf():
        return 1

    def mid():
        return leaf()

    def top():
        return mid()
"""})
        out = graph.fixpoint({"src/m.py::leaf": {"hot"}})
        assert out["src/m.py::top"] == {"hot"}

    def test_union_find_canonicalizes_deterministically(self):
        uf = UnionFind()
        uf.union("b::lock", "a::lock")
        uf.union("c::lock", "b::lock")
        assert uf.find("c::lock") == "a::lock"
        assert uf.find("a::lock") == "a::lock"


class _MarkSpec(TaintSpec):
    """Toy spec: `source()` births the tag, `clean()` kills it."""

    def call_tags(
        self, func: FunctionInfo, node: ast.Call, ctx
    ) -> Optional[Set[str]]:
        name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        if name == "source":
            return {"T"}
        if name == "clean":
            return set()
        return None


def _flow(tmp_path, body):
    graph = _graph(tmp_path, {"src/m.py": body})
    flows = run_taint(graph, _MarkSpec())
    return graph, flows


def _returns(flows, key):
    return set(flows[key].returns)


class TestDataflow:
    def test_strong_update_launders(self, tmp_path):
        _, flows = _flow(tmp_path, """
    def f():
        x = source()
        x = clean()
        return x
""")
        assert _returns(flows, "src/m.py::f") == set()

    def test_branch_assignment_is_weak(self, tmp_path):
        _, flows = _flow(tmp_path, """
    def f(flag):
        x = source()
        if flag:
            x = clean()
        return x
""")
        assert _returns(flows, "src/m.py::f") == {"T"}

    def test_loop_body_walked_twice_for_late_tags(self, tmp_path):
        """A tag born at the bottom of a loop must reach a use at the
        top on the conceptual next iteration."""
        _, flows = _flow(tmp_path, """
    def f(items):
        x = clean()
        out = None
        for item in items:
            out = x
            x = source()
        return out
""")
        assert _returns(flows, "src/m.py::f") == {"T"}

    def test_with_binds_optional_vars(self, tmp_path):
        _, flows = _flow(tmp_path, """
    def f():
        with source() as handle:
            return handle
""")
        assert _returns(flows, "src/m.py::f") == {"T"}

    def test_return_summaries_cross_functions(self, tmp_path):
        _, flows = _flow(tmp_path, """
    def maker():
        return source()

    def wrapper():
        return maker()

    def user():
        value = wrapper()
        return value
""")
        assert _returns(flows, "src/m.py::user") == {"T"}

    def test_node_tags_recorded_for_sink_lookup(self, tmp_path):
        graph, flows = _flow(tmp_path, """
    def f(sink):
        x = source()
        sink(x)
""")
        flow = flows["src/m.py::f"]
        call = next(
            site.node for site in flow.func.calls
            if isinstance(site.node.func, ast.Name) and site.node.func.id == "sink"
        )
        assert flow.tags_of(call.args[0]) == frozenset({"T"})

    def test_binop_and_container_propagation(self, tmp_path):
        _, flows = _flow(tmp_path, """
    def f():
        x = source()
        return [x + 1, 2]
""")
        assert _returns(flows, "src/m.py::f") == {"T"}


def _atom(source: str) -> Optional[str]:
    call = ast.parse(source, mode="eval").body
    assert isinstance(call, ast.Call)
    return blocking_atom(call)


class TestBlockingAtoms:
    def test_classification(self):
        assert _atom("time.sleep(1)") == "time.sleep"
        assert _atom("open('f')") == "file I/O"
        assert _atom("worker.join(timeout=5)") == "thread join"
        assert _atom("jobs.get()") == "queue.get"
        assert _atom("outbox.put(item)") == "queue.put"
        assert _atom("cond.wait()") == "wait"

    def test_non_blocking_lookalikes(self):
        assert _atom("', '.join(parts)") is None
        assert _atom("'-'.join(['a', 'b'])") is None
        assert _atom("mapping.get('key')") is None
        assert _atom("jobs.get_nowait()") is None
        assert _atom("jobs.put_nowait(item)") is None

    def test_function_atoms_and_may_block(self, tmp_path):
        graph = _graph(tmp_path, {"src/m.py": """
    import time

    def slow():
        time.sleep(1)

    def wrapper():
        slow()

    def fast():
        return 2 + 2
"""})
        assert function_atoms(graph.functions["src/m.py::slow"]) == {"time.sleep"}
        summaries = may_block(graph)
        assert summaries["src/m.py::wrapper"] == {"time.sleep"}
        assert summaries["src/m.py::fast"] == set()
