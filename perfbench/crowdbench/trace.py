"""In-memory span recording for the traced run.

The traced run wraps public calls on objects the benchmark built (see
``layers.instrument``); each wrapper records a :class:`Span` with its
name, layer, start, end, thread and parent.  Parents come from a
per-thread stack, so a call made inside another wrapped call on the
same thread nests under it.  Spans that cross threads (a request's root
on the load generator, its work on the serving worker) are linked after
the run by :func:`attach`.

Timed runs install nothing: the wrappers exist only between
:meth:`Recorder.wrap` and :meth:`Recorder.restore`.  What they cost is
measured on a no-op call (:func:`wrapper_cost_s`), not by comparing a
traced run with an untraced one, whose difference the machine's own
drift would swamp.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Called after a wrapped call returns: ``note(span, result, token)``
#: where ``token`` is what ``before()`` returned just before the call.
Note = Callable[["Span", Any, Any], None]

_MISSING = object()


@dataclass
class Span:
    """One timed call (or a synthesized interval such as queue wait)."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    thread: int
    parent: Optional[int] = None
    requests: Tuple[int, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between start and end."""
        return self.end - self.start


class Recorder:
    """Collects spans and owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Record the enclosed block as a span on the calling thread."""
        stack = self._stack()
        current = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            start=time.perf_counter(),
            end=float("nan"),
            thread=threading.get_ident(),
            parent=stack[-1].id if stack else None,
        )
        stack.append(current)
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(current)

    def add(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        requests: Tuple[int, ...] = (),
    ) -> Span:
        """Record an interval measured elsewhere (root, queue wait)."""
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            start=start,
            end=end,
            thread=threading.get_ident(),
            parent=parent,
            requests=requests,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        note: Optional[Note] = None,
        before: Optional[Callable[[], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        recording wrapper; :meth:`restore` puts the original back."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        shadowed = owner.get(attr, _MISSING) if is_dict else vars(owner).get(attr, _MISSING)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before() if before is not None else None
            with self.span(name, layer) as span:
                result = original(*args, **kwargs)
                if note is not None:
                    note(span, result, token)
            return result

        def undo() -> None:
            if is_dict:
                owner[attr] = shadowed
            elif shadowed is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, shadowed)

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append(undo)

    def on_undo(self, action: Callable[[], None]) -> None:
        """Run ``action`` during :meth:`restore` (after later wrappers)."""
        self._undo.append(action)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            self._undo.pop()()


def wrapper_cost_s(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one recording wrapper adds to the call it wraps.

    Times ``calls`` calls of a no-op with and without a wrapper that
    records a span and notes one attribute, as the traced run's
    wrappers do, and returns the median per-call difference over
    ``rounds`` rounds.
    """

    class Target:
        def call(self) -> None:
            return None

    def note(span: Span, result: Any, token: Any) -> None:
        span.attrs["result"] = result

    bare, wrapped = Target(), Target()
    rec = Recorder()
    rec.wrap(wrapped, "call", "noop", "calibration", note)
    differences = []
    for _ in range(rounds):
        rec.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            bare.call()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped.call()
        end = time.perf_counter()
        differences.append(((end - middle) - (middle - start)) / calls)
    rec.restore()
    return statistics.median(differences)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part of it its children cover.

    Children may run on other threads and overlap each other; time two
    children share is subtracted once.
    """
    return span.duration - covered(
        [(c.start, c.end) for c in children], span.start, span.end
    )


def children_by_parent(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Same-thread children of every span, keyed by parent id."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def attach(
    windows: Dict[int, Tuple[float, float]], spans: Sequence[Span]
) -> Dict[int, List[Span]]:
    """Assign top-level spans of other threads to request roots.

    ``windows`` maps a root id to the interval its work ran in on the
    serving worker (pickup to completion).  A top-level span belongs to
    every root whose window holds its midpoint: with one worker, that
    is exactly the requests of the batch being served, and coalesced
    duplicates all wait for the same work.

    Returns:
        Root id -> the spans attached to it.
    """
    order = sorted(windows.items(), key=lambda item: item[1][0])
    attached: Dict[int, List[Span]] = {root: [] for root in windows}
    for span in spans:
        if span.parent is not None:
            continue
        mid = 0.5 * (span.start + span.end)
        owners = tuple(
            root for root, (lo, hi) in order if lo <= mid <= hi
        )
        if owners:
            span.requests = owners
            for root in owners:
                attached[root].append(span)
    return attached
