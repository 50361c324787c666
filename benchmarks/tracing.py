"""Spans around traced function calls, and the self-time arithmetic on them.

A span is recorded at every call into a traced function: its name, start,
end, the span that was open when it started (its parent), the operation it
belongs to, and a work count taken from the call's arguments.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.

Wrappers are installed on every binding a caller looks up: a name imported
with ``from .spectrum import membership_grid`` is a separate binding in the
importing module, and ``acceptance.CRITERIA`` holds the criteria by value,
so each of those is replaced as well as the defining module's attribute.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# span fields, stored as lists for speed
NAME, START, END, PARENT, OP, WORK = range(6)

OP_SPAN = "op"


class Tracer:
    def __init__(self, failure_types: Tuple[type, ...]):
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self._failure_types = failure_types
        self._last_failure: Optional[BaseException] = None
        self.failures: Dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, work=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        if work is not None:
            span[WORK] = work
        self._stack.pop()

    def failed(self, name: str, exc: BaseException) -> None:
        """Count an error once, at the innermost traced call it leaves."""
        if exc is self._last_failure or not isinstance(exc, self._failure_types):
            return
        self._last_failure = exc
        self.failures[f"{name.split('.')[0]}.failed.{type(exc).__name__}"] += 1

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.failed(name, exc)
                tracer.end(idx)
                raise
            tracer.end(idx, work(args, kwargs, out) if work else None)
            return out

        return traced

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                work = span[WORK]
                if work is not None and not isinstance(work, (int, float)):
                    work = repr(work)
                fh.write(json.dumps(span[:WORK] + [work]) + "\n")


def install(tracer: Tracer, targets: Sequence[Tuple[str, object, str, Callable | None]],
            modules: Iterable[object]) -> None:
    """Replace each target ``(span name, owner, attribute, work)`` on its
    owner and on every module attribute or module-level dict value that is
    the same function object."""
    modules = list(modules)
    for name, owner, attr, work in targets:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, work)
        setattr(owner, attr, wrapper)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            val[k] = wrapper


# ---------------------------------------------------------------------------
# analysis


def children(spans: Sequence[Sequence]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        kids[span[PARENT]].append(i)
    return kids


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    kids = children(spans)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        inner = covered(((spans[j][START], spans[j][END]) for j in kids.get(i, ())), lo, hi)
        out.append(hi - lo - inner)
    return out
