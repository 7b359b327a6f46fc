"""In-memory span tracing around the public functions of each zgptda layer.

Spans are recorded from the benchmark's side only: functions are replaced
where they are looked up (``zgptda.augment`` imports ``tokenize``,
``evaluate_all``, ``build_series`` ... by name, so those names are patched in
``zgptda.augment``; the builders are patched in ``zgptda.laws``, and so on).
The program itself is not modified.

Each span is (name, start, end, parent, run id). Self time is computed by a
sweep over span boundaries: every instant of the traced command is charged
to the innermost open span, split evenly when several innermost spans are
open at once on different threads (concurrent transport calls). The self
times of all spans of one command therefore add up to its wall time.
"""

import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        # one entry per span: [name, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.score_ms: list[float] = []
        self.seen_units: set[str] = set()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span belongs to whatever the main
            # thread is waiting in (generate_instances for the transport)
            main = self._stacks.get(self._main)
            parent = main[-1] if main else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> int:
        end = time.perf_counter_ns()
        self.spans[index][2] = end
        self._stack().pop()
        return end - self.spans[index][1]

    def count(self, key: str, n: int = 1):
        with self._lock:
            self.counts[key] += n

    def top_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace ``owner.attr`` by a spanning wrapper.

        ``observe(result, elapsed_ns)`` runs after the span closes, so its
        cost is tracing overhead rather than the layer's time.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.close(index)
            if observe is not None:
                observe(result, elapsed)
            return result

        setattr(owner, attr, traced)

    def wrap_count(self, owner, attr: str, observe):
        """Replace ``owner.attr`` by a wrapper that only observes calls (no
        span): for functions called too often to span cheaply."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, result)
            return result

        setattr(owner, attr, counted)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name (see the module docstring)."""
        events = []
        for i, (_name, start, end, _parent) in enumerate(self.spans):
            events.append((start, 1, i))
            events.append((end, 0, -i))
        # at equal times: ends before starts, children end before parents,
        # parents start before children
        events.sort()
        open_children: dict[int, int] = defaultdict(int)
        active: set[int] = set()
        leaves: set[int] = set()
        self_ns: dict[int, float] = defaultdict(float)
        last = events[0][0] if events else 0
        for t, is_start, key in events:
            if leaves and t > last:
                share = (t - last) / len(leaves)
                for leaf in leaves:
                    self_ns[leaf] += share
            last = t
            i = key if is_start else -key
            parent = self.spans[i][3]
            if is_start:
                active.add(i)
                leaves.add(i)
                if parent in active:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(i)
                leaves.discard(i)
                if parent in active:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        totals: dict[str, float] = defaultdict(float)
        for i, ns in self_ns.items():
            totals[self.spans[i][0]] += ns / 1e9
        return dict(totals)

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "run_id": self.run_id}
            for name, start, end, parent in self.spans
        ]
