"""Outside-in span recording for the benchmark's traced runs.

A Tracer replaces module attributes (for example
``cyldet.pipeline.gather_cylinder``) with wrappers that record one span
per call: name, start, end, parent span, frame id and thread.  The
attribute is replaced where callers look the function up, which is the
importing module's namespace, not the defining one.  Spans stay in memory
until the run ends; ``restore`` puts every original attribute back, so a
run that never installs the tracer executes the program untouched.

Span stacks are per thread, so spans recorded inside a worker thread of
``cyldet detect --jobs N`` nest under that thread's own calls.
"""

import itertools
import logging
import threading
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, frame_id, thread)
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patched = []       # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name, fn, observe=None, frame_of=None):
        """Callable that runs fn inside a span.

        observe(args, result) returns {counter: increment} for counts taken
        at this boundary; frame_of(args) names the frame a root call works
        on (nested calls inherit their parent's frame id).  An exception
        leaving fn is counted as "<name>.raised" and re-raised.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, frame_id = stack[-1] if stack else (None, None)
            if frame_of is not None:
                frame_id = frame_of(args)
            span_id = next(self._ids)
            stack.append((span_id, frame_id))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(name + ".raised")
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, frame_id,
                                   threading.get_ident()))
            if observe is not None:
                for key, amount in observe(args, result).items():
                    self.add(key, amount)
            return result

        return traced

    def replace(self, owner, attribute, make):
        """Set owner.attribute to make(original) until restore()."""
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def patch(self, owner, attribute, name, observe=None, frame_of=None):
        self.replace(owner, attribute,
                     lambda fn: self.wrap(name, fn, observe, frame_of))

    def restore(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def to_json(self):
        return {
            "fields": ["id", "parent", "name", "start", "end", "frame", "thread"],
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }


def self_times(spans):
    """{span id: self seconds}: duration minus the time its children cover.

    Children run inside their parent on the same thread and do not
    overlap each other, so summing their durations is exact."""
    child_time = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid]
            for sid, _, _, start, end, _, _ in spans}


def aggregate(spans):
    """{name: (calls, total_s, self_s)} over the given spans."""
    own = self_times(spans)
    out = {}
    for sid, _, name, start, end, _, _ in spans:
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_s + own[sid])
    return out


class DropCounter(logging.Handler):
    """Counts the warnings of the ``cyldet`` loggers through add(name).
    A dropped proposal is logged with args (frame id, object index, seed
    index, exception type name, exception)."""

    def __init__(self, add):
        super().__init__(level=logging.WARNING)
        self.add = add

    def emit(self, record):
        args = record.args if isinstance(record.args, tuple) else ()
        if len(args) == 5:
            self.add("pipeline.proposal_drops." + str(args[3]))
        else:
            self.add("log.other_warnings")
