"""Spans and counters recorded from outside the library.

The tracer wraps public functions of ``wreathgroth`` (and the one private
``pbw._zdata``) by replacing the module and class attributes that name them.
The library looks these names up at call time, so internal calls are traced
too.  Nothing inside ``src/`` is edited.

A span records name, start, end, its parent span and the run id.  Spans are
kept in memory and written out once, at the end of the run.  A span's self
time is its duration minus the time its direct child spans cover; because
the workload is single-threaded the spans nest, so that is exact.
"""

import json
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[tuple] = []  # (span id, parent id, name, start, end)
        self.stack: list[list] = []  # [span id, start, time covered by children]
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_call=None):
        """Wrap fn in a span called name.  on_call(args, kwargs) may return a
        callback that runs with the result once the call has returned."""
        stack, spans, counts = self.stack, self.spans, self.counts
        self_s, incl_s, depth = self.self_s, self.incl_s, self.depth
        calls = name + ".calls"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            after = on_call(args, kwargs) if on_call else None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                counts[calls] += 1
                self_s[name] += dur - frame[2]
                if not depth[name]:  # recursive calls count once in incl_s
                    incl_s[name] += dur
                if stack:
                    stack[-1][2] += dur
                spans.append((sid, parent, name, frame[1], end))
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Wrap fn so that its calls are counted but not spanned."""
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, wrapper_factory):
        """Replace owner.attr and every module-level alias of the same object
        inside the wreathgroth package."""
        original = getattr(owner, attr)
        wrapped = wrapper_factory(original)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("wreathgroth") and mod is not owner:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            targets.append((mod, name))
        for obj, name in targets:
            setattr(obj, name, wrapped)
            self._patched.append((obj, name, original))

    def unpatch(self):
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str):
        names: dict[str, int] = {}
        rows = []
        for sid, parent, name, start, end in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([sid, parent, idx, round(start, 7), round(end, 7)])
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "parent", "name", "start", "end"],
                    "names": list(names),
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
