"""In-memory spans recorded around the public calls at each module boundary.

The recorder patches a function under every name a caller can look it up by
(module globals filled by ``from ... import`` included), so a layer cannot
drop out of the trace because one binding was missed.  Every patch is undone
when the recorder is closed.  Nothing here touches a private name of the
package.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Span tuple fields.
NAME, START, END, PARENT, RUN, ERROR, NOTE = range(7)


class Recorder:
    """Spans as (name, start, end, parent index, run id, error, note)."""

    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list = []

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def call(self, name, fn, args=(), kwargs=None, note=None):
        """Run fn(*args, **kwargs) inside a span named name.

        note(args, kwargs, result) returns a dict stored with the span.  An
        exception is recorded by its class name and re-raised.
        """
        kwargs = kwargs or {}
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id, None, None))
        self._stack.append(sid)
        start = time.perf_counter()
        error = None
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            info = note(args, kwargs, result) if note is not None and error is None else None
            self.spans[sid] = (name, start, end, parent, self.run_id, error, info)

    def wrap(self, name, fn, note=None, name_fn=None):
        """A traced stand-in for fn; name_fn(recorder) may choose the span
        name from the enclosing span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_fn(self) if name_fn is not None else name
            return self.call(span, fn, args, kwargs, note)
        return traced

    def patch_function(self, fn, name, package_prefix, note=None, name_fn=None,
                       extra_modules=()):
        """Replace fn under every module attribute bound to it.

        Searches the loaded modules of the package plus extra_modules.
        Returns the number of bindings replaced.
        """
        traced = self.wrap(name, fn, note, name_fn)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package_prefix
                                         or key.startswith(package_prefix + "."))]
        modules.extend(extra_modules)
        replaced = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)
                    replaced += 1
        return replaced

    def patch_method(self, cls, attr, name, note=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, note))

    def close(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def cost_per_span(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None
        probe = Recorder()
        traced = probe.wrap("probe", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / calls

    def children(self):
        kids = defaultdict(list)
        for sid, span in enumerate(self.spans):
            kids[span[PARENT]].append(sid)
        return kids

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        out = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[END] - span[START]
        return out

    def root_of(self, sid: int) -> int:
        while self.spans[sid][PARENT] >= 0:
            sid = self.spans[sid][PARENT]
        return sid

    def dump(self, path, origin: float) -> None:
        """Write the spans as one JSON object per line, times in seconds
        from origin."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for sid, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "name": s[NAME], "start": s[START] - origin,
                    "end": s[END] - origin, "parent": s[PARENT], "run": s[RUN],
                    "error": s[ERROR], "note": s[NOTE]}) + "\n")
