"""In-memory span recorder for the traced benchmark run.

Spans come only from the benchmark's own wrappers around public (and a few
private) functions of the g2kummer modules; the library itself is not
modified.  A wrapper replaces a function under every name it is looked up
by: ``synthesis`` imports ``add``, ``solve_kernel``, ``_rref`` and friends
into its own namespace, so patching only the defining module would leave
those calls unrecorded.

Spans are recorded only inside an operation span (``Tracer.op``), so the
counts describe the timed region of a workload and nothing else.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

_PACKAGE = "g2kummer"


class Tracer:
    """Spans as lists ``[name, parent, start, end, error, info]``; ``parent``
    is an index into ``spans`` or -1 for an operation span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = error
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """The root span of one benchmark operation (a formula set or a
        ladder); wrapped calls record only inside one."""
        idx = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(idx, type(exc).__name__)
            raise
        self._close(idx)

    def wrap(self, fn, name: str, info=None):
        """``fn`` with a span around each call made inside an operation.
        ``info(args, result)`` may attach data (shapes, ranks) to the span."""

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx)
            if info is not None:
                self.spans[idx][5] = info(args, result)
            return result

        return traced


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n == _PACKAGE or n.startswith(_PACKAGE + ".")]


@contextmanager
def patched(targets):
    """Install replacements for ``targets``, a list of ``(module, attribute,
    factory)`` where ``factory(original)`` builds the replacement.  Every
    module attribute bound to the original function object is replaced, and
    all are restored on exit."""
    saved = []
    try:
        for module, attr, factory in targets:
            orig = getattr(sys.modules[f"{_PACKAGE}.{module}"], attr)
            wrapper = factory(orig)
            for mod in _modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, key, val))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, val in reversed(saved):
            setattr(mod, key, val)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def op_of(spans) -> list[int]:
    """Per span: the index of the operation span it belongs to."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[1] < 0 else out[s[1]])
    return out
