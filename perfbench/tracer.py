"""Outside-in span tracer: wraps public functions at layer boundaries.

Nothing inside ``src/repro`` knows about this module. :meth:`Tracer.install`
replaces each target function with a wrapper that records a span (layer
name, start, end, parent) and, optionally, a small ``info`` dict taken
from the call's arguments and result. Spans stay in memory; the caller
writes them out once, at exit, with :meth:`Tracer.write`.

A target is ``"module:qualname"`` — ``"repro.sim.engine:simulate"`` or
``"repro.sim.parallel:ParallelSweepRunner.run"``. A module-level function
is replaced in its defining module *and* in every loaded module that
bound it with ``from x import f`` (found by identity), so callers that
hold their own reference are traced too. A target that does not exist
at this commit is recorded in :attr:`Tracer.absent` and simply yields
zero spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``info`` hook: (args, kwargs, result) -> small JSON-able dict.
Capture = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass(frozen=True)
class Target:
    """One traced boundary: which function, which layer, what to keep."""

    layer: str
    path: str  # "module:qualname"
    capture: Optional[Capture] = None


@dataclass(slots=True)
class Span:
    span_id: int
    layer: str
    func: str
    start: float
    end: float
    parent: int  # -1 for a root span
    info: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around calls into the patched targets.

    Single-threaded by design (every workload runs with ``workers=1``):
    the open-span stack is a plain list.
    """

    def __init__(
        self,
        targets: Sequence[Target] = (),
        module_prefixes: Sequence[str] = ("repro", "perfbench"),
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.targets = tuple(targets)
        self.module_prefixes = tuple(module_prefixes)
        self.clock = clock
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, layer: str, func: str, fn, args, kwargs, capture=None):
        """Run ``fn(*args, **kwargs)`` inside a span; returns its result."""
        span = Span(
            span_id=len(self.spans),
            layer=layer,
            func=func,
            start=0.0,
            end=0.0,
            parent=self._stack[-1] if self._stack else -1,
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if capture is not None:
            span.info = capture(args, kwargs, result)
        return result

    def span(self, layer: str, fn, *args, **kwargs):
        """Trace one explicit call (the benchmark's own root span)."""
        return self.call(layer, layer, fn, args, kwargs)

    # -- patching ------------------------------------------------------------

    def _wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(
                target.layer, target.path, original, args, kwargs,
                target.capture,
            )

        return traced

    def _resolve(self, path: str):
        """(owner, attribute, function) for ``path``, or None if absent."""
        module_name, _, qualname = path.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, name = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not inspect.isclass(owner) and not inspect.ismodule(owner):
            return None
        # getattr_static: a class attribute must be a plain function
        # (not a staticmethod/property) for the wrapper to bind alike.
        original = inspect.getattr_static(owner, name, None)
        if not inspect.isfunction(original):
            return None
        return owner, name, original

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        for target in self.targets:
            resolved = self._resolve(target.path)
            if resolved is None:
                self.absent.append(target.path)
                continue
            owner, name, original = resolved
            traced = self._wrap(target, original)
            self._set(owner, name, traced)
            if inspect.isclass(owner):
                continue
            for module in list(sys.modules.values()):
                if module is owner or not self._in_scope(module):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, traced)
        return self

    def _in_scope(self, module) -> bool:
        name = getattr(module, "__name__", "") or ""
        return any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in self.module_prefixes
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        document = {
            "absent": self.absent,
            "spans": [asdict(span) for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so the sum of the
    self times over a subtree equals the subtree root's duration.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own
