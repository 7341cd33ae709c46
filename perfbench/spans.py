"""Spans around the public functions at kirbycalc's layer boundaries.

The tracer replaces each named function by a wrapper, everywhere the
kirbycalc modules bind it (``pipeline`` imports ``todd_coxeter`` by name, for
example), and restores the originals on ``uninstall``.  Nothing in the
package is edited.  A span records its name, start, end, parent and the
call's arguments and result; the benchmark reads counts out of those after
the timed region, so the wrappers themselves only take two timestamps.

All wrapped functions are called from the benchmark's own thread.  The
search's worker threads only run ``_expand``, which is not wrapped.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

# (module, attribute, span name) of every wrapped function; a class
# attribute is written "Class.method".
BOUNDARIES = (
    ("kirbycalc.acsearch", "search", "acsearch.search"),
    ("kirbycalc.acsearch.core", "replay_trace", "acsearch.replay_trace"),
    ("kirbycalc.certify", "todd_coxeter", "certify.todd_coxeter"),
    ("kirbycalc.certify", "verify_coset_table", "certify.verify_coset_table"),
    ("kirbycalc.certify", "smith_normal_form", "certify.smith_normal_form"),
    ("kirbycalc.certify", "abelianization", "certify.abelianization"),
    ("kirbycalc.framedlinks", "apply_script", "framedlinks.apply_script"),
    ("kirbycalc.framedlinks", "FramedLinkModel.h1_of_surgery",
     "framedlinks.h1_of_surgery"),
    ("kirbycalc.slopes", "enumerate_candidates", "slopes.enumerate_candidates"),
    ("kirbycalc.pipeline", "run_pipeline", "pipeline.run_pipeline"),
)


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    args: tuple = ()
    result: Any = None
    children_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.children_s


class Tracer:
    """Records nested spans while installed; ``paused`` stops recording
    without unwrapping, for the benchmark's own checks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, parent, 0.0, args=args)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].children_s += span.end - span.start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "kirbycalc" or key.startswith("kirbycalc.")]
        for module_name, attr, name in BOUNDARIES:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list.
        Called between ops; an op cut off by the time limit may have left
        a span open, so the stack is cleared too."""
        self._stack.clear()
        spans, self.spans = self.spans, []
        return spans
