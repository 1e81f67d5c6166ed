"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces the layer functions the model modules call
through (``integrate_adaptive`` and ``bessel_i_scaled`` as bound in
``catwalk.discrete`` and ``catwalk.diffusion``, ``transient_probability`` and
``transient_density`` as bound in their modules) with timing wrappers, and
restores the originals when the ``with`` block ends.  Nothing under ``src/``
is edited.

A span records (id, parent id, name, operation id, start, end).  Spans are
kept in memory and written out by the caller at the end of the run.  Calls to
the Bessel kernel and to quadrature integrands number in the hundreds of
thousands per round, so those two are leaves: they are counted and timed,
and their time is charged to the enclosing span, but they are not stored as
individual spans.  A layer's self time is its spans' time minus the time of
the spans and leaves nested inside them.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.worst_err_ratio = 0.0
        self.op_id = 0
        self._stack = [[0, 0.0]]  # frames: [span id, time of nested calls]
        self._next_id = 1
        self._inside: Counter = Counter()

    # -- recording -------------------------------------------------------

    def timed(self, name: str, fn, keep: bool = True, on_result=None):
        """Wrap ``fn`` so each call is recorded under ``name``."""

        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(frame)
            self._inside[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                self._inside[name] -= 1
                self._stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                self.counts[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if keep:
                    self.spans.append((frame[0], parent[0], name, self.op_id, start, end))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap the layer functions for the duration of the block."""
        from catwalk import diffusion, discrete, special

        def count_zero(args, kwargs, value):
            if value == 0.0:
                self.counts["special.bessel.zero"] += 1

        def wrap_quad(original):
            def quad(integrand, a, b, spec=special.DEFAULT_QUADRATURE):
                def counted(x):
                    if self._inside["diffusion.point"]:
                        self.counts["diffusion.point_evals"] += 1
                    return integrand(x)

                result = original(self.timed("special.integrand", counted, keep=False), a, b, spec)
                tolerance = max(spec.absolute_tolerance, spec.relative_tolerance * abs(result.value))
                ratio = result.error_estimate / tolerance
                if math.isfinite(ratio):
                    self.worst_err_ratio = max(self.worst_err_ratio, ratio)
                return result

            return self.timed("special.quad", quad)

        patches = [
            (discrete, "bessel_i_scaled",
             self.timed("special.bessel", discrete.bessel_i_scaled, keep=False, on_result=count_zero)),
            (discrete, "integrate_adaptive", wrap_quad(discrete.integrate_adaptive)),
            (diffusion, "integrate_adaptive", wrap_quad(diffusion.integrate_adaptive)),
            (discrete, "transient_probability",
             self.timed("discrete.state", discrete.transient_probability)),
            (diffusion, "transient_density",
             self.timed("diffusion.point", diffusion.transient_density)),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapped in patches:
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)
