"""Spans and counters around weyldisc's public functions, recorded from
outside the library.

``Tracer.spans_installed()`` rebinds every ``weyldisc.*`` module attribute
that is one of the traced function objects, so calls made through
``from .recurrence import propagate`` style bindings are caught too.
``Tracer.counting()`` rebinds the coefficient lookup and evaluation methods
on their classes.  Both restore the originals on exit.  The two are kept
apart because ~10^5 counted lookups per pass would inflate the self times
of the spans around them.

A span is recorded when it closes, as the tuple
``(seq, name, start, end, parent seq, op id)``; spans stay in memory until
the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Public functions timed as spans, by module.  The checks entries are every
# public function ``run_suite`` reaches.
TRACED = {
    "cli": ("main",),
    "weyl": ("classify", "fundamental_pair"),
    "model": ("spectral_gap",),
    "recurrence": (
        "propagate", "propagate_backward", "fundamental_matrix",
        "oracle_three_term", "relative_residual",
    ),
    "structure": ("green_defect", "bracket"),
    "checks": (
        "run_suite", "transfer_det_deviation", "oracle_deviation",
        "pair_det_deviation", "wronskian_deviation", "residual_deviation",
        "green_random_worst", "random_pair_sequences", "green_relative_defect",
        "bracket_antisymmetry_worst", "lagrange_relative_defect",
        "disc_sum_identity_worst", "disc_nesting_worst",
        "disc_corner_route_worst", "m_sweep_worst", "y2_two_route_worst",
        "vop_worst",
    ),
    "criteria": ("ratio_limit_point_check",),
    "reporting": ("write_disc_csv", "dump_report"),
}

COUNTED = (
    ("CoefficientSet", "coeff", "model.coeff.calls"),
    ("ExprCoefficient", "value", "model.coeff.evals"),
    ("TableCoefficient", "value", "model.coeff.evals"),
)

STEPPED = ("recurrence.propagate", "recurrence.propagate_backward")
WRITERS = ("reporting.write_disc_csv", "reporting.dump_report")
HARNESS_SPANS = ("bench.op", "bench.check")


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


@contextmanager
def _rebound(bindings):
    """Set ``owner.attr = new`` for each (owner, attr, new); undo on exit."""
    undo = []
    try:
        for owner, attr, new in bindings:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._seq = 0
        self._stack: list[tuple] = []

    def _open(self, name: str) -> None:
        self._seq += 1
        self._stack.append((self._seq, name, time.perf_counter()))

    def _close(self) -> None:
        end = time.perf_counter()
        seq, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((seq, name, start, end, parent, self.op_id))

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _span_wrapper(self, name: str, fn):
        after = None  # counts for calls that return
        if name in STEPPED:
            bind = inspect.signature(fn).bind
            key = name + ".steps"

            def after(args, kwargs, _out):
                bound = bind(*args, **kwargs).arguments
                self.counts[key] += bound["top"] - bound["model"].a + 1
        elif name in WRITERS:
            def after(_args, _kwargs, out):
                self.counts["reporting.bytes"] += out.stat().st_size

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spans_installed(self):
        """Time the traced functions as spans while the block runs."""
        homes = {name: importlib.import_module(f"weyldisc.{name}") for name in TRACED}
        modules = [
            m for name, m in list(sys.modules.items())
            if (name == "weyldisc" or name.startswith("weyldisc.")) and m is not None
        ]
        bindings = []
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                original = getattr(homes[mod_name], fn_name)
                wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original)
                bindings += [(module, attr, wrapper)
                             for module in modules
                             for attr, value in vars(module).items()
                             if value is original]
        return _rebound(bindings)

    def counting(self):
        """Count coefficient lookups and evaluations while the block runs."""
        model = importlib.import_module("weyldisc.model")
        bindings = []
        for cls_name, meth, key in COUNTED:
            cls = getattr(model, cls_name)
            bindings.append((cls, meth, self._count_wrapper(key, cls.__dict__[meth])))
        return _rebound(bindings)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child: Counter = Counter()
        for _seq, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for seq, name, start, end, _parent, _op in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[seq]
        return out

    def calls(self) -> Counter:
        return Counter(span[1] for span in self.spans)
