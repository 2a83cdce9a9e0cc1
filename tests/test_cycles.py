"""The numerics make no reference cycles.

``cli.main`` pauses the cyclic collector while a command runs.  That
costs no memory only because everything a classification or a check
suite allocates is freed by reference counting alone, so with the
collector off a full collection after the call must find nothing.
"""

import gc

import pytest

from weyldisc import ClassifyOptions, PrecisionConfig, builtin_scenario, checks, weyl

PRECISIONS = {
    "mpmath-256": PrecisionConfig(mantissa_bits=256),
    "native": PrecisionConfig(mode="native-float"),
}


def _cycles_left_by(run) -> int:
    """Objects a full collection finds unreachable after ``run()``, run
    with the collector off; a first, uncounted call fills lazy caches."""
    run()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("precision", PRECISIONS.values(), ids=PRECISIONS.keys())
@pytest.mark.parametrize("name", ["free", "ex4.2b"])
def test_classify_makes_no_reference_cycles(name, precision):
    """free takes chi's backward route and ex4.2b its forward one."""
    model = builtin_scenario(name).model().with_precision(precision)
    report = []

    def run():
        report[:] = [weyl.classify(model, 1j, 0.0, ClassifyOptions(n_max=200))]

    assert _cycles_left_by(run) == 0
    assert report[0].verdict in ("LPC", "LCC")


@pytest.mark.parametrize("name", ["free", "ex4.2a"])
def test_check_suite_makes_no_reference_cycles(name):
    model = builtin_scenario(name).model()
    assert _cycles_left_by(lambda: checks.run_suite(model, 1j, 0.0, top=40)) == 0
