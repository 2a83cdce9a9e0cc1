"""Tracing must change no answer and must leave weyldisc as it found it.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import weyldisc  # noqa: E402
from weyldisc import checks, weyl  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import _quiet_cli  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every weyldisc module, and the traced class methods."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "weyldisc" or name.startswith("weyldisc."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (weyldisc.CoefficientSet, weyldisc.ExprCoefficient, weyldisc.TableCoefficient):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def _classify_artifacts(name: str, out: Path) -> dict:
    code, _ = _quiet_cli(["classify", name, "--n-max", "60", "--out", str(out)])
    assert code == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", ["free", "ex4.1b"])
def test_traced_classify_writes_identical_artifacts(tmp_path, name):
    plain = _classify_artifacts(name, tmp_path / "plain")
    tracer = Tracer()
    with tracer.spans_installed(), tracer.counting():
        traced = _classify_artifacts(name, tmp_path / "traced")
    assert traced == plain
    calls = tracer.calls()
    assert calls["cli.main"] == 1 and calls["weyl.classify"] == 1
    assert calls["recurrence.propagate"] == 2
    assert tracer.counts["recurrence.propagate.steps"] == 2 * 61
    assert tracer.counts["reporting.bytes"] == sum(len(b) for b in traced.values())
    assert tracer.counts["model.coeff.calls"] > tracer.counts["model.coeff.evals"] > 0


def test_traced_check_prints_identical_output():
    plain = _quiet_cli(["check", "free"])
    tracer = Tracer()
    with tracer.spans_installed(), tracer.span("bench.op"):
        traced = _quiet_cli(["check", "free"])
    assert traced == plain
    assert tracer.calls()["weyl.fundamental_pair"] == 7
    # self times partition the root span
    (root,) = [s for s in tracer.spans if s[4] is None]
    assert sum(tracer.self_times().values()) == pytest.approx(root[3] - root[2], rel=1e-9)


def test_bindings_restored_after_error():
    before = _bindings()
    scenario = dataclasses.replace(
        weyldisc.builtin_scenario("ex4.2a"),
        precision=weyldisc.PrecisionConfig(mode="native-float"))
    tracer = Tracer()
    with tracer.spans_installed(), tracer.counting():
        assert checks.fundamental_pair is not before[("weyldisc.checks", "fundamental_pair")]
        assert weyldisc.propagate is not before[("weyldisc", "propagate")]
        with pytest.raises(weyldisc.PrecisionExhaustedError):
            weyl.classify(scenario.model(), 1j, 0.0, scenario.classify_options())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # the failing call still closed its spans
    assert tracer.calls()["weyl.classify"] == 1
    assert not tracer._stack


def test_traced_checks_are_the_public_checks():
    public = {
        name for name, fn in vars(checks).items()
        if inspect.isfunction(fn) and fn.__module__ == checks.__name__
        and not name.startswith("_")
    }
    assert set(TRACED["checks"]) == public
