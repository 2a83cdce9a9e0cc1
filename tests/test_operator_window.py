"""The windowed operator routine and the paths built on it agree bit for
bit with the per-t formulas they replace.

The references below are the per-t forms: both operator rows assembled
from fresh coefficient lookups and products at every t, the relative
residual with its scales recomputed from the coefficients, Green's
boundary bracket from one-point windows of ``quasi_difference``, and the
bracket check with every random draw converted.  They run on random
sequences on mpmath at 256 and 53 bits and on native floats.
"""

import dataclasses
import random

import pytest

from weyldisc import (
    BoundaryData,
    PrecisionConfig,
    builtin_names,
    builtin_scenario,
    checks,
    propagate,
)
from weyldisc.checks import _draw_read, bracket_antisymmetry_worst
from weyldisc.recurrence import (
    Trajectory,
    max_relative_residual,
    operator_window,
    quasi_difference,
    relative_residual,
    relative_residuals,
)
from weyldisc.structure import bracket, green_terms

PRECISIONS = {
    "mpmath-256": PrecisionConfig(mode="big-float", mantissa_bits=256),
    "mpmath-53": PrecisionConfig(mode="big-float", mantissa_bits=53),
    "native": PrecisionConfig(mode="native-float"),
}
TOP = 14


@pytest.fixture(scope="module", params=list(PRECISIONS))
def precision_models(request):
    precision = PRECISIONS[request.param]
    return {
        name: dataclasses.replace(builtin_scenario(name), precision=precision).model()
        for name in builtin_names()
    }


def _bits(value):
    """A value's exact identity: the raw mpmath tuple, or the float repr
    (which tells -0.0 from 0.0)."""
    if value is None:
        return None
    for attr in ("_mpc_", "_mpf_"):
        if hasattr(value, attr):
            return getattr(value, attr)
    return repr(value)


def _draw(model, rng, count):
    """Random complex values over several orders of magnitude."""
    k = model.kernel
    return [
        k.complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * rng.choice((1e-6, 1, 1e6))
        for _ in range(count)
    ]


def _reference_rows(model, y1, y2, t):
    """Both rows at t as per-t formulas on functions y1(s), y2(s)."""
    c_t = model.coeff("c", t)
    h_t = model.coeff("h", t)
    row2 = c_t * (y1(t + 1) - y1(t)) + h_t * y1(t) + model.coeff("d", t) * y2(t)
    if t < model.a:
        return None, row2
    p_t = model.coeff("p", t)
    p_prev = model.coeff("p", t - 1)
    c_prev = model.coeff("c", t - 1)
    row1 = (
        -(p_t * (y1(t + 1) - y1(t)) - p_prev * (y1(t) - y1(t - 1)))
        + model.coeff("q", t) * y1(t)
        - (c_t * y2(t) - c_prev * y2(t - 1))
        + h_t * y2(t)
    )
    return row1, row2


def _reference_residual(model, traj, t):
    """The relative residual at t with every scale term recomputed."""
    lam = traj.lam
    row1, row2 = _reference_rows(model, traj.y1_at, traj.y2_at, t)
    row2 = row2 - lam * traj.y2_at(t)
    scale2 = (
        abs(model.coeff("c", t) * (traj.y1_at(t + 1) - traj.y1_at(t)))
        + abs(model.coeff("h", t) * traj.y1_at(t))
        + abs(model.coeff("d", t) * traj.y2_at(t))
        + abs(lam * traj.y2_at(t))
        + 1
    )
    worst = float(abs(row2) / scale2)
    if row1 is not None:
        row1 = row1 - lam * traj.y1_at(t)
        scale1 = (
            abs(model.coeff("p", t) * (traj.y1_at(t + 1) - traj.y1_at(t)))
            + abs(model.coeff("p", t - 1) * (traj.y1_at(t) - traj.y1_at(t - 1)))
            + abs(model.coeff("q", t) * traj.y1_at(t))
            + abs(model.coeff("c", t) * traj.y2_at(t))
            + abs(model.coeff("c", t - 1) * traj.y2_at(t - 1))
            + abs(model.coeff("h", t) * traj.y2_at(t))
            + abs(lam * traj.y1_at(t))
            + 1
        )
        worst = max(worst, float(abs(row1) / scale1))
    return worst


def _random_trajectory(model, rng, top):
    k = model.kernel
    n = top + 1 - (model.a - 1)
    return Trajectory(
        model=model, lam=k.complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.5)),
        top=top, y1=tuple(_draw(model, rng, n + 1)),
        y2=tuple(_draw(model, rng, n)), y1q=tuple(_draw(model, rng, n)),
    )


def test_windowed_rows_match_per_t_formula(precision_models):
    rng = random.Random(1)
    for name, model in precision_models.items():
        a = model.a
        n = TOP + 1 - (a - 1)
        y1, y2 = _draw(model, rng, n + 1), _draw(model, rng, n)

        def f1(s):
            return y1[s - (a - 1)]

        def f2(s):
            return y2[s - (a - 1)]

        quasi = quasi_difference(model, y1, y2, a - 1, TOP)
        assert quasi[3:] == quasi_difference(model, y1, y2, a + 2, TOP)
        for first in (a - 1, a, a + 3, TOP):
            window = operator_window(model, y1, y2, first, TOP)
            for t, (row1, row2, terms) in enumerate(window, first):
                ref1, ref2 = _reference_rows(model, f1, f2, t)
                assert _bits(row1) == _bits(ref1), (name, first, t)
                assert _bits(row2) == _bits(ref2), (name, first, t)
                assert _bits(terms[1] + terms[4]) == _bits(quasi[t - (a - 1)])
                if t >= a:
                    assert _bits(terms[0] + terms[3]) == _bits(quasi[t - a])


def test_residual_sweep_and_one_point_match_per_t_formula(precision_models):
    rng = random.Random(2)
    for name, model in precision_models.items():
        traj = _random_trajectory(model, rng, TOP)
        window = range(model.a - 1, TOP + 1)
        ref = [_reference_residual(model, traj, t) for t in window]
        assert [relative_residual(model, traj, t) for t in window] == ref
        assert relative_residuals(model, traj, model.a - 1, TOP) == ref
        assert relative_residuals(model, traj, model.a + 2, TOP) == ref[3:]
        assert max_relative_residual(model, traj) == max(ref)


def test_residual_sweep_with_exactly_zero_rows_matches_per_t_formula(precision_models):
    """A row that is exactly zero reads 0.0 without its scale.  On the
    free model's solution at lam = i (Gaussian integers, so every row is
    exactly zero), bent at three points, the rows are zero at some t and
    nonzero at others, row 1 also on both sides of a zero row; the sweep
    still equals the per-t formula, from any first point."""
    model = precision_models["free"]
    a = model.a
    traj = propagate(model, 1j, BoundaryData(1, 0), TOP)
    y1, y2 = list(traj.y1), list(traj.y2)
    y1[5 - (a - 1)] *= 3  # row 1 at t = 4, 5, 6
    y1[9 - (a - 1)] *= 5  # row 1 at t = 8, 9, 10
    y2[12 - (a - 1)] += model.kernel.complex(0.5, -0.25)  # row 2 at t = 12
    bent = dataclasses.replace(traj, y1=tuple(y1), y2=tuple(y2))
    window = range(a - 1, TOP + 1)
    ref = [_reference_residual(model, bent, t) for t in window]
    assert [t for t, r in zip(window, ref) if r != 0] == [4, 5, 6, 8, 9, 10, 12]
    for first in (a - 1, 4, 5, 8, 12):
        assert relative_residuals(model, bent, first, TOP) == ref[first - (a - 1):]
    assert max_relative_residual(model, traj) == 0.0


def test_green_terms_match_per_t_formula(precision_models):
    rng = random.Random(3)
    for name, model in precision_models.items():
        a = model.a
        k = model.kernel
        n = TOP + 1 - (a - 1) + 1
        y = list(zip(_draw(model, rng, n), _draw(model, rng, n)))
        z = list(zip(_draw(model, rng, n), _draw(model, rng, n)))
        defect, rows = green_terms(model, y, z, TOP)

        def seq(pairs, part):
            return lambda s: pairs[s - (a - 1)][part]

        def raw_bracket(t):
            i = t - (a - 1)
            (y_quasi,), (z_quasi,) = (
                quasi_difference(model, [v[0] for v in w], [v[1] for v in w], t, t)
                for w in (y, z)
            )
            return y[i + 1][0] * z_quasi.conjugate() - y_quasi * z[i + 1][0].conjugate()

        inner = k.complex(0)
        ref_rows = []
        for t in range(a, TOP + 1):
            ly1, ly2 = _reference_rows(model, seq(y, 0), seq(y, 1), t)
            lz1, lz2 = _reference_rows(model, seq(z, 0), seq(z, 1), t)
            ref_rows.append(((ly1, ly2), (lz1, lz2)))
            z1, z2 = z[t - (a - 1)]
            y1, y2 = y[t - (a - 1)]
            inner += z1.conjugate() * ly1 + z2.conjugate() * ly2
            inner -= lz1.conjugate() * y1 + lz2.conjugate() * y2
        ref_defect = inner - (raw_bracket(TOP) - raw_bracket(a - 1))
        assert _bits(defect) == _bits(ref_defect), name
        assert [[[_bits(v) for v in row] for row in pair] for pair in rows] == [
            [[_bits(v) for v in row] for row in pair] for pair in ref_rows
        ]


def _reference_bracket_worst(model, top, pairs, rng):
    """The bracket check with every drawn value converted."""
    k = model.kernel
    worst = 0.0
    n = top + 1 - (model.a - 1)
    for _ in range(pairs):
        y, z = [
            Trajectory(
                model=model, lam=k.complex(0, 1), top=top,
                y1=_draw_read(k, rng, n + 1, range(n + 1)),
                y2=_draw_read(k, rng, n, range(n)),
                y1q=_draw_read(k, rng, n, range(n)),
            )
            for _ in range(2)
        ]
        for t in (model.a - 1, model.a, top - 1):
            lhs = bracket(y, z, t)
            rhs = -bracket(z, y, t).conjugate()
            worst = max(worst, float(abs(lhs - rhs)))
    return worst


def test_bracket_check_draws_the_full_stream(precision_models, monkeypatch):
    """The bracket check converts only what it reads, yet returns the
    full-draw result and leaves its generator where a full draw would."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    for name, model in precision_models.items():
        for top in (model.a + 1, 20):
            made.clear()
            worst = bracket_antisymmetry_worst(model, top, 4, seed=7)
            ref_rng = Recorded(7)
            ref = _reference_bracket_worst(model, top, 4, ref_rng)
            assert repr(worst) == repr(ref), (name, top)
            assert made[0].getstate() == ref_rng.getstate(), (name, top)


def test_bracket_check_leaves_unread_draws_unconverted(models, monkeypatch):
    """A read outside the bracket's points fails instead of using a value."""
    trajectories = []
    real_bracket = bracket

    def recording_bracket(y, z, t):
        trajectories.extend((y, z))
        return real_bracket(y, z, t)

    monkeypatch.setattr(checks, "bracket", recording_bracket)
    model = models["free"]
    bracket_antisymmetry_worst(model, 20, 1)
    traj = trajectories[0]
    off = model.a - 1
    read_y1 = {model.a, model.a + 1, 20}
    read_y1q = {model.a - 1, model.a, 19}
    assert {i + off for i, v in enumerate(traj.y1) if v is not None} == read_y1
    assert {i + off for i, v in enumerate(traj.y1q) if v is not None} == read_y1q
    assert set(traj.y2) == {None}
