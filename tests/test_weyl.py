import math
import random
from collections import Counter

import pytest

from weyldisc import (
    BoundaryAngles,
    BoundaryData,
    ClassifyOptions,
    CoefficientSet,
    InadmissibleLambdaError,
    PrecisionConfig,
    PrecisionExhaustedError,
    builtin_names,
    builtin_scenario,
    chi,
    classify,
    corner_values,
    fundamental_pair,
    m_point,
    on_circle_defect,
    oracle_three_term,
    propagate,
    regular_eigen_residual,
    weyl_disc,
    wronskian,
)
from weyldisc.recurrence import max_relative_residual, step_table
from weyldisc.structure import bracket

from conftest import EXPECTED_VERDICTS, fabs, fdiff


def test_fundamental_pair_initial_data(models):
    free = models["free"]
    phi, psi = fundamental_pair(free, 1j, 0.0, 6)
    assert fabs(phi.y1_at(0)) == 0
    assert fdiff(phi.y1q_at(-1), -1) == 0
    assert fdiff(psi.y1_at(0), 1) == 0
    assert fabs(psi.y1q_at(-1)) == 0
    assert fdiff(psi.y1_at(1), 1 - 1j) == 0
    assert fdiff(phi.y1_at(1), -1) == 0


def test_fundamental_pair_wronskian_long_window(models):
    model = models["ex4.1a"]
    phi, psi = fundamental_pair(model, 1j, 0.0, 100)
    for t in range(-1, 100):
        w = wronskian(phi, psi, t)
        scale = (
            fabs(phi.y1_at(t + 1)) * fabs(psi.y1q_at(t))
            + fabs(phi.y1q_at(t)) * fabs(psi.y1_at(t + 1))
            + 1
        )
        assert fdiff(w, 1) <= scale * 1e-70


def test_corner_values_free_model(models):
    free = models["free"]
    pair = fundamental_pair(free, 1j, 0.0, 4)
    corner = corner_values(pair, 0)
    assert fdiff(corner.A, -1) == 0
    assert fdiff(corner.B, -1) == 0
    assert fdiff(corner.C, 1 - 1j) == 0
    assert fdiff(corner.D, -1j) == 0
    assert fdiff(corner.A * corner.D - corner.B * corner.C, 1) == 0
    diag = corner.C * corner.D.conjugate() - corner.D * corner.C.conjugate()
    assert fdiff(diag, 2j) == 0


def test_weyl_disc_free_model(models):
    free = models["free"]
    disc = weyl_disc(free, 1j, 0.0, 0)
    assert fdiff(disc.center, 0.5j) == 0
    assert fdiff(disc.radius, 0.5) == 0


def test_weyl_disc_rejects_real_lam(models):
    with pytest.raises(InadmissibleLambdaError):
        weyl_disc(models["free"], 2.0, 0.0, 5)


def test_disc_nesting_first_steps(models):
    free = models["free"]
    d0 = weyl_disc(free, 1j, 0.0, 0)
    d1 = weyl_disc(free, 1j, 0.0, 1)
    assert float(d1.radius) <= float(d0.radius)
    gap = abs(d1.center - d0.center)
    assert float(gap - (d0.radius - d1.radius)) <= 1e-70


def test_m_point_values_and_circle_membership(models):
    free = models["free"]
    pair = fundamental_pair(free, 1j, 0.0, 4)
    corner = corner_values(pair, 0)
    disc = weyl_disc(free, 1j, 0.0, 0)
    k = free.kernel
    m0 = m_point(corner, k.real(0))
    assert fdiff(m0, 1j) == 0
    assert fdiff(abs(m0 - disc.center), 0.5) == 0
    m_inf = m_point(corner, math.inf)
    assert fdiff(m_inf, 0.5 + 0.5j) == 0
    assert fdiff(abs(m_inf - disc.center), 0.5) < 1e-70


def test_m_sweep_stays_on_circle(models):
    free = models["free"]
    pair = fundamental_pair(free, 1j, 0.0, 12)
    corner = corner_values(pair, 8)
    disc = weyl_disc(free, 1j, 0.0, 8)
    k = free.kernel
    for i in range(8):
        beta = math.pi * i / 8
        z = math.inf if beta == 0 else k.cos(beta) / k.sin(beta)
        m_val = m_point(corner, z)
        dev = abs(float(abs(m_val - disc.center) / disc.radius) - 1)
        assert dev < 1e-40
        defect = on_circle_defect(free, chi(pair, m_val), m_val, 1j, 8)
        assert fabs(defect) < 1e-40


def test_chi_with_zero_m_is_phi(models):
    free = models["free"]
    pair = fundamental_pair(free, 1j, 0.0, 6)
    combo = chi(pair, 0)
    assert all(fdiff(a, b) == 0 for a, b in zip(combo.y1, pair[0].y1))


def test_chi_first_component(models):
    free = models["free"]
    pair = fundamental_pair(free, 1j, 0.0, 6)
    combo = chi(pair, free.kernel.complex(0, 1))
    assert fdiff(combo.y1_at(0), 1j) == 0


def test_chi_solves_the_equation(models):
    model = models["ex4.2b"]
    pair = fundamental_pair(model, 1j, 0.25, 30)
    combo = chi(pair, model.kernel.complex(0.3, 0.8))
    assert max_relative_residual(model, combo) < 1e-70


def test_on_circle_defect_sign(models):
    free = models["free"]
    pair = fundamental_pair(free, 1j, 0.0, 10)
    disc = weyl_disc(free, 1j, 0.0, 6)
    corner = corner_values(pair, 6)
    k = free.kernel
    # center lies strictly inside: defect negative
    center_defect = on_circle_defect(free, chi(pair, disc.center), disc.center, 1j, 6)
    assert float(center_defect.real) < 0
    # a circle point of the *larger* window N'=9 is inside at N=6 but on at 9
    pair9 = fundamental_pair(free, 1j, 0.0, 12)
    corner9 = corner_values(pair9, 9)
    m9 = m_point(corner9, k.real(0.7))
    inner = on_circle_defect(free, chi(pair9, m9), m9, 1j, 6)
    outer = on_circle_defect(free, chi(pair9, m9), m9, 1j, 9)
    assert float(inner.real) < 0
    assert fabs(outer) < 1e-40
    # at n = a-1 the sum is empty
    empty = on_circle_defect(free, chi(pair9, m9), m9, 1j, -1)
    assert empty == -m9.imag


def test_classify_reproduces_expected_verdicts(classify_memo):
    for name, want in EXPECTED_VERDICTS.items():
        report = classify_memo(name)
        assert report.verdict == want, name
        assert report.l2_solution_count == (2 if want == "LCC" else 1)


def test_classify_disc_radii_nonincreasing(classify_memo):
    for name in EXPECTED_VERDICTS:
        report = classify_memo(name)
        radii = [fabs(d.radius) for d in report.disc_samples]
        assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:])), name


def test_classify_partial_sums_nondecreasing(classify_memo):
    report = classify_memo("ex4.1b")
    for profile in (report.psi_profile, report.chi_profile):
        values = [fabs(s) for _, s in profile.partial_sums]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_classify_rejects_real_lam(models):
    with pytest.raises(InadmissibleLambdaError):
        classify(models["free"], 1.0)


def test_classify_rejects_excluded_lam(models):
    with pytest.raises(InadmissibleLambdaError):
        classify(models["ex4.1a"], 1.0 + 0j)


def test_classify_cross_check_agreement(models):
    options = ClassifyOptions(n_max=80, cross_check_lambda=1 + 1j)
    report = classify(models["ex4.1a"], 1j, 0.0, options)
    assert report.verdict == "LCC"
    assert report.cross_check[1] == "LCC"


def test_classify_undecided_with_extreme_thresholds(models):
    options = ClassifyOptions(
        n_max=60, rel_tol=1e-40, divergence_factor=1e30, window=8
    )
    report = classify(models["free"], 1j, 0.0, options)
    assert report.verdict == "undecided"
    assert report.l2_solution_count is None
    assert report.reason


def test_classify_validates_window(models):
    with pytest.raises(ValueError, match="n_max"):
        classify(models["free"], 1j, 0.0, ClassifyOptions(n_max=20, window=32))


def test_eigen_residual_linear_in_lam(models):
    free = models["free"]
    angles = BoundaryAngles(0.0, 0.0)
    r1 = regular_eigen_residual(free, 1.0, angles, 0)
    assert fabs(r1) < 1e-70
    r3 = regular_eigen_residual(free, 3.0, angles, 0)
    assert fdiff(r3, -2) == 0
    ri = regular_eigen_residual(free, 1j, angles, 0)
    assert fabs(ri) > 0.5


def test_eigen_residual_matches_oracle(models):
    """U2(psi) against the independent scalar recursion."""
    free = models["free"]
    angles = BoundaryAngles(0.0, 0.7)
    got = regular_eigen_residual(free, 0.5, angles, 6)
    k = free.kernel
    psi = oracle_three_term(free, 0.5, BoundaryData(1, 0), 7)
    want = psi.y1_at(7) * k.cos(0.7) + psi.y1q_at(6) * k.sin(0.7)
    assert fdiff(got, want) < 1e-70


def test_eigen_rejects_inadmissible(models):
    with pytest.raises(InadmissibleLambdaError):
        regular_eigen_residual(models["free"], 0.0, BoundaryAngles(0.0, 0.0), 4)


def test_boundary_angle_validation():
    with pytest.raises(ValueError):
        BoundaryAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        BoundaryAngles(0.0, math.pi)


def test_alpha_half_pi_classifies(models):
    scenario = builtin_scenario("free")
    report = classify(models["free"], 1j, math.pi / 2, scenario.classify_options())
    assert report.verdict == "LPC"


def test_degenerate_origin_disc_is_skipped(models):
    """Exactly-zero solution data at the origin (the idealized alpha =
    pi/2 pair) makes the first circle degenerate; the sequence starts at
    the next window."""
    from weyldisc.weyl import _disc_rows

    free = models["free"]
    k = free.kernel
    psi = propagate(free, 1j, BoundaryData(0, 1), 10)
    phi = propagate(free, 1j, BoundaryData(-1, 0), 10)
    discs, sums = _disc_rows(free, phi, psi, k.complex(0, 1), 10)
    assert sums[0][1] == 0
    assert discs[0].n == 1
    assert len(discs) == 10


def test_classify_derives_each_grid_point_once(models, monkeypatch):
    """One classify builds one step table over a-1 .. n_max and evaluates
    each coefficient once per grid point: p, c, h and d on a-1 .. n_max,
    q on a .. n_max, and nothing beyond n_max."""
    from weyldisc import ExprCoefficient, recurrence, weyl

    rows = []
    build = recurrence.step_table

    def counting_table(model, lam, top):
        table = build(model, lam, top)
        rows.append((model.a - 1, table.top))
        return table

    base = models["ex4.2a"]
    model = base.with_precision(base.precision)  # a fresh model, nothing evaluated
    evaluated = {name: Counter() for name in "pqchd"}
    column = ExprCoefficient.column

    def counting_column(self, first, last, kernel):
        for name in "pqchd":
            if self is getattr(model, name):
                evaluated[name].update(range(first, last + 1))
        return column(self, first, last, kernel)

    monkeypatch.setattr(recurrence, "step_table", counting_table)
    monkeypatch.setattr(weyl, "step_table", counting_table)
    monkeypatch.setattr(ExprCoefficient, "column", counting_column)
    n_max = 120
    report = classify(model, 1j, 0.0, ClassifyOptions(n_max=n_max))
    assert report.chi_method == "backward"  # backward seeds reuse the table
    assert rows == [(model.a - 1, n_max)]
    for name in "pchd":
        assert evaluated[name] == Counter(range(model.a - 1, n_max + 1)), name
    assert evaluated["q"] == Counter(range(model.a, n_max + 1))


def test_nonreal_classify_skips_the_admissibility_scan(models, monkeypatch):
    """A nonreal lam is admissible outright; classify does not scan for it."""
    from weyldisc import weyl

    def refuse(*_args, **_kwargs):
        raise AssertionError("spectral_gap called")

    monkeypatch.setattr(weyl, "spectral_gap", refuse)
    report = classify(models["free"], 1j, 0.0, ClassifyOptions(n_max=60))
    assert report.verdict == "LPC"


@pytest.mark.parametrize("name", ["free", "ex4.2a"])
def test_backward_route_builds_no_forward_chi(models, monkeypatch, name):
    """The forward chi scan stops at its first cancelling state; the
    forward trajectory is never built when the backward route is taken."""
    from weyldisc.recurrence import Trajectory

    def refuse(*_args, **_kwargs):
        raise AssertionError("Trajectory.combined called")

    monkeypatch.setattr(Trajectory, "combined", refuse)
    report = classify(models[name], 1j, 0.0, ClassifyOptions(n_max=120))
    assert report.chi_method == "backward"
    assert report.verdict == EXPECTED_VERDICTS[name]


ROUTE_PRECISIONS = {
    "mpmath-256": PrecisionConfig(mantissa_bits=256),
    "mpmath-53": PrecisionConfig(mantissa_bits=53),
    "native": PrecisionConfig(mode="native-float"),
}


def _reference_forward_length(model, m, states) -> int:
    """Index of the first state that fails chi's half-mantissa test, with
    the exact moduli throughout (the length of the forward prefix)."""
    k = model.kernel
    floor = k.real(2) ** (-(model.precision.bits // 2))
    m_abs = abs(m)
    for i, (f0, f1, s0, s1) in enumerate(states):
        c0, c1 = f0 + m * s0, f1 + m * s1
        if abs(c0) + abs(c1) < ((abs(f0) + abs(f1)) + m_abs * (abs(s0) + abs(s1))) * floor:
            return i
    return len(states)


def _route_states(model, rng):
    """(m, states) with chi's combinations at and around the route test's
    threshold 2^-(bits//2) of the state magnitude.

    m is a unit (1, -1, i or -i) and every product by it is exact.  With
    phi1(t+1) = r P and psi1(t+1) = r (-P + w) / m for a real P, a unit r
    and a small w, c0 = r w; with psi1q(t) = -phi1q(t) / m, c1 = 0 exactly.
    An axis-aligned w (i y) makes c0 exact, so the states lie within a
    few ulps of the threshold on both sides.  A diagonal w (y + i y) has
    |re| + |im| = sqrt(2) |c0|, where the bound is loosest; those states
    lie from below the threshold to past twice the bound's margin."""
    k = model.kernel
    bits = model.precision.bits
    floor = k.real(2) ** (-(bits // 2))
    units = [k.complex(1), k.complex(-1), k.complex(0, 1), k.complex(0, -1)]
    m = rng.choice(units)
    m_inv = m.conjugate()
    eps = k.real(2) ** (-(bits - 1))

    def state(r, p, g, w):
        f0 = r * k.complex(p)
        s0 = m_inv * (r * (k.complex(-p) + w))
        return f0, g, s0, -(m_inv * g)

    def threshold(r, p, g, y):
        f0, f1, s0, s1 = state(r, p, g, k.complex(0, y))
        return ((abs(f0) + abs(f1)) + abs(m) * (abs(s0) + abs(s1))) * floor

    near, loose = [], []
    for _ in range(12):
        r = rng.choice(units)
        p = k.real(rng.randint(2**20, 2**21)) / 2**20
        g = k.complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t0 = threshold(r, p, g, 2 * p * floor)
        for j in range(-3, 4):
            y = t0 + j * t0 * eps
            near.append(state(r, p, g, k.complex(0, y)))
        for q in (0.9, 0.95, 0.99, 0.999, 1.2, 1.41, 1.42, 1.45, 2.0, 2.9, 3.0):
            y = t0 * k.real(q) / k.sqrt(k.real(2))
            loose.append(state(r, p, g, k.complex(y, y)))
    return m, near, loose


@pytest.mark.parametrize("precision", ROUTE_PRECISIONS.values(), ids=ROUTE_PRECISIONS.keys())
def test_forward_route_decisions_equal_the_exact_test(precision):
    """The forward route test clears a state from the bound |re| + |im|
    and takes the exact moduli only inside its margin, so every decision
    and the first failing index equal those of a scan with exact abs."""
    from weyldisc.weyl import _forward_chi_y1

    model = CoefficientSet.from_expressions(precision=precision)
    rng = random.Random(20261019)
    for _ in range(4):
        m, near, loose = _route_states(model, rng)
        k = model.kernel
        lost = (k.complex(1), k.complex(0), -m.conjugate(), k.complex(0))  # c = 0
        outcomes = Counter()
        for family in (near, loose):
            for state in family:
                want = _reference_forward_length(model, m, [state, lost])
                got = _forward_chi_y1(model, m, [state, lost])
                assert len(got) == want
                assert got == [state[0] + m * state[2]][:want]
                outcomes[family is near, want] += 1
            for _ in range(3):
                rng.shuffle(family)
                want = _reference_forward_length(model, m, family)
                assert len(_forward_chi_y1(model, m, family)) == want
        # the near family straddles the threshold, the loose one too
        assert outcomes[True, 0] and outcomes[True, 1]
        assert outcomes[False, 0] and outcomes[False, 1]


@pytest.mark.parametrize("name", ["ex4.1a", "ex4.2b"])
def test_forward_chi_equals_the_combination(models, name):
    """The forward route's chi is phi + m psi with combined's arithmetic."""
    from weyldisc.weyl import _stable_chi

    model = models[name]
    n_max = 120
    report = classify(model, 1j, 0.0, ClassifyOptions(n_max=n_max))
    assert report.chi_method == "forward"
    lam = model.kernel.complex(0, 1)
    table = step_table(model, lam, n_max)
    phi, psi = fundamental_pair(model, lam, 0.0, n_max, table=table)
    got, method = _stable_chi(
        model, lam, phi, psi, report.m_limit, n_max,
        report.disc_samples[-1].radius, table,
    )
    want = phi.combined(psi, report.m_limit)
    assert method == "forward"
    assert got == (want.y1, want.y2)


def _old_disc(model, phi, psi, lam, n):
    """The disc at N = n by the complex division and modulus of the
    summed diagonal bracket, with |.|^2 taken as a squared modulus."""
    k = model.kernel
    factor = k.complex(0, 2) * lam.imag
    s_run = k.real(0)
    w_run = k.complex(0)
    for s1, s2, p1, p2 in zip(*psi.component_columns(model.a, n),
                              *phi.component_columns(model.a, n)):
        s_run = s_run + abs(s1) ** 2 + abs(s2) ** 2
        w_run = w_run + s1.conjugate() * p1 + s2.conjugate() * p2
    diag = bracket(psi, psi, model.a - 1) + factor * s_run
    mixed = bracket(phi, psi, model.a - 1) + factor * w_run
    return -mixed / diag, 1 / abs(diag)


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_disc_rows_match_the_division_formulas(models, name):
    """Real divisions by Im(diag) give the complex-division discs to
    within 2^-(bits-8), relative to the disc scale."""
    from weyldisc.weyl import _disc_rows

    model = models[name]
    k = model.kernel
    top = 60
    tol = 2.0 ** (-(model.precision.bits - 8))
    lam = k.complex(0.5, 1)
    phi, psi = fundamental_pair(model, lam, 0.3, top)
    discs, _ = _disc_rows(model, phi, psi, lam, top)
    assert bracket(psi, psi, model.a - 1).real == 0
    for disc in discs[::7] + [discs[-1]]:
        center, radius = _old_disc(model, phi, psi, lam, disc.n)
        assert fdiff(disc.radius, radius) <= tol * fabs(radius)
        scale = fabs(center) + fabs(radius)
        assert fdiff(disc.center, center) <= tol * scale


def test_native_overflow_in_disc_sums_is_typed():
    """Native floats once let a raw OverflowError out of the psi sums."""
    from weyldisc import PrecisionConfig, PrecisionExhaustedError

    scenario = builtin_scenario("ex4.1b")
    model = scenario.model().with_precision(PrecisionConfig(mode="native-float"))
    with pytest.raises(PrecisionExhaustedError):
        classify(model, 1 + 0.3j, 1.0, ClassifyOptions(n_max=200))


def test_native_profile_sum_turning_inf_is_typed():
    """Finite samples whose squared norms add up past the float range."""
    from weyldisc import CoefficientSet, PrecisionConfig, PrecisionExhaustedError
    from weyldisc.recurrence import Trajectory
    from weyldisc.weyl import _profile

    model = CoefficientSet.from_expressions(
        precision=PrecisionConfig(mode="native-float")
    )
    big = complex(1e154, 0)
    traj = Trajectory(model=model, lam=1j, top=10,
                      y1=(big,) * 13, y2=(big,) * 12, y1q=(big,) * 12)
    with pytest.raises(PrecisionExhaustedError):
        _profile(model, (traj.y1, traj.y2), 10)


@pytest.mark.parametrize("mode", ["big-float", "native-float"])
@pytest.mark.parametrize("name", builtin_names())
def test_classify_is_conjugate_symmetric(name, mode):
    """Real coefficients and a real alpha: classify at conj(lam) gives, bit
    for bit, the conjugate m and disc centers, equal radii and partial
    sums, and the same verdict and chi route.  ex4.2a overflows native
    floats at either lam.  The comparisons run inside the model's
    precision, which conj and the differences must not round."""
    model = builtin_scenario(name).model().with_precision(PrecisionConfig(mode=mode))
    options = ClassifyOptions(n_max=200)
    for lam in (1j, 0.3 + 0.7j, -1.5 + 0.3j):
        if (name, mode) == ("ex4.2a", "native-float"):
            for at in (lam, lam.conjugate()):
                with pytest.raises(PrecisionExhaustedError):
                    classify(model, at, 0.0, options)
            continue
        up = classify(model, lam, 0.0, options)
        down = classify(model, lam.conjugate(), 0.0, options)
        assert down.m_limit == up.m_limit.conjugate(), lam
        assert [(d.n, d.center, d.radius) for d in down.disc_samples] == [
            (d.n, d.center.conjugate(), d.radius) for d in up.disc_samples
        ], lam
        assert (down.psi_profile, down.chi_profile) == (up.psi_profile, up.chi_profile), lam
        assert (down.verdict, down.chi_method) == (up.verdict, up.chi_method), lam
