import random

import pytest

from weyldisc import (
    BoundaryData,
    CoefficientSet,
    InadmissibleLambdaError,
    PrecisionConfig,
    PrecisionExhaustedError,
    WindowError,
    fundamental_matrix,
    oracle_three_term,
    propagate,
    propagate_backward,
    step_table,
)
from weyldisc.recurrence import max_relative_residual, propagate_columns, y2_relation

from conftest import fabs, fdiff


def test_step_matrix_free_model(models):
    free = models["free"]
    row = step_table(free, 1j, 0)
    a11, a12, a21, a22 = row.a11[-1], row.a12[-1], row.a21[-1], row.a22[-1]
    assert fabs(a11) == 0
    assert fdiff(a12, 1) == 0
    assert fdiff(a21, -1j) == 0
    assert fdiff(a22, 1j) == 0
    assert fdiff((1 - a11) * (1 - a22) - a12 * a21, 1) == 0


def test_step_matrix_zero_coupling_kills_corner(models):
    # alpha = h c / (lam - d) vanishes whenever c or h does
    for name in ("ex4.1a", "ex4.1b", "ex4.2b"):
        assert fabs(step_table(models[name], 1j, 2).a11[-1]) == 0


def test_step_matrix_rejects_excluded_lam(models):
    with pytest.raises(InadmissibleLambdaError):
        step_table(models["ex4.1a"], 1.0, 2)  # d == 1


def test_propagate_free_first_state(models):
    free = models["free"]
    traj = propagate(free, 1j, BoundaryData(1, 0), 6)
    state = traj.state(0)
    assert fdiff(state[0], 1 - 1j) == 0
    assert fdiff(state[1], -1j) == 0


def test_propagate_zero_data_is_zero(models):
    traj = propagate(models["ex4.1b"], 1j, BoundaryData(0, 0), 12)
    assert all(fabs(v) == 0 for v in traj.y1 + traj.y2 + traj.y1q)


def test_propagate_period_six(models):
    free = models["free"]
    traj = propagate(free, 1.0, BoundaryData(1, 0), 5)
    values = [fdiff(traj.y1_at(t), want)
              for t, want in zip(range(-1, 6), (1, 1, 0, -1, -1, 0, 1))]
    assert all(v == 0 for v in values)


def test_propagate_linearity(models):
    model = models["ex4.2b"]
    rng = random.Random(3)
    u = propagate(model, 1j, BoundaryData(1, 0), 25)
    v = propagate(model, 1j, BoundaryData(0, 1), 25)
    for _ in range(5):
        c1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = propagate(model, 1j, BoundaryData(c1, c2), 25)
        combo = u.scaled(model.kernel.complex(c1.real, c1.imag)).combined(
            v, model.kernel.complex(c2.real, c2.imag)
        )
        for seq_d, seq_c in ((direct.y1, combo.y1), (direct.y2, combo.y2),
                             (direct.y1q, combo.y1q)):
            sup = max(fabs(x) for x in seq_d) or 1.0
            worst = max(fdiff(a, b) for a, b in zip(seq_d, seq_c))
            assert worst <= sup * 1e-70


def test_solution_space_dimension_two(models):
    """Any third solution is the unique data-combination of the basis."""
    model = models["ex4.1a"]
    basis1 = propagate(model, 1j, BoundaryData(1, 0), 30)
    basis2 = propagate(model, 1j, BoundaryData(0, 1), 30)
    third = propagate(model, 1j, BoundaryData(0.7 - 0.2j, 1.5 + 1j), 30)
    k = model.kernel
    combo = basis1.scaled(k.complex(0.7, -0.2)).combined(basis2, k.complex(1.5, 1))
    worst = max(fdiff(a, b) for a, b in zip(third.y1, combo.y1))
    assert worst < 1e-70


def test_residual_rows_below_tolerance(models):
    for name, model in models.items():
        traj = propagate(model, 1j, BoundaryData(1, 1), 40)
        assert max_relative_residual(model, traj) < 1e-70, name


def test_oracle_matches_propagate_free_exactly(models):
    free = models["free"]
    direct = propagate(free, 1j, BoundaryData(1, 0), 40)
    oracle = oracle_three_term(free, 1j, BoundaryData(1, 0), 40)
    assert max(fdiff(a, b) for a, b in zip(direct.y1, oracle.y1)) == 0


def test_oracle_deviation_geometric_family(models):
    """Dual-route agreement at 50 steps stays far below 1e-60 relative."""
    model = models["ex4.1a"]
    direct = propagate(model, 1j, BoundaryData(1, 0), 50)
    oracle = oracle_three_term(model, 1j, BoundaryData(1, 0), 50)
    for seq_d, seq_o in ((direct.y1, oracle.y1), (direct.y2, oracle.y2),
                         (direct.y1q, oracle.y1q)):
        sup = max(fabs(v) for v in seq_d) or 1.0
        worst = max(fdiff(a, b) for a, b in zip(seq_d, seq_o))
        assert worst / sup < 1e-60


def test_fundamental_matrix_shape_and_determinant(models):
    free = models["free"]
    mats = fundamental_matrix(free, 1j, 20)
    first = mats[0]
    assert fdiff(first[0][0], 1) == 0 and fdiff(first[1][1], 1) == 0
    assert fabs(first[0][1]) == 0 and fabs(first[1][0]) == 0
    second = mats[1]  # (I - A(a))^{-1} for the free model at lam = i
    assert fdiff(second[0][0], 1 - 1j) == 0
    assert fdiff(second[0][1], 1) == 0
    assert fdiff(second[1][0], -1j) == 0
    assert fdiff(second[1][1], 1) == 0
    for mat in mats:
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        assert fdiff(det, 1) < 1e-70


def test_fundamental_matrix_columns_reproduce_propagate(models):
    model = models["ex4.2b"]
    mats = fundamental_matrix(model, 1j, 15)
    e1 = propagate(model, 1j, BoundaryData(1, 0), 15)
    e2 = propagate(model, 1j, BoundaryData(0, 1), 15)
    for idx, t in enumerate(range(model.a - 1, 16)):
        sup = fabs(e1.state(t)[0]) + fabs(e2.state(t)[0]) + 1
        assert fdiff(mats[idx][0][0], e1.state(t)[0]) <= sup * 1e-70
        assert fdiff(mats[idx][1][0], e1.state(t)[1]) <= sup * 1e-70
        assert fdiff(mats[idx][0][1], e2.state(t)[0]) <= sup * 1e-70
        assert fdiff(mats[idx][1][1], e2.state(t)[1]) <= sup * 1e-70


def test_reconstruct_y2_agrees_with_defining_relation(models):
    """The table's state route r1 y1(t+1) + r2 y1q(t) and the y2 relation
    both give y2, and agree with the relation written as one quotient."""
    model = models["ex4.2b"]
    traj = propagate(model, 1j, BoundaryData(1, 1), 25)
    table = step_table(model, 1j, 25)
    lam = traj.lam
    relations = y2_relation(model, lam, traj.y1, model.a - 1, 24)
    assert y2_relation(model, lam, traj.y1, 3, 7) == relations[4:9]
    for t, relation in zip(range(model.a - 1, 25), relations):
        i = table.index(t)
        via_state = table.r1[i] * traj.y1_at(t + 1) + table.r2[i] * traj.y1q_at(t)
        den = lam - model.coeff("d", t)
        direct = (model.coeff("c", t) * (traj.y1_at(t + 1) - traj.y1_at(t))
                  + model.coeff("h", t) * traj.y1_at(t)) / den
        scale = fabs(direct) + 1
        assert fdiff(via_state, direct) <= scale * 1e-70
        assert fdiff(relation, direct) <= scale * 1e-70
        assert fdiff(via_state, traj.y2_at(t)) <= scale * 1e-70


def test_y2_closed_form_sqrt_family_at_zero(models):
    """At lam=0 (real but admissible) the sqrt-coupled family's second
    component collapses to -sqrt(4^2t + 4^t)/4^t times the forward slope."""
    model = models["ex4.2b"]
    traj = propagate(model, 0.0, BoundaryData(1, 1), 12)
    k = model.kernel
    for t in range(0, 12):
        four_t = k.real(4) ** t
        factor = -k.sqrt(four_t * four_t + four_t) / four_t
        want = factor * (traj.y1_at(t + 1) - traj.y1_at(t))
        scale = fabs(want) + 1
        assert fdiff(traj.y2_at(t), want) <= scale * 1e-70


def test_backward_propagation_reproduces_forward(models):
    # backward stepping amplifies the forward-decaying direction by the
    # per-step mode ratio, so the round trip loses roughly that factor
    model = models["ex4.1b"]
    forward = propagate(model, 1j, BoundaryData(1, -0.5), 30)
    back = propagate_backward(model, 1j, forward.state(30), 30)
    sup = max(fabs(v) for v in forward.y1)
    worst = max(fdiff(a, b) for a, b in zip(forward.y1, back.y1))
    assert worst <= sup * 1e-50


def test_window_errors():
    model = CoefficientSet.from_expressions()
    traj = propagate(model, 1j, BoundaryData(1, 0), 5)
    with pytest.raises(WindowError):
        traj.y1_at(7)
    with pytest.raises(WindowError):
        traj.y2_at(6)
    with pytest.raises(WindowError):
        traj.state(-2)


def test_native_mode_overflow_is_reported(models):
    """ex4.2a's solutions grow like 2^(t^2): on native floats the forward
    states leave the range at t=32 and the backward ones from (1, 0) at
    t=116.  The steps are tested once per pass, so these pin the rescan
    to the first non-finite state."""
    model = models["ex4.2a"].with_precision(PrecisionConfig(mode="native-float"))
    for solve, t in (
        (lambda: propagate(model, 1j, BoundaryData(1, 0), 120), 32),
        (lambda: fundamental_matrix(model, 1j, 120), 32),
        (lambda: propagate_backward(model, 1j, (1, 0), 120), 116),
    ):
        with pytest.raises(PrecisionExhaustedError, match=f"range near t={t};"):
            solve()


def test_native_propagation_refuses_a_non_finite_y2_alone():
    """States that stay finite do not excuse an overflowing y2: the
    assembled trajectory checks every y2 value too."""
    import dataclasses

    from weyldisc.recurrence import propagate_columns, step_table

    model = CoefficientSet.from_expressions(
        precision=PrecisionConfig(mode="native-float")
    )
    table = step_table(model, 1j, 60)
    (traj,) = propagate_columns(table, (BoundaryData(1, 0),))
    assert max(abs(v) for v in traj.y1) > 1e10  # finite states, y2 == 0
    # the same states, but a y2 coefficient that overflows r1 * y1(t+1)
    huge = dataclasses.replace(table, r1=(1e300,) * len(table.r1))
    with pytest.raises(PrecisionExhaustedError, match="trajectory magnitude"):
        propagate_columns(huge, (BoundaryData(1, 0),))


def test_native_mode_works_within_range():
    model = CoefficientSet.from_expressions(
        precision=PrecisionConfig(mode="native-float")
    )
    traj = propagate(model, 1j, BoundaryData(1, 0), 10)
    assert traj.y1_at(1) == (1 - 1j)
    oracle = oracle_three_term(model, 1j, BoundaryData(1, 0), 10)
    assert max(abs(a - b) for a, b in zip(traj.y1, oracle.y1)) < 1e-12


def test_fundamental_pair_is_two_propagations_in_one_pass(models):
    from weyldisc import fundamental_pair

    model = models["ex4.1b"]
    phi, psi = fundamental_pair(model, 1j, 0.4, 30)
    k = model.kernel
    sa, ca = k.sin(0.4), k.cos(0.4)
    assert phi == propagate(model, 1j, BoundaryData(sa, -ca), 30)
    assert psi == propagate(model, 1j, BoundaryData(ca, sa), 30)


def test_foreign_step_table_is_refused(models):
    from weyldisc import fundamental_pair
    from weyldisc.recurrence import step_table

    model = models["free"]
    with pytest.raises(ValueError):
        fundamental_pair(model, 1j, 0.0, 10, table=step_table(model, 1j, 12))
    with pytest.raises(ValueError):
        propagate_backward(model, 1j, (1, 0), 10, table=step_table(model, 2j, 10))


@pytest.mark.parametrize("name", ["free", "ex4.1a", "ex4.1b", "ex4.2a", "ex4.2b"])
def test_step_table_matches_the_division_formulas(models, name):
    """Multiplying by the reciprocals of lam - d and p_tilde gives the
    quotients of the defining formulas to within 2^-(bits-8)."""
    from weyldisc import step_table

    model = models[name]
    k = model.kernel
    tol = 2.0 ** (-(model.precision.bits - 8))
    top = 40
    table = step_table(model, 0.5 + 1j, top)
    lam = table.lam
    alpha_prev = None
    for i, t in enumerate(range(model.a - 1, top + 1)):
        p, c, h, d = (model.coeff(n, t) for n in "pchd")
        den = lam - d
        off = c * c - h * c
        p_tilde = p + off / den
        alpha = h * c / den
        denp = den * p_tilde
        want = {
            "p_tilde": p_tilde,
            "alpha": alpha,
            "r1": h * p / denp,
            "r2": (c - h) / denp,
        }
        if i == 0:
            got = table.lead_left
            assert fdiff(got, p + c * c / den) <= tol * (fabs(got) + 1)
        if alpha_prev is not None:
            common = model.coeff("q", t) + h * h / den
            want["q_tilde"] = common - (alpha - alpha_prev)
            h_shift = common - lam
            want["a11"] = -alpha / p_tilde
            want["a12"] = 1 / p_tilde
            want["a21"] = (h_shift - alpha) * alpha / p_tilde + h_shift
            want["a22"] = (alpha - h_shift) / p_tilde
        for column, value in want.items():
            got = getattr(table, column)[i]
            assert fdiff(got, value) <= tol * (fabs(value) + 1), (column, t)
        alpha_prev = alpha


def test_cut_trajectory_is_the_shorter_solve(models):
    """A solution cut to a-1 .. 12 holds the bits of one solved on that
    window; a cut past the window is refused."""
    model = models["ex4.1b"]
    long = propagate(model, 0.5 + 1j, BoundaryData(1, 1), 30)
    short = propagate(model, 0.5 + 1j, BoundaryData(1, 1), 12)
    assert long.cut(12) == short
    assert long.cut(30) is long
    with pytest.raises(WindowError):
        short.cut(13)


RANDOM_TABLE_PRECISIONS = {
    "mpmath-256": PrecisionConfig(mantissa_bits=256),
    "mpmath-53": PrecisionConfig(mantissa_bits=53),
    "native": PrecisionConfig(mode="native-float"),
}


def _bits(z):
    """The exact bits of a scalar: an mpmath complex's parts, or a native
    complex's parts in hex, the sign of a zero included."""
    parts = getattr(z, "_mpc_", None)
    if parts is not None:
        return parts
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _random_tables(precision, count, seed, top_offset):
    """Step tables of seeded random and strongly coupled models on
    a-1 .. a+top_offset, with the model, lam and initial data of each."""
    cases = [*_random_left_end_cases(count, seed),
             *_random_left_end_cases(count // 2, seed + 1, coupled=True)]
    for a, exprs, lam, data in cases:
        model = CoefficientSet.from_expressions(a=a, precision=precision, **exprs)
        yield model, lam, data, step_table(model, lam, a + top_offset)


@pytest.mark.parametrize("precision", RANDOM_TABLE_PRECISIONS.values(),
                         ids=RANDOM_TABLE_PRECISIONS.keys())
def test_step_entries_follow_the_table_and_its_cuts(precision):
    """``steps`` holds (1 - a22, a12, a21, 1 - a11) of rows a .. top, and
    a cut table keeps exactly the steps of its rows: bit for bit those of
    a table built on the shorter window."""
    for model, lam, _, table in _random_tables(precision, 30, 20261022, 12):
        a = model.a
        assert len(table.steps) == len(table.a11) - 1 == 13
        for i, step in enumerate(table.steps, 1):
            want = (1 - table.a22[i], table.a12[i], table.a21[i], 1 - table.a11[i])
            assert list(map(_bits, step)) == list(map(_bits, want))
        for top in (a - 1, a, a + 5, a + 12):
            cut = table.cut(top)
            shorter = step_table(model, lam, top)
            assert len(cut.steps) == top - a + 1
            assert cut == shorter
            assert ([list(map(_bits, step)) for step in cut.steps]
                    == [list(map(_bits, step)) for step in shorter.steps])


def _old_backward_states(table, terminal):
    """States v(t), t = a-1 .. top, stepped down from v(top) = terminal by
    v(t-1) = (I - A(t)) v(t) written with the table's A entries."""
    k = table.model.kernel
    s0 = k.complex(0) + terminal[0]
    s1 = k.complex(0) + terminal[1]
    states = [(s0, s1)]
    rows = zip(reversed(table.a11[1:]), reversed(table.a12[1:]),
               reversed(table.a21[1:]), reversed(table.a22[1:]))
    for a11, a12, a21, a22 in rows:
        s0, s1 = (1 - a11) * s0 - a12 * s1, -a21 * s0 + (1 - a22) * s1
        states.append((s0, s1))
    states.reverse()
    return states


@pytest.mark.parametrize("precision", RANDOM_TABLE_PRECISIONS.values(),
                         ids=RANDOM_TABLE_PRECISIONS.keys())
def test_backward_steps_are_the_i_minus_a_form_bit_for_bit(precision):
    """Backward stepping through the shared step entries,
    m22 s0 - a12 s1 and m11 s1 - a21 s0, gives the bits of
    (1 - a11) s0 - a12 s1 and -a21 s0 + (1 - a22) s1 on random tables;
    where native floats overflow, both forms leave the range."""
    checked = 0
    for model, lam, data, table in _random_tables(precision, 60, 20261023, 24):
        top = table.top
        terminal = (data.c1, data.c2)
        want = _old_backward_states(table, terminal)
        try:
            got = propagate_backward(model, lam, terminal, top, table=table)
        except PrecisionExhaustedError:
            assert not all(map(model.kernel.isfinite, want[0]))
            continue
        states = list(zip(got.y1[1:], got.y1q))
        assert [(_bits(u), _bits(v)) for u, v in states] == [
            (_bits(u), _bits(v)) for u, v in want]
        checked += 1
    assert checked >= 60


def test_left_end_refuses_a_vanishing_p_tilde():
    """With p = 1 and c = t + 2, p_tilde(-1) = 1 + 1/lam vanishes at
    lam = -1; row a-1 of the step table refuses it on both kernels."""
    for precision in (PrecisionConfig(), PrecisionConfig(mode="native-float")):
        model = CoefficientSet.from_expressions(a=0, p="1", c="t + 2", precision=precision)
        with pytest.raises(InadmissibleLambdaError) as exc:
            propagate(model, -1, BoundaryData(1, 0), 5)
        assert exc.value.t == -1


def _random_left_end_cases(count, seed, coupled=False):
    """Seeded random models with a in {0, 1, 3}: p from a fixed list that
    never vanishes on t >= -1; q, c, h and d zero or one or two terms
    kappa b^t t^k, b in {1/2, 1, 2, 4}, k <= 2; a nonreal lam and real
    initial data with two decimals.  ``coupled`` adds a term kappa 4^t t^k
    to both c and h, so that they grow together."""
    rng = random.Random(seed)
    kappas = ["1", "2", "3", "1/2", "-1", "-2"]

    def term():
        parts = [rng.choice(kappas)]
        base = rng.choice(["(1/2)", "1", "2", "4"])
        if base != "1":
            parts.append(f"{base}^t")
        power = rng.randrange(3)
        if power:
            parts.append("t" if power == 1 else f"t^{power}")
        return "(" + "*".join(parts) + ")"

    def coefficient():
        if rng.random() < 0.35:
            return "0"
        return " + ".join(term() for _ in range(rng.randint(1, 2)))

    for _ in range(count):
        exprs = {"p": rng.choice(["1", "-1", "4^t", "-(4^t)", "2^t", "t+2"])}
        exprs.update((name, coefficient()) for name in "qchd")
        if coupled:
            for name in "ch":
                power = rng.randrange(3)
                growth = "*".join([rng.choice(kappas), "4^t"] + ["t"] * power)
                exprs[name] = f"({growth}) + {exprs[name]}"
        a = rng.choice([0, 1, 3])
        lam = complex(round(rng.uniform(-2, 2), 2), round(rng.uniform(0.1, 2), 2))
        data = BoundaryData(round(rng.uniform(-2, 2), 2), round(rng.uniform(-2, 2), 2))
        yield a, exprs, lam, data


@pytest.mark.parametrize("precision", [
    PrecisionConfig(mantissa_bits=256),
    PrecisionConfig(mantissa_bits=53),
    PrecisionConfig(mode="native-float"),
], ids=["mpmath-256", "mpmath-53", "native"])
def test_left_end_values_agree_with_1024_bits(precision):
    """y1(a-1) and y2(a-1) from row a-1 of the step table stay within
    2^-(bits-8) of a 1024-bit run, relative to the terms they sum:
    (p_tilde + alpha) y1(a) / p_tilde and y1q(a-1) / p_tilde for y1,
    r1 y1(a) and r2 y1q(a-1) for y2."""
    tol = 2.0 ** -(precision.bits - 8)
    ref_precision = PrecisionConfig(mantissa_bits=1024)
    ref_kernel = ref_precision.kernel
    for a, exprs, lam, data in _random_left_end_cases(300, 20261018):
        ref_model = CoefficientSet.from_expressions(a=a, precision=ref_precision, **exprs)
        table = step_table(ref_model, lam, a)
        (ref,) = propagate_columns(table, (data,))
        model = ref_model.with_precision(precision)
        got = propagate(model, lam, data, a)
        y1_a, y1q_left, p_tilde = ref.y1[1], ref.y1q[0], table.p_tilde[0]
        scale1 = (abs(ref.y1[0]) + abs(table.lead_left * y1_a / p_tilde)
                  + abs(y1q_left / p_tilde))
        scale2 = (abs(ref.y2[0]) + abs(table.r1[0] * y1_a)
                  + abs(table.r2[0] * y1q_left))
        for value, want, scale in ((got.y1[0], ref.y1[0], scale1),
                                   (got.y2[0], ref.y2[0], scale2)):
            # the value exactly, as a 1024-bit scalar
            value = ref_kernel.complex(value.real, value.imag)
            assert abs(value - want) <= tol * scale, (a, exprs, lam)


class _Mag:
    """A 1,024-bit value with the magnitude of the terms it is built from.
    A sum adds the magnitudes of its terms, a product multiplies them, and
    a quotient x/y has S_x/|y| + |x| S_y/|y|^2: to first order, the
    error a rounding of each input by a relative eps leaves is at most
    eps times the magnitude.  A column further off than a few units of its
    precision times the magnitude lost digits to a cancellation."""

    def __init__(self, value, scale=None):
        self.value = value
        self.scale = float(abs(value)) if scale is None else scale

    def __add__(self, other):
        return _Mag(self.value + other.value, self.scale + other.scale)

    def __sub__(self, other):
        return _Mag(self.value - other.value, self.scale + other.scale)

    def __mul__(self, other):
        return _Mag(self.value * other.value, self.scale * other.scale)

    def __neg__(self):
        return _Mag(-self.value, self.scale)

    def __truediv__(self, other):
        size = float(abs(other.value))
        return _Mag(self.value / other.value,
                    self.scale / size + float(abs(self.value)) * other.scale / size**2)


def _step_table_reference(model, lam, top) -> dict:
    """Every step-table column on a-1 .. top as _Mag values of a 1,024-bit
    model, by the defining formulas: a21 in the form without the
    h^2 c^2/den^2 parts that cancel, ((q - lam) lead + h^2 p/den)/p_tilde,
    so its magnitude is that of the terms that do not cancel."""
    lam = _Mag(model.kernel.complex(lam.real, lam.imag))
    one = _Mag(model.kernel.complex(1))
    rows = []
    alpha_prev = None
    for t in range(model.a - 1, top + 1):
        p, c, h, d = (_Mag(model.coeff(name, t)) for name in "pchd")
        den = lam - d
        p_tilde = p + (c * c - h * c) / den
        alpha = h * c / den
        lead = p + c * c / den
        row = {"p_tilde": p_tilde, "alpha": alpha,
               "r1": h * p / (den * p_tilde), "r2": (c - h) / (den * p_tilde)}
        if alpha_prev is None:
            lead_left = lead
        else:
            q = _Mag(model.coeff("q", t))
            common = q + h * h / den
            row.update(
                q_tilde=common - (alpha - alpha_prev),
                a11=-alpha / p_tilde,
                a12=one / p_tilde,
                a21=((q - lam) * lead + h * h * p / den) / p_tilde,
                a22=(alpha - (common - lam)) / p_tilde,
            )
        rows.append(row)
        alpha_prev = alpha
    columns = {name: [row.get(name) for row in rows] for name in _STEP_COLUMNS}
    columns["lead_left"] = lead_left
    return columns


_STEP_COLUMNS = ("p_tilde", "alpha", "q_tilde", "a11", "a12", "a21", "a22",
                 "r1", "r2", "lead_left")


@pytest.fixture(scope="module")
def step_table_references():
    """(1,024-bit model, lam, top, reference columns) of 200 seeded random
    models and 100 strongly coupled ones, on windows a-1 .. a+8."""
    ref_precision = PrecisionConfig(mantissa_bits=1024)
    cases = [*_random_left_end_cases(200, 20261019),
             *_random_left_end_cases(100, 20261020, coupled=True)]
    out = []
    for a, exprs, lam, _ in cases:
        model = CoefficientSet.from_expressions(a=a, precision=ref_precision, **exprs)
        out.append((model, lam, a + 8, _step_table_reference(model, lam, a + 8)))
    return out


@pytest.mark.parametrize("precision", [
    PrecisionConfig(mantissa_bits=256),
    PrecisionConfig(mantissa_bits=53),
    PrecisionConfig(mode="native-float"),
], ids=["mpmath-256", "mpmath-53", "native"])
def test_step_table_columns_agree_with_1024_bits(precision, step_table_references):
    """Every step-table column stays within 2^-(bits-8) of a 1,024-bit
    evaluation, relative to the magnitudes of the terms it is built from,
    on random and on strongly coupled models (c and h up to kappa 4^t t^2):
    a column that cancels at leading order, as a21 once did, fails here."""
    tol = 2.0 ** -(precision.bits - 8)
    for ref_model, lam, top, reference in step_table_references:
        table = step_table(ref_model.with_precision(precision), lam, top)
        exact = ref_model.kernel.complex
        for name in _STEP_COLUMNS:
            got, want = getattr(table, name), reference[name]
            pairs = [(got, want)] if name == "lead_left" else zip(got, want)
            for i, (value, ref) in enumerate(pairs):
                if ref is None:
                    continue
                # the value exactly, as a 1024-bit scalar
                value = exact(value.real, value.imag)
                assert abs(value - ref.value) <= tol * ref.scale, (
                    name, ref_model.a - 1 + i, ref_model.a, lam)
