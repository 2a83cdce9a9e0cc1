import random

import pytest

from weyldisc import (
    BoundaryData,
    MatchingSingularError,
    NumericalInvariantError,
    WindowError,
    bracket,
    green_defect,
    lagrange_identity_defect,
    propagate,
    quasi_difference,
    vop_reconstruct,
    wronskian,
)
from weyldisc.checks import (
    bracket_antisymmetry_worst,
    green_random_worst,
    lagrange_relative_defect,
)
from weyldisc.recurrence import Trajectory

from conftest import fabs, fdiff


def _pair(model, lam, top):
    phi = propagate(model, lam, BoundaryData(0, -1), top)
    psi = propagate(model, lam, BoundaryData(1, 0), top)
    return phi, psi


def test_quasi_difference_unit_slope(models):
    free = models["free"]
    # p = 1, c = 0, y1(t) = t: quasi-difference is the unit forward slope
    y1 = tuple(range(-1, 6))
    got = quasi_difference(free, y1, (0,) * 6, -1, 4)
    assert [fdiff(v, 1) for v in got] == [0] * 6
    assert fdiff(quasi_difference(free, y1, (0,) * 6, 3, 3)[0], 1) == 0


def test_quasi_difference_free_psi(models):
    free = models["free"]
    _, psi = _pair(free, 1j, 5)
    got = quasi_difference(free, psi.y1, psi.y2, -1, 5)
    assert fdiff(got[1], -1j) == 0
    assert got == psi.y1q
    assert quasi_difference(free, psi.y1, psi.y2, 0, 0) == (got[1],)


def test_quasi_difference_reduces_without_coupling(models):
    model = models["ex4.1a"]  # c == 0
    k = model.kernel
    y1 = tuple(k.real(v) for v in (9, 8, 6, 3, 2, 5, 1))  # y1(-1 .. 5)
    y2 = (k.real(7),) * 6
    got = quasi_difference(model, y1, y2, 3, 4)
    assert fdiff(got[0], model.coeff("p", 3) * (k.real(5) - 2)) == 0
    assert fdiff(got[1], model.coeff("p", 4) * (k.real(1) - 5)) == 0
    with pytest.raises(WindowError):
        quasi_difference(model, y1, y2, 3, 5)  # y1 stops at 5
    with pytest.raises(WindowError):
        quasi_difference(model, y1, y2[:4], 3, 4)  # y2 stops at 2


def test_bracket_diagonal_value(models):
    free = models["free"]
    _, psi = _pair(free, 1j, 5)
    assert fdiff(bracket(psi, psi, 0), 2j) == 0


def test_bracket_of_real_trajectory_vanishes(models):
    free = models["free"]
    traj = propagate(free, 1.0, BoundaryData(1, 0), 8)
    for t in range(-1, 8):
        assert fabs(bracket(traj, traj, t)) == 0


def test_bracket_antisymmetry_random(models):
    assert bracket_antisymmetry_worst(models["ex4.1b"], 15, pairs=40) < 1e-70


def test_green_identity_on_random_pairs(models):
    for name in ("free", "ex4.1b", "ex4.2b"):
        assert green_random_worst(models[name], 20, pairs=30) < 1e-70, name


def test_green_identity_real_inputs_real_defect(models):
    model = models["ex4.1a"]
    rng = random.Random(5)
    k = model.kernel
    seqs = [
        [(k.complex(rng.uniform(-1, 1)), k.complex(rng.uniform(-1, 1)))
         for _ in range(13)]
        for _ in range(2)
    ]
    defect = green_defect(model, seqs[0], seqs[1], 10)
    # real data and real coefficients: both sides real, defect included
    assert fabs(defect.imag) == 0


def test_green_identity_equal_arguments(models):
    model = models["ex4.1b"]
    rng = random.Random(9)
    k = model.kernel
    seq = [(k.complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            k.complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
           for _ in range(13)]
    assert fabs(green_defect(model, seq, seq, 10)) < 1e-70


def test_lagrange_identity_real_parameters(models):
    """Real lam = mu with real solutions: both sides vanish."""
    free = models["free"]
    phi = propagate(free, 0.5, BoundaryData(0, -1), 15)
    psi = propagate(free, 0.5, BoundaryData(1, 0), 15)
    assert fabs(lagrange_identity_defect(phi, psi, 12)) < 1e-70
    assert fabs(bracket(phi, psi, 12) - bracket(phi, psi, -1)) < 1e-70


def test_green_window_validation(models):
    with pytest.raises(Exception, match="entries"):
        green_defect(models["free"], [(0, 0)] * 5, [(0, 0)] * 5, 10)


def test_lagrange_identity_solution_pairs(models):
    for name, model in models.items():
        phi, psi = _pair(model, 1j, 25)
        assert lagrange_relative_defect(model, psi, psi, 20) < 1e-70, name
        other = propagate(model, 2j, BoundaryData(1, 0), 25)
        assert lagrange_relative_defect(model, other, psi, 20) < 1e-70, name


def test_lagrange_identity_reproduces_diagonal_bracket(models):
    """With equal nonreal parameters and equal solutions the identity is
    the diagonal-bracket growth formula."""
    free = models["free"]
    _, psi = _pair(free, 1j, 15)
    k = free.kernel
    defect = lagrange_identity_defect(psi, psi, 10)
    assert fabs(defect) < 1e-70
    total = k.real(0)
    for y1, y2 in zip(*psi.component_columns(0, 10)):
        total = total + abs(y1) ** 2 + abs(y2) ** 2
    want = k.complex(0, 2) * total
    assert fdiff(bracket(psi, psi, 10), want) / fabs(want) < 1e-70


def test_lagrange_rejects_non_solutions(models):
    free = models["free"]
    k = free.kernel
    junk = Trajectory(
        model=free, lam=k.complex(0, 1), top=6,
        y1=tuple(k.complex(n, 1) for n in range(9)),
        y2=tuple(k.complex(0) for _ in range(8)),
        y1q=tuple(k.complex(1) for _ in range(8)),
    )
    _, psi = _pair(free, 1j, 6)
    with pytest.raises(NumericalInvariantError, match="does not solve"):
        lagrange_identity_defect(junk, psi, 5)


def test_wronskian_canonical_pair_is_one(models):
    for name, model in models.items():
        phi, psi = _pair(model, 1j, 40)
        for t in (-1, 0, 7, 25, 39):
            w = wronskian(phi, psi, t)
            scale = (
                fabs(phi.y1_at(t + 1)) * fabs(psi.y1q_at(t))
                + fabs(phi.y1q_at(t)) * fabs(psi.y1_at(t + 1))
                + 1
            )
            assert fdiff(w, 1) <= scale * 1e-70, name


def test_wronskian_of_equal_solutions_vanishes(models):
    free = models["free"]
    _, psi = _pair(free, 1j, 10)
    assert fabs(wronskian(psi, psi, 4)) == 0


def test_wronskian_requires_matching_lam(models):
    free = models["free"]
    _, psi = _pair(free, 1j, 10)
    other = propagate(free, 2j, BoundaryData(1, 0), 10)
    with pytest.raises(ValueError, match="same lam"):
        wronskian(psi, other, 3)


def test_vop_trivial_when_parameters_match(models):
    free = models["free"]
    basis = _pair(free, 1j, 20)
    res = vop_reconstruct(basis, basis[1], 3, 10)
    assert fdiff(res.k1, 1) < 1e-70
    assert fabs(res.k2) < 1e-70
    assert fabs(res.defect_y1) < 1e-70


def test_vop_reconstruction_across_parameters(models):
    for name in ("free", "ex4.1a"):
        model = models[name]
        basis = _pair(model, 1j, 26)
        z = propagate(model, 2j, BoundaryData(1, 1), 26)
        res = vop_reconstruct(basis, z, 3, 10)
        assert fabs(res.defect_y1) < 1e-50, name
        assert fabs(res.defect_y2) < 1e-50, name


def test_vop_singular_matching_is_refused(models):
    free = models["free"]
    k = free.kernel
    ones = tuple(k.complex(1) for _ in range(13))
    degenerate = Trajectory(model=free, lam=k.complex(0, 1), top=11,
                            y1=ones, y2=ones[:-1], y1q=ones[:-1])
    z = propagate(free, 2j, BoundaryData(1, 0), 11)
    with pytest.raises(MatchingSingularError):
        vop_reconstruct((degenerate, degenerate), z, 3, 10)
