"""The runnable invariant suite.

Every structural identity of the system, evaluated on a concrete model
and reported as a named, normalized worst-case defect.  The CLI `check`
subcommand prints one line per entry; the acceptance tests reuse the
helpers with their own pinned tolerances.

``run_suite`` is the one place that solves: it builds one step table per
(lam, window), steps every solution the suite needs through it and
computes the disc rows once.  The helpers take that solved data (step
table, trajectories, disc list) together with the window they evaluate,
which may be shorter than the data: a table or trajectory on a-1 .. span
agrees bit for bit with one built on a-1 .. top on their common part.

Defects are normalized by the magnitude of the terms entering each
identity, so a PASS means "the identity holds to roughly the working
precision", independent of how violently the solutions grow.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InadmissibleLambdaError, MatchingSingularError
from .model import CoefficientSet, as_lambda_scalar
from .recurrence import (
    BoundaryData,
    StepTable,
    Trajectory,
    max_relative_residual,
    oracle_three_term,
    propagate_columns,
    step_table,
    y2_relation,
)
from .structure import (
    bracket,
    green_terms,
    lagrange_identity_defect,
    vop_reconstruct,
    wronskian,
)
from .weyl import (
    _disc_rows,
    chi,
    corner_values,
    fundamental_pair,
    m_point,
    on_circle_defect,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


def _f(kernel, x) -> float:
    try:
        return float(kernel.to_mpf(x))
    except (OverflowError, ValueError):
        return float("inf")


def oracle_deviation(direct: Trajectory, top: int) -> float:
    """Pointwise deviation on a-1 .. top between a transfer-matrix solution
    and the scalar three-term oracle solved from the same boundary data,
    relative to the largest sample."""
    model = direct.model
    k = model.kernel
    direct = direct.cut(top)
    with model.workprec():
        # BoundaryData is (y1(a), y1q(a-1)), which the solution carries
        bd = BoundaryData(direct.y1_at(model.a), direct.y1q_at(model.a - 1))
        oracle = oracle_three_term(model, direct.lam, bd, top)
        worst = 0.0
        for seq_d, seq_o in ((direct.y1, oracle.y1), (direct.y2, oracle.y2),
                             (direct.y1q, oracle.y1q)):
            sup = max(_f(k, k.absval(v)) for v in seq_d) or 1.0
            for vd, vo in zip(seq_d, seq_o):
                worst = max(worst, _f(k, k.absval(vd - vo)) / sup)
        return worst


def transfer_det_deviation(table: StepTable, top: int) -> float:
    """|det(I - A(t)) - 1| over t = a .. top, relative to the magnitudes
    of the two products that make the determinant."""
    model = table.model
    k = model.kernel
    rows = slice(table.index(model.a), table.index(top) + 1)
    with model.workprec():
        worst = 0.0
        for a11, a12, a21, a22 in zip(
            table.a11[rows], table.a12[rows], table.a21[rows], table.a22[rows]
        ):
            diag = (1 - a11) * (1 - a22)
            off = a12 * a21
            scale = k.absval(diag) + k.absval(off) + 1
            worst = max(worst, _f(k, k.absval(diag - off - 1) / scale))
        return worst


def pair_det_deviation(phi: Trajectory, psi: Trajectory, top: int) -> float:
    """AD - BC - 1 relative to the product magnitudes, over N = a .. top."""
    model = phi.model
    k = model.kernel
    with model.workprec():
        worst = 0.0
        for n in range(model.a, top + 1):
            a_v, b_v = phi.state(n)
            c_v, d_v = psi.state(n)
            scale = k.absval(a_v * d_v) + k.absval(b_v * c_v) + 1
            worst = max(worst, _f(k, k.absval(a_v * d_v - b_v * c_v - 1) / scale))
        return worst


def wronskian_deviation(phi: Trajectory, psi: Trajectory, top: int) -> float:
    """Deviation of the canonical-pair pairing from 1 over a-1 .. top,
    relative to the sampled product magnitudes."""
    model = phi.model
    k = model.kernel
    with model.workprec():
        worst = 0.0
        for t in range(model.a - 1, top + 1):
            w = wronskian(phi, psi, t)
            scale = (
                k.absval(phi.y1_at(t + 1) * psi.y1q_at(t))
                + k.absval(phi.y1q_at(t) * psi.y1_at(t + 1))
                + 1
            )
            worst = max(worst, _f(k, k.absval(w - 1) / scale))
        return worst


def residual_deviation(phi: Trajectory, psi: Trajectory, top: int) -> float:
    """Largest relative equation residual of either solution on a-1 .. top."""
    return max(_residual(phi, top), _residual(psi, top))


def _residual(traj: Trajectory, top: int) -> float:
    """Largest relative equation residual of one solution on a-1 .. top."""
    model = traj.model
    with model.workprec():
        return max_relative_residual(model, traj.cut(top))


def _draw_complex(k, rng: random.Random, count: int) -> list:
    """``count`` complex values with both parts uniform in [-1, 1], real
    part drawn first."""
    return [k.complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count)]


def random_pair_sequences(model: CoefficientSet, top: int, rng: random.Random):
    k = model.kernel
    n = top + 1 - (model.a - 1) + 1
    y = _draw_complex(k, rng, 2 * n)
    z = _draw_complex(k, rng, 2 * n)
    return list(zip(y[0::2], y[1::2])), list(zip(z[0::2], z[1::2]))


def green_relative_defect(model: CoefficientSet, y, z, top: int) -> float:
    """Green's formula defect normalized by the inner-product magnitudes."""
    k = model.kernel
    with model.workprec():
        defect, rows = green_terms(model, y, z, top)
        scale = k.real(1)
        # rows start at t = a, which is index 1 of sequences from a-1
        for idx, ((ly1, ly2), (lz1, lz2)) in enumerate(rows, 1):
            scale = scale + (k.absval(ly1) + k.absval(ly2)) * (
                k.absval(z[idx][0]) + k.absval(z[idx][1])
            )
            scale = scale + (k.absval(lz1) + k.absval(lz2)) * (
                k.absval(y[idx][0]) + k.absval(y[idx][1])
            )
        return _f(k, k.absval(defect) / scale)


def green_random_worst(
    model: CoefficientSet, top: int, pairs: int, seed: int = 20260809
) -> float:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(pairs):
        y, z = random_pair_sequences(model, top, rng)
        worst = max(worst, green_relative_defect(model, y, z, top))
    return worst


def lagrange_relative_defect(model, phi, psi, top: int, *, residuals=None) -> float:
    """Defect normalized by the magnitudes of every term entering the
    identity, including the bracket products (which may individually dwarf
    the bracket values when the solutions grow fast).  ``residuals`` are
    the max relative residuals of phi and psi when already swept (see
    ``lagrange_identity_defect``)."""
    k = model.kernel
    with model.workprec():
        defect = lagrange_identity_defect(phi, psi, top, residuals=residuals)
        scale = k.real(1)
        for n in (top, model.a - 1):
            scale = scale + k.absval(phi.y1_at(n + 1)) * k.absval(psi.y1q_at(n))
            scale = scale + k.absval(phi.y1q_at(n)) * k.absval(psi.y1_at(n + 1))
        gap = k.absval(phi.lam - k.conj(psi.lam))
        for t in range(model.a, top + 1):
            p1, p2 = phi.component_pair(t)
            s1, s2 = psi.component_pair(t)
            scale = scale + gap * (k.absval(p1) + k.absval(p2)) * (
                k.absval(s1) + k.absval(s2)
            )
        return _f(k, k.absval(defect) / scale)


def bracket_antisymmetry_worst(
    model: CoefficientSet, top: int, pairs: int, seed: int = 20260811
) -> float:
    """[y, z] = -conj([z, y]) on random synthetic trajectories."""
    k = model.kernel
    rng = random.Random(seed)
    worst = 0.0
    with model.workprec():
        def draw_traj():
            n = top + 1 - (model.a - 1)
            return Trajectory(
                model=model, lam=k.complex(0, 1), top=top,
                y1=tuple(_draw_complex(k, rng, n + 1)),
                y2=tuple(_draw_complex(k, rng, n)),
                y1q=tuple(_draw_complex(k, rng, n)),
            )
        for _ in range(pairs):
            y, z = draw_traj(), draw_traj()
            for t in (model.a - 1, model.a, top - 1):
                lhs = bracket(y, z, t)
                rhs = -k.conj(bracket(z, y, t))
                worst = max(worst, _f(k, k.absval(lhs - rhs)))
    return worst


def disc_sum_identity_worst(model, discs, psi_sums, lam) -> float:
    """r_N * 2 Im(lam) * S_N = 1."""
    k = model.kernel
    with model.workprec():
        sums = dict(psi_sums)
        lam_s = as_lambda_scalar(model, lam)
        worst = 0.0
        for disc in discs:
            value = disc.radius * 2 * k.absval(k.im(lam_s)) * sums[disc.n]
            worst = max(worst, abs(_f(k, value) - 1.0))
        return worst


def disc_nesting_worst(model, discs) -> float:
    """max over N < N' of |O_N' - O_N| - (r_N - r_N'), positive part."""
    k = model.kernel
    with model.workprec():
        worst = -float("inf")
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                gap = (
                    k.absval(discs[j].center - discs[i].center)
                    - (discs[i].radius - discs[j].radius)
                )
                worst = max(worst, _f(k, gap))
        return max(worst, 0.0)


def disc_corner_route_worst(phi: Trajectory, psi: Trajectory, discs, top: int) -> float:
    """Agreement of the summed-bracket discs of (phi, psi) up to N = top
    with the direct corner-value brackets, checked where the corner
    products keep enough mantissa headroom over the bracket value for a
    meaningful comparison."""
    model = phi.model
    k = model.kernel
    bits = model.precision.bits
    with model.workprec():
        headroom = k.real(2) ** (bits // 4)
        worst = 0.0
        checked = 0
        for disc in discs:
            n = disc.n
            if n > top:
                break
            c_v, d_v = psi.state(n)
            a_v, b_v = phi.state(n)
            prod = (
                k.absval(c_v) * k.absval(d_v)
                + k.absval(a_v) * k.absval(d_v)
                + k.absval(b_v) * k.absval(c_v)
            )
            if prod * disc.radius > headroom:  # prod/|diag| beyond headroom
                continue
            diag = bracket(psi, psi, n)
            mixed = bracket(phi, psi, n)
            if diag == 0:
                continue
            checked += 1
            worst = max(
                worst,
                _f(k, k.absval(1 / k.absval(diag) - disc.radius) / disc.radius),
                _f(k, k.absval(-mixed / diag - disc.center)
                   / (1 + k.absval(disc.center))),
            )
        return worst if checked else float("inf")


def m_sweep_worst(phi: Trajectory, psi: Trajectory, discs, top: int, betas: int = 8) -> float:
    """m-points for a beta sweep must lie on the circle and satisfy the
    on-circle sum identity, relative to the disc radius.

    The sweep runs at the largest window up to N = top whose radius keeps
    comfortable headroom above the absolute accuracy of the O(1)-sized
    m-points; beyond that the relative comparison measures only roundoff.
    """
    model = phi.model
    k = model.kernel
    phi, psi = phi.cut(top), psi.cut(top)
    lam_s = phi.lam
    with model.workprec():
        discs = [d for d in discs if d.n <= top]
        usable = [d for d in discs if _f(k, d.radius) >= 1e-8]
        disc = usable[-1] if usable else discs[0]
        n = disc.n
        corner = corner_values((phi, psi), n)
        worst = 0.0
        for i in range(betas):
            beta = math.pi * i / betas
            z = math.inf if beta == 0 else k.cos(beta) / k.sin(beta)
            m_val = m_point(corner, z)
            worst = max(
                worst,
                abs(_f(k, k.absval(m_val - disc.center) / disc.radius) - 1.0),
            )
            chi_traj = chi((phi, psi), m_val)
            defect = on_circle_defect(model, chi_traj, m_val, lam_s, n)
            scale = k.absval(k.im(m_val) / k.im(lam_s)) + 1
            worst = max(worst, _f(k, k.absval(defect) / scale))
        return worst


def y2_two_route_worst(traj: Trajectory, top: int) -> float:
    """The state-based reconstruction of y2 against its defining relation
    c/(lam-d) dy1 + h/(lam-d) y1 along a propagated solution on a-1 .. top."""
    model = traj.model
    k = model.kernel
    traj = traj.cut(top)
    lam_s = traj.lam
    with model.workprec():
        sup = max(_f(k, k.absval(v)) for v in traj.y2)
        sup = max(sup, max(_f(k, k.absval(v)) for v in traj.y1))
        worst = 0.0
        for t in range(model.a - 1, top + 1):
            direct = y2_relation(model, lam_s, traj.y1_at(t), traj.y1_at(t + 1), t)
            worst = max(worst, _f(k, k.absval(direct - traj.y2_at(t))) / sup)
        return worst


def vop_worst(basis: tuple[Trajectory, Trajectory], solutions, anchor: int,
              t_check: int) -> float:
    """Reconstruction defects of each solution (all at one lam) from the
    basis (phi, psi) at another lam, normalized by the magnitudes of the
    summed terms: the sums telescope, so the individual terms can tower
    over the reconstructed value for fast-growing families.  A singular
    matching system leaves nothing to check and reads as inf."""
    phi, psi = basis
    model = phi.model
    k = model.kernel
    with model.workprec():
        worst = 0.0
        for z in solutions:
            gap = k.absval(phi.lam - z.lam)
            try:
                res = vop_reconstruct(basis, z, anchor, t_check)
            except MatchingSingularError:
                return float("inf")
            term_mag = k.real(0)
            for s in range(anchor + 1, t_check + 1):
                z1, z2 = z.component_pair(s)
                z_mag = k.absval(z1) + k.absval(z2)
                for traj in (phi, psi):
                    t1, t2 = traj.component_pair(s)
                    term_mag = term_mag + (k.absval(t1) + k.absval(t2)) * z_mag
            k_mag = k.absval(res.k1) + k.absval(res.k2)
            for comp, defect in (("y1", res.defect_y1), ("y2", res.defect_y2)):
                basis_mag = (
                    k.absval(psi.y1_at(t_check)) + k.absval(phi.y1_at(t_check))
                    if comp == "y1"
                    else k.absval(psi.y2_at(t_check)) + k.absval(phi.y2_at(t_check))
                )
                value_mag = k.absval(
                    z.y1_at(t_check) if comp == "y1" else z.y2_at(t_check)
                )
                scale = 1 + value_mag + (k_mag + gap * term_mag) * (basis_mag + 1)
                worst = max(worst, _f(k, k.absval(defect) / scale))
        return worst


def run_suite(model: CoefficientSet, lam, alpha: float = 0.0,
              top: int = 40, pairs: int = 25) -> list[CheckResult]:
    """The named invariants on one model at one nonreal lam.

    Solves once per (lam, window): one step table at lam and one at
    lam + i over a-1 .. span, where span reaches the four points past
    t_check that the variation-of-parameters check reads, and one disc
    pass over a .. top.
    """
    bits = model.precision.bits
    point_tol = 2.0 ** (-(bits - 8))
    # aggregate identities accumulate roundoff over the window; at low
    # (native) precision the margin shrinks to half the mantissa
    agg_tol = 2.0 ** (-(bits - 56)) if bits >= 150 else 2.0 ** (-(bits // 2))
    t_vop = min(top, 16)
    span = max(top, t_vop + 4)
    k = model.kernel
    with model.workprec():
        lam_s = as_lambda_scalar(model, lam)
        # the disc lines need a nonreal lam: refuse a real one before solving
        if k.im(lam_s) == 0:
            raise InadmissibleLambdaError("the invariant suite requires a nonreal lam")
        table = step_table(model, lam_s, span)
        phi, psi = fundamental_pair(model, lam_s, alpha, span, table=table)
        basis = fundamental_pair(model, lam_s, 0.0, span, table=table)
        data = (BoundaryData(1, 0), BoundaryData(1, 1))
        sol10, sol11 = propagate_columns(table, data)
        shifted = propagate_columns(step_table(model, lam_s + k.complex(0, 1), span), data)
        discs, psi_sums = _disc_rows(model, phi, psi, lam_s, top)
    # one residual sweep per distinct solution: phi and psi make the
    # equation-residual line, psi and the lam + i solution are the Lagrange
    # lines' solution gates (each on its whole a-1 .. top trajectory)
    psi_top, other_top = psi.cut(top), shifted[0].cut(top)
    res_phi, res_psi, res_other = (_residual(s, top) for s in (phi, psi, other_top))

    results = [
        CheckResult("transfer_det_unit", transfer_det_deviation(table, top), point_tol),
        CheckResult("oracle_agreement", oracle_deviation(sol10, top), agg_tol),
        CheckResult("pair_det_unit", pair_det_deviation(phi, psi, top), agg_tol),
        CheckResult("wronskian_constant", wronskian_deviation(phi, psi, top), agg_tol),
        CheckResult("equation_residual", max(res_phi, res_psi), agg_tol),
        CheckResult("green_identity_random", green_random_worst(model, min(top, 20), pairs), agg_tol),
        CheckResult("bracket_antisymmetry", bracket_antisymmetry_worst(model, min(top, 20), pairs), point_tol),
        CheckResult("lagrange_identity_equal_lam", lagrange_relative_defect(
            model, psi_top, psi_top, top, residuals=(res_psi, res_psi)), agg_tol),
        CheckResult("lagrange_identity_two_lams", lagrange_relative_defect(
            model, other_top, psi_top, top, residuals=(res_other, res_psi)), agg_tol),
        CheckResult("disc_radius_sum_identity", disc_sum_identity_worst(model, discs, psi_sums, lam), agg_tol),
        CheckResult("disc_nesting", disc_nesting_worst(model, discs), agg_tol),
        CheckResult("disc_corner_route", disc_corner_route_worst(phi, psi, discs, min(top, 24)), agg_tol),
        CheckResult("m_sweep_on_circle", m_sweep_worst(phi, psi, discs, min(top, 16)), agg_tol),
        CheckResult("y2_reconstruction", y2_two_route_worst(sol11, top), agg_tol),
        CheckResult("variation_of_parameters", vop_worst(basis, shifted, 3, t_vop), agg_tol),
    ]
    return results
