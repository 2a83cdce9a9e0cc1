"""The runnable invariant suite.

Every structural identity of the system, evaluated on a concrete model
and reported as a named, normalized worst-case defect.  The CLI `check`
subcommand prints one line per entry; the acceptance tests reuse the
helpers with their own pinned tolerances.

Defects are normalized by the magnitude of the terms entering each
identity, so a PASS means "the identity holds to roughly the working
precision", independent of how violently the solutions grow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import CoefficientSet, as_lambda_scalar
from .recurrence import (
    BoundaryData,
    max_relative_residual,
    oracle_three_term,
    propagate,
    step_table,
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


def oracle_deviation(model: CoefficientSet, lam, top: int, bd=BoundaryData(1, 0)) -> float:
    """Pointwise deviation between the transfer-matrix solver and the
    scalar three-term oracle, relative to the largest sample."""
    k = model.kernel
    with model.workprec():
        direct = propagate(model, lam, bd, top)
        oracle = oracle_three_term(model, lam, bd, top)
        worst = 0.0
        for seq_d, seq_o in ((direct.y1, oracle.y1), (direct.y2, oracle.y2),
                             (direct.y1q, oracle.y1q)):
            sup = max(_f(k, k.absval(v)) for v in seq_d) or 1.0
            for vd, vo in zip(seq_d, seq_o):
                worst = max(worst, _f(k, k.absval(vd - vo)) / sup)
        return worst


def transfer_det_deviation(model: CoefficientSet, lam, top: int) -> float:
    k = model.kernel
    with model.workprec():
        table = step_table(model, lam, top)
        worst = 0.0
        for t in range(model.a, top + 1):
            sm = table.matrix(t)
            worst = max(worst, _f(k, k.absval(sm.det_i_minus_a() - 1)))
        return worst


def pair_det_deviation(model: CoefficientSet, lam, alpha: float, top: int) -> float:
    """AD - BC - 1 relative to the product magnitudes, over all N."""
    k = model.kernel
    with model.workprec():
        phi, psi = fundamental_pair(model, lam, alpha, top)
        worst = 0.0
        for n in range(model.a, top + 1):
            a_v, b_v = phi.state(n)
            c_v, d_v = psi.state(n)
            scale = k.absval(a_v * d_v) + k.absval(b_v * c_v) + 1
            worst = max(worst, _f(k, k.absval(a_v * d_v - b_v * c_v - 1) / scale))
        return worst


def wronskian_deviation(model: CoefficientSet, lam, alpha: float, top: int) -> float:
    """Deviation of the canonical-pair pairing from 1, relative to the
    sampled product magnitudes."""
    k = model.kernel
    with model.workprec():
        phi, psi = fundamental_pair(model, lam, alpha, top)
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


def residual_deviation(model: CoefficientSet, lam, alpha: float, top: int) -> float:
    with model.workprec():
        phi, psi = fundamental_pair(model, lam, alpha, top)
        return max(
            max_relative_residual(model, phi), max_relative_residual(model, psi)
        )


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


def lagrange_relative_defect(model, phi, psi, top: int) -> float:
    """Defect normalized by the magnitudes of every term entering the
    identity, including the bracket products (which may individually dwarf
    the bracket values when the solutions grow fast)."""
    k = model.kernel
    with model.workprec():
        defect = lagrange_identity_defect(phi, psi, top)
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
    from .recurrence import Trajectory

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


def disc_corner_route_worst(model, lam, alpha: float, top: int) -> float:
    """Agreement of the summed-bracket disc with the direct corner-value
    brackets, checked where the corner products keep enough mantissa
    headroom over the bracket value for a meaningful comparison."""
    k = model.kernel
    bits = model.precision.bits
    with model.workprec():
        lam_s = as_lambda_scalar(model, lam)
        phi, psi = fundamental_pair(model, lam_s, alpha, top)
        discs, _ = _disc_rows(model, phi, psi, lam_s, top)
        headroom = k.real(2) ** (bits // 4)
        worst = 0.0
        checked = 0
        for disc in discs:
            n = disc.n
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


def m_sweep_worst(model, lam, alpha: float, top: int, betas: int = 8) -> float:
    """m-points for a beta sweep must lie on the circle and satisfy the
    on-circle sum identity, relative to the disc radius.

    The sweep runs at the largest window whose radius keeps comfortable
    headroom above the absolute accuracy of the O(1)-sized m-points;
    beyond that the relative comparison measures only roundoff.
    """
    import math

    k = model.kernel
    with model.workprec():
        lam_s = as_lambda_scalar(model, lam)
        phi, psi = fundamental_pair(model, lam_s, alpha, top)
        discs, _ = _disc_rows(model, phi, psi, lam_s, top)
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


def y2_two_route_worst(model, lam, top: int, bd=BoundaryData(1, 1)) -> float:
    """The state-based reconstruction of y2 against its defining relation
    c/(lam-d) dy1 + h/(lam-d) y1 along a propagated solution."""
    k = model.kernel
    with model.workprec():
        lam_s = as_lambda_scalar(model, lam)
        traj = propagate(model, lam_s, bd, top)
        sup = max(_f(k, k.absval(v)) for v in traj.y2)
        sup = max(sup, max(_f(k, k.absval(v)) for v in traj.y1))
        worst = 0.0
        for t in range(model.a - 1, top + 1):
            den = lam_s - model.coeff("d", t)
            direct = (
                model.coeff("c", t) / den * (traj.y1_at(t + 1) - traj.y1_at(t))
                + model.coeff("h", t) / den * traj.y1_at(t)
            )
            worst = max(worst, _f(k, k.absval(direct - traj.y2_at(t))) / sup)
        return worst


def vop_worst(model, lam0, lam, anchor: int, t_check: int) -> float:
    """Reconstruction defects normalized by the magnitudes of the summed
    terms: the sums telescope, so the individual terms can tower over the
    reconstructed value for fast-growing families."""
    k = model.kernel
    with model.workprec():
        top = t_check + 4
        phi, psi = fundamental_pair(model, lam0, 0.0, top)
        worst = 0.0
        gap = k.absval(phi.lam - as_lambda_scalar(model, lam))
        for bd in (BoundaryData(1, 0), BoundaryData(1, 1)):
            z = propagate(model, lam, bd, top)
            res = vop_reconstruct((phi, psi), z, anchor, t_check)
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
    """The named invariants on one model at one nonreal lam."""
    bits = model.precision.bits
    point_tol = 2.0 ** (-(bits - 8))
    # aggregate identities accumulate roundoff over the window; at low
    # (native) precision the margin shrinks to half the mantissa
    agg_tol = 2.0 ** (-(bits - 56)) if bits >= 150 else 2.0 ** (-(bits // 2))
    k = model.kernel
    with model.workprec():
        lam_s = as_lambda_scalar(model, lam)
        phi, psi = fundamental_pair(model, lam_s, alpha, top)
        discs, psi_sums = _disc_rows(model, phi, psi, lam_s, top)
        phi2 = propagate(model, _second_lam(model, lam_s), BoundaryData(1, 0), top)

    results = [
        CheckResult("transfer_det_unit", transfer_det_deviation(model, lam, top), point_tol),
        CheckResult("oracle_agreement", oracle_deviation(model, lam, top), agg_tol),
        CheckResult("pair_det_unit", pair_det_deviation(model, lam, alpha, top), agg_tol),
        CheckResult("wronskian_constant", wronskian_deviation(model, lam, alpha, top), agg_tol),
        CheckResult("equation_residual", residual_deviation(model, lam, alpha, top), agg_tol),
        CheckResult("green_identity_random", green_random_worst(model, min(top, 20), pairs), agg_tol),
        CheckResult("bracket_antisymmetry", bracket_antisymmetry_worst(model, min(top, 20), pairs), point_tol),
        CheckResult("lagrange_identity_equal_lam", lagrange_relative_defect(model, psi, psi, top), agg_tol),
        CheckResult("lagrange_identity_two_lams", lagrange_relative_defect(model, phi2, psi, top), agg_tol),
        CheckResult("disc_radius_sum_identity", disc_sum_identity_worst(model, discs, psi_sums, lam), agg_tol),
        CheckResult("disc_nesting", disc_nesting_worst(model, discs), agg_tol),
        CheckResult("disc_corner_route", disc_corner_route_worst(model, lam, alpha, min(top, 24)), agg_tol),
        CheckResult("m_sweep_on_circle", m_sweep_worst(model, lam, alpha, min(top, 16)), agg_tol),
        CheckResult("y2_reconstruction", y2_two_route_worst(model, lam, top), agg_tol),
        CheckResult("variation_of_parameters", vop_worst(model, lam, _second_lam(model, lam), 3, min(top, 16)), agg_tol),
    ]
    return results


def _second_lam(model, lam):
    k = model.kernel
    return as_lambda_scalar(model, lam) + k.complex(0, 1)
