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
The difference operator is applied in one place, the windowed
``recurrence.operator_window``: the equation-residual line, the Lagrange
gates and Green's formula all take their rows from it, each solution or
random sequence walked once.  Random draws are converted to the kernel
only where a check reads them.

Defects are normalized by the magnitude of the terms entering each
identity, so a PASS means "the identity holds to roughly the working
precision", independent of how violently the solutions grow.  Three
rules keep the suite to the big-float work its printed values read:

* a zero defect is never scaled.  A defect (or residual row) that is
  exactly zero has only finite terms, since an inf or nan term makes the
  sum nonzero or nan, so its scale is finite and at least 1 and the
  quotient is exactly 0.0 without it.  The test is the scalar's truth
  value, false only for an exact zero (nan is true), which mpmath
  answers without converting the 0 that ``!= 0`` would;
* each boundary datum is stepped once: at alpha = 0 the basis of the
  variation-of-parameters line is the pair itself, and the oracle line
  starts from the basis' second solution;
* the windows count from the grid origin a: each line reads the same
  offsets from a on a model on a .. a+40 as on one on 0 .. 40.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    InadmissibleLambdaError,
    MatchingSingularError,
    NumericalInvariantError,
)
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


def oracle_deviation(direct: Trajectory, top: int, *,
                     table: StepTable | None = None) -> float:
    """Pointwise deviation on a-1 .. top between a transfer-matrix solution
    and the scalar three-term oracle solved from the same boundary data,
    relative to the largest sample.  ``table``, when given, is the step
    table of (model, lam) on a-1 .. top, which the oracle then reads."""
    model = direct.model
    direct = direct.cut(top)
    # BoundaryData is (y1(a), y1q(a-1)), which the solution carries
    bd = BoundaryData(direct.y1_at(model.a), direct.y1q_at(model.a - 1))
    oracle = oracle_three_term(model, direct.lam, bd, top, table=table)
    worst = 0.0
    for seq_d, seq_o in ((direct.y1, oracle.y1), (direct.y2, oracle.y2),
                         (direct.y1q, oracle.y1q)):
        gaps = [float(abs(vd - vo)) for vd, vo in zip(seq_d, seq_o)]
        if any(gaps):
            sup = max(float(abs(v)) for v in seq_d) or 1.0
            for gap in gaps:
                worst = max(worst, gap / sup)
    return worst


def transfer_det_deviation(table: StepTable, top: int) -> float:
    """|det(I - A(t)) - 1| over t = a .. top, relative to the magnitudes
    of the two products that make the determinant."""
    worst = 0.0
    # the step entries of t = a .. top: 1 - a22, a12, a21, 1 - a11
    for m11, a12, a21, m22 in table.steps[:table.index(top)]:
        diag = m22 * m11
        off = a12 * a21
        dev = diag - off - 1
        if dev:
            worst = max(worst, float(abs(dev) / (abs(diag) + abs(off) + 1)))
    return worst


def _pairing_worst(phi: Trajectory, psi: Trajectory, first: int, top: int) -> float:
    """Largest |AD - BC - 1| / (|AD| + |BC| + 1) over t = first .. top, with
    (A, B) and (C, D) the states (y1(t+1), y1q(t)) of phi and psi: AD - BC
    is the pair's transfer determinant and their ``structure.wronskian``."""
    worst = 0.0
    for a_v, b_v, c_v, d_v in zip(*phi.state_columns(first, top),
                                  *psi.state_columns(first, top)):
        ad, bc = a_v * d_v, b_v * c_v
        dev = ad - bc - 1
        if dev:
            worst = max(worst, float(abs(dev) / (abs(ad) + abs(bc) + 1)))
    return worst


def pair_det_deviation(phi: Trajectory, psi: Trajectory, top: int) -> float:
    """AD - BC - 1 relative to the product magnitudes, over N = a .. top."""
    return _pairing_worst(phi, psi, phi.model.a, top)


def wronskian_deviation(phi: Trajectory, psi: Trajectory, top: int) -> float:
    """Deviation of the canonical-pair pairing from 1 over a-1 .. top,
    relative to the sampled product magnitudes."""
    if phi.lam != psi.lam:
        raise ValueError("wronskian requires both solutions at the same lam")
    return _pairing_worst(phi, psi, phi.model.a - 1, top)


def residual_deviation(phi: Trajectory, psi: Trajectory, top: int) -> float:
    """Largest relative equation residual of either solution on a-1 .. top."""
    return max(_residual(phi, top), _residual(psi, top))


def _residual(traj: Trajectory, top: int) -> float:
    """Largest relative equation residual of one solution on a-1 .. top."""
    return max_relative_residual(traj.model, traj.cut(top))


def _draw_read(k, rng: random.Random, count: int, read) -> tuple:
    """``count`` complex values with both parts uniform in [-1, 1], real
    part drawn first, but converted to the kernel only at the indices in
    ``read``; every other entry is None, so that reading it fails loudly."""
    out = [None] * count
    uniform = rng.uniform
    for i in range(count):
        re, im = uniform(-1, 1), uniform(-1, 1)
        if i in read:
            out[i] = k.complex(re, im)
    return tuple(out)


def random_pair_sequences(model: CoefficientSet, top: int, rng: random.Random):
    """Two random pair sequences (y1, y2) on a-1 .. top+1 for Green's
    formula, which reads y2 only up to top: the last y2 of each is drawn
    but left None."""
    k = model.kernel
    n = top + 1 - (model.a - 1) + 1
    read = range(2 * n - 1)
    y = _draw_read(k, rng, 2 * n, read)
    z = _draw_read(k, rng, 2 * n, read)
    return list(zip(y[0::2], y[1::2])), list(zip(z[0::2], z[1::2]))


def green_relative_defect(model: CoefficientSet, y, z, top: int) -> float:
    """Green's formula defect normalized by the inner-product magnitudes."""
    k = model.kernel
    defect, rows = green_terms(model, y, z, top)
    if not defect:
        return 0.0
    scale = k.real(1)
    # rows start at t = a, which is index 1 of sequences from a-1
    for idx, ((ly1, ly2), (lz1, lz2)) in enumerate(rows, 1):
        scale = scale + (abs(ly1) + abs(ly2)) * (abs(z[idx][0]) + abs(z[idx][1]))
        scale = scale + (abs(lz1) + abs(lz2)) * (abs(y[idx][0]) + abs(y[idx][1]))
    return float(abs(defect) / scale)


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
    ``lagrange_identity_defect``).  A trajectory that fails the solution
    gate there leaves no identity to check and reads as inf."""
    k = model.kernel
    try:
        defect = lagrange_identity_defect(phi, psi, top, residuals=residuals)
    except NumericalInvariantError:
        return float("inf")
    if not defect:
        return 0.0
    scale = k.real(1)
    for n in (top, model.a - 1):
        scale = scale + abs(phi.y1_at(n + 1)) * abs(psi.y1q_at(n))
        scale = scale + abs(phi.y1q_at(n)) * abs(psi.y1_at(n + 1))
    gap = abs(phi.lam - psi.lam.conjugate())
    for p1, p2, s1, s2 in zip(*phi.component_columns(model.a, top),
                              *psi.component_columns(model.a, top)):
        scale = scale + gap * (abs(p1) + abs(p2)) * (abs(s1) + abs(s2))
    return float(abs(defect) / scale)


def bracket_antisymmetry_worst(
    model: CoefficientSet, top: int, pairs: int, seed: int = 20260811
) -> float:
    """[y, z] = -conj([z, y]) on random synthetic trajectories.

    The bracket at t reads y1(t+1) and y1q(t), so of each drawn trajectory
    only y1 at a, a+1, top and y1q at a-1, a, top-1 are converted."""
    k = model.kernel
    rng = random.Random(seed)
    worst = 0.0
    points = (model.a - 1, model.a, top - 1)
    n = top + 1 - (model.a - 1)
    read_y1 = {t + 1 - (model.a - 1) for t in points}
    read_y1q = {t - (model.a - 1) for t in points}
    lam = k.complex(0, 1)

    def draw_traj():
        return Trajectory(
            model=model, lam=lam, top=top,
            y1=_draw_read(k, rng, n + 1, read_y1),
            y2=_draw_read(k, rng, n, ()),
            y1q=_draw_read(k, rng, n, read_y1q),
        )
    for _ in range(pairs):
        y, z = draw_traj(), draw_traj()
        for t in points:
            lhs = bracket(y, z, t)
            rhs = -bracket(z, y, t).conjugate()
            worst = max(worst, float(abs(lhs - rhs)))
    return worst


def disc_sum_identity_worst(model, discs, psi_sums, lam) -> float:
    """r_N * 2 Im(lam) * S_N = 1."""
    sums = dict(psi_sums)
    lam_s = as_lambda_scalar(model, lam)
    worst = 0.0
    for disc in discs:
        value = disc.radius * 2 * abs(lam_s.imag) * sums[disc.n]
        worst = max(worst, abs(float(value) - 1.0))
    return worst


def disc_nesting_worst(model, discs) -> float:
    """max over N < N' of |O_N' - O_N| - (r_N - r_N'), positive part."""
    worst = -float("inf")
    for i in range(len(discs)):
        for j in range(i + 1, len(discs)):
            gap = (
                abs(discs[j].center - discs[i].center)
                - (discs[i].radius - discs[j].radius)
            )
            worst = max(worst, float(gap))
    return max(worst, 0.0)


def disc_corner_route_worst(phi: Trajectory, psi: Trajectory, discs, top: int) -> float:
    """Agreement of the summed-bracket discs of (phi, psi) up to N = top
    with the direct corner-value brackets, checked where the corner
    products keep enough mantissa headroom over the bracket value for a
    meaningful comparison."""
    model = phi.model
    k = model.kernel
    bits = model.precision.bits
    headroom = k.real(2) ** (bits // 4)
    worst = 0.0
    checked = 0
    for disc in discs:
        n = disc.n
        if n > top:
            break
        c_v, d_v = psi.state(n)
        a_v, b_v = phi.state(n)
        prod = abs(c_v) * abs(d_v) + abs(a_v) * abs(d_v) + abs(b_v) * abs(c_v)
        if prod * disc.radius > headroom:  # prod/|diag| beyond headroom
            continue
        diag = bracket(psi, psi, n)
        mixed = bracket(phi, psi, n)
        if diag == 0:
            continue
        checked += 1
        worst = max(
            worst,
            float(abs(1 / abs(diag) - disc.radius) / disc.radius),
            float(abs(-mixed / diag - disc.center) / (1 + abs(disc.center))),
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
    discs = [d for d in discs if d.n <= top]
    usable = [d for d in discs if float(d.radius) >= 1e-8]
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
            abs(float(abs(m_val - disc.center) / disc.radius) - 1.0),
        )
        chi_traj = chi((phi, psi), m_val)
        defect = on_circle_defect(model, chi_traj, m_val, lam_s, n)
        scale = abs(m_val.imag / lam_s.imag) + 1
        worst = max(worst, float(abs(defect) / scale))
    return worst


def y2_two_route_worst(traj: Trajectory, top: int) -> float:
    """The state-based reconstruction of y2 against its defining relation
    c/(lam-d) dy1 + h/(lam-d) y1 along a propagated solution on a-1 .. top."""
    model = traj.model
    traj = traj.cut(top)
    lam_s = traj.lam
    gaps = [float(abs(direct - y2)) for direct, y2 in
            zip(y2_relation(model, lam_s, traj.y1, model.a - 1, top), traj.y2)]
    worst = 0.0
    if any(gaps):
        sup = max(float(abs(v)) for v in traj.y2)
        sup = max(sup, max(float(abs(v)) for v in traj.y1))
        for gap in gaps:
            worst = max(worst, gap / sup)
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
    worst = 0.0
    for z in solutions:
        try:
            res = vop_reconstruct(basis, z, anchor, t_check)
        except MatchingSingularError:
            return float("inf")
        defects = [(at, defect) for at, defect in (
            (Trajectory.y1_at, res.defect_y1), (Trajectory.y2_at, res.defect_y2),
        ) if defect]
        if not defects:
            continue
        gap = abs(phi.lam - z.lam)
        term_mag = k.real(0)
        window = (anchor + 1, t_check)
        for z1, z2, f1, f2, g1, g2 in zip(
            *z.component_columns(*window), *phi.component_columns(*window),
            *psi.component_columns(*window),
        ):
            z_mag = abs(z1) + abs(z2)
            term_mag = term_mag + (abs(f1) + abs(f2)) * z_mag
            term_mag = term_mag + (abs(g1) + abs(g2)) * z_mag
        k_mag = abs(res.k1) + abs(res.k2)
        for at, defect in defects:
            basis_mag = abs(at(psi, t_check)) + abs(at(phi, t_check))
            value_mag = abs(at(z, t_check))
            scale = 1 + value_mag + (k_mag + gap * term_mag) * (basis_mag + 1)
            worst = max(worst, float(abs(defect) / scale))
    return worst


def run_suite(model: CoefficientSet, lam, alpha: float = 0.0,
              top: int = 40, pairs: int = 25) -> list[CheckResult]:
    """The named invariants on one model at one nonreal lam.

    Solves once per (lam, window): one step table at lam and one at
    lam + i over a-1 .. span, where span reaches the four points past
    t_check that the variation-of-parameters check reads, and one disc
    pass over a .. top.  The oracle reads the lam table cut to top.  Each
    distinct boundary datum at lam is stepped once: the pair at alpha,
    the alpha-0 basis (the pair itself at alpha = 0) and (1, 1); the
    oracle line starts from (1, 0), which is the basis' second solution.

    Every window counts from the grid origin a.  The variation-of-parameters
    line is anchored at a+3: it sums from a+4, matches its constants at
    a+6 and a+7 and checks at min(top, a+16), which must be at least a+6.
    """
    a = model.a
    if top < a + 6:
        raise ValueError(
            f"the invariant suite needs top >= a + 6 = {a + 6}, the first "
            f"variation-of-parameters check point; got top={top}"
        )
    bits = model.precision.bits
    point_tol = 2.0 ** (-(bits - 8))
    # aggregate identities accumulate roundoff over the window; at low
    # (native) precision the margin shrinks to half the mantissa
    agg_tol = 2.0 ** (-(bits - 56)) if bits >= 150 else 2.0 ** (-(bits // 2))
    t_vop = min(top, a + 16)
    span = max(top, t_vop + 4)
    k = model.kernel
    lam_s = as_lambda_scalar(model, lam)
    # the disc lines need a nonreal lam: refuse a real one before solving
    if lam_s.imag == 0:
        raise InadmissibleLambdaError("the invariant suite requires a nonreal lam")
    table = step_table(model, lam_s, span)
    phi, psi = fundamental_pair(model, lam_s, alpha, span, table=table)
    unit, ones = BoundaryData(1, 0), BoundaryData(1, 1)
    if alpha == 0:
        basis, (sol11,) = (phi, psi), propagate_columns(table, (ones,))
    else:
        *basis, sol11 = propagate_columns(table, (BoundaryData(0, -1), unit, ones))
    shifted = propagate_columns(
        step_table(model, lam_s + k.complex(0, 1), span), (unit, ones))
    discs, psi_sums = _disc_rows(model, phi, psi, lam_s, top)
    # one residual sweep per distinct solution: phi and psi make the
    # equation-residual line, psi and the lam + i solution are the Lagrange
    # lines' solution gates (each on its whole a-1 .. top trajectory)
    psi_top, other_top = psi.cut(top), shifted[0].cut(top)
    res_phi, res_psi, res_other = (_residual(s, top) for s in (phi, psi, other_top))

    results = [
        CheckResult("transfer_det_unit", transfer_det_deviation(table, top), point_tol),
        CheckResult("oracle_agreement", oracle_deviation(
            basis[1], top, table=table.cut(top)), agg_tol),
        CheckResult("pair_det_unit", pair_det_deviation(phi, psi, top), agg_tol),
        CheckResult("wronskian_constant", wronskian_deviation(phi, psi, top), agg_tol),
        CheckResult("equation_residual", max(res_phi, res_psi), agg_tol),
        CheckResult("green_identity_random", green_random_worst(model, min(top, a + 20), pairs), agg_tol),
        CheckResult("bracket_antisymmetry", bracket_antisymmetry_worst(model, min(top, a + 20), pairs), point_tol),
        CheckResult("lagrange_identity_equal_lam", lagrange_relative_defect(
            model, psi_top, psi_top, top, residuals=(res_psi, res_psi)), agg_tol),
        CheckResult("lagrange_identity_two_lams", lagrange_relative_defect(
            model, other_top, psi_top, top, residuals=(res_other, res_psi)), agg_tol),
        CheckResult("disc_radius_sum_identity", disc_sum_identity_worst(model, discs, psi_sums, lam), agg_tol),
        CheckResult("disc_nesting", disc_nesting_worst(model, discs), agg_tol),
        CheckResult("disc_corner_route", disc_corner_route_worst(phi, psi, discs, min(top, a + 24)), agg_tol),
        CheckResult("m_sweep_on_circle", m_sweep_worst(phi, psi, discs, min(top, a + 16)), agg_tol),
        CheckResult("y2_reconstruction", y2_two_route_worst(sol11, top), agg_tol),
        CheckResult("variation_of_parameters", vop_worst(basis, shifted, a + 3, t_vop), agg_tol),
    ]
    return results
