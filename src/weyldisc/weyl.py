"""Weyl discs, m-points, and the limit-point/limit-circle classifier.

For a nonreal spectral parameter the canonical pair (phi, psi) fixed by a
boundary angle spans all solutions; the m-points m = -(Az+B)/(Cz+D) trace
a circle whose center and radius come from two Lagrange brackets at N.
The discs are nested, so their radii converge: to a positive number (all
solutions square-summable, "limit circle") or to zero (exactly one
square-summable direction, "limit point").  Any finite-N decision is a
heuristic; the classifier reports the raw disc and partial-sum evidence
alongside its verdict.

Numerical note: the candidate square-summable solution chi = phi + m*psi
is a difference of two (possibly astronomically) growing solutions.  When
the forward combination loses more than half the working mantissa it is
recomputed by backward propagation from the far end, which amplifies the
decaying direction instead of burying it, then matched to chi's left
boundary state.  The report records which route was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import (
    InadmissibleLambdaError,
    NumericalInvariantError,
    PrecisionExhaustedError,
)
from .model import CoefficientSet, as_lambda_scalar, spectral_gap
from .recurrence import (
    BoundaryData,
    StepTable,
    Trajectory,
    _full_table,
    propagate_backward,
    propagate_columns,
    step_table,
)
from .structure import bracket


@dataclass(frozen=True)
class BoundaryAngles:
    """Left and right boundary angles, each in [0, pi)."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 <= value < math.pi:
                raise ValueError(f"{name} must lie in [0, pi), got {value}")


@dataclass(frozen=True)
class CornerValues:
    """The four pair values at the right end of a finite window:
    A = phi1(N+1), B = phi1q(N), C = psi1(N+1), D = psi1q(N)."""

    n: int
    A: object
    B: object
    C: object
    D: object


class WeylDisc(NamedTuple):
    """The m-point circle at window end n; a named tuple, the cheapest
    record to build, since ``classify`` builds one per N."""

    n: int
    center: object
    radius: object


@dataclass(frozen=True)
class L2Profile:
    """Partial sums S_N of the squared norm of a trajectory, with the
    finite-horizon growth verdict."""

    partial_sums: tuple
    growth_verdict: str  # bounded | divergent | undecided


@dataclass(frozen=True)
class ClassifyOptions:
    n_max: int = 200
    rel_tol: float = 1e-10
    divergence_factor: float = 1e6
    window: int = 32
    cross_check_lambda: complex | None = None


@dataclass(frozen=True)
class ClassificationReport:
    lam: object
    alpha: float
    verdict: str  # LPC | LCC | undecided
    disc_samples: tuple
    psi_profile: L2Profile
    chi_profile: L2Profile | None
    m_limit: object
    l2_solution_count: int | None
    chi_method: str  # forward | backward | unavailable
    reason: str | None = None
    cross_check: tuple | None = None  # (lam, verdict) of the second run


def fundamental_pair(
    model: CoefficientSet, lam, alpha: float, top: int,
    *, table: StepTable | None = None,
) -> tuple[Trajectory, Trajectory]:
    """Canonical solutions phi (data sin a, -cos a) and psi (cos a, sin a);
    their Wronskian pairing is 1, so they are independent.  Both are
    stepped in one call; ``table``, when given, is the step table of
    (model, lam) on a-1 .. top."""
    if not 0 <= alpha < math.pi:
        raise ValueError(f"alpha must lie in [0, pi), got {alpha}")
    table = _full_table(model, lam, top, table)
    k = model.kernel
    sa, ca = k.sin(alpha), k.cos(alpha)
    return propagate_columns(table, (BoundaryData(sa, -ca), BoundaryData(ca, sa)))


def corner_values(pair: tuple[Trajectory, Trajectory], n: int) -> CornerValues:
    phi, psi = pair
    model = phi.model
    k = model.kernel
    a_val, b_val = phi.state(n)
    c_val, d_val = psi.state(n)
    lhs = a_val * d_val - b_val * c_val
    scale = abs(a_val * d_val) + abs(b_val * c_val) + 1
    if not abs(lhs - 1) <= scale * k.real(2) ** (-(model.precision.bits - 8)):
        raise NumericalInvariantError(
            f"pair determinant at N={n} deviates from 1 beyond tolerance"
        )
    return CornerValues(n=n, A=a_val, B=b_val, C=c_val, D=d_val)


def _disc_rows(model, phi, psi, lam, n_hi):
    """Disc sequence and psi partial sums for N = a .. n_hi.

    Both defining brackets are evaluated through their summed form
    (bracket at a-1 plus 2i Im(lam) times a running inner-product sum),
    which is an exact identity of the system and, unlike the product of
    the corner values, loses no precision when the solutions grow fast.

    The diagonal bracket diag = [psi, psi](a-1) + 2i Im(lam) S_N is purely
    imaginary in floating point too: [psi, psi](a-1) is w - conj(w) for
    w = psi1(a) conj(psi1q(a-1)), and both products have the same real
    part on every kernel.  So only D = Im(diag) is kept, and the disc is
    center = -mixed/diag = (-Im(mixed) + i Re(mixed)) / D, radius = 1/|D|,
    by real divisions.  A leading window with an identically zero psi
    sample (possible only at N = a) is skipped: its circle degenerates to
    a line.
    """
    k = model.kernel
    abs2, cplx = k.abs2, k.complex
    d_im0 = bracket(psi, psi, model.a - 1).imag
    mixed0 = bracket(phi, psi, model.a - 1)
    two_im = 2 * lam.imag
    factor = cplx(0, two_im)
    s_run = k.real(0)
    w_run = cplx(0)
    psi_sums = []
    discs = []
    samples = zip(
        range(model.a, n_hi + 1),
        *psi.component_columns(model.a, n_hi),
        *phi.component_columns(model.a, n_hi),
    )
    for t, s1, s2, p1, p2 in samples:
        s_run = s_run + abs2(s1) + abs2(s2)
        w_run = w_run + s1.conjugate() * p1 + s2.conjugate() * p2
        psi_sums.append((t, s_run))
        d_im = d_im0 + two_im * s_run
        if d_im == 0:
            continue
        mixed = mixed0 + factor * w_run
        center = cplx(-mixed.imag / d_im, mixed.real / d_im)
        discs.append(WeylDisc(t, center, 1 / abs(d_im)))
    # an overflowed running sum stays inf or nan, so the last one tells
    if k.needs_finite_checks and not (k.isfinite(s_run) and k.isfinite(w_run)):
        raise _sums_exhausted(n_hi)
    return discs, psi_sums


def _sums_exhausted(t: int) -> PrecisionExhaustedError:
    """Native floats turn inf or nan when a partial sum outgrows them,
    which is precision exhaustion."""
    return PrecisionExhaustedError(
        f"partial sums left the representable range by t={t}; "
        "switch to big-float mode"
    )


def weyl_disc(model: CoefficientSet, lam, alpha: float, n: int) -> WeylDisc:
    """Center and radius of the m-point circle at window end n."""
    lam = as_lambda_scalar(model, lam)
    if lam.imag == 0:
        raise InadmissibleLambdaError("Weyl discs require a nonreal lam")
    phi, psi = fundamental_pair(model, lam, alpha, n)
    discs, _ = _disc_rows(model, phi, psi, lam, n)
    if not discs or discs[-1].n != n:
        raise InadmissibleLambdaError(
            f"disc at N={n} is degenerate (zero psi sample at the origin)"
        )
    return discs[-1]


def m_point(corner: CornerValues, z):
    """m = -(Az+B)/(Cz+D) for real z = cot(beta); z = inf (beta = 0) gives
    the limit -A/C.  A zero denominator would mean lam is an eigenvalue of
    the finite-window problem and is refused."""
    if isinstance(z, float) and math.isinf(z):
        if corner.C == 0:
            raise ZeroDivisionError("m-point at z=inf needs C != 0")
        return -corner.A / corner.C
    den = corner.C * z + corner.D
    if den == 0:
        raise ZeroDivisionError("m-point denominator C z + D vanishes")
    return -(corner.A * z + corner.B) / den


def chi(pair: tuple[Trajectory, Trajectory], m) -> Trajectory:
    """The combination phi + m * psi, including quasi-differences."""
    phi, psi = pair
    return phi.combined(psi, m)


def on_circle_defect(model: CoefficientSet, chi_traj: Trajectory, m, lam, n: int):
    """sum_{t=a}^{n} |chi(t)|^2 - Im(m)/Im(lam): zero when m lies on the
    n-th circle, negative when it lies inside."""
    k = model.kernel
    lam = as_lambda_scalar(model, lam)
    if lam.imag == 0:
        raise InadmissibleLambdaError("circle membership requires nonreal lam")
    sums = _profile(model, chi_traj.component_columns(model.a - 1, n), n)
    total = sums[-1][1] if sums else k.real(0)
    return total - m.imag / lam.imag


def regular_eigen_residual(
    model: CoefficientSet, lam, angles: BoundaryAngles, n: int
):
    """Right-endpoint boundary form of psi: psi1(N+1) cos b + psi1q(N) sin b.

    A (real, admissible) lam is an eigenvalue of the finite-window
    boundary value problem exactly when this residual vanishes; for
    nonreal lam it never does.
    """
    k = model.kernel
    lam = as_lambda_scalar(model, lam)
    point = spectral_gap(model, lam, n + 1)
    if not point.admissible:
        raise InadmissibleLambdaError("lam is not admissible on this window")
    _, psi = fundamental_pair(model, lam, angles.alpha, n)
    sb, cb = k.sin(angles.beta), k.cos(angles.beta)
    return psi.y1_at(n + 1) * cb + psi.y1q_at(n) * sb


# ---------------------------------------------------------------------------
# Classification


def _forward_chi_y1(model, m, states) -> list:
    """y1(t+1) = f0 + m s0 of chi = phi + m psi for the states (f0, f1, s0,
    s1) = (phi1(t+1), phi1q(t), psi1(t+1), psi1q(t)) in order, up to the
    first state whose combination keeps less than half the mantissa:

        |c0| + |c1| < 2^-(bits//2) (|f0| + |f1| + |m| (|s0| + |s1|)),

    c0 = f0 + m s0 and c1 = f1 + m s1.  abs_bound(z) lies between |z| and
    sqrt(2) |z|, so a state whose bounds clear twice that floor clears
    the test, rounding and all; only the others take the moduli and
    their six square roots, so every decision is the test's."""
    k = model.kernel
    m_abs = abs(m)
    floor = k.real(2) ** (-(model.precision.bits // 2))
    bound, floor2 = k.abs_bound, 2 * floor
    y1 = []
    for f0, f1, s0, s1 in states:
        c0 = f0 + m * s0
        c1 = f1 + m * s1
        if bound(c0) + bound(c1) < (
            (bound(f0) + bound(f1)) + m_abs * (bound(s0) + bound(s1))
        ) * floor2:
            mag = (abs(f0) + abs(f1)) + m_abs * (abs(s0) + abs(s1))
            if abs(c0) + abs(c1) < mag * floor:
                break
        y1.append(c0)
    return y1


def _stable_chi(model, lam, phi, psi, m, n_max, radius_last, table):
    """chi = phi + m psi, by the forward combination when it keeps at least
    half the mantissa everywhere, else by backward propagation (through
    the pair's step table) matched to chi's left boundary state.  Returns
    (columns or None, method), where the columns are chi's y1 and y2 on
    a-1 .. n_max, the two that its profile reads.

    The forward states are tested one point at a time; the combination is
    completed (y1(a-1) and y2, with the same arithmetic as
    ``Trajectory.combined``) only when every state passes, so a
    cancelling chi stops the scan at its first lost state."""
    k = model.kernel
    bits = model.precision.bits
    m_abs = abs(m)
    states = zip(
        *phi.state_columns(model.a - 1, n_max),
        *psi.state_columns(model.a - 1, n_max),
    )
    y1 = _forward_chi_y1(model, m, states)
    if len(y1) == n_max - model.a + 2:
        y2 = tuple([u + m * v for u, v in zip(phi.y2, psi.y2)])
        return ((phi.y1[0] + m * psi.y1[0], *y1), y2), "forward"

    left_target = (
        phi.y1_at(model.a) + m * psi.y1_at(model.a),
        phi.y1q_at(model.a - 1) + m * psi.y1q_at(model.a - 1),
    )
    norm_left = abs(left_target[0]) + abs(left_target[1])
    # backward-normalization mismatch allows for m being the disc center
    # rather than the true limit point: that shift is at most the radius
    thresh = norm_left * k.real(2) ** (-(bits // 4)) + 8 * radius_last * (1 + m_abs)
    for seed in ((1, 0), (0, 1), (1, 1)):
        w = propagate_backward(
            model, lam, (k.complex(seed[0]), k.complex(seed[1])), n_max,
            table=table,
        )
        w_left = w.state(model.a - 1)
        j = 0 if abs(left_target[0]) >= abs(left_target[1]) else 1
        if w_left[j] == 0:
            continue
        scale = left_target[j] / w_left[j]
        mismatch = abs(w_left[1 - j] * scale - left_target[1 - j])
        if mismatch <= thresh:
            # the profile reads y1 and y2 only, so y1q is not scaled
            return (tuple([v * scale for v in w.y1]),
                    tuple([v * scale for v in w.y2])), "backward"
    return None, "unavailable"


def _profile(model, columns, n_max) -> list:
    """Partial sums (t, S_t), S_t = sum of |y1(s)|^2 + |y2(s)|^2 over
    s = a .. t, for t = a .. n_max; ``columns`` are y1 and y2 indexed
    from a-1."""
    k = model.kernel
    abs2 = k.abs2
    total = k.real(0)
    sums = []
    y1, y2 = columns
    for t, c1, c2 in zip(range(model.a, n_max + 1), y1[1:], y2[1:]):
        total = total + abs2(c1) + abs2(c2)
        sums.append((t, total))
    if k.needs_finite_checks and not k.isfinite(total):
        raise _sums_exhausted(n_max)
    return sums


def _growth_verdict(sums, model, options) -> str:
    """Growth test on partial sums (t, S_t) for t = a .. n_max: entry i
    is t = a + i."""
    k = model.kernel
    a = model.a
    last = sums[options.n_max - a][1]
    tail = sums[options.n_max - options.window - a][1]
    half = sums[max(a, options.n_max // 2) - a][1]
    bounded = (last - tail) < k.real(options.rel_tol) * last
    divergent = last > k.real(options.divergence_factor) * half
    if bounded and not divergent:
        return "bounded"
    if divergent and not bounded:
        return "divergent"
    return "undecided"


def classify(
    model: CoefficientSet, lam, alpha: float = 0.0,
    options: ClassifyOptions | None = None,
) -> ClassificationReport:
    """Limit-type verdict at lam with full disc and profile evidence.

    LCC when both the psi and chi partial sums pass the bounded test (all
    solutions square-summable); LPC when psi diverges while chi stays
    bounded (exactly one square-summable direction); undecided otherwise,
    in which case raising n_max or the precision usually resolves it.
    """
    options = options or ClassifyOptions()
    if options.n_max < model.a + options.window + 4:
        raise ValueError(
            "n_max must exceed a + window + 4 for the trailing-window tests"
        )
    lam = as_lambda_scalar(model, lam)
    # a nonreal lam is admissible (the excluded values are real), so no
    # horizon scan is needed; the step table still refuses an exact hit
    if lam.imag == 0:
        raise InadmissibleLambdaError("classification requires a nonreal lam")

    # one step table feeds phi, psi and every backward chi seed
    table = step_table(model, lam, options.n_max)
    phi, psi = fundamental_pair(model, lam, alpha, options.n_max, table=table)
    discs, psi_sums = _disc_rows(model, phi, psi, lam, options.n_max)
    m_limit = discs[-1].center

    chi_columns, chi_method = _stable_chi(
        model, lam, phi, psi, m_limit, options.n_max, discs[-1].radius, table
    )
    psi_verdict = _growth_verdict(psi_sums, model, options)
    psi_profile = L2Profile(tuple(psi_sums), psi_verdict)

    if chi_columns is None:
        chi_profile = None
        verdict, reason = "undecided", "chi profile could not be stabilized"
    else:
        chi_sums = _profile(model, chi_columns, options.n_max)
        chi_verdict = _growth_verdict(chi_sums, model, options)
        chi_profile = L2Profile(tuple(chi_sums), chi_verdict)
        if psi_verdict == "bounded" and chi_verdict == "bounded":
            verdict, reason = "LCC", None
        elif psi_verdict == "divergent" and chi_verdict == "bounded":
            verdict, reason = "LPC", None
        else:
            verdict = "undecided"
            reason = (
                f"psi profile {psi_verdict}, chi profile {chi_verdict}; "
                "raise n_max or mantissa_bits"
            )

    cross = None
    if options.cross_check_lambda is not None:
        sub = classify(
            model, options.cross_check_lambda, alpha,
            replace(options, cross_check_lambda=None),
        )
        cross = (sub.lam, sub.verdict)
        if (
            verdict != "undecided"
            and sub.verdict != "undecided"
            and sub.verdict != verdict
        ):
            reason = (
                f"verdicts disagree between lam values: {verdict} vs "
                f"{sub.verdict}"
            )
            verdict = "undecided"

    counts = {"LCC": 2, "LPC": 1}
    return ClassificationReport(
        lam=lam,
        alpha=alpha,
        verdict=verdict,
        disc_samples=tuple(discs),
        psi_profile=psi_profile,
        chi_profile=chi_profile,
        m_limit=m_limit,
        l2_solution_count=counts.get(verdict),
        chi_method=chi_method,
        reason=reason,
        cross_check=cross,
    )
