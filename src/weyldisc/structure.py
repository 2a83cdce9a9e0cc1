"""Discrete structural identities, implemented as checkable operations.

Each operation returns the raw defect (left side minus right side) of an
identity that holds exactly in exact arithmetic:

* Green's formula   <L(y), z> - <y, L(z)> = [y, z] | from a-1 to N
  for arbitrary finite sequences, where the bracket is the skew pairing
  y1(t+1) conj(z1q(t)) - y1q(t) conj(z1(t+1));
* the Lagrange identity for solutions at two spectral parameters;
* constancy of the conjugation-free Wronskian pairing for two solutions
  at one parameter (the overline in the usual statement cancels one
  conjugation, which is easy to misread: this module's ``wronskian`` is
  bilinear, not sesquilinear, and equals 1 for the canonical pair);
* the variation-of-parameters reconstruction of a solution at lam from a
  basis at lam0, with the matching constants recovered from a 2x2 system
  at the first two usable points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MatchingSingularError, NumericalInvariantError, WindowError
from .model import CoefficientSet, m_excl_column
from .recurrence import Trajectory, max_relative_residual, operator_window


def bracket(y: Trajectory, z: Trajectory, t: int):
    """Skew pairing [y, z](t); the building block of Green's formula."""
    return (y.y1_at(t + 1) * z.y1q_at(t).conjugate()
            - y.y1q_at(t) * z.y1_at(t + 1).conjugate())


def green_defect(model: CoefficientSet, y, z, top: int):
    """Defect of Green's formula on arbitrary pair sequences.

    ``y`` and ``z`` are sequences of (first, second) component pairs on
    a-1 .. top+1; they need not solve anything.  Zero in exact arithmetic.
    """
    return green_terms(model, y, z, top)[0]


def green_terms(model: CoefficientSet, y, z, top: int) -> tuple:
    """Green's formula defect together with the operator rows it used:
    (defect, [(Ly(t), Lz(t)) for t = a .. top]), each row a pair of the
    two equation rows.  A caller that also needs the rows for a scale
    applies the operator once.

    ``operator_window`` walks y and z once each; the quasi-differences of
    the boundary bracket at a-1 and top are p dy1 + c y2 from its terms."""
    expected = top + 1 - (model.a - 1) + 1
    if len(y) != expected or len(z) != expected:
        raise WindowError(
            f"sequences must cover a-1 .. top+1 ({expected} entries); "
            f"got {len(y)} and {len(z)}"
        )
    k = model.kernel
    y1, y2 = [v[0] for v in y], [v[1] for v in y]
    z1, z2 = [v[0] for v in z], [v[1] for v in z]
    inner = k.complex(0)
    rows = []
    walk = zip(
        operator_window(model, y1, y2, model.a, top),
        operator_window(model, z1, z2, model.a, top),
    )
    for i, ((ly1, ly2, y_terms), (lz1, lz2, z_terms)) in enumerate(walk, 1):
        rows.append(((ly1, ly2), (lz1, lz2)))
        inner += z1[i].conjugate() * ly1 + z2[i].conjugate() * ly2
        inner -= lz1.conjugate() * y1[i] + lz2.conjugate() * y2[i]
        if i == 1:
            # p dy1 + c y2 at a-1: the previous terms at t = a
            y_left = y_terms[0] + y_terms[3]
            z_left = z_terms[0] + z_terms[3]
    # p dy1 + c y2 at top: the current terms of the last row
    y_top = y_terms[1] + y_terms[4]
    z_top = z_terms[1] + z_terms[4]
    n = len(rows)
    boundary = (y1[n + 1] * z_top.conjugate() - y_top * z1[n + 1].conjugate()) - (
        y1[1] * z_left.conjugate() - y_left * z1[1].conjugate()
    )
    return inner - boundary, rows


_RESIDUAL_GATE_SHIFT = 3  # non-solution detection threshold: 2^-(bits/3)


def _require_solution(traj: Trajectory, what: str, worst: float | None) -> None:
    """Refuse a trajectory whose max relative residual ``worst`` (swept
    here when None) exceeds 2^-(bits/3) with NumericalInvariantError."""
    bits = traj.model.precision.bits
    if worst is None:
        worst = max_relative_residual(traj.model, traj)
    if worst > 2.0 ** (-(bits // _RESIDUAL_GATE_SHIFT)):
        raise NumericalInvariantError(
            f"{what} does not solve its equation "
            f"(max relative residual {worst:.3e})"
        )


def lagrange_identity_defect(
    phi: Trajectory, psi: Trajectory, top: int, *, residuals: tuple | None = None
):
    """Defect of the summed Green's identity for solutions phi at lam and
    psi at mu:  (lam - conj(mu)) * sum psi~(t) phi(t) - bracket increment.

    Both trajectories must solve their equations over their whole windows,
    else NumericalInvariantError is raised; ``residuals``, when given, are
    their max relative residuals as the caller already swept them, and are
    gated instead of sweeping again.
    """
    if phi.model is not psi.model and phi.model != psi.model:
        raise WindowError("trajectories belong to different models")
    worst_phi, worst_psi = residuals or (None, None)
    _require_solution(phi, "first trajectory", worst_phi)
    _require_solution(psi, "second trajectory", worst_psi)
    model = phi.model
    k = model.kernel
    total = k.complex(0)
    for p1, p2, s1, s2 in zip(*phi.component_columns(model.a, top),
                              *psi.component_columns(model.a, top)):
        total += s1.conjugate() * p1 + s2.conjugate() * p2
    lhs = (phi.lam - psi.lam.conjugate()) * total
    rhs = bracket(phi, psi, top) - bracket(phi, psi, model.a - 1)
    return lhs - rhs


def wronskian(phi: Trajectory, psi: Trajectory, t: int):
    """Conjugation-free pairing phi1(t+1) psi1q(t) - phi1q(t) psi1(t+1);
    constant in t for two solutions at one lam, and 1 for the canonical
    boundary-angle pair."""
    if phi.lam != psi.lam:
        raise ValueError("wronskian requires both solutions at the same lam")
    return phi.y1_at(t + 1) * psi.y1q_at(t) - phi.y1q_at(t) * psi.y1_at(t + 1)


@dataclass(frozen=True)
class VopResult:
    """Matching constants and both component defects of the
    variation-of-parameters reconstruction at t_check."""

    k1: object
    k2: object
    defect_y1: object
    defect_y2: object


def vop_reconstruct(
    basis: tuple[Trajectory, Trajectory],
    z: Trajectory,
    anchor: int,
    t_check: int,
) -> VopResult:
    """Reconstruct the solution z (at z.lam) from a basis (phi, psi) at a
    different parameter, anchored above ``anchor``; valid for t > anchor+2.

    The two matching constants are recovered by solving the 2x2 system at
    t = anchor+3 and anchor+4 (they exist but have no closed form; the
    sampled first components are independent since the Wronskian is
    nonzero, so the system is uniquely solvable or reported singular).
    """
    phi, psi = basis
    if t_check <= anchor + 2:
        raise ValueError("t_check must exceed anchor + 2")
    model = z.model
    k = model.kernel
    lam0 = phi.lam
    lam = z.lam
    needed = max(t_check, anchor + 4)
    for traj, name in ((phi, "phi"), (psi, "psi"), (z, "z")):
        if traj.top < needed:
            raise WindowError(f"{name} window ends before t={needed}")

    # running transposed pairings (no conjugation) of phi and psi with
    # z from anchor+1: sums[j] holds (f, g) summed up to t = anchor+j
    f = g = k.complex(0)
    sums = [(f, g)]
    for z1, z2, f1, f2, g1, g2 in zip(
        *z.component_columns(anchor + 1, t_check),
        *phi.component_columns(anchor + 1, t_check),
        *psi.component_columns(anchor + 1, t_check),
    ):
        f += f1 * z1 + f2 * z2
        g += g1 * z1 + g2 * z2
        sums.append((f, g))

    def rhs_first(t: int):
        f, g = sums[t - 1 - anchor]
        return z.y1_at(t) - (lam0 - lam) * (psi.y1_at(t) * f - phi.y1_at(t) * g)

    t1, t2 = anchor + 3, anchor + 4
    det = psi.y1_at(t1) * phi.y1_at(t2) - psi.y1_at(t2) * phi.y1_at(t1)
    if det == 0:
        raise MatchingSingularError(
            "matching system for the reconstruction constants is singular"
        )
    r1, r2 = rhs_first(t1), rhs_first(t2)
    k1 = (r1 * phi.y1_at(t2) - r2 * phi.y1_at(t1)) / det
    k2 = (psi.y1_at(t1) * r2 - psi.y1_at(t2) * r1) / det

    f_prev, g_prev = sums[-2]
    defect_y1 = z.y1_at(t_check) - (
        k1 * psi.y1_at(t_check)
        + k2 * phi.y1_at(t_check)
        + (lam0 - lam)
        * (psi.y1_at(t_check) * f_prev - phi.y1_at(t_check) * g_prev)
    )

    f_full, g_full = sums[-1]
    m_val = m_excl_column(model, t_check, t_check)[0]
    ratio = (lam0 - m_val) / (lam - m_val)
    defect_y2 = z.y2_at(t_check) - ratio * (
        k1 * psi.y2_at(t_check)
        + k2 * phi.y2_at(t_check)
        + (lam0 - lam)
        * (psi.y2_at(t_check) * f_full - phi.y2_at(t_check) * g_full)
    )
    return VopResult(k1=k1, k2=k2, defect_y1=defect_y1, defect_y2=defect_y2)
