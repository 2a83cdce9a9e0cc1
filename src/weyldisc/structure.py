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

from .errors import MatchingSingularError, WindowError
from .model import CoefficientSet, m_excl_at
from .recurrence import (
    Trajectory,
    max_relative_residual,
    operator_rows,
    quasi_difference,
)


def bracket(y: Trajectory, z: Trajectory, t: int):
    """Skew pairing [y, z](t); the building block of Green's formula."""
    k = y.model.kernel
    with y.model.workprec():
        return y.y1_at(t + 1) * k.conj(z.y1q_at(t)) - y.y1q_at(t) * k.conj(
            z.y1_at(t + 1)
        )


def _apply_operator(model: CoefficientSet, seq, t: int):
    """Row values of the difference operator on a raw pair sequence
    indexed from a-1."""
    off = model.a - 1
    return operator_rows(
        model, lambda s: seq[s - off][0], lambda s: seq[s - off][1], t
    )


def _raw_bracket(model: CoefficientSet, y, z, t: int):
    k = model.kernel
    i = t - (model.a - 1)
    y_quasi = quasi_difference(model, y[i][0], y[i + 1][0], y[i][1], t)
    z_quasi = quasi_difference(model, z[i][0], z[i + 1][0], z[i][1], t)
    return y[i + 1][0] * k.conj(z_quasi) - y_quasi * k.conj(z[i + 1][0])


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
    applies the operator once."""
    expected = top + 1 - (model.a - 1) + 1
    if len(y) != expected or len(z) != expected:
        raise WindowError(
            f"sequences must cover a-1 .. top+1 ({expected} entries); "
            f"got {len(y)} and {len(z)}"
        )
    k = model.kernel
    with model.workprec():
        inner = k.complex(0)
        rows = []
        for t in range(model.a, top + 1):
            ly1, ly2 = _apply_operator(model, y, t)
            lz1, lz2 = _apply_operator(model, z, t)
            rows.append(((ly1, ly2), (lz1, lz2)))
            z1, z2 = z[t - (model.a - 1)]
            y1, y2 = y[t - (model.a - 1)]
            inner += k.conj(z1) * ly1 + k.conj(z2) * ly2
            inner -= k.conj(lz1) * y1 + k.conj(lz2) * y2
        boundary = _raw_bracket(model, y, z, top) - _raw_bracket(
            model, y, z, model.a - 1
        )
        return inner - boundary, rows


_RESIDUAL_GATE_SHIFT = 3  # non-solution detection threshold: 2^-(bits/3)


def _require_solution(traj: Trajectory, what: str, worst: float | None) -> None:
    """Refuse a trajectory whose max relative residual ``worst`` (swept
    here when None) exceeds 2^-(bits/3)."""
    bits = traj.model.precision.bits
    if worst is None:
        worst = max_relative_residual(traj.model, traj)
    if worst > 2.0 ** (-(bits // _RESIDUAL_GATE_SHIFT)):
        raise ValueError(
            f"{what} does not solve its equation "
            f"(max relative residual {worst:.3e})"
        )


def lagrange_identity_defect(
    phi: Trajectory, psi: Trajectory, top: int, *, residuals: tuple | None = None
):
    """Defect of the summed Green's identity for solutions phi at lam and
    psi at mu:  (lam - conj(mu)) * sum psi~(t) phi(t) - bracket increment.

    Both trajectories must solve their equations over their whole windows;
    ``residuals``, when given, are their max relative residuals as the
    caller already swept them, and are gated instead of sweeping again.
    """
    if phi.model is not psi.model and phi.model != psi.model:
        raise WindowError("trajectories belong to different models")
    worst_phi, worst_psi = residuals or (None, None)
    _require_solution(phi, "first trajectory", worst_phi)
    _require_solution(psi, "second trajectory", worst_psi)
    model = phi.model
    k = model.kernel
    with model.workprec():
        total = k.complex(0)
        for t in range(model.a, top + 1):
            p1, p2 = phi.component_pair(t)
            s1, s2 = psi.component_pair(t)
            total += k.conj(s1) * p1 + k.conj(s2) * p2
        lhs = (phi.lam - k.conj(psi.lam)) * total
        rhs = bracket(phi, psi, top) - bracket(phi, psi, model.a - 1)
        return lhs - rhs


def wronskian(phi: Trajectory, psi: Trajectory, t: int):
    """Conjugation-free pairing phi1(t+1) psi1q(t) - phi1q(t) psi1(t+1);
    constant in t for two solutions at one lam, and 1 for the canonical
    boundary-angle pair."""
    if phi.lam != psi.lam:
        raise ValueError("wronskian requires both solutions at the same lam")
    with phi.model.workprec():
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
    with model.workprec():
        needed = max(t_check, anchor + 4)
        for traj, name in ((phi, "phi"), (psi, "psi"), (z, "z")):
            if traj.top < needed:
                raise WindowError(f"{name} window ends before t={needed}")

        def transposed_dot(traj, s):
            t1, t2 = traj.component_pair(s)
            z1, z2 = z.component_pair(s)
            return t1 * z1 + t2 * z2  # transpose pairing, no conjugation

        def partial_sums(upto: int):
            f = k.complex(0)
            g = k.complex(0)
            for s in range(anchor + 1, upto + 1):
                f += transposed_dot(phi, s)
                g += transposed_dot(psi, s)
            return f, g

        def rhs_first(t: int):
            f, g = partial_sums(t - 1)
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

        f_prev, g_prev = partial_sums(t_check - 1)
        defect_y1 = z.y1_at(t_check) - (
            k1 * psi.y1_at(t_check)
            + k2 * phi.y1_at(t_check)
            + (lam0 - lam)
            * (psi.y1_at(t_check) * f_prev - phi.y1_at(t_check) * g_prev)
        )

        f_full = f_prev + transposed_dot(phi, t_check)
        g_full = g_prev + transposed_dot(psi, t_check)
        m_val = m_excl_at(model, t_check)
        ratio = (lam0 - m_val) / (lam - m_val)
        defect_y2 = z.y2_at(t_check) - ratio * (
            k1 * psi.y2_at(t_check)
            + k2 * phi.y2_at(t_check)
            + (lam0 - lam)
            * (psi.y2_at(t_check) * f_full - phi.y2_at(t_check) * g_full)
        )
        return VopResult(k1=k1, k2=k2, defect_y1=defect_y1, defect_y2=defect_y2)
