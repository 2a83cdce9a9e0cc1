"""Initial value problems for the mixed-order system.

The two-component equation is equivalent to a first-order recursion for
the state v(t) = (y1(t+1), y1q(t)), where y1q is the quasi-difference
p*dy1 + c*y2: stepping forward solves (I - A(t)) v(t) = v(t-1) with the
closed-form 2x2 inverse (det(I - A) == 1, so no pivoting is needed), and
y2 is reconstructed algebraically from the state.  The values at t = a-1
come from a 2x2 boundary system whose determinant is -p_eff(a-1), nonzero
for admissible lam.

Everything a propagation needs at one (model, lam) comes from a step
table: ``step_table`` walks t = a-1 .. top once and keeps, per t, the
derived quantities (p_tilde, alpha, q_tilde, h_shift, m_excl), the
entries of A(t) and the y2-reconstruction coefficients

    y2(t) = r1(t) y1(t+1) + r2(t) y1q(t),
    r1 = alpha*(h - c)/(den*p_tilde) + h/den,  r2 = (c - h)/(den*p_tilde),

with den = lam - d.  Each row takes one complex reciprocal of den and one
of p_tilde and multiplies by them wherever these formulas divide, so the
entries agree with the quotients to within a few units in the last place.
alpha(t-1), which q_tilde(t) needs, is the previous row.  A table is
built per call and dropped with it; callers that step several solutions
at one (model, lam) pass the same table along.  Every solver steps one
or more columns through the same table, so the two solutions of a
fundamental pair are one pass.

``oracle_three_term`` is the independent check: it never touches the
transfer matrices, solving instead the scalar three-term recurrence

    p_eff(t) y1(t+1) = (p_eff(t) + p_eff(t-1) + q_eff(t) - lam) y1(t)
                       - p_eff(t-1) y1(t-1)

with y2 recovered from y1 by its defining algebraic relation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import checked_div
from .errors import (
    InadmissibleLambdaError,
    NumericalInvariantError,
    PrecisionExhaustedError,
    WindowError,
)
from .model import CoefficientSet, as_lambda_scalar


@dataclass(frozen=True)
class StepTable:
    """Per-t quantities of one (model, lam) for t = start .. top, where
    start = a-1, one column per quantity, indexed by t - start.

    The first row has no predecessor, so its q_tilde, h_shift and step
    entries are None: the table has step matrices exactly for t = a .. top.
    """

    model: CoefficientSet
    lam: object
    start: int
    top: int
    p_tilde: tuple
    alpha: tuple
    q_tilde: tuple
    h_shift: tuple
    m_excl: tuple
    a11: tuple
    a12: tuple
    a21: tuple
    a22: tuple
    r1: tuple
    r2: tuple

    def index(self, t: int) -> int:
        if t < self.start or t > self.top:
            raise WindowError(
                f"step table covers {self.start} <= t <= {self.top}, got t={t}"
            )
        return t - self.start


def step_table(model: CoefficientSet, lam, top: int) -> StepTable:
    """Walk t = a-1 .. top once and tabulate every derived quantity, step
    matrix and y2 coefficient on the way.

    Raises InadmissibleLambdaError where lam equals d(t) or p_tilde(t)
    vanishes.
    """
    start = model.a - 1
    if top < start:
        raise ValueError(f"top ({top}) lies below start ({start})")
    coeff = model.coeff
    with model.workprec():
        lam = as_lambda_scalar(model, lam)
        rows = []
        alpha_prev = None
        for t in range(start, top + 1):
            p = coeff("p", t)
            c = coeff("c", t)
            h = coeff("h", t)
            d = coeff("d", t)
            den = lam - d
            if den == 0:
                raise InadmissibleLambdaError(f"lam equals d({t})", t=t)
            inv_den = 1 / den
            off = c * c - h * c
            p_tilde = p + off * inv_den
            alpha = h * c * inv_den
            if p_tilde == 0:
                raise InadmissibleLambdaError(
                    f"effective leading coefficient vanishes at t={t}", t=t
                )
            inv_p = 1 / p_tilde
            m_excl = d - off / p
            inv_denp = inv_den * inv_p
            r1 = alpha * (h - c) * inv_denp + h * inv_den
            r2 = (c - h) * inv_denp
            if alpha_prev is None:
                q_tilde = h_shift = a11 = a12 = a21 = a22 = None
            else:
                common = coeff("q", t) + h * h * inv_den
                q_tilde = common - (alpha - alpha_prev)
                h_shift = common - lam
                a11 = -alpha * inv_p
                a12 = inv_p
                a21 = (h_shift - alpha) * alpha * inv_p + h_shift
                a22 = (alpha - h_shift) * inv_p
            rows.append(
                (p_tilde, alpha, q_tilde, h_shift, m_excl, a11, a12, a21, a22, r1, r2)
            )
            alpha_prev = alpha
        return StepTable(model, lam, start, top, *zip(*rows))


def _full_table(model: CoefficientSet, lam, top: int, table: StepTable | None) -> StepTable:
    """The step table on a-1 .. top: ``table`` when given (it must be that
    table), else a new one."""
    if table is None:
        return step_table(model, lam, top)
    with model.workprec():
        same_lam = table.lam == as_lambda_scalar(model, lam)
    if not same_lam or table.model != model or table.top != top:
        raise ValueError("step table does not match the model, lam and window")
    return table


@dataclass(frozen=True)
class BoundaryData:
    """Initial data (y1(a), y1q(a-1))."""

    c1: object
    c2: object


@dataclass(frozen=True)
class Trajectory:
    """A solution sampled on the window a-1 .. top.

    y1 additionally carries the value at top+1 (the state at top needs
    it); y2 and the quasi-difference y1q run over a-1 .. top.
    """

    model: CoefficientSet
    lam: object
    top: int
    y1: tuple
    y2: tuple
    y1q: tuple

    @property
    def a(self) -> int:
        return self.model.a

    def _idx(self, t: int, hi: int, what: str) -> int:
        if t < self.a - 1 or t > hi:
            raise WindowError(
                f"{what} stored for {self.a - 1} <= t <= {hi}, got t={t}"
            )
        return t - (self.a - 1)

    def y1_at(self, t: int):
        return self.y1[self._idx(t, self.top + 1, "y1")]

    def y2_at(self, t: int):
        return self.y2[self._idx(t, self.top, "y2")]

    def y1q_at(self, t: int):
        return self.y1q[self._idx(t, self.top, "quasi-difference")]

    def state(self, t: int) -> tuple:
        """(y1(t+1), y1q(t)) for a-1 <= t <= top."""
        return (self.y1_at(t + 1), self.y1q_at(t))

    def component_pair(self, t: int) -> tuple:
        """(y1(t), y2(t)) for a-1 <= t <= top."""
        return (self.y1_at(t), self.y2_at(t))

    def state_columns(self, first: int, last: int) -> tuple:
        """The states of t = first .. last as two columns: (y1(t+1) for
        each t, y1q(t) for each t), for a-1 <= first and last <= top."""
        i = self._idx(first, self.top, "quasi-difference")
        j = self._idx(last, self.top, "quasi-difference") + 1
        return self.y1[i + 1:j + 1], self.y1q[i:j]

    def component_columns(self, first: int, last: int) -> tuple:
        """(y1(t) for each t, y2(t) for each t), t = first .. last, for
        a-1 <= first and last <= top."""
        i = self._idx(first, self.top, "y2")
        j = self._idx(last, self.top, "y2") + 1
        return self.y1[i:j], self.y2[i:j]

    def cut(self, top: int) -> "Trajectory":
        """The same solution on the window a-1 .. top (top <= self.top)."""
        if top == self.top:
            return self
        n = self._idx(top, self.top, "window end") + 1
        return Trajectory(
            model=self.model, lam=self.lam, top=top,
            y1=self.y1[:n + 1], y2=self.y2[:n], y1q=self.y1q[:n],
        )

    def scaled(self, factor) -> "Trajectory":
        return Trajectory(
            model=self.model, lam=self.lam, top=self.top,
            y1=tuple(v * factor for v in self.y1),
            y2=tuple(v * factor for v in self.y2),
            y1q=tuple(v * factor for v in self.y1q),
        )

    def combined(self, other: "Trajectory", factor) -> "Trajectory":
        """self + factor * other, componentwise."""
        if other.top != self.top or other.model != self.model:
            raise WindowError("trajectories live on different windows or models")
        return Trajectory(
            model=self.model, lam=self.lam, top=self.top,
            y1=tuple(u + factor * v for u, v in zip(self.y1, other.y1)),
            y2=tuple(u + factor * v for u, v in zip(self.y2, other.y2)),
            y1q=tuple(u + factor * v for u, v in zip(self.y1q, other.y1q)),
        )


def _left_boundary_values(model: CoefficientSet, lam, c1, c2) -> tuple:
    """(y1(a-1), y2(a-1)) from the 2x2 boundary system; its determinant
    is -p_eff(a-1), nonzero for admissible lam."""
    t = model.a - 1
    p = model.coeff("p", t)
    c = model.coeff("c", t)
    h = model.coeff("h", t)
    den = lam - model.coeff("d", t)
    if den == 0:
        raise InadmissibleLambdaError(f"lam equals d({t})", t=t)
    a11 = (h - c) / den
    rhs1 = -c / den * c1
    rhs2 = c2 - p * c1
    det = a11 * c - p  # == -p_eff(a-1)
    if det == 0:
        raise NumericalInvariantError(
            "left boundary system is singular although lam was admissible"
        )
    y1_left = checked_div(rhs1 * c + rhs2, det)
    y2_left = checked_div(a11 * rhs2 + p * rhs1, det)
    return y1_left, y2_left


def _check_finite(model: CoefficientSet, state: tuple, t: int) -> None:
    """Refuse a stepped state v(t) with a non-finite entry."""
    k = model.kernel
    if not (k.isfinite(state[0]) and k.isfinite(state[1])):
        raise PrecisionExhaustedError(
            f"state magnitude left the representable range near t={t}; "
            "raise mantissa_bits or switch to big-float mode"
        )


def _forward_states(table: StepTable, starts) -> list:
    """States v(t), t = a-1 .. top, of every initial state in ``starts``
    stepped together: entry t-(a-1) lists one state per start."""
    model = table.model
    k = model.kernel
    check = k.needs_finite_checks
    isfinite = k.isfinite
    cols = [(k.complex(0) + s0, k.complex(0) + s1) for s0, s1 in starts]
    out = [cols]
    rows = zip(table.a11[1:], table.a12[1:], table.a21[1:], table.a22[1:])
    for t, (a11, a12, a21, a22) in enumerate(rows, table.start + 1):
        # (I - A)^{-1} in closed form; det(I - A) == 1
        m11 = 1 - a22
        m22 = 1 - a11
        cols = [(m11 * s0 + a12 * s1, a21 * s0 + m22 * s1) for s0, s1 in cols]
        if check:
            for s0, s1 in cols:
                if not (isfinite(s0) and isfinite(s1)):
                    _check_finite(model, (s0, s1), t)
        out.append(cols)
    return out


def _assemble(table: StepTable, states: list) -> Trajectory:
    """Build a Trajectory from states v(t) for t = a-1 .. top."""
    model, lam = table.model, table.lam
    first = states[0]
    y1_left, y2_left = _left_boundary_values(model, lam, first[0], first[1])
    y1 = [y1_left] + [st[0] for st in states]
    y1q = [st[1] for st in states]
    y2 = [y2_left] + [
        r1 * st[0] + r2 * st[1]
        for r1, r2, st in zip(table.r1[1:], table.r2[1:], states[1:])
    ]
    k = model.kernel
    if k.needs_finite_checks and not all(
        all(map(k.isfinite, seq)) for seq in (y1, y2, y1q)
    ):
        raise PrecisionExhaustedError(
            "trajectory magnitude left the representable range; "
            "raise mantissa_bits or switch to big-float mode"
        )
    return Trajectory(
        model=model, lam=lam, top=table.top,
        y1=tuple(y1), y2=tuple(y2), y1q=tuple(y1q),
    )


def propagate_columns(table: StepTable, data) -> tuple:
    """One forward pass through ``table`` for every BoundaryData in
    ``data``; returns their trajectories on a-1 .. table.top."""
    with table.model.workprec():
        rows = _forward_states(table, [(bd.c1, bd.c2) for bd in data])
        return tuple(
            _assemble(table, [row[j] for row in rows]) for j in range(len(data))
        )


def propagate(model: CoefficientSet, lam, bd: BoundaryData, top: int) -> Trajectory:
    """Unique solution of the initial value problem on a-1 .. top."""
    if top < model.a:
        raise ValueError("top must be at least the grid origin a")
    return propagate_columns(step_table(model, lam, top), (bd,))[0]


def propagate_backward(
    model: CoefficientSet, lam, terminal_state: tuple, top: int,
    *, table: StepTable | None = None,
) -> Trajectory:
    """Solve from a terminal state v(top) = (y1(top+1), y1q(top)) down to
    the left endpoint.  Used for stable recovery of forward-decaying
    solutions (backward stepping amplifies them instead of burying them).
    ``table``, when given, is the step table of (model, lam) on a-1 .. top.
    """
    if top < model.a:
        raise ValueError("top must be at least the grid origin a")
    table = _full_table(model, lam, top, table)
    k = model.kernel
    with model.workprec():
        check = k.needs_finite_checks
        isfinite = k.isfinite
        s0 = k.complex(0) + terminal_state[0]
        s1 = k.complex(0) + terminal_state[1]
        states = [(s0, s1)]
        # rows t = top .. a of the table (row 0 is t = a-1, which has no step)
        rows = zip(
            range(top, model.a - 1, -1),
            reversed(table.a11[1:]), reversed(table.a12[1:]),
            reversed(table.a21[1:]), reversed(table.a22[1:]),
        )
        for t, a11, a12, a21, a22 in rows:
            # v(t-1) = (I - A(t)) v(t)
            s0, s1 = (1 - a11) * s0 - a12 * s1, -a21 * s0 + (1 - a22) * s1
            if check and not (isfinite(s0) and isfinite(s1)):
                _check_finite(model, (s0, s1), t)
            states.append((s0, s1))
        states.reverse()
        return _assemble(table, states)


def fundamental_matrix(model: CoefficientSet, lam, top: int) -> tuple:
    """Transfer products Y(t) mapping v(a-1) to v(t), for t = a-1 .. top.

    Y(a-1) is the identity; each step has unit determinant, so det Y == 1
    throughout, and the columns are the trajectories with data (1,0) and
    (0,1).
    """
    if top < model.a:
        raise ValueError("top must be at least the grid origin a")
    table = step_table(model, lam, top)
    with model.workprec():
        rows = _forward_states(table, ((1, 0), (0, 1)))
        return tuple(((c0[0], c1[0]), (c0[1], c1[1])) for c0, c1 in rows)


def oracle_three_term(
    model: CoefficientSet, lam, bd: BoundaryData, top: int
) -> Trajectory:
    """Independent scalar-recurrence solver (the oracle for propagate)."""
    if top < model.a:
        raise ValueError("top must be at least the grid origin a")
    table = step_table(model, lam, top)
    k = model.kernel
    with model.workprec():
        lam = table.lam
        a = model.a
        check = k.needs_finite_checks
        p_eff = dict(enumerate(table.p_tilde, a - 1))
        c1 = k.complex(0) + bd.c1
        c2 = k.complex(0) + bd.c2
        alpha_left = table.alpha[0]
        # quasi-difference seed: y1q(a-1) = p_eff(a-1) dy1(a-1) + alpha(a-1) y1(a)
        y1 = {a: c1, a - 1: c1 - (c2 - alpha_left * c1) / p_eff[a - 1]}
        for t, q_tilde in enumerate(table.q_tilde[1:], a):
            y1[t + 1] = (
                (p_eff[t] + p_eff[t - 1] + q_tilde - lam) * y1[t]
                - p_eff[t - 1] * y1[t - 1]
            ) / p_eff[t]
            if check and not k.isfinite(y1[t + 1]):
                raise PrecisionExhaustedError(
                    f"oracle value left the representable range near t={t}"
                )
        window = range(a - 1, top + 1)
        y2 = [y2_relation(model, lam, y1[t], y1[t + 1], t) for t in window]
        y1q = [
            quasi_difference(model, y1[t], y1[t + 1], y2_t, t)
            for t, y2_t in zip(window, y2)
        ]
        return Trajectory(
            model=model, lam=lam, top=top,
            y1=tuple(y1[t] for t in range(a - 1, top + 2)),
            y2=tuple(y2), y1q=tuple(y1q),
        )


def y2_relation(model: CoefficientSet, lam, y1_t, y1_next, t: int):
    """y2(t) from y1 by the defining algebraic relation (the second
    equation row solved for y2): c/(lam-d) dy1 + h/(lam-d) y1."""
    with model.workprec():
        den = lam - model.coeff("d", t)
        return (
            model.coeff("c", t) / den * (y1_next - y1_t)
            + model.coeff("h", t) / den * y1_t
        )


def quasi_difference(model: CoefficientSet, y1_t, y1_next, y2_t, t: int):
    """p(t) * (y1(t+1) - y1(t)) + c(t) * y2(t)."""
    with model.workprec():
        return model.coeff("p", t) * (y1_next - y1_t) + model.coeff("c", t) * y2_t


def operator_rows(model: CoefficientSet, y1, y2, t: int) -> tuple:
    """Both rows of the difference operator, without the lam terms, applied
    to a pair sequence given as functions y1(s), y2(s); row 1 exists for
    t >= a (it needs t-1), row 2 from a-1 on (None stands for a missing
    row).  A precision context must be active."""
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


def residual_rows(model: CoefficientSet, traj: Trajectory, t: int) -> tuple:
    """Raw residuals (L y - lam y) of both equation rows at t; row 1 is
    None at t = a-1."""
    with model.workprec():
        lam = traj.lam
        row1, row2 = operator_rows(model, traj.y1_at, traj.y2_at, t)
        row2 = row2 - lam * traj.y2_at(t)
        if row1 is not None:
            row1 = row1 - lam * traj.y1_at(t)
        return row1, row2


def relative_residual(model: CoefficientSet, traj: Trajectory, t: int) -> float:
    """Residuals normalized by the magnitude of the largest participating
    term, as a machine float."""
    k = model.kernel
    with model.workprec():
        lam = traj.lam
        row1, row2 = residual_rows(model, traj, t)
        scale2 = (
            k.absval(model.coeff("c", t) * (traj.y1_at(t + 1) - traj.y1_at(t)))
            + k.absval(model.coeff("h", t) * traj.y1_at(t))
            + k.absval(model.coeff("d", t) * traj.y2_at(t))
            + k.absval(lam * traj.y2_at(t))
            + 1
        )
        worst = float(k.to_mpf(k.absval(row2) / scale2))
        if row1 is not None:
            scale1 = (
                k.absval(model.coeff("p", t) * (traj.y1_at(t + 1) - traj.y1_at(t)))
                + k.absval(model.coeff("p", t - 1) * (traj.y1_at(t) - traj.y1_at(t - 1)))
                + k.absval(model.coeff("q", t) * traj.y1_at(t))
                + k.absval(model.coeff("c", t) * traj.y2_at(t))
                + k.absval(model.coeff("c", t - 1) * traj.y2_at(t - 1))
                + k.absval(model.coeff("h", t) * traj.y2_at(t))
                + k.absval(lam * traj.y1_at(t))
                + 1
            )
            worst = max(worst, float(k.to_mpf(k.absval(row1) / scale1)))
        return worst


def max_relative_residual(model: CoefficientSet, traj: Trajectory) -> float:
    return max(
        relative_residual(model, traj, t)
        for t in range(model.a - 1, traj.top + 1)
    )
