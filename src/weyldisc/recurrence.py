"""Initial value problems for the mixed-order system.

The two-component equation is equivalent to a first-order recursion for
the state v(t) = (y1(t+1), y1q(t)), where y1q is the quasi-difference
p*dy1 + c*y2: stepping forward solves (I - A(t)) v(t) = v(t-1) with the
closed-form 2x2 inverse (det(I - A) == 1, so no pivoting is needed), and
y2 is reconstructed algebraically from the state.  The values at t = a-1
come from row a-1 of the step table: y1(a-1) solves the quasi-difference
y1q(a-1) = p_tilde dy1(a-1) + alpha y1(a) for it, and y2(a-1) is the
state reconstruction below, as on every other row.

Everything a propagation needs at one (model, lam) comes from a step
table: ``step_table`` reads the coefficient columns, walks t = a-1 .. top
once and keeps, per t, the derived quantities (p_tilde, alpha, q_tilde),
the entries of A(t) and the y2-reconstruction coefficients

    y2(t) = r1(t) y1(t+1) + r2(t) y1q(t),
    r1 = h*p/(den*p_tilde),  r2 = (c - h)/(den*p_tilde),

with den = lam - d.  r1 is alpha*(h - c)/(den*p_tilde) + h/den with its
two terms combined: apart, they cancel when (c^2 - h*c)/den dwarfs p.
Likewise a21 = (h_shift - alpha)*alpha/p_tilde + h_shift, with h_shift
= q + h^2/den - lam, is formed as ((q - lam)*lead + h^2*p/den)/p_tilde,
where lead = p + c^2/den = p_tilde + alpha: the first form's
h^2*c^2/den^2 parts cancel exactly, and computed apart they lose the
whole mantissa when c and h grow together.
Each row takes one complex reciprocal of den and one of p_tilde and
multiplies by them wherever these formulas divide, so the entries agree
with the quotients to within a few units in the last place; a row whose
d(t) is the previous row's value object (a constant coefficient) keeps
that row's den and 1/den.  alpha(t-1), which q_tilde(t) needs, is the
previous row.  A table is built per call and dropped with it; callers
that step several solutions at one (model, lam) pass the same table
along.  The table also keeps each step's entries (1 - a22, a12, a21,
1 - a11), formed once: forward they are the closed-form inverse
(I - A)^{-1}, backward they give I - A, so every solver, forward or
backward, steps any number of columns through them, and the two
solutions of a fundamental pair are one call.

``oracle_three_term`` is the independent check: it never touches the
transfer matrices, solving instead the scalar three-term recurrence

    p_eff(t) y1(t+1) = (p_eff(t) + p_eff(t-1) + q_eff(t) - lam) y1(t)
                       - p_eff(t-1) y1(t-1)

with y2 recovered from y1 by its defining algebraic relation and y1q
from the quasi-difference: ``y2_relation`` and ``quasi_difference`` apply
these to a window of y1 and y2, reading the coefficient columns.

``operator_window`` is the one place the difference operator itself is
applied: it walks a pair sequence once over a window and forms each
product of both equation rows once per t.  The residual sweeps
(``relative_residuals`` and its one-point and whole-window forms) and
Green's formula in ``structure`` take the rows and their terms from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InadmissibleLambdaError,
    PrecisionExhaustedError,
    WindowError,
)
from .model import CoefficientSet, as_lambda_scalar


@dataclass(frozen=True)
class StepTable:
    """Per-t quantities of one (model, lam) for t = a-1 .. top, one column
    per quantity, indexed by t - (a-1).

    The first row has no predecessor, so its q_tilde and step entries are
    None: the table has step matrices exactly for t = a .. top.  For the
    left boundary it also keeps lead_left = p + c^2/(lam - d) at a-1: that
    is p_tilde + alpha there, formed so that it does not cancel when alpha
    nears -p_tilde.  ``steps`` holds (1 - a22, a12, a21, 1 - a11) for
    t = a .. top, so its entry i is row i+1.
    """

    model: CoefficientSet
    lam: object
    top: int
    p_tilde: tuple
    alpha: tuple
    q_tilde: tuple
    a11: tuple
    a12: tuple
    a21: tuple
    a22: tuple
    r1: tuple
    r2: tuple
    lead_left: object
    steps: tuple

    def index(self, t: int) -> int:
        start = self.model.a - 1
        if t < start or t > self.top:
            raise WindowError(
                f"step table covers {start} <= t <= {self.top}, got t={t}"
            )
        return t - start

    def cut(self, top: int) -> "StepTable":
        """The same table on a-1 .. top (top <= self.top)."""
        if top == self.top:
            return self
        n = self.index(top) + 1
        return StepTable(
            self.model, self.lam, top,
            *(col[:n] for col in (self.p_tilde, self.alpha, self.q_tilde,
                                  self.a11, self.a12, self.a21, self.a22,
                                  self.r1, self.r2)),
            self.lead_left, self.steps[:n - 1],
        )


def step_table(model: CoefficientSet, lam, top: int) -> StepTable:
    """Walk t = a-1 .. top once and tabulate every derived quantity, step
    matrix and y2 coefficient on the way.

    Raises InadmissibleLambdaError where lam equals d(t) or p_tilde(t)
    vanishes.
    """
    start = model.a - 1
    if top < start:
        raise ValueError(f"top ({top}) lies below start ({start})")
    lam = as_lambda_scalar(model, lam)
    rows = []
    steps = []
    alpha_prev = d_prev = None
    columns = zip(
        range(start, top + 1),
        *(model.column(name, start, top) for name in "pchd"),
        (None,) + model.column("q", model.a, top),
    )
    for t, p, c, h, d, q in columns:
        if d is not d_prev:
            den = lam - d
            if den == 0:
                raise InadmissibleLambdaError(f"lam equals d({t})", t=t)
            inv_den = 1 / den
            d_prev = d
        cc = c * c
        p_tilde = p + (cc - h * c) * inv_den
        alpha = h * c * inv_den
        if p_tilde == 0:
            raise InadmissibleLambdaError(
                f"effective leading coefficient vanishes at t={t}", t=t
            )
        lead = p + cc * inv_den
        inv_p = 1 / p_tilde
        inv_denp = inv_den * inv_p
        r1 = h * p * inv_denp
        r2 = (c - h) * inv_denp
        if alpha_prev is None:
            q_tilde = a11 = a12 = a21 = a22 = None
            lead_left = lead
        else:
            hh = h * h
            common = q + hh * inv_den
            q_tilde = common - (alpha - alpha_prev)
            h_shift = common - lam
            a11 = -alpha * inv_p
            a12 = inv_p
            a21 = ((q - lam) * lead + hh * p * inv_den) * inv_p
            a22 = (alpha - h_shift) * inv_p
            steps.append((1 - a22, a12, a21, 1 - a11))
        rows.append((p_tilde, alpha, q_tilde, a11, a12, a21, a22, r1, r2))
        alpha_prev = alpha
    return StepTable(model, lam, top, *zip(*rows), lead_left, tuple(steps))


def _full_table(model: CoefficientSet, lam, top: int, table: StepTable | None) -> StepTable:
    """The step table on a-1 .. top: ``table`` when given (it must be that
    table), else a new one."""
    if table is None:
        return step_table(model, lam, top)
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
            y1=tuple([v * factor for v in self.y1]),
            y2=tuple([v * factor for v in self.y2]),
            y1q=tuple([v * factor for v in self.y1q]),
        )

    def combined(self, other: "Trajectory", factor) -> "Trajectory":
        """self + factor * other, componentwise."""
        if other.top != self.top or other.model != self.model:
            raise WindowError("trajectories live on different windows or models")
        return Trajectory(
            model=self.model, lam=self.lam, top=self.top,
            y1=tuple([u + factor * v for u, v in zip(self.y1, other.y1)]),
            y2=tuple([u + factor * v for u, v in zip(self.y2, other.y2)]),
            y1q=tuple([u + factor * v for u, v in zip(self.y1q, other.y1q)]),
        )


def _check_finite(model: CoefficientSet, state: tuple, t: int) -> None:
    """Refuse a stepped state v(t) with a non-finite entry."""
    k = model.kernel
    if not (k.isfinite(state[0]) and k.isfinite(state[1])):
        raise PrecisionExhaustedError(
            f"state magnitude left the representable range near t={t}; "
            "raise mantissa_bits or switch to big-float mode"
        )


def _forward_states(table: StepTable, starts) -> list:
    """States v(t), t = a-1 .. top, of every initial state in ``starts``:
    one list per start, entry t-(a-1) the state at t.

    A non-finite state makes every later one non-finite (inf and nan
    survive each product and sum of a step), so on native floats only the
    last states are tested, and the states are rescanned for the first
    non-finite t only when one fails."""
    model = table.model
    k = model.kernel
    # (I - A)^{-1} in closed form, from the table's step entries; det(I - A) == 1
    steps = table.steps
    out = []
    for s0, s1 in starts:
        s0 = k.complex(0) + s0
        s1 = k.complex(0) + s1
        states = [(s0, s1)]
        for m11, a12, a21, m22 in steps:
            s0, s1 = m11 * s0 + a12 * s1, a21 * s0 + m22 * s1
            states.append((s0, s1))
        out.append(states)
    isfinite = k.isfinite
    if k.needs_finite_checks and not all(
        isfinite(s0) and isfinite(s1) for s0, s1 in (column[-1] for column in out)
    ):
        for t, row in enumerate(list(zip(*out))[1:], model.a):
            for state in row:
                _check_finite(model, state, t)
    return out


def _assemble(table: StepTable, states: list) -> Trajectory:
    """Build a Trajectory from states v(t) for t = a-1 .. top.

    y1(a-1) solves the quasi-difference at a-1, y1q(a-1) =
    p_tilde dy1(a-1) + alpha y1(a), for it, from row a-1 of the table:
    y1(a-1) = ((p_tilde + alpha) y1(a) - y1q(a-1)) / p_tilde."""
    model = table.model
    y1_a, y1q_left = states[0]
    y1 = [(table.lead_left * y1_a - y1q_left) / table.p_tilde[0]]
    y1 += [st[0] for st in states]
    y1q = [st[1] for st in states]
    y2 = [r1 * s0 + r2 * s1 for r1, r2, (s0, s1) in zip(table.r1, table.r2, states)]
    k = model.kernel
    if k.needs_finite_checks and not all(
        all(map(k.isfinite, seq)) for seq in (y1, y2, y1q)
    ):
        raise PrecisionExhaustedError(
            "trajectory magnitude left the representable range; "
            "raise mantissa_bits or switch to big-float mode"
        )
    return Trajectory(
        model=model, lam=table.lam, top=table.top,
        y1=tuple(y1), y2=tuple(y2), y1q=tuple(y1q),
    )


def propagate_columns(table: StepTable, data) -> tuple:
    """Every BoundaryData in ``data`` stepped forward through ``table``
    (each step's inverse formed once); returns their trajectories on
    a-1 .. table.top."""
    columns = _forward_states(table, [(bd.c1, bd.c2) for bd in data])
    return tuple([_assemble(table, states) for states in columns])


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
    s0 = k.complex(0) + terminal_state[0]
    s1 = k.complex(0) + terminal_state[1]
    states = [(s0, s1)]
    # steps of t = top .. a; v(t-1) = (I - A(t)) v(t), whose diagonal is
    # 1 - a11 = m22 and 1 - a22 = m11
    for m11, a12, a21, m22 in reversed(table.steps):
        s0, s1 = m22 * s0 - a12 * s1, m11 * s1 - a21 * s0
        states.append((s0, s1))
    # as in _forward_states: the last state tells, the rescan names t
    if k.needs_finite_checks and not (k.isfinite(s0) and k.isfinite(s1)):
        for t, state in zip(range(top, model.a - 1, -1), states[1:]):
            _check_finite(model, state, t)
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
    columns = _forward_states(table, ((1, 0), (0, 1)))
    return tuple(((c0[0], c1[0]), (c0[1], c1[1])) for c0, c1 in zip(*columns))


def oracle_three_term(
    model: CoefficientSet, lam, bd: BoundaryData, top: int,
    *, table: StepTable | None = None,
) -> Trajectory:
    """Independent scalar-recurrence solver (the oracle for propagate).
    It reads only p_tilde, alpha and q_tilde of the step table, never the
    transfer matrices; ``table``, when given, is the step table of
    (model, lam) on a-1 .. top."""
    if top < model.a:
        raise ValueError("top must be at least the grid origin a")
    table = _full_table(model, lam, top, table)
    k = model.kernel
    lam = table.lam
    a = model.a
    check = k.needs_finite_checks
    c1 = k.complex(0) + bd.c1
    c2 = k.complex(0) + bd.c2
    p_eff = table.p_tilde
    # quasi-difference seed: y1q(a-1) = p_eff(a-1) dy1(a-1) + alpha(a-1) y1(a)
    y1 = [c1 - (c2 - table.alpha[0] * c1) / p_eff[0], c1]
    rows = zip(p_eff, p_eff[1:], table.q_tilde[1:])
    for t, (p_prev, p_t, q_tilde) in enumerate(rows, a):
        y1.append(
            ((p_t + p_prev + q_tilde - lam) * y1[-1] - p_prev * y1[-2]) / p_t
        )
        if check and not k.isfinite(y1[-1]):
            raise PrecisionExhaustedError(
                f"oracle value left the representable range near t={t}"
            )
    y2 = y2_relation(model, lam, y1, a - 1, top)
    return Trajectory(
        model=model, lam=lam, top=top, y1=tuple(y1), y2=y2,
        y1q=quasi_difference(model, y1, y2, a - 1, top),
    )


def _pair_window(model: CoefficientSet, first: int, last: int, y1, y2) -> tuple:
    """(y1(t), y1(t+1), y2(t)) on t = first .. last as three slices of
    sequences indexed from a-1; y1 must reach last+1 and y2 last."""
    i, j = first - (model.a - 1), last - model.a + 2
    if first < model.a - 1 or last < first or len(y1) <= j or len(y2) < j:
        raise WindowError(
            f"window {first} .. {last} needs y1 on {model.a - 1} .. {last + 1} "
            f"and y2 on {model.a - 1} .. {last}"
        )
    return y1[i:j], y1[i + 1:j + 1], y2[i:j]


def y2_relation(model: CoefficientSet, lam, y1, first: int, last: int) -> tuple:
    """y2(t) from y1 by the defining algebraic relation (the second
    equation row solved for y2), c/(lam-d) dy1 + h/(lam-d) y1, for
    t = first .. last; ``y1`` is indexed from a-1 and reaches last+1."""
    y1_t, y1_next, _ = _pair_window(model, first, last, y1, y1)  # no y2 yet
    out = []
    for c, h, d, cur, nxt in zip(
        *(model.column(name, first, last) for name in "chd"), y1_t, y1_next
    ):
        den = lam - d
        out.append(c / den * (nxt - cur) + h / den * cur)
    return tuple(out)


def quasi_difference(model: CoefficientSet, y1, y2, first: int, last: int) -> tuple:
    """p(t) * (y1(t+1) - y1(t)) + c(t) * y2(t) for t = first .. last;
    ``y1`` and ``y2`` are indexed from a-1, y1 reaching last+1 and y2
    last."""
    y1_t, y1_next, y2_t = _pair_window(model, first, last, y1, y2)
    return tuple(
        p * (nxt - cur) + c * v
        for p, c, cur, nxt, v in zip(
            model.column("p", first, last), model.column("c", first, last),
            y1_t, y1_next, y2_t,
        )
    )


def operator_window(model: CoefficientSet, y1, y2, first: int, last: int):
    """Both rows of the difference operator, without the lam terms, on a
    pair sequence for t = first .. last: the one routine that applies the
    operator.  ``y1`` and ``y2`` are indexed from a-1; y1 must reach
    last+1 and y2 last.

    Per t it yields (row1, row2, terms), where terms are the products the
    rows sum,

        (p dy1(t-1), p dy1(t), q y1, c y2(t-1), c y2(t), h y2,
         c dy1(t), h y1, d y2)

    with dy1(t) = y1(t+1) - y1(t) and every coefficient at t unless marked
    t-1.  Row 1 needs t-1, so at t = a-1 it and its four terms (the first,
    third, fourth and sixth) are None.  The walk forms each product once:
    dy1(t), p dy1(t) and c y2(t) are the previous terms at t+1.
    """
    y1_cols = _pair_window(model, first, last, y1, y2)
    # from a on, row 1 reads p and c at first-1 (the previous terms); at
    # a-1 it is None and reads no q
    lead = int(first >= model.a)
    p_col, c_col = (model.column(name, first - lead, last) for name in "pc")
    pd_prev = cy2_prev = None
    if lead:
        i = first - (model.a - 1)
        pd_prev = p_col[0] * (y1[i] - y1[i - 1])
        cy2_prev = c_col[0] * y2[i - 1]
    columns = zip(
        p_col[lead:], c_col[lead:],
        model.column("h", first, last), model.column("d", first, last),
        (None,) * (1 - lead) + model.column("q", first + 1 - lead, last),
        *y1_cols,
    )
    for p_t, c_t, h_t, d_t, q_t, y1_t, y1_next, y2_t in columns:
        dy1 = y1_next - y1_t
        cd = c_t * dy1
        hy1 = h_t * y1_t
        dy2 = d_t * y2_t
        row2 = cd + hy1 + dy2
        pd = p_t * dy1
        cy2 = c_t * y2_t
        if q_t is None:
            row1 = qy1 = hy2 = None
        else:
            qy1 = q_t * y1_t
            hy2 = h_t * y2_t
            row1 = -(pd - pd_prev) + qy1 - (cy2 - cy2_prev) + hy2
        yield row1, row2, (pd_prev, pd, qy1, cy2_prev, cy2, hy2, cd, hy1, dy2)
        pd_prev, cy2_prev = pd, cy2


def relative_residuals(model: CoefficientSet, traj: Trajectory, first: int,
                       last: int) -> list:
    """Relative residuals of a solution at t = first .. last, one machine
    float per t, from one pass of ``operator_window``.

    Each row's residual (L y - lam y) is normalized by the magnitudes of
    the terms it sums, plus 1; the value at t is the larger of the two
    rows (row 2 alone at t = a-1).  A row that is exactly zero (false as
    a truth value) reads 0.0 without its scale: its terms are finite, so
    the scale is finite and at least 1.  |p dy1| and |c y2| of a scaled row 1 serve again as the
    previous-term magnitudes at t+1.
    """
    out = []
    lam = traj.lam
    # |p dy1| and |c y2| at the previous t, or None where not formed
    abs_pd = abs_cy2 = None
    walk = zip(
        operator_window(model, traj.y1, traj.y2, first, last),
        *traj.component_columns(first, last),
    )
    for (row1, row2, terms), y1_t, y2_t in walk:
        pd_prev, pd, qy1, cy2_prev, cy2, hy2, cd, hy1, dy2 = terms
        ly2 = lam * y2_t
        row2 = row2 - ly2
        worst = 0.0
        if row2:
            scale2 = abs(cd) + abs(hy1) + abs(dy2) + abs(ly2) + 1
            worst = float(abs(row2) / scale2)
        abs_pd_prev, abs_cy2_prev = abs_pd, abs_cy2
        abs_pd = abs_cy2 = None
        if row1 is not None:
            ly1 = lam * y1_t
            row1 = row1 - ly1
            if row1:
                if abs_pd_prev is None:
                    abs_pd_prev, abs_cy2_prev = abs(pd_prev), abs(cy2_prev)
                abs_pd, abs_cy2 = abs(pd), abs(cy2)
                scale1 = (
                    abs_pd + abs_pd_prev + abs(qy1) + abs_cy2 + abs_cy2_prev
                    + abs(hy2) + abs(ly1) + 1
                )
                worst = max(worst, float(abs(row1) / scale1))
        out.append(worst)
    return out


def relative_residual(model: CoefficientSet, traj: Trajectory, t: int) -> float:
    """Residuals normalized by the magnitude of the largest participating
    term, as a machine float: ``relative_residuals`` at the one point t."""
    return relative_residuals(model, traj, t, t)[0]


def max_relative_residual(model: CoefficientSet, traj: Trajectory) -> float:
    """Largest relative residual of a solution over its window a-1 .. top,
    in one sweep."""
    return max(relative_residuals(model, traj, model.a - 1, traj.top))
