"""The invariant suite solves once per (lam, window) and hands the solved
data to every helper."""

import dataclasses
import random

import pytest

from weyldisc import InadmissibleLambdaError, PrecisionConfig, checks, recurrence, weyl


def test_run_suite_solves_each_lam_and_window_once(models, monkeypatch):
    """One suite builds at most three step tables over a-1 .. window,
    calls fundamental_pair at most twice and computes the disc rows
    once."""
    tables = []
    build = recurrence.step_table

    def counting_table(model, lam, top):
        table = build(model, lam, top)
        tables.append((model.a - 1, table.top))
        return table

    pairs = []
    pair = weyl.fundamental_pair

    def counting_pair(*args, **kwargs):
        pairs.append(args)
        return pair(*args, **kwargs)

    disc_passes = []
    disc_rows = weyl._disc_rows

    def counting_discs(*args):
        disc_passes.append(args[-1])
        return disc_rows(*args)

    for module in (recurrence, checks, weyl):
        monkeypatch.setattr(module, "step_table", counting_table)
    for module in (checks, weyl):
        monkeypatch.setattr(module, "fundamental_pair", counting_pair)
    monkeypatch.setattr(checks, "_disc_rows", counting_discs)
    model = models["free"]
    results = checks.run_suite(model, 1j, top=40)
    assert all(r.passed for r in results)
    full = [window for window in tables if window[0] == model.a - 1]
    assert len(full) <= 3
    assert len(pairs) <= 2
    assert disc_passes == [40]


def test_run_suite_steps_each_boundary_datum_once(models, monkeypatch):
    """At alpha = 0 the pair is the variation-of-parameters basis and psi
    starts from (1, 0), the oracle line's data: the suite steps three
    columns at lam (the pair and (1, 1)) and two at lam + i, through two
    step tables, the oracle reading the lam table."""
    tables, columns = [], []
    build, forward = recurrence.step_table, recurrence._forward_states

    def counting_table(model, lam, top):
        table = build(model, lam, top)
        tables.append(complex(table.lam))
        return table

    def counting_forward(table, starts):
        starts = list(starts)
        columns.append((complex(table.lam), len(starts)))
        return forward(table, starts)

    for module in (recurrence, checks, weyl):
        monkeypatch.setattr(module, "step_table", counting_table)
    monkeypatch.setattr(recurrence, "_forward_states", counting_forward)
    results = checks.run_suite(models["free"], 1j, top=40)
    assert all(r.passed for r in results)
    assert sorted(tables, key=abs) == [1j, 2j]
    assert sum(n for lam, n in columns if lam == 1j) == 3
    assert sum(n for lam, n in columns if lam == 2j) == 2


def test_run_suite_refuses_a_real_lam_before_solving(models, monkeypatch):
    tables = []
    monkeypatch.setattr(checks, "step_table", lambda *args: tables.append(args))
    with pytest.raises(InadmissibleLambdaError):
        checks.run_suite(models["ex4.1a"], 0.5, top=40)
    assert tables == []


def test_run_suite_sweeps_each_solution_residual_once(models, monkeypatch):
    """phi, psi and the lam + i solution are each swept once on a-1 .. top:
    the equation-residual line and the Lagrange gates share the sweeps."""
    sweeps = []
    residuals = recurrence.relative_residuals

    def counting_sweep(model, traj, first, last):
        sweeps.append((traj.lam, traj.y1[:2], first, last))
        return residuals(model, traj, first, last)

    monkeypatch.setattr(recurrence, "relative_residuals", counting_sweep)
    model = models["free"]
    results = checks.run_suite(model, 1j, top=40)
    assert all(r.passed for r in results)
    assert len(sweeps) == 3
    assert len(set(sweeps)) == len(sweeps)
    assert all((first, last) == (model.a - 1, 40) for *_, first, last in sweeps)


@pytest.mark.parametrize("native", [False, True])
def test_random_pair_sequences_leave_the_unread_y2_unconverted(models, native):
    """Green's formula reads y2 up to top only: each sequence's last y2 is
    drawn but left None; every other entry, and the generator's end
    state, are those of converting every draw."""
    model = models["ex4.1a"]
    if native:
        model = model.with_precision(PrecisionConfig(mode="native-float"))
    k = model.kernel
    top = 12
    n = top + 2 - (model.a - 1)
    rng, full = random.Random(7), random.Random(7)
    y, z = checks.random_pair_sequences(model, top, rng)
    for seq in (y, z):
        draws = [k.complex(full.uniform(-1, 1), full.uniform(-1, 1))
                 for _ in range(2 * n)]
        assert len(seq) == n and seq[-1][1] is None
        assert [v for pair in seq for v in pair][:-1] == draws[:-1]
    assert rng.getstate() == full.getstate()


def test_pairing_lines_cover_their_windows(models):
    """The pair-determinant line reads a .. top, the Wronskian line also
    a-1: a pairing defect planted at a-1 shows in the second only."""
    model = models["ex4.1b"]
    phi, psi = weyl.fundamental_pair(model, 1j, 0.0, 20)
    base = checks.pair_det_deviation(phi, psi, 20)
    assert base == checks.wronskian_deviation(phi, psi, 20)
    # y1(a) enters the pairing at a-1 only, as the state's y1(t+1)
    bent = dataclasses.replace(psi, y1=psi.y1[:1] + (psi.y1[1] * 3,) + psi.y1[2:])
    assert checks.pair_det_deviation(phi, bent, 20) == base
    assert checks.wronskian_deviation(phi, bent, 20) > 0.1
