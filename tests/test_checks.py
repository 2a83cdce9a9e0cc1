"""The invariant suite solves once per (lam, window) and hands the solved
data to every helper."""

import pytest

from weyldisc import InadmissibleLambdaError, checks, recurrence, weyl


def test_run_suite_solves_each_lam_and_window_once(models, monkeypatch):
    """One suite builds at most three step tables over a-1 .. window (lam,
    lam + i and the oracle's own), calls fundamental_pair at most twice
    and computes the disc rows once."""
    tables = []
    build = recurrence.step_table

    def counting_table(model, lam, top):
        table = build(model, lam, top)
        tables.append((table.start, table.top))
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
