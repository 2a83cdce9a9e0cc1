"""Acceptance gate: every criterion below runs at its stated tolerance
and prints one line; run with `pytest -v` for a line per criterion.
"""

import json
import math
import time

from weyldisc import (
    BoundaryAngles,
    BoundaryData,
    oracle_three_term,
    ratio_limit_point_check,
    regular_eigen_residual,
    vop_reconstruct,
    weighted_limit_point_check,
    weyl_disc,
)
from weyldisc.checks import (
    green_random_worst,
    lagrange_relative_defect,
    m_sweep_worst,
    oracle_deviation,
    transfer_det_deviation,
    wronskian_deviation,
)
from weyldisc.cli import main
from weyldisc.recurrence import propagate, step_table
from weyldisc.weyl import _disc_rows, fundamental_pair

from conftest import EXPECTED_VERDICTS, fabs, fdiff

LAM = 1j


def _cli_classify(name, tmp_path):
    started = time.perf_counter()
    code = main(["classify", name, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    assert code == 0
    report = json.loads((tmp_path / f"{name}_report.json").read_text())
    return report, elapsed


def test_criterion_1_first_family_verdicts(tmp_path):
    """Diagonal family LCC; its h-coupled perturbation LPC; < 10 s each."""
    report_a, time_a = _cli_classify("ex4.1a", tmp_path)
    report_b, time_b = _cli_classify("ex4.1b", tmp_path)
    assert report_a["verdict"] == "LCC"
    assert report_b["verdict"] == "LPC"
    assert time_a < 10.0 and time_b < 10.0
    print(f"ACCEPTANCE 1 PASS - ex4.1a LCC ({time_a:.2f}s), ex4.1b LPC ({time_b:.2f}s)")


def test_criterion_2_second_family_verdicts_and_criteria(tmp_path, models, classify_memo):
    """Second family verdicts plus both limit-point criteria on its
    diagonal part, consistent with the classifier."""
    report_a, time_a = _cli_classify("ex4.2a", tmp_path)
    report_b, time_b = _cli_classify("ex4.2b", tmp_path)
    assert report_a["verdict"] == "LPC"
    assert report_b["verdict"] == "LCC"
    assert time_a < 10.0 and time_b < 10.0

    ratio = ratio_limit_point_check(models["ex4.2a"], 200)
    weighted = weighted_limit_point_check(models["ex4.2a"], "1", 200)
    assert ratio.outcome == "holds"
    assert weighted.outcome == "holds"
    # criterion-classifier consistency on every builtin
    for name, model in models.items():
        if ratio_limit_point_check(model, 200).outcome == "holds":
            assert classify_memo(name).verdict == "LPC", name
    print(f"ACCEPTANCE 2 PASS - ex4.2a LPC + both criteria hold, ex4.2b LCC")


def test_criterion_3_identity_suite(models):
    """Structural identities below 1e-60 relative on all five scenarios,
    100 random pairs each, within 30 s."""
    started = time.perf_counter()
    tol = 1e-60
    for name, model in models.items():
        assert green_random_worst(model, 20, pairs=100) < tol, name
        table = step_table(model, LAM, 100)
        phi, psi = fundamental_pair(model, LAM, 0.0, 100, table=table)
        phi40, psi40 = phi.cut(40), psi.cut(40)
        other = propagate(model, 2j, BoundaryData(1, 0), 40)
        with model.workprec():
            discs, _ = _disc_rows(model, phi40, psi40, table.lam, 40)
        assert lagrange_relative_defect(model, psi40, psi40, 40) < tol, name
        assert lagrange_relative_defect(model, other, psi40, 40) < tol, name
        assert m_sweep_worst(phi40, psi40, discs, 40) < tol, name
        assert wronskian_deviation(phi, psi, 100) < tol, name
        assert transfer_det_deviation(table, 100) < tol, name
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS - identity suite on 5 scenarios in {elapsed:.1f}s")


def test_criterion_4_oracle_equivalence(models):
    """Transfer solver against the scalar three-term oracle, both lams."""
    for name, model in models.items():
        for lam in (1j, 1 + 1j):
            dev = oracle_deviation(propagate(model, lam, BoundaryData(1, 0), 100), 100)
            assert dev < 1e-60, (name, lam, dev)
    print("ACCEPTANCE 4 PASS - oracle equivalence on all builtins, lam in {i, 1+i}")


def test_criterion_5_disc_geometry(models, classify_memo):
    """Disc center/radius from the independent oracle; nesting; radius-sum
    identity."""
    free = models["free"]
    with free.workprec():
        # independent derivation: corner values from the scalar oracle
        phi = oracle_three_term(free, LAM, BoundaryData(0, -1), 1)
        psi = oracle_three_term(free, LAM, BoundaryData(1, 0), 1)
        a_v, b_v = phi.y1_at(1), phi.y1q_at(0)
        c_v, d_v = psi.y1_at(1), psi.y1q_at(0)
        mixed = a_v * d_v.conjugate() - b_v * c_v.conjugate()
        diag = c_v * d_v.conjugate() - d_v * c_v.conjugate()
        center_expected = -mixed / diag
        radius_expected = 1 / abs(diag)
        disc = weyl_disc(free, LAM, 0.0, 0)
        assert fdiff(free, disc.center, center_expected) < 1e-12
        assert fdiff(free, disc.radius, radius_expected) < 1e-12
        assert fdiff(free, disc.center, 0.5j) < 1e-12
        assert fdiff(free, disc.radius, 0.5) < 1e-12

    for name, model in models.items():
        report = classify_memo(name)
        discs = report.disc_samples
        km = model.kernel
        with model.workprec():
            slack = km.real(10) ** -40
            for i in range(len(discs)):
                for j in range(i + 1, len(discs)):
                    gap = abs(discs[j].center - discs[i].center)
                    assert gap <= discs[i].radius - discs[j].radius + slack, (
                        name, discs[i].n, discs[j].n
                    )
            sums = dict(report.psi_profile.partial_sums)
            for disc in discs:
                product = disc.radius * 2 * report.lam.imag * sums[disc.n]
                assert abs(product - 1) < slack, (name, disc.n)
    print("ACCEPTANCE 5 PASS - disc geometry (oracle values, nesting, radius-sum identity)")


def test_criterion_6_regular_eigenvalue_test(models):
    free = models["free"]
    angles = BoundaryAngles(0.0, 0.0)
    root = regular_eigen_residual(free, 1.0, angles, 0)
    assert fabs(free, root) < 1e-40
    nonreal = regular_eigen_residual(free, 1j, angles, 0)
    assert fabs(free, nonreal) > 0
    print("ACCEPTANCE 6 PASS - eigenvalue residual root at lam=1, nonzero at lam=i")


def test_criterion_7_variation_of_parameters(models):
    for name in ("free", "ex4.1a"):
        model = models[name]
        basis = fundamental_pair(model, 1j, 0.0, 26)
        z = propagate(model, 2j, BoundaryData(1, 0), 26)
        for t_check in (10, 20):
            res = vop_reconstruct(basis, z, 3, t_check)
            assert fabs(model, res.defect_y1) < 1e-50, (name, t_check)
            assert fabs(model, res.defect_y2) < 1e-50, (name, t_check)
    print("ACCEPTANCE 7 PASS - variation-of-parameters defects < 1e-50, both components")


def test_criterion_8_alpha_invariance(classify_memo):
    for name, want in EXPECTED_VERDICTS.items():
        verdicts = {
            alpha: classify_memo(name, alpha).verdict
            for alpha in (0.0, math.pi / 4, math.pi / 2)
        }
        assert set(verdicts.values()) == {want}, (name, verdicts)
    print("ACCEPTANCE 8 PASS - verdicts invariant under the boundary angle")
