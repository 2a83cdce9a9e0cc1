"""Closed-form cross-validation of the full Weyl pipeline.

The constant-coefficient model has an elementary limit point: solutions
are powers of the roots of  mu^2 - (2 - lam) mu + 1 = 0, the
square-summable direction is the root inside the unit disc, and
matching its boundary data to phi + m psi at alpha = 0 gives

    m = mu / (1 - mu).

The classifier's disc centers must converge to this number at the rate
of the disc radii.  The two perturbed families also admit exact
spot checks at lam = 0, where their effective scalar equations collapse
to closed coefficient formulas.
"""

from weyldisc import ClassifyOptions, classify, step_table

from conftest import fabs, fdiff


def _inside_root(k, lam):
    """Root of mu^2 - (2-lam) mu + 1 = 0 with |mu| < 1 (product of the
    roots is 1, so exactly one lies inside for nonreal lam)."""
    b = 2 - lam
    disc = (b * b - 4) ** k.real(0.5)
    mu1 = (b + disc) / 2
    mu2 = (b - disc) / 2
    return mu1 if abs(mu1) < 1 else mu2


def test_free_model_limit_point_closed_form(models, classify_memo):
    free = models["free"]
    k = free.kernel
    report = classify_memo("free")
    mu = _inside_root(k, k.complex(0, 1))
    want = mu / (1 - mu)
    radius = report.disc_samples[-1].radius
    # the center approximates the limit point within the final radius,
    # which at N=200 has shrunk far below the 256-bit accuracy of the
    # comparison itself
    assert float(radius) < 1e-90
    tol = max(2 * float(radius), 1e-70)
    assert fdiff(report.m_limit, want) <= tol


def test_free_model_disc_centers_converge_to_closed_form(models):
    free = models["free"]
    k = free.kernel
    report = classify(free, 2j, 0.3, ClassifyOptions(n_max=120))
    lam = k.complex(0, 2)
    mu = _inside_root(k, lam)
    # m at alpha: chi data (sin a + m cos a, -cos a + m sin a) must be
    # proportional to the decaying direction (1, 1 - 1/mu)
    sa, ca = k.sin(0.3), k.cos(0.3)
    ratio = 1 - 1 / mu
    want = (ratio * sa + ca) / (-ratio * ca + sa)
    for disc in report.disc_samples[-3:]:
        gap = fabs(disc.center - want)
        assert gap <= max(2 * float(disc.radius), 1e-70)


def test_h_coupled_family_effective_equation_at_zero(models):
    """At lam = 0 the h-coupled family's effective potential collapses to
    -(4^-t + 2)."""
    model = models["ex4.1b"]
    k = model.kernel
    table = step_table(model, 0.0, 19)
    for t in (0, 1, 2, 7, 19):
        i = table.index(t)
        want = -(k.real(4) ** (-t) + 2)
        assert fdiff(table.q_tilde[i], want) <= fabs(want) * 1e-75
        assert fdiff(table.p_tilde[i], -(k.real(4) ** t)) == 0


def test_sqrt_coupled_family_effective_equation_at_zero(models):
    """At lam = 0 the c-coupled family's scalar form coincides with the
    diagonal geometric family's operator."""
    model = models["ex4.2b"]
    k = model.kernel
    table = step_table(model, 0.0, 11)
    for t in (0, 1, 3, 11):
        i = table.index(t)
        assert fdiff(table.p_tilde[i], -(k.real(4) ** t)) <= 1e-70 * fabs(table.p_tilde[i])
        assert fdiff(table.q_tilde[i], k.real(4) ** t) == 0
