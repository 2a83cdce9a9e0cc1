"""``weyl.decide``, the one place a verdict is made, fed hand-built growth
reads on both kernels; the options it refuses; and the origin-free
midpoint of its divergence test."""

import dataclasses

import pytest

from weyldisc import (
    ClassifyOptions,
    Decision,
    PrecisionConfig,
    builtin_names,
    builtin_scenario,
    classify,
    decide,
)
from weyldisc.backends import big_kernel, native_kernel
from weyldisc.weyl import _reads

KERNELS = [big_kernel(256), native_kernel()]
OPTIONS = ClassifyOptions()  # rel_tol 1e-10, divergence_factor 1e6

# (S_N, S_{N-window}, S_mid) that pass the bounded test only, the divergent
# test only, both, and neither
BOUNDED = (1.0, 1.0, 1.0)
DIVERGENT = (1e20, 1e10, 1.0)
BOTH = (1e20, 1e20, 1.0)
NEITHER = (2.0, 1.0, 1.0)

ADVICE = "; raise n_max or mantissa_bits"


def _decide(kernel, psi, chi, cross=None):
    def reads(triple):
        return None if triple is None else tuple(kernel.real(v) for v in triple)
    return decide(reads(psi), reads(chi), kernel, OPTIONS, cross)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("psi, chi, cross, want", [
    (BOUNDED, BOUNDED, None, ("LCC", None, "bounded", "bounded")),
    (DIVERGENT, BOUNDED, None, ("LPC", None, "divergent", "bounded")),
    (NEITHER, BOUNDED, None,
     ("undecided", "psi profile undecided, chi profile bounded" + ADVICE,
      "undecided", "bounded")),
    (BOTH, BOUNDED, None,
     ("undecided", "psi profile undecided, chi profile bounded" + ADVICE,
      "undecided", "bounded")),
    (DIVERGENT, BOTH, None,
     ("undecided", "psi profile divergent, chi profile undecided" + ADVICE,
      "divergent", "undecided")),
    (BOUNDED, DIVERGENT, None,
     ("undecided", "psi profile bounded, chi profile divergent" + ADVICE,
      "bounded", "divergent")),
    (DIVERGENT, None, None,
     ("undecided", "chi profile could not be stabilized", "divergent", None)),
    (DIVERGENT, None, "LCC",
     ("undecided", "chi profile could not be stabilized", "divergent", None)),
    (BOUNDED, BOUNDED, "LPC",
     ("undecided", "verdicts disagree between lam values: LCC vs LPC",
      "bounded", "bounded")),
    (DIVERGENT, BOUNDED, "LCC",
     ("undecided", "verdicts disagree between lam values: LPC vs LCC",
      "divergent", "bounded")),
    (DIVERGENT, BOUNDED, "undecided", ("LPC", None, "divergent", "bounded")),
    (BOUNDED, BOUNDED, "undecided", ("LCC", None, "bounded", "bounded")),
    (BOUNDED, BOUNDED, "LCC", ("LCC", None, "bounded", "bounded")),
    (NEITHER, BOUNDED, "LPC",
     ("undecided", "psi profile undecided, chi profile bounded" + ADVICE,
      "undecided", "bounded")),
])
def test_decide_branches(kernel, psi, chi, cross, want):
    got = _decide(kernel, psi, chi, cross)
    assert isinstance(got, Decision)
    assert tuple(got) == want


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_decide_thresholds_are_strict(kernel):
    """The bounded test is S_N - S_{N-window} < rel_tol S_N and the
    divergent one S_N > divergence_factor S_mid, both strict."""
    options = ClassifyOptions(rel_tol=0.5, divergence_factor=4.0)
    at = tuple(kernel.real(v) for v in (4.0, 2.0, 1.0))
    assert decide(at, at, kernel, options).psi_growth == "undecided"
    inside = tuple(kernel.real(v) for v in (4.0, 2.5, 1.0))
    assert decide(inside, inside, kernel, options).psi_growth == "bounded"
    past = tuple(kernel.real(v) for v in (4.5, 2.0, 1.0))
    assert decide(past, past, kernel, options).psi_growth == "divergent"


@pytest.mark.parametrize("name", builtin_names())
def test_decide_redecides_a_stored_report(classify_memo, models, name):
    """A report's partial sums hold all that ``decide`` reads: decided
    again from them, every built-in gets its verdict, reason and words."""
    report = classify_memo(name)
    model = models[name]
    options = builtin_scenario(name).classify_options()
    chi = report.chi_profile
    got = decide(_reads(report.psi_profile.partial_sums, model.a, options),
                 chi and _reads(chi.partial_sums, model.a, options),
                 model.kernel, options)
    assert got == (report.verdict, report.reason,
                   report.psi_profile.growth_verdict, chi and chi.growth_verdict)


@pytest.mark.parametrize("mode", ["big-float", "native-float"])
def test_growth_words_do_not_depend_on_the_origin(mode):
    """The free model on a .. a+200 has the same partial sums whatever the
    origin a, so its growth words must be the same too: the divergence
    test's midpoint counts from a."""
    runs = []
    for a in (0, 100, -7, 3):
        scenario = dataclasses.replace(
            builtin_scenario("free"), a=a, n_max=a + 200,
            precision=PrecisionConfig(mode=mode))
        report = classify(scenario.model(), complex(-0.003, 0.001), 0.0,
                          scenario.classify_options())
        runs.append(([s for _, s in report.psi_profile.partial_sums],
                     [s for _, s in report.chi_profile.partial_sums],
                     report.psi_profile.growth_verdict,
                     report.chi_profile.growth_verdict,
                     report.verdict))
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("field, value", [
    ("rel_tol", -1.0), ("rel_tol", 0.0), ("rel_tol", 1.0), ("rel_tol", 2.0),
    ("rel_tol", float("nan")),
    ("divergence_factor", 0.5), ("divergence_factor", 1.0),
    ("divergence_factor", -3.0), ("divergence_factor", float("nan")),
    ("window", 0), ("window", -3),
])
def test_options_refuse_thresholds_that_cannot_decide(field, value):
    with pytest.raises(ValueError, match=field):
        ClassifyOptions(**{field: value})


def test_options_accept_thresholds_inside_their_ranges():
    ClassifyOptions(rel_tol=1e-40, divergence_factor=1e300)
    ClassifyOptions(rel_tol=0.999, divergence_factor=1.001)
