"""Bit-identity of native-float classification.

One SHA-256 pins what ``weyl.classify`` returns at native-float precision
and ``n_max`` 200 for the five built-ins: three seeded (lam, alpha) per
built-in, drawn like the native benchmark sweep, plus the two ex4.1b
inputs with small Im(lam) that exercise the native-range defect.  Each
result is rendered as its verdict, chi route, ``repr`` of ``m_limit``,
every disc and both partial-sum profiles; a raised error is rendered as
its type and message (ex4.2a's overflow message names the step where it
happened).  A change that claims bit-identical native arithmetic must
keep the digest; a deliberate change of the numbers updates it.
"""

import dataclasses
import hashlib
import math
import random

from weyldisc import PrecisionConfig, WeyldiscError, builtin_names, builtin_scenario
from weyldisc.weyl import classify

N_MAX = 200
SEED = 20261018
SEEDED_PER_BUILTIN = 3
FIXED = (
    ("ex4.1b", complex(-1.5, 0.3), 1.0),
    ("ex4.1b", complex(1.0, 0.3), 1.0),
)
DIGEST = "4f682f8e3ff5f663251c97db2d6888d4ee9cf61952c67b413041e2dc140285a1"


def _inputs():
    rng = random.Random(SEED)
    for name in builtin_names():
        for _ in range(SEEDED_PER_BUILTIN):
            lam = complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.5))
            yield name, lam, math.pi * rng.random()
    yield from FIXED


def _render(report) -> list[str]:
    lines = [report.verdict, report.chi_method, repr(report.m_limit)]
    lines += [f"disc {d.n} {d.center!r} {d.radius!r}" for d in report.disc_samples]
    lines += [f"psi {t} {s!r}" for t, s in report.psi_profile.partial_sums]
    if report.chi_profile is not None:
        lines += [f"chi {t} {s!r}" for t, s in report.chi_profile.partial_sums]
    return lines


def native_transcript() -> str:
    native = PrecisionConfig(mode="native-float")
    models = {}
    for name in builtin_names():
        scenario = dataclasses.replace(
            builtin_scenario(name), n_max=N_MAX, precision=native)
        models[name] = (scenario.model(), scenario.classify_options())
    lines = []
    for name, lam, alpha in _inputs():
        model, options = models[name]
        lines.append(f"== {name} lam={lam!r} alpha={alpha!r}")
        try:
            lines += _render(classify(model, lam, alpha, options))
        except (WeyldiscError, OverflowError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def test_native_classify_is_bit_identical():
    digest = hashlib.sha256(native_transcript().encode()).hexdigest()
    assert digest == DIGEST
