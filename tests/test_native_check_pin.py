"""Bit-identity of the invariant suite at native-float precision.

One SHA-256 pins what ``checks.run_suite`` returns on native floats for
the five built-ins at their own (lam, alpha), at top 12 and at top 40.
Each result line is rendered as its name and the ``repr`` of its worst
defect; a raised error is rendered as its type and message.  The 256- and
53-bit ``check`` pins run on mpmath, so this one holds the native kernel
to the same standard: a change that claims bit-identical check arithmetic
keeps the digest, a deliberate change of a check updates it.
"""

import dataclasses
import hashlib

from weyldisc import PrecisionConfig, WeyldiscError, builtin_names, builtin_scenario
from weyldisc.checks import run_suite

TOPS = (12, 40)
DIGEST = "4065b49e038a630229b8b659db276063e411d7f68af9beb80ea55a11d40c8610"


def native_suite_transcript() -> str:
    native = PrecisionConfig(mode="native-float")
    lines = []
    for name in builtin_names():
        scenario = dataclasses.replace(builtin_scenario(name), precision=native)
        model = scenario.model()
        for top in TOPS:
            lines.append(f"== {name} top={top}")
            try:
                results = run_suite(model, scenario.lam, scenario.alpha, top=top)
            except (WeyldiscError, ArithmeticError, ValueError) as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
                continue
            lines += [f"{r.name} {r.worst!r}" for r in results]
    return "\n".join(lines) + "\n"


def test_native_run_suite_is_bit_identical():
    digest = hashlib.sha256(native_suite_transcript().encode()).hexdigest()
    assert digest == DIGEST
