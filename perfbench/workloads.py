"""The benchmark's three workloads: their inputs, operations and answer checks.

Constructing a workload is its set-up (the models and scenarios it uses);
``pass_inputs(rng)`` draws one pass of operation inputs, ``run(inp)``
performs one operation and ``check(inp, result)`` compares its answer with
the expected one.  An input is a tuple whose first item names its latency
group: the built-in it runs, or a fixed known-failing input.  Every pass
touches each built-in exactly once with seeded inputs, plus the same fixed
inputs, so the work per pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path

from weyldisc import (
    PrecisionConfig,
    PrecisionExhaustedError,
    WeyldiscError,
    builtin_scenario,
    cli,
    resolve_scenario,
    weyl,
)

BUILTINS = ("free", "ex4.1a", "ex4.1b", "ex4.2a", "ex4.2b")

# (verdict, chi route) of each built-in at 256 bits.
EXPECTED = {
    "free": ("LPC", "backward"),
    "ex4.1a": ("LCC", "forward"),
    "ex4.1b": ("LPC", "backward"),
    "ex4.2a": ("LPC", "backward"),
    "ex4.2b": ("LCC", "forward"),
}

# m_limit (re, im) and final_radius from `weyldisc classify <name> --n-max 800`
# with mpmath at 256 bits.  REL_TOL is far above 256-bit roundoff and far
# below any change that could move a verdict.
REFERENCE_800 = {
    "free": ("0.3002425902201203977703869441029382869601",
             "0.6248105338438265654588121833512559533119",
             "4.367395472472620899108684164839852560646e-510"),
    "ex4.1a": ("0.02318819233734382978528998364708968438208",
               "0.7326083937027895176541392174840439110994",
               "0.2075579464748733837797800561020267196"),
    "ex4.1b": ("-0.1415160293263937607566305132422712631524",
               "0.2331580293391122826740513573895441368222",
               "6.386536324628172806980925923130026798461e-424"),
    "ex4.2a": ("0.4146896587997491723243115302466321736574",
               "0.2320444876061271699541066482197493314743",
               "6.474886217235495792379194662489854738966e-384839"),
    "ex4.2b": ("0.2460361045893712239607253877693437971175",
               "0.4131745350120462623166872617730405181646",
               "0.02147904869613966385988312879362638341263"),
}
REL_TOL = Decimal("1e-12")

INVARIANTS = (
    "transfer_det_unit", "oracle_agreement", "pair_det_unit",
    "wronskian_constant", "equation_residual", "green_identity_random",
    "bracket_antisymmetry", "lagrange_identity_equal_lam",
    "lagrange_identity_two_lams", "disc_radius_sum_identity", "disc_nesting",
    "disc_corner_route", "m_sweep_on_circle", "y2_reconstruction",
    "variation_of_parameters",
)
# Failing at the baseline: the corner-value route runs out of headroom on
# ex4.2a (worst 1.7e-58 against tol 6.2e-61, also at 512 bits).  A pass here
# is welcome; any other FAIL is a wrong answer.
KNOWN_CHECK_FAILURES = {("ex4.2a", "disc_corner_route")}
CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+)\s+worst=(\S+) tol=(\S+)$")

# Failing at the baseline: native-float ex4.1b with small Im(lam) and
# |Re(lam)| >= 1 gives `undecided` at lam = -1.5+0.3i and a raw OverflowError
# from weyl._disc_rows at lam = 1+0.3i.  native-sweep runs both in every pass;
# LPC there is welcome, any other answer is a known failure.
KNOWN_SWEEP_FAILURES = (
    ("ex4.1b", complex(-1.5, 0.3), 1.0),
    ("ex4.1b", complex(1.0, 0.3), 1.0),
)


@dataclass
class Checked:
    """The answer check of one operation."""

    outcomes: int  # answers checked (invariant lines for `check`, else 1)
    failures: list[str]  # outcomes that failed, known failures included
    wrong: list[str]  # differences from the expected answer; empty if right


def _rel_err(value: str, ref: str) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(value) - Decimal(ref)) / abs(Decimal(ref))


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class ClassifyCli:
    """`weyldisc classify <builtin> --n-max 800` in process, artifacts included."""

    name = "classify-800"
    n_max = 800

    def __init__(self, workdir: Path):
        self.out = workdir / self.name
        for name in BUILTINS:
            resolve_scenario(name).model()
        self.digests: dict[str, str] = {}

    def pass_inputs(self, rng) -> list:
        return [(name,) for name in rng.sample(BUILTINS, len(BUILTINS))]

    def run(self, inp):
        (name,) = inp
        return _quiet_cli(["classify", name, "--n-max", str(self.n_max),
                           "--bits", "256", "--out", str(self.out)])[0]

    def check(self, inp, code) -> Checked:
        (name,) = inp
        if code != 0:
            return Checked(1, [name], [f"{name}: exit {code!r}"])
        report_path = self.out / f"{name}_report.json"
        csv_path = self.out / f"{name}_discs.csv"
        report_bytes = report_path.read_bytes()
        csv_bytes = csv_path.read_bytes()
        report_path.unlink()
        csv_path.unlink()
        report = json.loads(report_bytes)
        wrong = []
        got = (report["verdict"], report["chi_method"])
        if got != EXPECTED[name]:
            wrong.append(f"{name}: (verdict, chi route) {got} != {EXPECTED[name]}")
        ref_re, ref_im, ref_radius = REFERENCE_800[name]
        for label, value, ref in (
            ("m_limit.re", report["m_limit"]["re"], ref_re),
            ("m_limit.im", report["m_limit"]["im"], ref_im),
            ("final_radius", report["final_radius"], ref_radius),
        ):
            if not _rel_err(value, ref) <= REL_TOL:
                wrong.append(f"{name}: {label} {value} differs from {ref}")
        digest = hashlib.sha256(report_bytes + b"\0" + csv_bytes).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            wrong.append(f"{name}: artifacts differ from this run's first ones")
        return Checked(1, [name] if wrong else [], wrong)


class CheckCli:
    """`weyldisc check <builtin>` in process: 15 invariants at top=40, 256 bits."""

    name = "check-40"

    def __init__(self, workdir: Path):
        for name in BUILTINS:
            resolve_scenario(name).model()

    def pass_inputs(self, rng) -> list:
        return [(name,) for name in rng.sample(BUILTINS, len(BUILTINS))]

    def run(self, inp):
        (name,) = inp
        return _quiet_cli(["check", name, "--bits", "256"])

    def check(self, inp, result) -> Checked:
        (name,) = inp
        if not isinstance(result, tuple):
            return Checked(len(INVARIANTS), [name], [f"{name}: {result!r}"])
        code, text = result
        status = {}
        for line in text.splitlines():
            match = CHECK_LINE.match(line)
            if match:
                status[match.group(2)] = match.group(1)
        wrong = []
        if tuple(status) != INVARIANTS:
            wrong.append(f"{name}: invariant lines {list(status)}")
        failing = [inv for inv, st in status.items() if st == "FAIL"]
        wrong += [f"{name}: {inv} FAIL" for inv in failing
                  if (name, inv) not in KNOWN_CHECK_FAILURES]
        if code != (1 if failing else 0):
            wrong.append(f"{name}: exit {code} with {len(failing)} failures")
        return Checked(len(INVARIANTS), [f"{name} {inv}" for inv in failing], wrong)


class NativeSweep:
    """Native-float `classify` at n_max 200 on one reused model per built-in,
    each operation at a fresh seeded (lam, alpha), plus the fixed
    KNOWN_SWEEP_FAILURES inputs."""

    name = "native-sweep"
    n_max = 200

    def __init__(self, workdir: Path):
        native = PrecisionConfig(mode="native-float")
        self.models = {}
        for name in BUILTINS:
            scenario = dataclasses.replace(
                builtin_scenario(name), n_max=self.n_max, precision=native)
            self.models[name] = (scenario.model(), scenario.classify_options())

    def pass_inputs(self, rng) -> list:
        # Re(lam) in [-1, 1], Im(lam) in [0.5, 1.5] keeps the seeded lam clear
        # of the known ex4.1b defect, so that the verdicts there stay a
        # correctness check; the fixed inputs carry the defect instead.
        sweep = [(name, name, complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.5)),
                  math.pi * rng.random())
                 for name in rng.sample(BUILTINS, len(BUILTINS))]
        fixed = [(f"{name} lam={lam} alpha={alpha}", name, lam, alpha)
                 for name, lam, alpha in KNOWN_SWEEP_FAILURES]
        return sweep + fixed

    def run(self, inp):
        _, name, lam, alpha = inp
        model, options = self.models[name]
        try:
            return weyl.classify(model, lam, alpha, options)
        except (WeyldiscError, OverflowError) as exc:  # check() names the type
            return exc

    def check(self, inp, result) -> Checked:
        group, name, lam, alpha = inp
        # ex4.2a's solutions grow like 2^(t^2): native floats overflow near t=32
        want = "PrecisionExhaustedError" if name == "ex4.2a" else EXPECTED[name][0]
        if isinstance(result, weyl.ClassificationReport):
            got = result.verdict
        else:
            got = type(result).__name__
        if got == want:
            return Checked(1, [], [])
        if (name, lam, alpha) in KNOWN_SWEEP_FAILURES:
            return Checked(1, [group], [])
        return Checked(1, [name], [f"{name} at lam={lam!r} alpha={alpha!r}: {got} != {want}"])


WORKLOADS = {w.name: w for w in (ClassifyCli, CheckCli, NativeSweep)}
