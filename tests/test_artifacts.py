"""Byte-identity of the classify artifacts.

The digests pin the exact bytes of `weyldisc classify <builtin> --n-max 200`
at the default 256 bits, plus ex4.2a at n_max 800 (growth like 2^(t^2),
backward chi route), so drift that builds up over a long window cannot
hide behind the short one.  Every value is printed to 40 digits of its
working-precision value.  A refactor of the solvers must keep the
digests; a deliberate change of the numbers or of the report format
updates them in the same change.
"""

import contextlib
import hashlib
import io

import pytest

from weyldisc import builtin_names
from weyldisc.cli import main

DIGESTS = {
    "free_report.json": "b06a6fa6bb502105dea91a18472658ca07a3215825844c36b878c162419002d1",
    "free_discs.csv": "41efbcc157c85fa10d4f768b8aa4acc9f0924c4318b845e46526502a9101496c",
    "ex4.1a_report.json": "9379251baf0e0c5627cfe9fc6de3c0bd866d9f0d1dc290ad16f2fd14a895f656",
    "ex4.1a_discs.csv": "a2bd58c6536af868f343838f54d9d73fed300ca233213ae2bd94e3eee0ec7a6f",
    "ex4.1b_report.json": "d7c191bd73bed0fe5ba9c4abbc69d9efdb1c443d15826efc7bb9e3a929f74feb",
    "ex4.1b_discs.csv": "518133df7d31a4ed512cc0ffac7c1e370af9db70f0bf4736652ec520081f82ed",
    "ex4.2a_report.json": "4762b4fc0d33dd3c0924143922acfea4a8f581c54f96b245ecfa2b2acdd31f58",
    "ex4.2a_discs.csv": "0468ff8e1318a26c2ec3c900b2868cff0a9531af64c3b9fc2ca9fef729c195fc",
    "ex4.2b_report.json": "5ce650c0e2416a048b0b53b3ee345eb68ad3a5a4d3cf4cc65bdd3f8f9339f674",
    "ex4.2b_discs.csv": "13fe7953109bcb99b39b81743674d1fe9908d47b0dad9ef149a9e4767f8050c5",
}

LONG_WINDOW_DIGESTS = {
    "ex4.2a_report.json": "96096425bb4c80b29b84a45cd23916b3b1a8ffeecf0ba34d38beeffad045e97e",
    "ex4.2a_discs.csv": "1db00e06fb578a90995abc1657fb49d1b15872996d7eec4ea9d7546d0b2a9c95",
}


def _check_digests(out, name, n_max, digests):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["classify", name, "--n-max", str(n_max), "--out", str(out)]) == 0
    for suffix in ("_report.json", "_discs.csv"):
        file_name = name + suffix
        got = hashlib.sha256((out / file_name).read_bytes()).hexdigest()
        assert got == digests[file_name], file_name


@pytest.mark.parametrize("name", builtin_names())
def test_classify_artifacts_are_byte_identical(tmp_path, name):
    _check_digests(tmp_path, name, 200, DIGESTS)


def test_long_window_artifacts_are_byte_identical(tmp_path):
    _check_digests(tmp_path, "ex4.2a", 800, LONG_WINDOW_DIGESTS)
