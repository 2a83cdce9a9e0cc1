"""Byte-identity of the classify artifacts.

The digests pin the exact bytes of `weyldisc classify <builtin> --n-max 200`
at the default 256 bits, per big-float kernel.  A refactor of the solvers
must keep them; a deliberate change of the numbers or of the report format
updates them in the same change.  Kernels without stored digests are
skipped.
"""

import contextlib
import hashlib
import io

import pytest

from weyldisc import builtin_names
from weyldisc.backends import big_backend_name
from weyldisc.cli import main

DIGESTS = {
    "mpmath": {
        "free_report.json": "072545f4fce8bc25f4b2547df3dd799b79bde742d0c9b00c63d62354ad0cdb96",
        "free_discs.csv": "d3fcac77fcab95b726dd4767b91ceb2203cdd91c2dfe1dee030cc7d100268617",
        "ex4.1a_report.json": "aa555e3ffde298bda56eed88bd63589061d29729cc2edc13ddd78db26581782e",
        "ex4.1a_discs.csv": "94bfb91252f8ee6908928d7fa23f1d2083064e4546ad5a5ee4d25cbc85f19b07",
        "ex4.1b_report.json": "5aa9aaaa4917201ffc1d838315d365ac883910f3e793b7ceb3803c39f7336c67",
        "ex4.1b_discs.csv": "5ca3e055cd744fe7d3c85d9413db30367bd9612cf8d29b400a6b0be8178f8dee",
        "ex4.2a_report.json": "95c9d607a41ae0e49a5fd7d9d6233e50771a11f5a8ec3f2061fd085f1a4da7da",
        "ex4.2a_discs.csv": "63c8633b10fde6ff48660fc930869c92b57244ec02285a178656bdbc0e475efb",
        "ex4.2b_report.json": "f34ef8f90b0f0b1d05fb4a8e8e47a236d611d708949bb92b0b1377e5673abdce",
        "ex4.2b_discs.csv": "edfa0960bdf101e2559e9962e2bcc94887e65981327e8a87e3d931de10f9f35d",
    },
}


@pytest.mark.parametrize("name", builtin_names())
def test_classify_artifacts_are_byte_identical(tmp_path, name):
    digests = DIGESTS.get(big_backend_name())
    if digests is None:
        pytest.skip(f"no stored digests for the {big_backend_name()} kernel")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["classify", name, "--n-max", "200", "--out", str(tmp_path)]) == 0
    for suffix in ("_report.json", "_discs.csv"):
        file_name = name + suffix
        got = hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest()
        assert got == digests[file_name], file_name
