"""Byte-identity of the ``check`` suite's output.

The digests pin the exact stdout of `weyldisc check <builtin> --bits B`
for the five built-ins at 256 bits (the default), at 128 bits and at 53
bits, where the defects sit close enough to roundoff that a reordered
operation shows up in the printed digits.  A refactor of the solvers or of the checks
must keep the digests; a deliberate change of a check updates them in the
same change.
"""

import contextlib
import hashlib
import io

import pytest

from weyldisc import builtin_names
from weyldisc.cli import main

DIGESTS = {
    ("free", 256): "faedd471f0266488525675e1c7818469bae4f14e1ac8ede17f92d7f63c0ce04f",
    ("free", 53): "1440ccfc28615f1debfb670d5a5770c72c3fb09772996112f1d560ccd5679ab8",
    ("ex4.1a", 256): "585e67cfc91abb665a201d36865253c83c197b33ff24e21be93013f0ba91e84b",
    ("ex4.1a", 53): "fff74216f85315729e79be7d0c142e80b5b6e90c90de0d13931bfb67db664363",
    ("ex4.1b", 256): "2a23f615e24321bef09c7d45b94f843ddd2c71c209f7f5daf0660c55a0440d19",
    ("ex4.1b", 53): "7146e656564bba0c66b5cb2e413533014dc7ea831bc33049538bc64b39cc20fb",
    ("ex4.2a", 256): "655c321586637c0e272c0a773ae05546506f41e8ee284c452f6fe6a09e79eae2",
    ("ex4.2a", 53): "926df58cf50401a48f5db25c8ec79c792bdfc53ed860336f2df7d8c51f206a8a",
    ("ex4.2b", 256): "880ee59cd96aad13356434ac6425bbc8e2f741390270d28d4f6db5de2a3ca48d",
    ("ex4.2b", 53): "9173f9312d8715c8eff2d163da5718cd18476be06d24dd215138fe631639addc",
    ("free", 128): "1685e496e091944f654fee5d2e27b158336dd61b4c50eb1ac140b52219473e35",
    ("ex4.1a", 128): "135b772d9aa3a940cbb46774b2636674a710547e9c9b0d94eeb1531320aa310c",
    ("ex4.1b", 128): "f4964098a7cdcee26552c00cd32eda215fa7fc677783412755bcb74692d7eee8",
    ("ex4.2a", 128): "7da4eceda9d532fd4a6a4e1448abeb6a1de0f4a701c69101cef0919d7ea2437b",
    ("ex4.2b", 128): "2e95cfebc5b0675a26e771d7e5a471f896b50256b894f13c421ca62b03c72023",
}


@pytest.mark.parametrize("bits", [256, 128, 53])
@pytest.mark.parametrize("name", builtin_names())
def test_check_output_is_byte_identical(name, bits):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", name, "--bits", str(bits)])
    got = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == DIGESTS[(name, bits)]
