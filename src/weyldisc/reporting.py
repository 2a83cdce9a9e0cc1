"""Deterministic report and CSV emission.

Reports are JSON with sorted keys; every big-float value is rendered
through one decimal formatter at a fixed digit count, so identical
scenario + package version + backend reproduce byte-identical files.
Wall-clock timings are therefore never written into the report file;
the CLI prints them to stdout instead.  Reports are strict JSON: a
machine float that is inf or nan is written as the string of its
``repr``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import __version__ as TOOL_VERSION
from .backends import format_real
from .scenarios import Scenario

SCHEMA_VERSION = 1


def report_body(command: str, scenario: Scenario, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "weyldisc",
        "tool_version": TOOL_VERSION,
        "backend": scenario.precision.kernel.name,
        "command": command,
        "scenario": scenario.to_dict(),
        **payload,
    }


def _strict(value):
    """``value`` with every non-finite float replaced by its ``repr``
    ("inf", "-inf", "nan"): strict JSON has no Infinity or NaN."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def dump_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False)
    _rewrite(path, text + "\n")
    return path


def _rewrite(path: Path, text: str) -> None:
    """Write ``text``, line endings as they stand, to a new file at
    ``path``: an existing file there is unlinked first, not truncated,
    since truncating a file whose data is still being written back can
    block for tens of milliseconds.  A symlink at ``path`` is replaced,
    not written through."""
    path.unlink(missing_ok=True)
    path.write_text(text, newline="")


DISC_CSV_HEADER = ["N", "center_re", "center_im", "radius", "S_psi", "T_chi"]


def write_disc_csv(path: str | Path, kernel, discs, psi_sums, chi_sums) -> Path:
    """One row per disc sample; N strictly increasing by construction.

    The bytes are those of ``csv.writer``'s default dialect: comma
    separated, "\\r\\n" after every row, and no field needs quoting (an
    int, a rendered number or, with no chi sum at N, an empty string)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    psi_by_n = dict(psi_sums)
    chi_by_n = dict(chi_sums or ())
    rows = [",".join(DISC_CSV_HEADER)]
    for disc in discs:
        n, center = disc.n, disc.center
        chi = chi_by_n.get(n)
        rows.append(f"{n},{format_real(kernel, center.real)},{format_real(kernel, center.imag)},"
                    f"{format_real(kernel, disc.radius)},{format_real(kernel, psi_by_n[n])},"
                    f"{'' if chi is None else format_real(kernel, chi)}")
    rows.append("")
    _rewrite(path, "\r\n".join(rows))
    return path
