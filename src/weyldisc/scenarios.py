"""Scenario ingestion and the built-in registry.

A scenario is a JSON object::

    {
      "name": "my-run",
      "a": 0,
      "p": "-(4^t)", "q": "4^t", "c": "0", "h": "0", "d": "1",
      "lambda": {"re": 0.0, "im": 1.0},
      "alpha": 0.0,
      "n_max": 200,
      "precision": {"mode": "big-float", "bits": 256},
      "thresholds": {"rel_tol": 1e-10, "divergence_factor": 1e6, "window": 32}
    }

Coefficients are expression strings or {"table": [...], "start": n}.
Everything except the coefficients has the defaults shown above.  The
registry ships the two worked diagonal/perturbed families plus the free
model; registry names are accepted wherever a scenario path is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ExprSyntaxError, ScenarioError
from .model import CoefficientSet, PrecisionConfig, coefficient_from_spec
from .weyl import ClassifyOptions


@dataclass(frozen=True)
class Thresholds:
    rel_tol: float = ClassifyOptions.rel_tol
    divergence_factor: float = ClassifyOptions.divergence_factor
    window: int = ClassifyOptions.window

    def __post_init__(self):
        _require_finite(self.rel_tol, "thresholds.rel_tol")
        _require_finite(self.divergence_factor, "thresholds.divergence_factor")
        _require(_is_int(self.window), f"thresholds.window must be an integer, got {self.window!r}")
        _require(self.window > 0, "thresholds.window must be positive")


@dataclass(frozen=True)
class Scenario:
    name: str
    a: int = 0
    p: object = "1"
    q: object = "0"
    c: object = "0"
    h: object = "0"
    d: object = "0"
    lambda_re: float = 0.0
    lambda_im: float = 1.0
    alpha: float = 0.0
    n_max: int = ClassifyOptions.n_max
    precision: PrecisionConfig = field(default_factory=PrecisionConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        # here rather than in the file reader, so that a command-line
        # override made with dataclasses.replace is checked too
        _require(_is_int(self.a), "field 'a' must be an integer")
        _require(_is_int(self.n_max) and self.n_max > self.a,
                 f"n_max must be an integer above a ({self.a}), got {self.n_max!r}")
        for name, value in (("lambda.re", self.lambda_re), ("lambda.im", self.lambda_im),
                            ("alpha", self.alpha)):
            _require_finite(value, f"field {name!r}")

    def model(self) -> CoefficientSet:
        coeffs = {}
        for name in ("p", "q", "c", "h", "d"):
            try:
                coeffs[name] = coefficient_from_spec(getattr(self, name))
            except (ExprSyntaxError, TypeError, ValueError) as exc:
                raise ScenarioError(
                    f"scenario {self.name!r}, coefficient {name!r}: {exc}"
                ) from exc
        return CoefficientSet(a=self.a, precision=self.precision, **coeffs)

    @property
    def lam(self) -> complex:
        return complex(self.lambda_re, self.lambda_im)

    def classify_options(self, cross_check: complex | None = None) -> ClassifyOptions:
        return ClassifyOptions(
            n_max=self.n_max,
            rel_tol=self.thresholds.rel_tol,
            divergence_factor=self.thresholds.divergence_factor,
            window=self.thresholds.window,
            cross_check_lambda=cross_check,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "a": self.a,
            "p": self.p, "q": self.q, "c": self.c, "h": self.h, "d": self.d,
            "lambda": {"re": self.lambda_re, "im": self.lambda_im},
            "alpha": self.alpha,
            "n_max": self.n_max,
            "precision": {
                "mode": self.precision.mode,
                "bits": self.precision.mantissa_bits,
            },
            "thresholds": {
                "rel_tol": self.thresholds.rel_tol,
                "divergence_factor": self.thresholds.divergence_factor,
                "window": self.thresholds.window,
            },
        }


def _require(cond: bool, message: str):
    if not cond:
        raise ScenarioError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_finite(value, name: str):
    _require(_is_int(value) or (isinstance(value, float) and math.isfinite(value)),
             f"{name} must be a finite number, got {value!r}")


def _real(value, name: str) -> float:
    """A JSON number (not a string or a bool) as a float."""
    _require(_is_int(value) or isinstance(value, float), f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf


def _object(data: dict, key: str, keys: tuple) -> dict:
    """The nested object ``data[key]``, {} when absent, holding no key but
    ``keys``."""
    value = data.get(key, {})
    _require(isinstance(value, dict), f"field {key!r} must be an object")
    for sub in value:
        _require(sub in keys, f"unknown scenario field '{key}.{sub}'")
    return value


def scenario_from_dict(data: dict, fallback_name: str = "scenario") -> Scenario:
    _require(isinstance(data, dict), "scenario body must be a JSON object")
    known = {
        "name", "a", "p", "q", "c", "h", "d", "lambda", "alpha",
        "n_max", "precision", "thresholds",
    }
    for key in data:
        _require(key in known, f"unknown scenario field {key!r}")
    name = data.get("name", fallback_name)
    _require(isinstance(name, str) and name, "field 'name' must be a nonempty string")
    base = Scenario(name=name)  # every default below is one of its fields

    a = data.get("a", base.a)
    coeffs = {}
    for cname in ("p", "q", "c", "h", "d"):
        spec = data.get(cname, getattr(base, cname))
        _require(
            isinstance(spec, (str, dict)),
            f"coefficient {cname!r} must be an expression string or a table object",
        )
        if isinstance(spec, dict):
            _require(
                "table" in spec and isinstance(spec["table"], list) and spec["table"],
                f"coefficient {cname!r}: table object needs a nonempty 'table' list",
            )
        coeffs[cname] = spec

    lam = _object(data, "lambda", ("re", "im"))
    lam_re = _real(lam.get("re", base.lambda_re), "field 'lambda.re'")
    lam_im = _real(lam.get("im", base.lambda_im), "field 'lambda.im'")

    alpha = _real(data.get("alpha", base.alpha), "field 'alpha'")
    n_max = data.get("n_max", base.n_max)

    prec = _object(data, "precision", ("mode", "bits"))
    bits = prec.get("bits", base.precision.mantissa_bits)
    _require(_is_int(bits), f"field 'precision.bits' must be an integer, got {bits!r}")
    try:
        precision = PrecisionConfig(mode=prec.get("mode", base.precision.mode), mantissa_bits=bits)
    except ValueError as exc:
        raise ScenarioError(f"field 'precision': {exc}") from exc

    thr = _object(data, "thresholds", ("rel_tol", "divergence_factor", "window"))
    thresholds = Thresholds(
        **{name: _real(thr.get(name, getattr(base.thresholds, name)), f"thresholds.{name}")
           for name in ("rel_tol", "divergence_factor")},
        window=thr.get("window", base.thresholds.window),
    )

    scenario = Scenario(
        name=name, a=a, **coeffs,
        lambda_re=lam_re, lambda_im=lam_im, alpha=alpha, n_max=n_max,
        precision=precision, thresholds=thresholds,
    )
    scenario.model()  # validate the coefficient specs eagerly
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"scenario file {path} cannot be read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(data, fallback_name=path.stem)


_BUILTIN_SPECS = {
    "free": {
        "p": "1", "q": "0", "c": "0", "h": "0", "d": "0",
        "_doc": "constant-coefficient reference model",
    },
    "ex4.1a": {
        "p": "-(4^t)", "q": "4^t", "c": "0", "h": "0", "d": "1",
        "_doc": "diagonal geometric family (limit circle)",
    },
    "ex4.1b": {
        "p": "-(4^t)", "q": "4^t", "c": "0", "h": "2^t + 2^(-t)", "d": "1",
        "_doc": "same family with an unbounded h coupling (limit point)",
    },
    "ex4.2a": {
        "p": "1", "q": "4^t", "c": "0", "h": "0", "d": "4^t",
        "_doc": "diagonal family with geometric potential (limit point)",
    },
    "ex4.2b": {
        "p": "1", "q": "4^t", "c": "sqrt(4^(2*t) + 4^t)", "h": "0", "d": "4^t",
        "_doc": "same family with an unbounded c coupling (limit circle)",
    },
}


def builtin_names() -> list[str]:
    return list(_BUILTIN_SPECS)


def builtin_doc(name: str) -> str:
    return _BUILTIN_SPECS[name]["_doc"]


def builtin_scenario(name: str) -> Scenario:
    spec = _BUILTIN_SPECS.get(name)
    if spec is None:
        raise ScenarioError(
            f"unknown builtin {name!r}; available: {', '.join(_BUILTIN_SPECS)}"
        )
    body = {k: v for k, v in spec.items() if not k.startswith("_")}
    return scenario_from_dict({"name": name, "a": 0, **body})


def resolve_scenario(ref: str) -> Scenario:
    """A registry name, else a path to a scenario file."""
    if ref in _BUILTIN_SPECS:
        return builtin_scenario(ref)
    return load_scenario(ref)
