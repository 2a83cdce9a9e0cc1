import os
import random

import pytest
from hypothesis import settings

from weyldisc import BoundaryData, builtin_names, builtin_scenario, classify

# Hypothesis properties run derandomized, with no example database, so a
# run tests the same examples every time; CI selects the larger profile
# with HYPOTHESIS_PROFILE=ci
settings.register_profile("dev", derandomize=True, database=None, max_examples=100, deadline=None)
settings.register_profile("ci", derandomize=True, database=None, max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

# verdicts the classifier must reproduce for the built-in families
EXPECTED_VERDICTS = {
    "free": "LPC",
    "ex4.1a": "LCC",
    "ex4.1b": "LPC",
    "ex4.2a": "LPC",
    "ex4.2b": "LCC",
}


def fabs(value) -> float:
    """Magnitude of a kernel scalar as a machine float."""
    return float(abs(value))


def fdiff(x, y) -> float:
    """|x - y| as a machine float; the difference rounds at x's precision."""
    return fabs(x - y)


@pytest.fixture(scope="session")
def models():
    return {name: builtin_scenario(name).model() for name in builtin_names()}


@pytest.fixture(scope="session")
def classify_memo(models):
    """Session-wide cache of full classification runs (the expensive part
    of the acceptance suite reuses these across criteria)."""
    cache = {}

    def run(name: str, alpha: float = 0.0, lam=1j):
        key = (name, alpha, complex(lam))
        if key not in cache:
            scenario = builtin_scenario(name)
            cache[key] = classify(
                models[name], lam, alpha, scenario.classify_options()
            )
        return cache[key]

    return run


def _random_left_end_cases(count, seed, coupled=False):
    """Seeded random models with a in {0, 1, 3}: p from a fixed list that
    never vanishes on t >= -1; q, c, h and d zero or one or two terms
    kappa b^t t^k, b in {1/2, 1, 2, 4}, k <= 2; a nonreal lam and real
    initial data with two decimals.  ``coupled`` adds a term kappa 4^t t^k
    to both c and h, so that they grow together."""
    rng = random.Random(seed)
    kappas = ["1", "2", "3", "1/2", "-1", "-2"]

    def term():
        parts = [rng.choice(kappas)]
        base = rng.choice(["(1/2)", "1", "2", "4"])
        if base != "1":
            parts.append(f"{base}^t")
        power = rng.randrange(3)
        if power:
            parts.append("t" if power == 1 else f"t^{power}")
        return "(" + "*".join(parts) + ")"

    def coefficient():
        if rng.random() < 0.35:
            return "0"
        return " + ".join(term() for _ in range(rng.randint(1, 2)))

    for _ in range(count):
        exprs = {"p": rng.choice(["1", "-1", "4^t", "-(4^t)", "2^t", "t+2"])}
        exprs.update((name, coefficient()) for name in "qchd")
        if coupled:
            for name in "ch":
                power = rng.randrange(3)
                growth = "*".join([rng.choice(kappas), "4^t"] + ["t"] * power)
                exprs[name] = f"({growth}) + {exprs[name]}"
        a = rng.choice([0, 1, 3])
        lam = complex(round(rng.uniform(-2, 2), 2), round(rng.uniform(0.1, 2), 2))
        data = BoundaryData(round(rng.uniform(-2, 2), 2), round(rng.uniform(-2, 2), 2))
        yield a, exprs, lam, data
