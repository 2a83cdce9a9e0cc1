import pytest

from weyldisc import builtin_names, builtin_scenario, classify

# verdicts the classifier must reproduce for the built-in families
EXPECTED_VERDICTS = {
    "free": "LPC",
    "ex4.1a": "LCC",
    "ex4.1b": "LPC",
    "ex4.2a": "LPC",
    "ex4.2b": "LCC",
}


def fabs(model, value) -> float:
    """Magnitude of a kernel scalar as a machine float."""
    with model.workprec():
        return float(abs(value))


def fdiff(model, x, y) -> float:
    with model.workprec():
        return fabs(model, x - y)


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
