import pytest

from hetcycle import planar
from hetcycle.presets import example_params


@pytest.fixture(scope="session")
def ex1():
    return example_params(1)


@pytest.fixture(scope="session")
def ex2():
    return example_params(2)


@pytest.fixture(scope="session")
def ex3():
    return example_params(3)


@pytest.fixture
def focus_refines(monkeypatch):
    """A list that gets the arguments of each ``planar._refine`` call that
    ``planar.focus_stay_window`` makes."""
    calls = []
    refine = planar._refine

    def counted(value, *args):
        if value.__qualname__.startswith("focus_stay_window."):
            calls.append(args)
        return refine(value, *args)

    monkeypatch.setattr(planar, "_refine", counted)
    return calls
