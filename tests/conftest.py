import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from weakgiant import BivariateDegreeDist, BoundDist, FloryMixture

pytest_plugins = ["pytester"]

settings.register_profile(
    "weakgiant",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("weakgiant")


def pytest_terminal_summary(terminalreporter):
    # replay the acceptance scorecard after the run, uncaptured
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", []) if mod is not None else []
    if lines:
        terminalreporter.write_sep("-", "acceptance scorecard")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def fork_dist():
    # two thirds sinks with a single in-edge, one third binary sources:
    # every component is one source feeding two sinks, size 3 exactly
    return BivariateDegreeDist.from_entries([(1, 0, 2 / 3), (0, 2, 1 / 3)])


@pytest.fixture
def atom22():
    return BivariateDegreeDist.from_entries([(2, 2, 1.0)])


@pytest.fixture
def atom11():
    return BivariateDegreeDist.from_entries([(1, 1, 1.0)])


@pytest.fixture
def origin_atom():
    return BivariateDegreeDist.from_entries([(0, 0, 1.0)])


@pytest.fixture
def p22_bounds():
    return BoundDist.from_entries([(2, 2, 1.0)])


@pytest.fixture
def three_class_bounds():
    # heterogeneous capacities with distinct in/out totals
    return BoundDist.from_entries([(10, 10, 1 / 3), (5, 10, 1 / 3), (10, 4, 1 / 3)])


@pytest.fixture
def flory_063():
    return FloryMixture(f1=0.0, f2=0.6, f3=0.4, n=3)
