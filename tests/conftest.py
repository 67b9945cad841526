"""Shared fixtures and the acceptance-summary reporter."""
import re

import pytest

from nucshoot.model import ModelParams
from nucshoot.shooting import ShotClass, bisect_ground_state, classify_shot

_ACCEPTANCE: dict[int, bool] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    m = re.match(r"test_criterion_(\d+)", item.name)
    if m:
        _ACCEPTANCE[int(m.group(1))] = rep.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_ACCEPTANCE):
        verdict = "PASS" if _ACCEPTANCE[k] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {k}: {verdict}")


@pytest.fixture(scope="session")
def gs94():
    return bisect_ground_state(ModelParams(9.0, 4.0))


@pytest.fixture(scope="session")
def gs41():
    return bisect_ground_state(ModelParams(4.0, 1.0))


@pytest.fixture(scope="session")
def decayed21():
    """A Decayed shot at (2, 0.1), found by bisecting on the shot class
    inside the search's bracket (InSetI below, GVanishedFirst above)."""
    params = ModelParams(2.0, 0.1)
    lo, hi = bisect_ground_state(params).bracket
    while True:
        mid = 0.5 * (lo + hi)
        assert lo < mid < hi, "no shot inside the bracket decays"
        out = classify_shot(mid, params)
        if out.shot_class is ShotClass.DECAYED:
            return out
        assert out.shot_class in (ShotClass.IN_SET_I, ShotClass.G_VANISHED_FIRST)
        if out.shot_class is ShotClass.IN_SET_I:
            lo = mid
        else:
            hi = mid
