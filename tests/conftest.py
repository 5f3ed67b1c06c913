"""Shared fixtures; the refinement study is expensive and reused across files."""
import threading
import time
from typing import NamedTuple

import pytest

from shapenewton import driver


class StudyBundle(NamedTuple):
    config: driver.ExperimentConfig
    data: driver.DataOracle
    traces: list
    level_seconds: list
    data_seconds: float


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started still running: every
    helper and worker pool of the solver has ended when its call returns or
    raises."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture(scope="session")
def study_bundle():
    """Default-configuration study with per-level wall times."""
    config = driver.ExperimentConfig()
    t0 = time.perf_counter()
    data = driver.generate_data(config)
    data_seconds = time.perf_counter() - t0
    traces = []
    level_seconds = []
    for level in range(1, config.levels + 1):
        t0 = time.perf_counter()
        traces.append(driver.sqp_solve(config, data, level))
        level_seconds.append(time.perf_counter() - t0)
    return StudyBundle(config, data, traces, level_seconds, data_seconds)
