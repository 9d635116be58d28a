import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def bench_workloads():
    """``bench/workloads.py``, the benchmark's case generator, loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
