"""The benchmark traces sentaxis functions by module attribute name; a
refactor that moves one must fail here, not only inside the benchmark."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def benchmark_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_site_resolves(benchmark_modules):
    tracing, workloads = benchmark_modules
    expected = set().union(*workloads.EXPECTED_SITES.values())
    assert expected <= set(tracing.SITES)
    for site in tracing.SITES:
        module_name, _, attr = site.rpartition(".")
        module = importlib.import_module(f"sentaxis.{module_name}")
        assert callable(getattr(module, attr, None)), site
