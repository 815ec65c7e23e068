import importlib.util
import sys
from pathlib import Path

import pytest

from rootspin import positive_roots
from rootspin.rootsys import CATALOGUE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def catalogue():
    """id -> RootSystem for the whole results-table range."""
    return {str(fr): positive_roots(fr) for fr in CATALOGUE}


@pytest.fixture(scope="session")
def run():
    """``perfbench/run.py`` as a module, read only; it runs nothing on import."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="session")
def lattice_ranks(run):
    """Every (family, rank) the lattice workload of ``perfbench/run.py`` picks from."""
    return [(family, n) for family, pairs in run.LATTICE_CHOICES.items()
            for pair in pairs for n in pair]
