import pytest

from rootspin import positive_roots
from rootspin.rootsys import CATALOGUE


@pytest.fixture(scope="session")
def catalogue():
    """id -> RootSystem for the whole results-table range."""
    return {str(fr): positive_roots(fr) for fr in CATALOGUE}
