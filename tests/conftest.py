from pathlib import Path

import pytest

from weaksgd.oracle import QueryOracle


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


@pytest.fixture
def no_bits(monkeypatch):
    """Fails the test at any oracle query, answered or refused."""
    def ask(*args):
        raise AssertionError("a bit was spent")

    for name in ("halfspace_query", "threshold_query", "membership_query"):
        monkeypatch.setattr(QueryOracle, name, ask)
