import pytest

from tests.lint.index import parse


@pytest.fixture(scope="package")
def index():
    """Every module of the repository, parsed once for this folder's tests."""
    return parse()
