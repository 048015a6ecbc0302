import pytest

from genocchi import survey
from genocchi.exactseq import bernoulli


@pytest.fixture(scope="session")
def bernoulli_800():
    """Shared exact Bernoulli values up to subscript 800 (one fill per session)."""
    bernoulli(800)


@pytest.fixture(autouse=True)
def _no_user_cache(tmp_path, monkeypatch):
    """No test reads or writes the user's survey cache, whatever its environment."""
    monkeypatch.delenv(survey.CACHE_ENV, raising=False)
    monkeypatch.setattr(survey, "DEFAULT_CACHE_DIR", tmp_path / "default_cache")


@pytest.fixture()
def tmp_cache(tmp_path):
    """Isolated survey cache directory."""
    return tmp_path / "cache"
