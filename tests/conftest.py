from __future__ import annotations

import os
import pathlib

import pytest
from hypothesis import settings

from corefkit.conll import parse_corpus

# ``HYPOTHESIS_PROFILE=ci`` prints a ``@reproduce_failure`` blob with every
# property failure and lifts the deadline, which a slow runner may miss.
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    """The environment of a child Python that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def load_corpus(name: str):
    corpus, diagnostics = parse_corpus((FIXTURES / name).read_text("utf-8"))
    assert not diagnostics, diagnostics
    return corpus


@pytest.fixture(scope="session")
def dialogue_gold():
    return load_corpus("dialogue_gold.conll").documents[0]


@pytest.fixture(scope="session")
def dialogue_pred():
    return load_corpus("dialogue_pred.conll").documents[0]


@pytest.fixture(scope="session")
def herstel_doc():
    return load_corpus("herstel.conll").documents[0]
