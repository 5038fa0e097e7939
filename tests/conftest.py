from __future__ import annotations

import io
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import settings

from corefkit import cli
from corefkit.conll import parse_corpus, serialize_corpus
from corefkit.model import Corpus

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


def run(*argv, stdin_text=None):
    """``cli.main(argv)`` in this process: (exit code, stdout, stderr).

    With ``stdin_text`` the run reads that text as its stdin; without it,
    the real stdin.
    """
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def run_in(directory, argv, stdin_text=""):
    """``run(*argv)`` as ``reference`` reports it, with the files it left
    in ``directory`` (and removes) by path."""
    code, out, err = run(*argv, stdin_text=stdin_text)
    files = {}
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8", newline="") as handle:
            files[path] = handle.read()
        os.remove(path)
    return code, out, files, err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lines_of(document):
    return serialize_corpus(Corpus((document,)), validate=False).splitlines()


def load_corpus(name: str):
    corpus, diagnostics = parse_corpus((FIXTURES / name).read_text("utf-8"))
    assert not diagnostics, diagnostics
    return corpus


FIXTURE_DOCUMENTS = [d for name in ("e2e.conll", "herstel.conll",
                                    "dialogue_gold.conll")
                     for d in load_corpus(name).documents]


@pytest.fixture(scope="session")
def dialogue_gold():
    return load_corpus("dialogue_gold.conll").documents[0]


@pytest.fixture(scope="session")
def dialogue_pred():
    return load_corpus("dialogue_pred.conll").documents[0]


@pytest.fixture(scope="session")
def herstel_doc():
    return load_corpus("herstel.conll").documents[0]
