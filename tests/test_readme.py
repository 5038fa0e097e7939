"""The README's examples run as written on a fixture corpus."""
import re
import shutil
import shlex
from pathlib import Path

from conftest import FIXTURES, run
from corefkit.conll import serialize_corpus
from corefkit.model import Corpus

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")


def block_after(heading: str, fence: str) -> str:
    """The first code block fenced with ``fence`` after ``heading``."""
    start = README.index(heading)
    return re.search(rf"^{fence}\n(.*?)^```$", README[start:],
                     re.DOTALL | re.MULTILINE).group(1)


def test_library_use_block_computes_what_transform_writes(tmp_path,
                                                          monkeypatch):
    shutil.copy(FIXTURES / "e2e.conll", tmp_path / "corpus.conll")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block_after("## Library use", "```python"), namespace)
    assert namespace["diagnostics"] == []
    code, expected, _ = run("transform", "corpus.conll", "--paradigm", "die",
                            "--anonymize", "--neutralize-nouns")
    assert code == 0
    assert serialize_corpus(Corpus(tuple(namespace["variant"]))) == expected


def test_pipeline_block_runs(tmp_path, monkeypatch):
    shutil.copy(FIXTURES / "e2e.conll", tmp_path / "corpus.conll")
    monkeypatch.chdir(tmp_path)
    commands = block_after("A typical pipeline", "```").splitlines()
    assert [line.split()[:2] for line in commands][0] == ["corefkit", "stats"]
    for line in commands:
        program, *argv = shlex.split(line)
        assert program == "corefkit"
        code, out, err = run(*argv, stdin_text="")
        assert (code, err) == (0, ""), line
        if argv[0] == "stats":
            assert out.startswith("form ")
