"""What a ``corefkit`` process imports, and the texts that must not move
while the imports are rearranged: ``--help``, the duplicate-lexicon
warning and the ``--fraction`` usage error.

The import checks run in fresh interpreters, since this pytest process has
long since loaded every module. Each compares with a ``python -c pass``
baseline, so modules the interpreter's own start-up loads do not count.
"""
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import corefkit
from corefkit.cli import main

from conftest import FIXTURES, child_env

GOLDEN_HELP = pathlib.Path(__file__).parent / "golden" / "help.json"
HERSTEL = str(FIXTURES / "herstel.conll")

LAYERS = ("corefkit.builder", "corefkit.metrics", "corefkit.resolver",
          "corefkit.stats")
HEAVY = ("logging", "concurrent.futures", "statistics", "fractions")
# What ``dataclasses`` costs a process: itself and the ``inspect`` it loads.
DATACLASSES = {"dataclasses", "inspect"}

# Print the loaded modules as the last stderr line, after running the
# CLI on the arguments, if any.
_PROBE = """
import json, sys
if sys.argv[1:]:
    from corefkit.cli import main
    code = main(sys.argv[1:])
else:
    code = 0
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=child_env(),
                          capture_output=True, encoding="utf-8", timeout=120)


def loaded_modules(code: str, *args: str) -> set[str]:
    done = python(code, *args)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    return loaded_modules(_PROBE)


def test_importing_the_cli_loads_no_layer(baseline):
    added = loaded_modules("import corefkit.cli\n" + _PROBE) - baseline
    assert {m for m in added if m.startswith("corefkit.")} == {
        "corefkit.cli", "corefkit.errors", "corefkit.lexicon"}
    assert not added & {*LAYERS, *HEAVY, *DATACLASSES}


@pytest.mark.parametrize("args,own", [
    (("transform", HERSTEL, "--paradigm", "die", "--anonymize",
      "--neutralize-nouns", "--jobs", "2"), set()),
    (("resolve-baseline", HERSTEL, "--jobs", "2"), {"corefkit.resolver"}),
    (("score", "--gold", HERSTEL, "--pred", HERSTEL), {"corefkit.metrics"}),
    (("stats", HERSTEL), {"corefkit.stats"}),
])
def test_pipeline_command_loads_only_its_layers(baseline, args, own):
    # --jobs 2 starts no worker pool: no concurrent.futures (HEAVY).
    added = loaded_modules(_PROBE, *args) - baseline
    common = {"corefkit.cli", "corefkit.errors", "corefkit.lexicon",
              "corefkit.conll", "corefkit.transform"}
    assert {m for m in added if m.startswith("corefkit.")} == common | own
    assert not added & set(HEAVY)


# One run of each of the nine subcommands, ``{out}`` an output path.
COMMANDS = [
    ("stats", HERSTEL), ("strip-singletons", HERSTEL),
    ("transform", HERSTEL, "--paradigm", "die", "--anonymize",
     "--neutralize-nouns"),
    ("delex", HERSTEL), ("cda", HERSTEL, "--assignments", "-", "-o", "{out}"),
    ("sample", HERSTEL, "--count", "1", "--partitions", "2"),
    ("unseen", HERSTEL, "--assignments", "-", "-o", "{out}"),
    ("resolve-baseline", HERSTEL),
    ("score", "--gold", HERSTEL, "--pred", HERSTEL),
]


@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: args[0])
def test_no_command_loads_the_model(tmp_path, args):
    # The commands read rows and classify (pos, feats) pairs; only the
    # library functions that take or build documents import the model.
    args = [arg.format(out=tmp_path / "out.conll") for arg in args]
    assert "corefkit.model" not in loaded_modules(_PROBE, *args)


@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: args[0])
def test_no_command_loads_dataclasses(baseline, tmp_path, args):
    # The configuration and report types are declared without it; only
    # the model's types are dataclasses.
    args = [arg.format(out=tmp_path / "out.conll") for arg in args]
    assert not (loaded_modules(_PROBE, *args) - baseline) & DATACLASSES


def test_score_loads_what_transform_loads_and_the_scorer(baseline):
    # Both sides are parsed in this process, and the scorer is the only
    # layer score adds to transform's modules.
    score = loaded_modules(_PROBE, "score", "--gold", HERSTEL,
                           "--pred", HERSTEL) - baseline
    transform = loaded_modules(_PROBE, "transform", HERSTEL,
                               "--paradigm", "die") - baseline
    assert score == transform | {"corefkit.metrics"}
    assert not {m for m in score
                if m.startswith(("multiprocessing", "concurrent"))}


def test_public_names_resolve_to_their_home_objects():
    for module, names in corefkit._HOMES.items():
        home = importlib.import_module(f"corefkit.{module}")
        for name in names:
            assert getattr(corefkit, name) is getattr(home, name), name
    assert set(corefkit.__all__) == {*corefkit._HOME_OF, "__version__"}
    assert len(corefkit.__all__) == len(set(corefkit.__all__))
    assert set(corefkit.__all__) <= set(dir(corefkit))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        corefkit.nope


def test_star_import_in_a_fresh_process():
    done = python("from corefkit import *\n"
                  "import corefkit\n"
                  "names = [n for n in corefkit.__all__ if n not in globals()]\n"
                  "print(names, callable(parse_corpus), Token.__module__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] True corefkit.model\n"


def _golden_help() -> dict[str, str]:
    # argparse renders help alike on 3.10 to 3.12; 3.13 spells
    # "-o, --output OUTPUT" where they spell "-o OUTPUT, --output OUTPUT".
    if sys.version_info >= (3, 14):
        pytest.skip("no --help text captured for this Python")
    version = "3.13" if sys.version_info >= (3, 13) else "3.10"
    return json.loads(GOLDEN_HELP.read_text("utf-8"))[version]


@pytest.mark.parametrize("command", [
    "", "stats", "strip-singletons", "transform", "delex", "cda", "sample",
    "unseen", "resolve-baseline", "score"])
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    golden = _golden_help()[command]
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden
    assert captured.err == ""


# Run the CLI on each argv of the JSON list in argv[1], in this one
# process, and print each run's [exit code, stdout, stderr] and the
# number of argparse parsers made until then, after the import first.
_IN_ORDER_PROBE = """
import argparse, contextlib, io, json, sys
made, init = [], argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    made.append(self)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from corefkit.cli import main
runs, parsers = [], [len(made)]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([main(argv), out.getvalue(), err.getvalue()])
    parsers.append(len(made))
print(json.dumps([runs, parsers]))
"""
# A usage error first, so the parser that failed is the one every later
# run reuses.
IN_ORDER = [
    ["sample", HERSTEL, "--fraction", "abc", "--partitions", "2"],
    ["--help"],
    ["--version"],
    ["transform", HERSTEL, "--paradigm", "die"],
    ["stats", HERSTEL, "--forms", "hen"],
]


def test_runs_in_one_process_match_runs_in_fresh_ones():
    env = {**child_env(), "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-c", _IN_ORDER_PROBE, json.dumps(IN_ORDER)],
        env=env, capture_output=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    runs, parsers = json.loads(done.stdout)
    fresh = [subprocess.run([sys.executable, "-m", "corefkit.cli", *argv],
                            env=env, capture_output=True, encoding="utf-8",
                            timeout=120) for argv in IN_ORDER]
    assert runs == [[run.returncode, run.stdout, run.stderr] for run in fresh]
    assert [code for code, _, _ in runs] == [1, 0, 0, 0, 0]
    # The import builds no parser; the first run builds the top one and
    # the nine subcommands', and no later run builds any.
    assert parsers == [0] + [10] * len(IN_ORDER)


def test_duplicate_lexicon_key_warning_line(tmp_path):
    # A subprocess: pytest's log capture hooks the root logger here.
    lexicon = tmp_path / "dup.tsv"
    lexicon.write_text("x\teerste\t0\nx\ttweede\t1\n", "utf-8")
    done = python("from corefkit.cli import run; run()", "transform", HERSTEL,
                  "--neutralize-nouns", "--lexicon", str(lexicon))
    assert done.returncode == 0
    assert done.stderr == ("WARNING: duplicate lexicon key 'x' at line 2, "
                           "last wins\n")


def test_a_lexicon_warning_loads_no_logging(tmp_path):
    lexicon = tmp_path / "dup.tsv"
    lexicon.write_text("x\teerste\t0\nx\ttweede\t1\n", "utf-8")
    assert "logging" not in loaded_modules(
        _PROBE, "transform", HERSTEL, "--neutralize-nouns",
        "--lexicon", str(lexicon))


def test_bad_fraction_usage_error_is_unchanged(capsys, monkeypatch):
    usage = _golden_help()["sample"].split("\n\n")[0]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["sample", HERSTEL, "--fraction", "abc",
                 "--partitions", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{usage}\ncorefkit sample: error: argument --fraction: invalid "
        "Fraction value: 'abc'\n")


def test_zero_denominator_fraction_is_a_usage_error(capsys):
    assert main(["sample", HERSTEL, "--fraction", "1/0",
                 "--partitions", "2"]) == 1
    assert capsys.readouterr().err.endswith(
        "corefkit sample: error: argument --fraction: invalid Fraction "
        "value: '1/0'\n")
