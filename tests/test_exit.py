"""How a ``corefkit`` process ends.

``cli.run`` ends a command with ``os._exit`` once stdout and stderr are
flushed, so no process pays for the interpreter's teardown. These tests
check that the early exit loses nothing that ``cli.main`` writes, that
the normal exit stays where a failed flush or a profiler needs it, and
that a library caller of ``main`` keeps its own exit.
"""
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES, child_env, run

HERSTEL = str(FIXTURES / "herstel.conll")
E2E = str(FIXTURES / "e2e.conll")
DIALOGUE_GOLD = str(FIXTURES / "dialogue_gold.conll")
DIALOGUE_PRED = str(FIXTURES / "dialogue_pred.conll")

# Stdout is a pipe, so it is block-buffered; stderr, line-buffered by
# default, is made block-buffered too, so a flush that ``run`` drops
# loses text on either stream.
_RUN = ("import sys\n"
        "sys.stderr.reconfigure(line_buffering=False)\n"
        "from corefkit.cli import run\n"
        "run()\n")


def buffered_env() -> dict[str, str]:
    env = {**child_env(), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def child(code: str, *argv: str, cwd=None, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter in development mode, where any warning fails."""
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code, *argv],
        cwd=cwd, env=buffered_env(), timeout=120, **kwargs)


def written(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("argv", [
    ("stats", HERSTEL),
    ("strip-singletons", HERSTEL, "-o", "stripped.conll"),
    ("transform", E2E, "--paradigm", "hen", "--anonymize",
     "--neutralize-nouns"),
    ("delex", E2E, "-o", "delex.conll"),
    ("cda", E2E, "--seed", "3", "-o", "cda.conll"),
    ("sample", E2E, "--count", "1", "--partitions", "2",
     "--out-prefix", "part"),
    ("unseen", E2E, "--seed", "3", "--assignments", "-", "-o",
     "unseen.conll"),
    ("resolve-baseline", HERSTEL),
    ("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED),
    ("--help",),
    ("--version",),
    ("stats", "--no-such-option"),  # usage error
    ("stats", "junk.conll"),  # data error, after a parse diagnostic
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("/")))
def test_the_early_exit_loses_nothing_main_writes(tmp_path, monkeypatch, argv):
    dirs = {}
    for name in ("child", "main"):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        (dirs[name] / "junk.conll").write_text("not a corpus\n", "utf-8")
    done = child(_RUN, *argv, cwd=dirs["child"], capture_output=True)
    monkeypatch.chdir(dirs["main"])
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(*argv)
    assert (done.returncode, done.stdout.decode("utf-8"),
            done.stderr.decode("utf-8")) == expected
    assert written(dirs["child"]) == written(dirs["main"])


def test_run_skips_the_interpreter_teardown():
    # An atexit handler stands for all of the teardown: it runs only at
    # the interpreter's normal exit.
    done = child("import atexit\n"
                 "atexit.register(print, 'teardown')\n" + _RUN,
                 "stats", HERSTEL, capture_output=True, encoding="utf-8")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run("stats", HERSTEL)[1]


def test_a_profiler_keeps_the_normal_exit_and_its_report():
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "corefkit.cli", "stats",
         HERSTEL], env=buffered_env(), capture_output=True,
        encoding="utf-8", timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    stats = run("stats", HERSTEL)[1]
    assert done.stdout.startswith(stats)
    report = done.stdout[len(stats):]
    assert "function calls" in report and "Ordered by" in report


def into_a_closed_pipe(code: str, *argv: str) -> tuple[int, str]:
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        done = child(code, *argv, stdout=write_end, stderr=subprocess.PIPE,
                     encoding="utf-8")
    finally:
        os.close(write_end)
    return done.returncode, done.stderr


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_a_failed_flush_keeps_the_interpreters_report(flag):
    # argparse writes the text without flushing it; the flush in run()
    # fails, and the interpreter's exit reports the failure as it does
    # for any script whose stdout pipe is gone.
    reference = into_a_closed_pipe(
        "import sys\n"
        "sys.stdout.reconfigure(encoding='utf-8')\n"
        "sys.stdout.write('text')\n")
    assert reference[0] == 120
    assert reference[1].endswith("BrokenPipeError: [Errno 32] Broken pipe\n")
    assert into_a_closed_pipe(_RUN, flag) == reference


def test_the_library_import_and_main_leave_the_host_alone():
    done = child("import atexit, gc, sys\n"
                 "atexit.register(print, 'atexit ran')\n"
                 "import corefkit.cli\n"
                 "code = corefkit.cli.main(sys.argv[1:])\n"
                 "print('returned', code, gc.isenabled())\n",
                 "stats", "--summary-only", HERSTEL,
                 capture_output=True, encoding="utf-8")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("returned 0 True\natexit ran\n")
