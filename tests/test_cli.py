import errno
import io
import os
import stat
import subprocess
import sys
import threading

import pytest

from corefkit.cli import main

from conftest import FIXTURES, child_env, run, run_in
from reference import reference
from test_jobs import filled

DIALOGUE_GOLD = str(FIXTURES / "dialogue_gold.conll")
DIALOGUE_PRED = str(FIXTURES / "dialogue_pred.conll")
HERSTEL = str(FIXTURES / "herstel.conll")
E2E = str(FIXTURES / "e2e.conll")


def test_version_flag():
    code, out, _ = run("--version")
    assert code == 0
    assert out.strip() == "0.1.0"


def test_transform_baseline_keeps_pronouns():
    code, out, _ = run("transform", HERSTEL, "--neutralize-nouns")
    assert code == 0
    assert "\thij\t" in out
    assert "\tpersoon\t" in out and "\touder\t" in out
    assert "vrouw" not in out


def test_transform_without_flags_is_identity_here():
    code, out, _ = run("transform", HERSTEL)
    assert code == 0
    assert out == (FIXTURES / "herstel.conll").read_text("utf-8")


def test_transform_reads_stdin():
    text = (FIXTURES / "herstel.conll").read_text("utf-8")
    code, out, _ = run("transform", "--paradigm", "hen", stdin_text=text)
    assert code == 0
    assert "\then\t" in out


def test_delex_tags_pronouns():
    code, out, _ = run("delex", HERSTEL)
    assert code == 0
    forms = [line.split("\t")[1] for line in out.splitlines()
             if line and not line.startswith("#")]
    assert forms.count("<SUBJ>") == 1 and forms.count("<POSS>") == 3
    assert "hij" not in forms and "zijn" not in forms


def test_strip_singletons_removes_size_one_clusters():
    code, out, _ = run("strip-singletons", DIALOGUE_GOLD)
    assert code == 0
    assert "(2)" not in out           # the singleton cluster is gone
    assert "(0)" in out               # multi-mention clusters survive


def test_stats_table_and_totals():
    code, out, _ = run("stats", DIALOGUE_GOLD, "--forms", "they", "their")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["form", "total", "subj", "obj", "poss",
                                "rel", "dem", "other", "3sg"]
    they = next(line for line in lines if line.startswith("they"))
    assert they.split() == ["they", "1", "1", "0", "0", "0", "0", "0", "1"]
    assert "token_count=36" in out
    assert "third_singular_count=2" in out


def test_stats_rows_of_forms_equal_ignoring_case():
    code, out, _ = run("stats", DIALOGUE_GOLD, "--forms", "they", "THEY")
    assert code == 0
    rows = [line.split() for line in out.split("\n\n", 1)[0].splitlines()[1:]]
    assert rows == [["they", "1", "1", "0", "0", "0", "0", "0", "1"]] * 2


def test_stats_summary_only():
    code, out, _ = run("stats", DIALOGUE_GOLD, "--summary-only")
    assert code == 0
    assert "form" not in out.splitlines()[0]
    assert out.startswith("token_count=")


def test_stats_accepts_classifier_config(tmp_path):
    config = tmp_path / "cls.cfg"
    config.write_text("third_singular.feats = PronType=Prs\n", "utf-8")
    code, out, _ = run("stats", DIALOGUE_GOLD, "--summary-only",
                       "--config", str(config))
    assert code == 0
    # loosening the gate pulls in 'you' and 'me' as well
    assert "third_singular_count=4" in out


def test_cda_writes_output_and_assignment_sidecar(tmp_path):
    out_path = tmp_path / "aug.conll"
    code, _, _ = run("cda", E2E, "-o", str(out_path), "--seed", "1")
    assert code == 0
    sidecar = tmp_path / "aug.conll.assignments.tsv"
    assert out_path.exists() and sidecar.exists()
    rows = [line.split("\t") for line in
            sidecar.read_text("utf-8").splitlines()]
    assert [row[0] for row in rows] == ["verhaal1", "verhaal2", "verhaal3"]
    assert {row[1] for row in rows} <= {"hen", "die"}


def test_cda_explicit_assignment_path(tmp_path):
    sidecar = tmp_path / "map.tsv"
    code, out, _ = run("cda", E2E, "--assignments", str(sidecar))
    assert code == 0
    assert out.startswith("#begin document")
    assert len(sidecar.read_text("utf-8").splitlines()) == 3


@pytest.mark.parametrize("command", ["cda", "unseen"])
@pytest.mark.parametrize("spelling", ["same", "dot-slash", "symlink"])
def test_output_and_assignments_naming_one_file_is_an_error(
        tmp_path, monkeypatch, command, spelling):
    monkeypatch.chdir(tmp_path)
    sidecar = {"same": "out.conll", "dot-slash": "./out.conll",
               "symlink": "link.tsv"}[spelling]
    if spelling == "symlink":
        os.symlink("out.conll", "link.tsv")
    code, out, err = run(command, E2E, "-o", "out.conll",
                         "--assignments", sidecar)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("corefkit: error: ")
    assert "same file" in err
    assert not (tmp_path / "out.conll").exists()
    assert sorted(os.listdir(tmp_path)) == (
        ["link.tsv"] if spelling == "symlink" else [])


@pytest.mark.parametrize("command", ["cda", "unseen"])
def test_assignments_dash_goes_to_stdout(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(command, E2E, "-o", "out.conll", "--assignments", "-")
    assert code == 0, err
    assert [row.split("\t")[0] for row in out.splitlines()] == [
        "verhaal1", "verhaal2", "verhaal3"]
    assert (tmp_path / "out.conll").read_text("utf-8").startswith(
        "#begin document verhaal1\n")
    assert sorted(os.listdir(tmp_path)) == ["out.conll"]  # no ./-


@pytest.mark.parametrize("command", ["cda", "unseen"])
@pytest.mark.parametrize("output", [(), ("-o", "-")])
def test_assignments_dash_with_the_corpus_on_stdout_is_an_error(
        tmp_path, monkeypatch, command, output):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(command, E2E, *output, "--assignments", "-")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("corefkit: error: ")
    assert os.listdir(tmp_path) == []


def test_lexicon_warnings_follow_the_parse_diagnostics(tmp_path):
    lexicon = tmp_path / "dup.tsv"
    lexicon.write_text("x\teerste\t0\nx\ttweede\t1\n", "utf-8")
    text = "stray\n" + (FIXTURES / "e2e.conll").read_text("utf-8")
    code, out, err = run("transform", "--neutralize-nouns", "--lexicon",
                         str(lexicon), stdin_text=text)
    assert code == 0
    # The lexicon holds no noun of the corpus.
    assert out == (FIXTURES / "e2e.conll").read_text("utf-8")
    assert err == ("-:1: error: unexpected content outside a document: "
                   "'stray'\n"
                   "WARNING: duplicate lexicon key 'x' at line 2, last wins\n")


def test_sample_writes_partition_files(tmp_path):
    prefix = str(tmp_path / "part")
    code, _, _ = run("sample", E2E, "--count", "2", "--partitions", "3",
                     "--seed", "5", "--out-prefix", prefix)
    assert code == 0
    contents = []
    for i in range(3):
        lines = (tmp_path / f"part{i}.txt").read_text("utf-8").splitlines()
        assert len(lines) == 2
        assert set(lines) <= {"verhaal1", "verhaal2", "verhaal3"}
        contents.append(lines)
    rerun = str(tmp_path / "again")
    run("sample", E2E, "--count", "2", "--partitions", "3", "--seed", "5",
        "--out-prefix", rerun)
    for i in range(3):
        assert (tmp_path / f"again{i}.txt").read_text("utf-8").splitlines() \
            == contents[i]


def test_unseen_fixed_paradigm():
    code, out, _ = run("unseen", HERSTEL, "--fixed", "zem")
    assert code == 0
    assert "\tzem\t" in out and "\tzeer\t" in out


def test_score_report():
    code, out, _ = run("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED)
    assert code == 0
    assert "0.857143" in out
    assert "50.00" in out
    assert "pronoun_form_their=1/1" in out


def test_score_ignore_singletons():
    code, out, _ = run("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED,
                       "--ignore-singletons")
    assert code == 0
    assert "lea_f1=0.833333" in out


def test_score_macro_flag():
    code, out, _ = run("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED,
                       "--macro")
    assert code == 0
    assert "pronoun_score=50.00" in out


def test_score_output_file(tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_GOLD,
                       "-o", str(report))
    assert code == 0
    assert out == ""
    assert "lea_f1=1.000000" in report.read_text("utf-8")


# --- failure behaviour -----------------------------------------------------

def test_unknown_subcommand_is_a_usage_error():
    code, out, err = run("frobnicate")
    assert code == 1
    assert out == ""
    assert "frobnicate" in err


def test_unknown_paradigm_is_a_usage_error():
    code, _, err = run("transform", HERSTEL, "--paradigm", "xyz")
    assert code == 1
    assert "invalid choice" in err


@pytest.mark.parametrize("argv", [
    ["stats", HERSTEL, "--config", "-"],
    ["transform", HERSTEL, "--neutralize-nouns", "--lexicon", "-"],
    ["score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED, "--config", "-"],
])
def test_stdin_for_config_or_lexicon_is_a_usage_error(argv):
    # Stdin is the corpus input; read for the option it would be empty.
    code, out, err = run(*argv, stdin_text="")
    assert (code, out) == (1, "")
    assert err.startswith("usage: ")
    (error,) = [line for line in err.splitlines() if "error:" in line]
    assert error == (f"corefkit {argv[0]}: error: argument {argv[-2]}: needs "
                     f"a file path; '-' (stdin) is left for the corpus")


@pytest.mark.parametrize("argv, message", [
    (["transform", HERSTEL, "--jobs", "0"], "--jobs: must be at least 1, not 0"),
    (["delex", HERSTEL, "--jobs", "-2"], "--jobs: must be at least 1, not -2"),
    (["resolve-baseline", HERSTEL, "--jobs", "0"],
     "--jobs: must be at least 1, not 0"),
    (["resolve-baseline", HERSTEL, "--window", "-1"],
     "--window: must be at least 0, not -1"),
    (["transform", HERSTEL, "--jobs", "x"], "--jobs: invalid int value: 'x'"),
    (["resolve-baseline", HERSTEL, "--window", "1.5"],
     "--window: invalid int value: '1.5'"),
    # An empty path names no file to write.
    (["transform", HERSTEL, "-o", ""],
     "-o/--output: an empty path names no file"),
    (["unseen", HERSTEL, "--assignments", ""],
     "--assignments: an empty path names no file"),
    (["sample", HERSTEL, "--count", "1", "--partitions", "1",
      "--out-prefix", ""], "--out-prefix: an empty path names no file"),
])
def test_a_bad_option_value_is_a_usage_error(argv, message):
    code, out, err = run(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: ")
    assert err.endswith(f"corefkit {argv[0]}: error: argument {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["--count", "2", "--partitions", "0"],
     "--partitions: must be at least 1, not 0"),
    (["--count", "2", "--partitions", "-2"],
     "--partitions: must be at least 1, not -2"),
    (["--fraction", "0", "--partitions", "2"],
     "--fraction: must be in (0, 1], not 0"),
    (["--fraction", "3/2", "--partitions", "2"],
     "--fraction: must be in (0, 1], not 3/2"),
    (["--fraction", "-0.5", "--partitions", "2"],
     "--fraction: must be in (0, 1], not -0.5"),
])
def test_sample_partitions_or_fraction_out_of_range_is_a_usage_error(
        tmp_path, argv, message):
    # Caught before the input is read: the file does not even exist.
    code, out, err = run("sample", str(tmp_path / "missing.conll"), *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: ")
    assert err.endswith(f"corefkit sample: error: argument {message}\n")


def test_window_zero_is_accepted():
    code, out, _ = run("resolve-baseline", HERSTEL, "--window", "0")
    assert code == 0 and out.startswith("#begin document")


def test_sample_flag_exclusivity():
    code, _, _ = run("sample", E2E, "--fraction", "1/2", "--count", "3",
                     "--partitions", "2")
    assert code == 1
    code, _, _ = run("sample", E2E, "--fraction", "1/2")
    assert code == 1  # --partitions is required


@pytest.mark.parametrize("argv, stdin_text, message", [
    (["stats", "{dir}/nope.conll"], "", "No such file or directory"),
    (["stats"], "not a corpus\n", "no parseable document"),
    (["score", "--gold", DIALOGUE_GOLD, "--pred", HERSTEL], "", "do not align"),
    (["transform", "{dir}/nope.conll", "-o", "{dir}/out.conll"], "",
     "No such file or directory"),
    (["sample", E2E, "--fraction", "1/100", "--partitions", "2"], "",
     "degenerate"),
    (["sample", E2E, "--count", "0", "--partitions", "2"], "",
     "partition size 0 outside 1..3"),
    (["sample", E2E, "--count", "4", "--partitions", "2"], "",
     "partition size 4 outside 1..3"),
    (["transform", HERSTEL, "--neutralize-nouns", "--lexicon", E2E], "",
     "tab-separated"),
], ids=["missing", "unparseable", "grid", "no-output", "degenerate",
        "count-0", "count-4", "lexicon"])
def test_a_data_error_reports_what_the_reference_reports(tmp_path, argv,
                                                         stdin_text, message):
    argv = filled(argv, str(tmp_path))
    code, out, files, err = reference(argv, stdin_text)
    assert (code, out, files) == (2, "", {}) and message in err
    assert run_in(str(tmp_path), argv, stdin_text) == (code, out, files, err)


def test_unwritable_output_path_is_an_io_error(tmp_path):
    blocker = tmp_path / "afile"
    blocker.write_text("", "utf-8")
    code, out, err = run("transform", HERSTEL, "-o", str(blocker / "x.conll"))
    assert code == 2
    assert out == ""
    assert err.startswith("corefkit: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("output", ["out.conll", "new/out.conll"])
@pytest.mark.parametrize("command", ["cda", "unseen"])
def test_failed_sidecar_write_leaves_no_output(tmp_path, command, output):
    blocker = tmp_path / "afile"
    blocker.write_text("", "utf-8")
    code, out, err = run(command, E2E, "-o", str(tmp_path / output),
                         "--assignments", str(blocker / "a.tsv"))
    assert code == 2
    assert out == ""
    assert err.startswith("corefkit: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_failed_partition_write_leaves_no_partition_file(tmp_path):
    (tmp_path / "part1.txt").mkdir()   # the second target cannot be written
    code, out, err = run("sample", E2E, "--count", "2", "--partitions", "3",
                         "--out-prefix", str(tmp_path / "part"))
    assert code == 2
    assert out == ""
    assert err.startswith("corefkit: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["part1.txt"]
    assert not any((tmp_path / "part1.txt").iterdir())


def test_existing_output_file_is_replaced(tmp_path):
    target = tmp_path / "out.conll"
    target.write_text("stale\n", "utf-8")
    code, _, _ = run("transform", HERSTEL, "-o", str(target))
    assert code == 0
    assert target.read_text("utf-8") == (FIXTURES / "herstel.conll").read_text("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.conll"]


# --- failed stdout writes ----------------------------------------------------

class _FailingStdout(io.StringIO):
    """A stdout whose every write raises ``error``."""

    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
])
def test_failed_stdout_write_is_an_io_error(capsys, monkeypatch, error):
    stdout = _FailingStdout(error)
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(["transform", HERSTEL, "--paradigm", "die"]) == 2
    assert capsys.readouterr().err == f"corefkit: error: {error}\n"
    assert stdout.closed  # nothing is left buffered for the exit to retry


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_stdout_write_leaves_no_output_file(capsys, monkeypatch,
                                                   tmp_path, existing):
    # Stdout is written after the -o file is moved into place, which a
    # stdout that fails puts back as it was.
    error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr("sys.stdout", _FailingStdout(error))
    out = tmp_path / "out.conll"
    if existing:
        out.write_text("old\n", "utf-8")
    assert main(["cda", E2E, "-o", str(out), "--assignments", "-"]) == 2
    assert capsys.readouterr().err == f"corefkit: error: {error}\n"
    assert os.listdir(tmp_path) == (["out.conll"] if existing else [])
    if existing:
        assert out.read_text("utf-8") == "old\n"


@pytest.mark.parametrize("failing", [False, True], ids=["none", "failing"])
def test_a_closed_stderr_changes_no_exit_code(capsys, monkeypatch, failing):
    stderr = _FailingStdout(OSError(errno.EBADF, os.strerror(errno.EBADF))
                            ) if failing else None
    monkeypatch.setattr("sys.stderr", stderr)
    monkeypatch.setattr("sys.stdin", io.StringIO("not a corpus\n"))
    assert main(["stats", "--summary-only", HERSTEL]) == 0
    assert main(["stats", "-"]) == 2  # the diagnostic and the error are lost
    out = capsys.readouterr().out
    assert out.startswith("token_count=")
    assert "error" not in out  # nothing goes to stdout in its place
    assert stderr is None or stderr.closed


def test_closed_pipe_is_an_io_error_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from corefkit.cli import run; run()",
             "transform", HERSTEL, "--paradigm", "die"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=child_env())
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.decode("utf-8") == (
        f"corefkit: error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")


# --- closed standard streams --------------------------------------------------

BAD_FD_LINE = (f"corefkit: error: [Errno {errno.EBADF}] "
               f"{os.strerror(errno.EBADF)}\n")


def closed_stream_run(fd, *argv, cwd):
    """A ``corefkit`` process whose descriptor ``fd`` (0, 1 or 2) is
    closed before ``exec``: (exit code, stdout, stderr). Stdin is empty
    and the other streams are pipes; a closed one reads as empty."""
    done = subprocess.run(
        [sys.executable, "-c", "from corefkit.cli import run; run()", *argv],
        input=b"", capture_output=True, cwd=cwd, timeout=120, env=child_env(),
        preexec_fn=lambda: os.close(fd))
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


@pytest.mark.parametrize("argv", [
    ("stats", "-"),
    ("transform", "-", "-o", "out.conll"),
    ("score", "--gold", "-", "--pred", HERSTEL),
], ids=lambda argv: argv[0])
def test_closed_stdin_is_an_io_error_with_one_line(tmp_path, argv):
    assert closed_stream_run(0, *argv, cwd=tmp_path) == (2, "", BAD_FD_LINE)
    assert list(tmp_path.iterdir()) == []


def only_output(directory, *others: str) -> bytes:
    """The bytes of ``out.conll``, the one file in ``directory`` besides
    ``others``: no temp file is left beside it."""
    assert sorted(p.name for p in directory.iterdir()) == sorted(
        ["out.conll", *others])
    return (directory / "out.conll").read_bytes()


def test_closed_stdin_is_not_read_when_the_input_is_a_file(tmp_path):
    assert closed_stream_run(0, "transform", HERSTEL, "-o", "out.conll",
                             cwd=tmp_path) == (0, "", "")
    assert only_output(tmp_path) == (FIXTURES / "herstel.conll").read_bytes()


@pytest.mark.parametrize("argv", [
    ("transform", HERSTEL, "--paradigm", "hen"),
    ("score", "--gold", HERSTEL, "--pred", HERSTEL),
    ("stats", HERSTEL),
    # The corpus would go to a file and the sidecar to stdout.
    ("cda", HERSTEL, "-o", "out.conll", "--assignments", "-"),
], ids=lambda argv: argv[0])
def test_closed_stdout_is_an_io_error_with_one_line(tmp_path, argv):
    assert closed_stream_run(1, *argv, cwd=tmp_path) == (2, "", BAD_FD_LINE)
    assert list(tmp_path.iterdir()) == []  # no -o file, no temp file


def test_closed_stdout_is_not_needed_with_an_output_file(tmp_path):
    assert closed_stream_run(1, "transform", HERSTEL, "-o", "out.conll",
                             cwd=tmp_path) == (0, "", "")
    assert only_output(tmp_path) == (FIXTURES / "herstel.conll").read_bytes()


def test_closed_stderr_loses_only_the_warnings(tmp_path):
    (tmp_path / "dup.tsv").write_text("x\teerste\t0\nx\ttweede\t1\n", "utf-8")
    for argv in (("transform", HERSTEL, "-o", "out.conll"),
                 ("transform", HERSTEL, "--neutralize-nouns", "--lexicon",
                  "dup.tsv", "-o", "out.conll")):
        assert closed_stream_run(2, *argv, cwd=tmp_path) == (0, "", "")
        assert only_output(tmp_path, "dup.tsv") == (
            FIXTURES / "herstel.conll").read_bytes()
    code, out, _ = closed_stream_run(2, "stats", HERSTEL, cwd=tmp_path)
    assert (code, out) == (0, run("stats", HERSTEL)[1])


def test_closed_stderr_keeps_the_exit_code_of_an_error(tmp_path):
    (tmp_path / "junk.conll").write_text("not a corpus\n", "utf-8")
    for argv in (("stats", "missing.conll"), ("stats", "junk.conll"),
                 ("transform", "junk.conll", "-o", "out.conll")):
        # Nothing goes to stdout in place of the closed stderr.
        assert closed_stream_run(2, *argv, cwd=tmp_path) == (2, "", "")
    assert [p.name for p in tmp_path.iterdir()] == ["junk.conll"]


def process_run(*argv, stdin=b"", encoding="utf-8:surrogateescape"):
    """A ``corefkit`` process fed ``stdin`` bytes, with ``encoding`` as
    its ``PYTHONIOENCODING``."""
    return subprocess.run(
        [sys.executable, "-c", "from corefkit.cli import run; run()", *argv],
        input=stdin, capture_output=True, timeout=120,
        env={**child_env(), "PYTHONIOENCODING": encoding})


@pytest.mark.parametrize("encoding", ["utf-8:surrogateescape", "latin-1"])
def test_stdin_that_is_not_utf8_is_a_data_error_as_a_file_is(tmp_path,
                                                             encoding):
    bad = tmp_path / "bad.conll"
    bad.write_bytes((FIXTURES / "herstel.conll").read_bytes() + b"\xff\n")
    from_file = process_run("strip-singletons", str(bad), encoding=encoding)
    from_stdin = process_run("strip-singletons", "-", stdin=bad.read_bytes(),
                             encoding=encoding)
    assert from_file.returncode == from_stdin.returncode == 2
    assert from_file.stdout == from_stdin.stdout == b""
    assert from_stdin.stderr == from_file.stderr
    assert from_stdin.stderr.startswith(
        b"corefkit: error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("source, output", [
    ("stdin", "file"), ("file", "stdout"), ("stdin", "stdout")])
def test_stdin_and_stdout_are_utf8_whatever_the_locale(tmp_path, source,
                                                       output):
    text = (FIXTURES / "herstel.conll").read_text("utf-8")
    data = text.replace("Folkestone", "Zo\u00eb").encode("utf-8")
    assert b"Zo\xc3\xab" in data
    source_path = tmp_path / "in.conll"
    source_path.write_bytes(data)
    target = tmp_path / "out.conll"
    argv = ["strip-singletons", "-" if source == "stdin" else str(source_path)]
    if output == "file":
        argv += ["-o", str(target)]
    done = process_run(*argv, stdin=data, encoding="latin-1")
    assert (done.returncode, done.stderr) == (0, b"")
    written = target.read_bytes() if output == "file" else done.stdout
    assert written == data


# --- -o targets that are not plain new files --------------------------------

def test_output_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "real.conll"
    target.write_text("stale\n", "utf-8")
    link = tmp_path / "link.conll"
    link.symlink_to(target)
    code, out, _ = run("transform", HERSTEL, "-o", str(link))
    assert code == 0 and out == ""
    assert os.readlink(link) == str(target)
    assert target.read_text("utf-8") == (FIXTURES / "herstel.conll").read_text("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.conll", "real.conll"]


def test_output_through_a_dangling_symlink_creates_its_target(tmp_path):
    link = tmp_path / "link.conll"
    link.symlink_to(tmp_path / "sub" / "new.conll")
    assert run("transform", HERSTEL, "-o", str(link))[0] == 0
    assert link.is_symlink()
    assert (tmp_path / "sub" / "new.conll").read_text("utf-8") == (
        FIXTURES / "herstel.conll").read_text("utf-8")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_output_to_a_fifo_writes_into_it(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, err = run("transform", HERSTEL, "-o", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0, err
    assert received == [(FIXTURES / "herstel.conll").read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo"]


def test_replaced_output_keeps_its_mode(tmp_path):
    target = tmp_path / "out.conll"
    target.write_text("stale\n", "utf-8")
    target.chmod(0o600)
    assert run("transform", HERSTEL, "-o", str(target))[0] == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert target.read_text("utf-8") == (FIXTURES / "herstel.conll").read_text("utf-8")


# A name of 250 bytes fits where a name may hold 255; the temp file
# and the backup must fit beside it.
LONG_NAME = "a" * 250


def test_a_long_output_name_is_written(tmp_path):
    assert run("transform", HERSTEL, "-o", str(tmp_path / LONG_NAME)) == (
        0, "", "")
    assert os.listdir(tmp_path) == [LONG_NAME]  # no temp file is left
    assert (tmp_path / LONG_NAME).read_bytes() == (
        FIXTURES / "herstel.conll").read_bytes()


def test_a_long_output_name_is_replaced_through_a_backup(tmp_path,
                                                         monkeypatch):
    target = tmp_path / LONG_NAME
    target.write_text("old\n", "utf-8")
    links, link = [], os.link

    def counted(*args):
        links.append(args)
        link(*args)

    monkeypatch.setattr(os, "link", counted)
    # Stdout is written after the replace, so the old file is backed up.
    code, out, err = run("cda", E2E, "-o", str(target), "--assignments", "-")
    assert (code, err) == (0, "") and out.startswith("verhaal1\t")
    assert len(links) == 1
    assert os.listdir(tmp_path) == [LONG_NAME]  # no temp or backup file
    assert target.read_text("utf-8").startswith("#begin document verhaal1\n")


@pytest.mark.parametrize("end", [os.sep, os.sep + os.curdir],
                         ids=["separator", "dot"])
def test_an_output_path_naming_a_directory_is_named_as_given(tmp_path, end):
    # "x/" names a directory, and "x/." is staged as x/.corefkit.PID.0.tmp,
    # which cannot replace the directory x.
    path = str(tmp_path / "new" / "x") + end
    code, out, err = run("transform", HERSTEL, "-o", path)
    assert (code, out) == (2, "")
    assert err.startswith("corefkit: error: [Errno ")
    assert err.endswith(f": {path!r}\n") and ".corefkit" not in err
    assert list(tmp_path.iterdir()) == []


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Every rewrite, the resolver, the scorer and stats write the same
    bytes whatever order the interpreter's string hashes give to sets."""
    def outputs(seed):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        gold, pred = str(work / "hen.conll"), str(work / "pred.conll")
        commands = [
            ["transform", E2E, "--paradigm", "hen", "--anonymize",
             "--neutralize-nouns", "-o", gold],
            ["delex", E2E],
            ["cda", E2E, "--seed", "3", "-o", str(work / "cda.conll")],
            ["unseen", E2E, "--seed", "3", "-o", str(work / "unseen.conll")],
            ["resolve-baseline", gold, "-o", pred],
            ["score", "--gold", gold, "--pred", pred],
            ["stats", gold],
        ]
        env = {**child_env(), "PYTHONHASHSEED": str(seed)}
        written = {}
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-c", "from corefkit.cli import run; run()", *argv],
                capture_output=True, timeout=120, env=env)
            assert done.returncode == 0, done.stderr
            written[argv[0]] = done.stdout
        for path in sorted(work.iterdir()):
            written[path.name] = path.read_bytes()
        return written

    first = outputs(0)
    assert len(first) == 7 + 6  # seven stdouts; four corpora, two sidecars
    assert first == outputs(1)
