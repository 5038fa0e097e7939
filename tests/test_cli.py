import io

import pytest

from corefkit.cli import main

from conftest import FIXTURES

DIALOGUE_GOLD = str(FIXTURES / "dialogue_gold.conll")
DIALOGUE_PRED = str(FIXTURES / "dialogue_pred.conll")
HERSTEL = str(FIXTURES / "herstel.conll")
E2E = str(FIXTURES / "e2e.conll")


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(*argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


def test_version_flag(cli):
    code, out, _ = cli("--version")
    assert code == 0
    assert out.strip() == "0.1.0"


@pytest.mark.parametrize("name", ["hij", "zij", "hen", "die"])
def test_transform_reproduces_expected_bytes(cli, name):
    code, out, err = cli("transform", HERSTEL, "--paradigm", name,
                         "--anonymize", "--neutralize-nouns")
    assert code == 0, err
    assert out == (FIXTURES / f"herstel_{name}.conll").read_text("utf-8")


def test_transform_anonymize_is_a_noop_without_per_tokens(cli):
    with_flag = cli("transform", HERSTEL, "--paradigm", "die",
                    "--anonymize", "--neutralize-nouns")
    without = cli("transform", HERSTEL, "--paradigm", "die",
                  "--neutralize-nouns")
    assert with_flag == without


def test_transform_baseline_keeps_pronouns(cli):
    code, out, _ = cli("transform", HERSTEL, "--neutralize-nouns")
    assert code == 0
    assert "\thij\t" in out
    assert "\tpersoon\t" in out and "\touder\t" in out
    assert "vrouw" not in out


def test_transform_without_flags_is_identity_here(cli):
    code, out, _ = cli("transform", HERSTEL)
    assert code == 0
    assert out == (FIXTURES / "herstel.conll").read_text("utf-8")


def test_transform_reads_stdin(cli):
    text = (FIXTURES / "herstel.conll").read_text("utf-8")
    code, out, _ = cli("transform", "--paradigm", "hen", stdin_text=text)
    assert code == 0
    assert "\then\t" in out


def test_transform_output_file_and_jobs(cli, tmp_path):
    single = tmp_path / "single.conll"
    threaded = tmp_path / "threaded.conll"
    assert cli("transform", E2E, "--paradigm", "die", "--anonymize",
               "--neutralize-nouns", "-o", str(single))[0] == 0
    assert cli("transform", E2E, "--paradigm", "die", "--anonymize",
               "--neutralize-nouns", "--jobs", "4", "-o", str(threaded))[0] == 0
    assert single.read_bytes() == threaded.read_bytes()


def test_delex_tags_pronouns(cli):
    code, out, _ = cli("delex", HERSTEL)
    assert code == 0
    forms = [line.split("\t")[1] for line in out.splitlines()
             if line and not line.startswith("#")]
    assert forms.count("<SUBJ>") == 1 and forms.count("<POSS>") == 3
    assert "hij" not in forms and "zijn" not in forms


def test_strip_singletons_removes_size_one_clusters(cli):
    code, out, _ = cli("strip-singletons", DIALOGUE_GOLD)
    assert code == 0
    assert "(2)" not in out           # the singleton cluster is gone
    assert "(0)" in out               # multi-mention clusters survive


def test_stats_table_and_totals(cli):
    code, out, _ = cli("stats", DIALOGUE_GOLD, "--forms", "they", "their")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["form", "total", "subj", "obj", "poss",
                                "rel", "dem", "other", "3sg"]
    they = next(line for line in lines if line.startswith("they"))
    assert they.split() == ["they", "1", "1", "0", "0", "0", "0", "0", "1"]
    assert "token_count=36" in out
    assert "third_singular_count=2" in out


def test_stats_summary_only(cli):
    code, out, _ = cli("stats", DIALOGUE_GOLD, "--summary-only")
    assert code == 0
    assert "form" not in out.splitlines()[0]
    assert out.startswith("token_count=")


def test_stats_accepts_classifier_config(cli, tmp_path):
    config = tmp_path / "cls.cfg"
    config.write_text("third_singular.feats = PronType=Prs\n", "utf-8")
    code, out, _ = cli("stats", DIALOGUE_GOLD, "--summary-only",
                       "--config", str(config))
    assert code == 0
    # loosening the gate pulls in 'you' and 'me' as well
    assert "third_singular_count=4" in out


def test_cda_writes_output_and_assignment_sidecar(cli, tmp_path):
    out_path = tmp_path / "aug.conll"
    code, _, _ = cli("cda", E2E, "-o", str(out_path), "--seed", "1")
    assert code == 0
    sidecar = tmp_path / "aug.conll.assignments.tsv"
    assert out_path.exists() and sidecar.exists()
    rows = [line.split("\t") for line in
            sidecar.read_text("utf-8").splitlines()]
    assert [row[0] for row in rows] == ["verhaal1", "verhaal2", "verhaal3"]
    assert {row[1] for row in rows} <= {"hen", "die"}


def test_cda_explicit_assignment_path(cli, tmp_path):
    sidecar = tmp_path / "map.tsv"
    code, out, _ = cli("cda", E2E, "--assignments", str(sidecar))
    assert code == 0
    assert out.startswith("#begin document")
    assert len(sidecar.read_text("utf-8").splitlines()) == 3


def test_sample_writes_partition_files(cli, tmp_path):
    prefix = str(tmp_path / "part")
    code, _, _ = cli("sample", E2E, "--count", "2", "--partitions", "3",
                     "--seed", "5", "--out-prefix", prefix)
    assert code == 0
    contents = []
    for i in range(3):
        lines = (tmp_path / f"part{i}.txt").read_text("utf-8").splitlines()
        assert len(lines) == 2
        assert set(lines) <= {"verhaal1", "verhaal2", "verhaal3"}
        contents.append(lines)
    rerun = str(tmp_path / "again")
    cli("sample", E2E, "--count", "2", "--partitions", "3", "--seed", "5",
        "--out-prefix", rerun)
    for i in range(3):
        assert (tmp_path / f"again{i}.txt").read_text("utf-8").splitlines() \
            == contents[i]


def test_sample_stdout_blocks(cli):
    code, out, _ = cli("sample", E2E, "--fraction", "2/3", "--partitions", "2")
    assert code == 0
    assert out.count("# partition") == 2


def test_unseen_fixed_paradigm(cli):
    code, out, _ = cli("unseen", HERSTEL, "--fixed", "zem")
    assert code == 0
    assert "\tzem\t" in out and "\tzeer\t" in out


def test_unseen_random_assignment_sidecar(cli, tmp_path):
    out_path = tmp_path / "unseen.conll"
    code, _, _ = cli("unseen", E2E, "-o", str(out_path), "--seed", "2")
    assert code == 0
    sidecar = tmp_path / "unseen.conll.assignments.tsv"
    names = {line.split("\t")[1]
             for line in sidecar.read_text("utf-8").splitlines()}
    assert names <= {"dee", "dij", "nij", "vij", "zhij", "zem"}


def test_resolve_baseline_emits_predictions(cli):
    code, out, _ = cli("resolve-baseline", E2E)
    assert code == 0
    assert out.startswith("#begin document verhaal1")
    assert "(0" in out


def test_score_report(cli):
    code, out, _ = cli("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED)
    assert code == 0
    assert "0.857143" in out
    assert "50.00" in out
    assert "pronoun_form_their=1/1" in out


def test_score_ignore_singletons(cli):
    code, out, _ = cli("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED,
                       "--ignore-singletons")
    assert code == 0
    assert "lea_f1=0.833333" in out


def test_score_macro_flag(cli):
    code, out, _ = cli("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_PRED,
                       "--macro")
    assert code == 0
    assert "pronoun_score=50.00" in out


def test_score_output_file(cli, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = cli("score", "--gold", DIALOGUE_GOLD, "--pred", DIALOGUE_GOLD,
                       "-o", str(report))
    assert code == 0
    assert out == ""
    assert "lea_f1=1.000000" in report.read_text("utf-8")


# --- failure behaviour -----------------------------------------------------

def test_unknown_subcommand_is_a_usage_error(cli):
    code, out, err = cli("frobnicate")
    assert code == 1
    assert out == ""
    assert "frobnicate" in err


def test_unknown_paradigm_is_a_usage_error(cli):
    code, _, err = cli("transform", HERSTEL, "--paradigm", "xyz")
    assert code == 1
    assert "invalid choice" in err


def test_sample_flag_exclusivity(cli):
    code, _, _ = cli("sample", E2E, "--fraction", "1/2", "--count", "3",
                     "--partitions", "2")
    assert code == 1
    code, _, _ = cli("sample", E2E, "--fraction", "1/2")
    assert code == 1  # --partitions is required


def test_missing_input_file_is_a_data_error(cli, tmp_path):
    code, out, err = cli("stats", str(tmp_path / "nope.conll"))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_unparseable_corpus_is_a_data_error(cli):
    code, out, err = cli("stats", stdin_text="not a corpus\n")
    assert code == 2
    assert out == ""
    assert "no parseable document" in err
    assert "unexpected content" in err  # the diagnostics are forwarded


def test_score_grid_mismatch_is_a_data_error(cli):
    code, _, err = cli("score", "--gold", DIALOGUE_GOLD, "--pred", HERSTEL)
    assert code == 2
    assert "do not align" in err


def test_failed_run_writes_no_output_file(cli, tmp_path):
    target = tmp_path / "out.conll"
    code, out, _ = cli("transform", str(tmp_path / "missing.conll"),
                       "-o", str(target))
    assert code == 2
    assert out == ""
    assert not target.exists()


def test_degenerate_sample_fraction_is_a_data_error(cli):
    code, _, err = cli("sample", E2E, "--fraction", "1/100",
                       "--partitions", "2")
    assert code == 2
    assert "degenerate" in err


def test_bad_lexicon_file_is_a_data_error(cli, tmp_path):
    lexicon = tmp_path / "broken.tsv"
    lexicon.write_text("only-one-column\n", "utf-8")
    code, _, err = cli("transform", HERSTEL, "--neutralize-nouns",
                       "--lexicon", str(lexicon))
    assert code == 2
    assert "tab-separated" in err


def test_unwritable_output_path_is_an_io_error(cli, tmp_path):
    blocker = tmp_path / "afile"
    blocker.write_text("", "utf-8")
    code, out, err = cli("transform", HERSTEL, "-o", str(blocker / "x.conll"))
    assert code == 2
    assert out == ""
    assert err.startswith("corefkit: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("command", ["cda", "unseen"])
def test_failed_sidecar_write_leaves_no_output(cli, tmp_path, command):
    blocker = tmp_path / "afile"
    blocker.write_text("", "utf-8")
    code, out, err = cli(command, E2E, "-o", str(tmp_path / "out.conll"),
                         "--assignments", str(blocker / "a.tsv"))
    assert code == 2
    assert out == ""
    assert err.startswith("corefkit: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_failed_partition_write_leaves_no_partition_file(cli, tmp_path):
    (tmp_path / "part1.txt").mkdir()   # the second target cannot be written
    code, out, err = cli("sample", E2E, "--count", "2", "--partitions", "3",
                         "--out-prefix", str(tmp_path / "part"))
    assert code == 2
    assert out == ""
    assert err.startswith("corefkit: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["part1.txt"]
    assert not any((tmp_path / "part1.txt").iterdir())


def test_existing_output_file_is_replaced(cli, tmp_path):
    target = tmp_path / "out.conll"
    target.write_text("stale\n", "utf-8")
    code, _, _ = cli("transform", HERSTEL, "-o", str(target))
    assert code == 0
    assert target.read_text("utf-8") == (FIXTURES / "herstel.conll").read_text("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.conll"]
