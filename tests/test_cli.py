import filecmp
import shutil

import pytest

from a2w.cli import cli_main
from a2w.decoder import read_transcripts


def run(*argv):
    return cli_main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    assert run(
        "synth", "--out", path, "--seed", 7, "--count", 30, "--vocab-size", 5,
        "--feature-dim", 4, "--min-words", 1, "--max-words", 3,
    ) == 0
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    status = run(
        "train", "--corpus", corpus_dir, "--out", out,
        "--layers", 1, "--hidden", 6, "--projection", 4, "--epochs", 2,
        "--batch_size", 8, "--heldout_fraction", 0.2, "--min_count", 1,
        "--deltas", "false", "--stacking", "false", "--seed", 3,
    )
    assert status == 0
    return out


class TestSynth:
    def test_deterministic_directories(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--out", tmp_path / name, "--seed", 5, "--count", 12) == 0
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b",
            [p.relative_to(tmp_path / "a").as_posix() for p in (tmp_path / "a").rglob("*") if p.is_file()],
            shallow=False,
        )
        assert not mismatch and not errors

    def test_writes_expected_layout(self, corpus_dir):
        assert (corpus_dir / "corpus.tsv").exists()
        assert list((corpus_dir / "features").glob("*.bin"))


class TestTrainDecodeScore:
    def test_run_dir_layout(self, run_dir):
        assert (run_dir / "config.txt").exists()
        assert (run_dir / "vocab.txt").exists()
        assert (run_dir / "epoch001.ckpt").exists()
        assert (run_dir / "epoch002.ckpt").exists()
        assert (run_dir / "train_run.jsonl").exists()

    def test_decode_then_score(self, run_dir, corpus_dir, tmp_path):
        hyp = tmp_path / "hyp.tsv"
        assert run("decode", "--run", run_dir, "--corpus", corpus_dir, "--out", hyp) == 0
        decoded = read_transcripts(hyp)
        assert len(decoded) == 30
        ref = tmp_path / "ref.tsv"
        lines = []
        for line in (corpus_dir / "corpus.tsv").read_text().splitlines():
            utt_id, transcript, _ = line.split("\t")
            lines.append(f"{utt_id}\t{transcript}")
        ref.write_text("\n".join(lines) + "\n")
        assert run("score", ref, hyp) == 0

    def test_decode_needs_no_config_file(self, run_dir, corpus_dir, tmp_path):
        # model shape and feature recipe come from the checkpoint's own snapshot
        bare = tmp_path / "bare"
        shutil.copytree(run_dir, bare)
        (bare / "config.txt").unlink()
        with_config, without_config = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run("decode", "--run", run_dir, "--corpus", corpus_dir, "--out", with_config) == 0
        assert run("decode", "--run", bare, "--corpus", corpus_dir, "--out", without_config) == 0
        assert without_config.read_text() == with_config.read_text()

    def test_score_self_is_zero(self, corpus_dir, tmp_path, capsys):
        ref = tmp_path / "self.tsv"
        lines = []
        for line in (corpus_dir / "corpus.tsv").read_text().splitlines():
            utt_id, transcript, _ = line.split("\t")
            lines.append(f"{utt_id}\t{transcript}")
        ref.write_text("\n".join(lines) + "\n")
        assert run("score", ref, ref) == 0
        out = capsys.readouterr().out
        assert "WER 0.00%" in out

    def test_inspect_ckpt(self, run_dir, capsys):
        assert run("inspect-ckpt", run_dir / "epoch002.ckpt") == 0
        out = capsys.readouterr().out
        assert out.startswith("epoch 2")
        assert "tensor model.out.W" in out

    def test_sar_train_and_three_decode_modes(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(
            "synth", "--out", corpus, "--seed", 11, "--count", 24, "--vocab-size", 4,
            "--feature-dim", 4, "--min-words", 1, "--max-words", 2,
            "--min-frames", 12, "--max-frames", 16,
        ) == 0
        out = tmp_path / "run"
        assert run(
            "train", "--corpus", corpus, "--out", out,
            "--targets", "sar", "--layers", 1, "--hidden", 8, "--projection", 0,
            "--epochs", 1, "--batch_size", 8, "--heldout_fraction", 0.2,
            "--deltas", "false", "--stacking", "false", "--min_count", 1, "--seed", 5,
        ) == 0
        assert (out / "chars.txt").exists()
        for mode in ("word", "chars", "switched"):
            hyp = tmp_path / f"hyp_{mode}.tsv"
            assert run("decode", "--run", out, "--corpus", corpus, "--out", hyp, "--mode", mode) == 0
            if mode != "word":
                assert hyp.with_suffix(".sar").exists()


class TestAblate:
    def test_two_spec_sweep(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "ablation"
        status = run(
            "ablate", "--corpus", corpus_dir, "--out", out,
            "--specs", "full,no-dropout", "--seeds", 1,
            "--layers", 1, "--hidden", 6, "--projection", 4, "--epochs", 1,
            "--batch_size", 8, "--heldout_fraction", 0.2, "--min_count", 1,
            "--deltas", "false", "--stacking", "false", "--seed", 2,
        )
        assert status == 0
        table = capsys.readouterr().out
        assert "no-dropout" in table
        assert (out / "table.txt").exists()
        assert (out / "table.csv").exists()
        assert len((out / "table.csv").read_text().splitlines()) == 3

    def test_unknown_spec_is_usage_error(self, corpus_dir, tmp_path):
        assert run("ablate", "--corpus", corpus_dir, "--out", tmp_path / "x", "--specs", "bogus") == 1

    def test_aliases_of_one_spec_exit_2(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "dup"
        assert run("ablate", "--corpus", corpus_dir, "--out", out, "--specs", "full,no-warm") == 2
        err = capsys.readouterr().err
        assert "'full'" in err and "'no-warm'" in err
        assert not out.exists()

    def test_warm_start_makes_no_warm_a_variant(self, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "warm"
        status = run(
            "ablate", "--corpus", corpus_dir, "--out", out,
            "--specs", "full,no-warm", "--seeds", 1, "--warm_ckpt", run_dir / "epoch002.ckpt",
            "--layers", 1, "--hidden", 6, "--projection", 4, "--epochs", 1,
            "--batch_size", 8, "--heldout_fraction", 0.2, "--min_count", 1,
            "--deltas", "false", "--stacking", "false", "--seed", 2,
        )
        assert status == 0
        assert len((out / "table.csv").read_text().splitlines()) == 3
        assert (out / "full" / "seed2" / "warm_start.txt").exists()
        assert not (out / "no-warm" / "seed2" / "warm_start.txt").exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("synth", "--nope", "x") == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self):
        assert run("synth") == 1

    def test_runtime_failure_is_2(self, tmp_path, capsys):
        assert run("inspect-ckpt", tmp_path / "missing.ckpt") == 2
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_score_on_mismatched_ids_fails(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("u1\tHELLO\n")
        b.write_text("u2\tHELLO\n")
        assert run("score", a, b) == 2

    def test_truncated_feature_file_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run("synth", "--out", corpus, "--seed", 1, "--count", 4) == 0
        victim = sorted((corpus / "features").glob("*.bin"))[0]
        victim.write_bytes(victim.read_bytes()[:-4])
        assert run("train", "--corpus", corpus, "--out", tmp_path / "r") == 2
        assert str(victim) in capsys.readouterr().err

    def test_non_utf8_config_file_is_named(self, tmp_path, corpus_dir, capsys):
        config = tmp_path / "c.txt"
        config.write_bytes(b"layers=\xff\n")
        assert run("train", "--corpus", corpus_dir, "--out", tmp_path / "r", "--config", config) == 2
        assert f"{config}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_non_utf8_corpus_file_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run("synth", "--out", corpus, "--seed", 1, "--count", 4) == 0
        tsv = corpus / "corpus.tsv"
        tsv.write_bytes(b"\xff" + tsv.read_bytes())
        assert run("train", "--corpus", corpus, "--out", tmp_path / "r") == 2
        assert f"{tsv}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_bad_config_value_is_runtime_failure(self, tmp_path, corpus_dir):
        # an unparseable value surfaces when the config is resolved
        assert run("train", "--corpus", corpus_dir, "--out", tmp_path / "r", "--layers", "three") == 2
