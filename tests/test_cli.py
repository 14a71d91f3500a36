import filecmp
import json
import shutil

import numpy as np
import pytest

from a2w.alphabet import build_charset
from a2w.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from a2w.cli import cli_main
from a2w.decoder import read_transcripts
from a2w.pipeline import Utterance, load_corpus, save_corpus
from test_config import TEXT_CASES


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


RUN_FLAGS = (
    "--layers", 1, "--hidden", 6, "--projection", 4, "--epochs", 2,
    "--batch_size", 8, "--heldout_fraction", 0.2, "--min_count", 1,
    "--deltas", "false", "--stacking", "false", "--seed", 3,
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    assert run("train", "--corpus", corpus_dir, "--out", out, *RUN_FLAGS) == 0
    return out


SAR_FLAGS = (
    "--targets", "sar", "--layers", 1, "--hidden", 4, "--projection", 0, "--epochs", 1, "--batch_size", 8,
    "--heldout_fraction", 0.2, "--deltas", "false", "--stacking", "false", "--seed", 5,
)


@pytest.fixture(scope="module")
def sar_run(tmp_path_factory):
    """(corpus, run directory) of a one-epoch spell-and-recognize run."""
    corpus, out = tmp_path_factory.mktemp("sar_corpus"), tmp_path_factory.mktemp("sar_run")
    assert run(
        "synth", "--out", corpus, "--seed", 11, "--count", 12, "--vocab-size", 4, "--feature-dim", 4,
        "--min-words", 1, "--max-words", 2, "--min-frames", 12, "--max-frames", 16,
    ) == 0
    assert run("train", "--corpus", corpus, "--out", out, *SAR_FLAGS) == 0
    return corpus, out


def per_direction_layout(tensors, config):
    """Layer 0 in the layout checkpoints had before each layer's two directions were stacked."""
    for prefix in ("model.layers.0.", "opt.v.layers.0."):
        for kind in "WRb":
            tensors[f"{prefix}fwd.{kind}"], tensors[f"{prefix}bwd.{kind}"] = tensors.pop(prefix + kind)


def write_ref(corpus_dir, path):
    """A reference transcript file: the id and transcript columns of corpus.tsv."""
    lines = [line.rsplit("\t", 1)[0] for line in (corpus_dir / "corpus.tsv").read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    return path


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

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--noise", "nan"], "noise=nan"),
            (["--noise", "-1"], "noise=-1.0"),
            (["--oov-rate", "2", "--oov-pool", "3"], "oov_rate=2.0"),
            (["--oov-rate", "0.5"], "oov_pool_size=0"),
        ],
        ids=["noise-nan", "noise-negative", "rate-above-1", "rate-without-pool"],
    )
    def test_spec_it_cannot_honour_exits_2_naming_the_field(self, tmp_path, capsys, flags, field):
        assert run("synth", "--out", tmp_path / "c", "--seed", 1, "--count", 4, *flags) == 2
        assert f"error: ValueError: {field}: must" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("prefix", ["a\tb", "a/b"], ids=["tab", "slash"])
    def test_prefix_it_cannot_read_back_exits_2_naming_the_id(self, tmp_path, capsys, prefix):
        assert run("synth", "--out", tmp_path / "c", "--seed", 1, "--count", 4, "--prefix", prefix) == 2
        assert f"error: ValueError: id {prefix + '00000'!r}: " in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


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
        assert run("score", write_ref(corpus_dir, tmp_path / "ref.tsv"), hyp) == 0

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
        ref = write_ref(corpus_dir, tmp_path / "self.tsv")
        assert run("score", ref, ref) == 0
        out = capsys.readouterr().out
        assert "WER 0.00%" in out

    def test_config_record_without_value_names_the_file(self, run_dir, corpus_dir, tmp_path, capsys):
        from test_checkpoint import TestFormat

        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        ckpt = bad / "epoch002.ckpt"
        TestFormat._rewrite_manifest_line(ckpt, "config lr=", "config lr")
        message = f"{ckpt}: malformed manifest record 'config lr'"
        assert run("decode", "--run", bad, "--corpus", corpus_dir, "--out", tmp_path / "hyp.tsv") == 2
        assert message in capsys.readouterr().err
        assert run("inspect-ckpt", ckpt) == 2
        assert message in capsys.readouterr().err

    def test_config_record_with_bad_value_names_the_file_and_key(self, run_dir, corpus_dir, tmp_path, capsys):
        from test_checkpoint import TestFormat

        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        ckpt = bad / "epoch002.ckpt"
        TestFormat._rewrite_manifest_line(ckpt, "config lr=", "config lr=abc")
        assert run("decode", "--run", bad, "--corpus", corpus_dir, "--out", tmp_path / "hyp.tsv") == 2
        message = f"{ckpt}: malformed manifest record 'config lr=abc': lr='abc': could not convert"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["insert", "delete"])
    def test_decode_checks_vocab_against_the_checkpoint(self, run_dir, corpus_dir, tmp_path, capsys, edit):
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        lines = (bad / "vocab.txt").read_text().splitlines()
        trained = len(lines)  # header, UNK, W words: as many lines as blank + UNK + W labels
        lines = lines[:3] + ["QQQ"] + lines[3:] if edit == "insert" else lines[:-1]
        (bad / "vocab.txt").write_text("\n".join(lines) + "\n")
        assert run("decode", "--run", bad, "--corpus", corpus_dir, "--out", tmp_path / "hyp.tsv") == 2
        message = f"{bad}: {len(lines)} labels in vocab.txt, but the checkpoint's output layer has {trained}"
        assert message in capsys.readouterr().err

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
        # the charset comes from the checkpoint, so a chars.txt in the run directory is ignored
        assert not (out / "chars.txt").exists()
        (out / "chars.txt").write_text("not an alphabet\n")
        for mode in ("word", "chars", "switched"):
            hyp = tmp_path / f"hyp_{mode}.tsv"
            assert run("decode", "--run", out, "--corpus", corpus, "--out", hyp, "--mode", mode) == 0
            if mode != "word":
                assert hyp.with_suffix(".sar").exists()


class TestReaderFaults:
    """Bad input files exit 2 with a message that names the file."""

    @pytest.mark.parametrize(
        "line, fault",
        [
            (b"not json", "Expecting value: line 1 column 1 (char 0)"),
            (b'{"lr": 1}', "not a record with an integer epoch"),
            (b'{"epoch": "1"}', "not a record with an integer epoch"),
            (b"[1]", "not a record with an integer epoch"),
            (b'{"epoch": 1, "x": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["not-json", "no-epoch", "string-epoch", "not-an-object", "not-utf8"],
    )
    def test_resume_over_malformed_records_names_the_line(self, run_dir, corpus_dir, tmp_path, capsys, line, fault):
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        records = bad / "train_run.jsonl"
        first, *rest = records.read_bytes().splitlines(keepends=True)
        records.write_bytes(first + line + b"\n" + b"".join(rest))
        resume = ("--resume", bad / "epoch001.ckpt")
        assert run("train", "--corpus", corpus_dir, "--out", bad, *RUN_FLAGS, *resume) == 2
        assert f"error: ValueError: {records}:2: {fault}" in capsys.readouterr().err

    def test_resume_past_a_lost_record_names_the_epoch_and_writes_nothing(self, run_dir, corpus_dir, tmp_path, capsys):
        # a run cut after epoch002.ckpt was written but before its record line was appended
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        records = bad / "train_run.jsonl"
        records.write_bytes(b"".join(records.read_bytes().splitlines(keepends=True)[:-1]))
        for name in ("config.txt", "vocab.txt"):
            (bad / name).unlink()
        before = sorted(p.name for p in bad.iterdir()), records.read_bytes()
        resume = ("--epochs", 3, "--resume", bad / "epoch002.ckpt")
        assert run("train", "--corpus", corpus_dir, "--out", bad, *RUN_FLAGS, *resume) == 2
        message = f"error: ValueError: {records}: no record of epoch 2, the epoch of the checkpoint resumed from"
        assert message in capsys.readouterr().err
        assert (sorted(p.name for p in bad.iterdir()), records.read_bytes()) == before
        records.unlink()  # with no records to keep, the resume runs
        assert run("train", "--corpus", corpus_dir, "--out", bad, *RUN_FLAGS, *resume) == 0
        assert [json.loads(line)["epoch"] for line in records.read_text().splitlines()] == [3]

    # RUN_FLAGS: 4 input features, 1 layer, hidden 6, projection 4
    @pytest.mark.parametrize(
        "edit, commands, fault",
        [
            (lambda t, c: t.pop("model.layers.0.R"), ("decode", "resume"),
             "tensor model.layers.0.R is absent in the checkpoint and (2, 24, 6) in the model"),
            (lambda t, c: t.update({"model.layers.1.W": np.zeros((2, 24, 12))}), ("decode", "resume"),
             "tensor model.layers.1.W is (2, 24, 12) in the checkpoint and absent in the model"),
            (lambda t, c: t.update({"model.proj.W": t["model.proj.W"][:, :6]}), ("decode", "resume"),
             "tensor model.proj.W is (4, 6) in the checkpoint and (4, 12) in the model"),
            (lambda t, c: c.update(hidden="5"), ("decode",),
             "tensor model.layers.0.R is (2, 24, 6) in the checkpoint and (2, 20, 5) in the model"),
            (per_direction_layout, ("decode", "resume"),
             "tensor model.layers.0.R is absent in the checkpoint and (2, 24, 6) in the model"),
            (lambda t, c: t.update({"opt.v.layers.0.b": np.zeros(1)}), ("resume",),
             "tensor opt.v.layers.0.b is (1,) in the checkpoint and (2, 24) in the model"),
            (lambda t, c: t.pop("opt.v.layers.0.R"), ("resume",),
             "tensor opt.v.layers.0.R is absent in the checkpoint and (2, 24, 6) in the model"),
        ],
        ids=["dropped-tensor", "extra-tensor", "misshapen-tensor", "hidden-record", "per-direction-names",
             "misshapen-velocity", "dropped-velocity"],
    )
    def test_checkpoint_that_does_not_fit_is_named(self, run_dir, corpus_dir, tmp_path, capsys, edit, commands, fault):
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        for ckpt in (bad / "epoch001.ckpt", bad / "epoch002.ckpt"):
            loaded = load_checkpoint(ckpt)
            tensors, config = dict(loaded.tensors), dict(loaded.config)
            edit(tensors, config)
            save_checkpoint(Checkpoint(tensors=tensors, config=config, epoch=loaded.epoch), ckpt)
        before = {p.name: p.read_bytes() for p in bad.iterdir()}
        if "decode" in commands:
            assert run("decode", "--run", bad, "--corpus", corpus_dir, "--out", tmp_path / "hyp.tsv") == 2
            assert f"error: ValueError: {bad / 'epoch002.ckpt'}: {fault}" in capsys.readouterr().err
        if "resume" in commands:
            resume = ("--resume", bad / "epoch001.ckpt")
            assert run("train", "--corpus", corpus_dir, "--out", bad, *RUN_FLAGS, *resume) == 2
            assert f"error: ValueError: {bad / 'epoch001.ckpt'}: {fault}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in bad.iterdir()} == before

    @pytest.mark.parametrize("record", ["input_dim", "output_dim"])
    def test_checkpoint_without_dim_record_is_named(self, run_dir, corpus_dir, tmp_path, capsys, record):
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        ckpt = bad / "epoch002.ckpt"
        loaded = load_checkpoint(ckpt)
        config = {k: v for k, v in loaded.config.items() if k != record}
        save_checkpoint(Checkpoint(tensors=dict(loaded.tensors), config=config, epoch=loaded.epoch), ckpt)
        assert run("decode", "--run", bad, "--corpus", corpus_dir, "--out", tmp_path / "hyp.tsv") == 2
        assert f"error: ValueError: {ckpt}: the checkpoint has no {record} config record" in capsys.readouterr().err
        assert not (tmp_path / "hyp.tsv").exists()

    def test_warm_start_that_copies_nothing_exits_2(self, run_dir, corpus_dir, tmp_path, capsys):
        # hidden 5 and projection 3 reshape every tensor of RUN_FLAGS' model
        warm, out = run_dir / "epoch002.ckpt", tmp_path / "warm"
        flags = (*RUN_FLAGS, "--hidden", 5, "--projection", 3, "--warm_ckpt", warm)
        assert run("train", "--corpus", corpus_dir, "--out", out, *flags) == 2
        fault = "tensor model.layers.0.R is (2, 24, 6) in the checkpoint and (2, 20, 5) in the model"
        assert f"error: ValueError: {warm}: no tensor fits the model; {fault}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, value, commands",
        [("model.out.W", np.nan, ("decode", "resume", "warm")), ("opt.v.layers.0.b", np.inf, ("resume",))],
        ids=["nan-weight", "inf-velocity"],
    )
    def test_non_finite_tensor_is_named_before_any_write(
        self, run_dir, corpus_dir, tmp_path, capsys, name, value, commands
    ):
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        for ckpt in (bad / "epoch001.ckpt", bad / "epoch002.ckpt"):
            loaded = load_checkpoint(ckpt)
            tensors = dict(loaded.tensors)
            tensors[name] = tensors[name].copy()
            tensors[name].flat[0] = value
            save_checkpoint(Checkpoint(tensors=tensors, config=dict(loaded.config), epoch=loaded.epoch), ckpt)
        before = {p.name: p.read_bytes() for p in bad.iterdir()}
        fault = f"tensor {name} is not finite"
        if "decode" in commands:
            assert run("decode", "--run", bad, "--corpus", corpus_dir, "--out", tmp_path / "hyp.tsv") == 2
            assert f"error: ValueError: {bad / 'epoch002.ckpt'}: {fault}\n" in capsys.readouterr().err
            assert not (tmp_path / "hyp.tsv").exists()
        if "resume" in commands:
            resume = ("--resume", bad / "epoch001.ckpt")
            assert run("train", "--corpus", corpus_dir, "--out", bad, *RUN_FLAGS, *resume) == 2
            assert f"error: ValueError: {bad / 'epoch001.ckpt'}: {fault}\n" in capsys.readouterr().err
        if "warm" in commands:
            warm, out = bad / "epoch002.ckpt", tmp_path / "warm"
            assert run("train", "--corpus", corpus_dir, "--out", out, *RUN_FLAGS, "--warm_ckpt", warm) == 2
            assert f"error: ValueError: {warm}: {fault}\n" in capsys.readouterr().err
            assert not out.exists()
        assert {p.name: p.read_bytes() for p in bad.iterdir()} == before

    def test_transcript_outside_the_charset_exits_2_naming_the_utterance(self, sar_run, tmp_path, capsys):
        corpus, _ = sar_run
        bad, out = tmp_path / "corpus", tmp_path / "run"
        shutil.copytree(corpus, bad)
        lines = (bad / "corpus.tsv").read_text(encoding="utf-8").splitlines()
        uid, _, features = lines[3].split("\t")
        lines[3] = f"{uid}\tCAFÉ\t{features}"
        (bad / "corpus.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("train", "--corpus", bad, "--out", out, *SAR_FLAGS) == 2
        err = capsys.readouterr().err
        assert f"error: UnknownCharacter: utterance {uid}: character " in err and "in 'CAFÉ' is outside" in err
        assert not out.exists()

    def test_chars_file_as_vocab_is_named(self, run_dir, corpus_dir, tmp_path, capsys):
        # a character-set file in vocab.txt's place
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        symbols = [s.text for s in build_charset("simple").symbols]
        (bad / "vocab.txt").write_text("\n".join(["#a2w-alphabet v1 chars-simple", *symbols]) + "\n")
        assert run("decode", "--run", bad, "--corpus", corpus_dir, "--out", tmp_path / "hyp.tsv") == 2
        message = f"{bad / 'vocab.txt'}: line 1 must be '#a2w-alphabet v1 words'"
        assert message in capsys.readouterr().err

    def test_decode_epoch_picks_the_checkpoint(self, run_dir, corpus_dir, tmp_path, capsys):
        first, latest = tmp_path / "first.tsv", tmp_path / "latest.tsv"
        assert run("decode", "--run", run_dir, "--corpus", corpus_dir, "--out", first, "--epoch", 1) == 0
        assert run("decode", "--run", run_dir, "--corpus", corpus_dir, "--out", latest, "--epoch", 2) == 0
        assert read_transcripts(first).keys() == read_transcripts(latest).keys()
        assert run("decode", "--run", run_dir, "--corpus", corpus_dir, "--out", tmp_path / "x", "--epoch", 9) == 2
        assert f"{run_dir}: no checkpoint matches epoch009.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("widen", ["first", "last", "all"])
    def test_corpus_of_another_width_exits_2_naming_the_utterance(self, run_dir, corpus_dir, tmp_path, capsys, widen):
        utts = sorted(load_corpus(corpus_dir), key=lambda u: (u.num_frames, u.id))
        # the shortest and the longest utterance share a batch with others; widened alone, each is named
        odd = {"first": utts[:1], "last": utts[-1:], "all": utts}[widen]
        wide = {u.id for u in odd}
        save_corpus([Utterance(u.id, np.hstack([u.features] * (1 + (u.id in wide))), u.transcript) for u in utts],
                    tmp_path / "corpus")
        hyp = tmp_path / "hyp.tsv"
        assert run("decode", "--run", run_dir, "--corpus", tmp_path / "corpus", "--out", hyp) == 2
        assert f"error: ValueError: {odd[0].id}: features are 8 wide, not 4\n" in capsys.readouterr().err
        assert not hyp.exists() and not hyp.with_suffix(".sar").exists()

    def test_annotated_decode_into_a_sar_file_is_rejected(self, sar_run, tmp_path, capsys):
        corpus, out = sar_run
        hyp = tmp_path / "out.sar"
        assert run("decode", "--run", out, "--corpus", corpus, "--out", hyp, "--mode", "switched") == 1
        assert f"--mode switched writes its annotations to {hyp}" in capsys.readouterr().err
        assert not hyp.exists()

    def test_missing_tab_in_both_files_exits_2(self, tmp_path, capsys):
        # with a space where the tab belongs, "b THE DOG" once read as an id with no words
        ref, hyp = tmp_path / "ref.tsv", tmp_path / "hyp.tsv"
        for path in (ref, hyp):
            path.write_text("a\tTHE CAT\nb THE DOG\n")
        assert run("score", ref, hyp) == 2
        assert f"{ref}:2: expected id<TAB>text, got 'b THE DOG'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, flags, message",
        [
            (b"utt00000\tA\nutt00000\tB\n", (), ":2: id 'utt00000' repeats line 1"),
            (b"utt00000\t\xff\n", (), ":1: 'utf-8' codec can't decode byte 0xff"),
            (b"utt00000\tb-z q-q e-o UNK\n", ("--strip-sar",), ":1: 'b-z q-q e-o' holds a token outside"),
        ],
        ids=["repeated-id", "non-utf8", "sar-token"],
    )
    def test_bad_hypothesis_file_exits_2(self, corpus_dir, tmp_path, capsys, data, flags, message):
        hyp = tmp_path / "hyp.sar"
        hyp.write_bytes(data)
        assert run("score", write_ref(corpus_dir, tmp_path / "ref.tsv"), hyp, *flags) == 2
        assert f"{hyp}{message}" in capsys.readouterr().err

    def test_score_strip_sar_reads_decoded_annotations(self, sar_run, tmp_path, capsys):
        corpus, out = sar_run
        hyp = tmp_path / "hyp.tsv"
        assert run("decode", "--run", out, "--corpus", corpus, "--out", hyp, "--mode", "switched") == 0
        ref = write_ref(corpus, tmp_path / "ref.tsv")
        assert run("score", ref, hyp) == 0
        plain = capsys.readouterr().out.splitlines()[-1]
        assert run("score", ref, hyp.with_suffix(".sar"), "--strip-sar") == 0
        assert capsys.readouterr().out.splitlines()[-1] == plain

    def test_repeated_corpus_id_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run("synth", "--out", corpus, "--seed", 1, "--count", 6) == 0
        tsv = corpus / "corpus.tsv"
        lines = tsv.read_text().splitlines()
        tsv.write_text("\n".join(lines[:5] + [lines[0]]) + "\n")
        assert run("train", "--corpus", corpus, "--out", tmp_path / "r") == 2
        assert f"{tsv}:6: id 'utt00000' repeats line 1" in capsys.readouterr().err

    def test_non_finite_feature_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run("synth", "--out", corpus, "--seed", 1, "--count", 4) == 0
        victim = corpus / "features" / "utt00002.bin"
        victim.write_bytes(victim.read_bytes()[:-4] + b"\x00\x00\xc0\x7f")  # a float32 NaN
        assert run("train", "--corpus", corpus, "--out", tmp_path / "r") == 2
        assert f"{victim}: features of 'utt00002' are not all finite" in capsys.readouterr().err


class TestUnrunnableRecipe:
    """A recipe that cannot run exits 2 naming the key and the value before
    it writes a file: an existing run directory is left byte for byte, a new
    one unmade."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            *(((f"--{key}", raw), message) for key, raw, message in TEXT_CASES.values()),
            (("--hidden", 4, "--projection", 9), "projection=9: must be < 2*hidden = 8"),
            (("--resume", "epoch002.ckpt"), "epoch002.ckpt is at epoch 2, so epochs=2 leaves no epoch to run"),
        ],
        ids=[*TEXT_CASES, "projection-over-2-hidden", "resume-at-last-epoch"],
    )
    def test_exits_2_and_writes_nothing(self, run_dir, corpus_dir, tmp_path, capsys, flags, message):
        existing, fresh = tmp_path / "existing", tmp_path / "fresh"
        shutil.copytree(run_dir, existing)
        before = {p.name: p.read_bytes() for p in existing.iterdir()}
        for out in (existing, fresh):
            args = [existing / f if f == "epoch002.ckpt" else f for f in flags]
            assert run("train", "--corpus", corpus_dir, "--out", out, *RUN_FLAGS, *args) == 2
            assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in existing.iterdir()} == before
        assert not fresh.exists()


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

    def test_score_on_mismatched_ids_fails(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("u1\tHELLO\n")
        b.write_text("u2\tHELLO\n")
        assert run("score", a, b) == 2
        assert f"error: ValueError: ids differ: ['u1'] only in {a}, ['u2'] only in {b}" in capsys.readouterr().err

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
        assert f"{tsv}:1: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_bad_config_value_is_runtime_failure(self, tmp_path, corpus_dir):
        # an unparseable value surfaces when the config is resolved
        assert run("train", "--corpus", corpus_dir, "--out", tmp_path / "r", "--layers", "three") == 2
