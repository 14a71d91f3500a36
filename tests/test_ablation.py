import dataclasses

import pytest

from a2w.ablation import VARIANTS, default_aliases, run_ablation, variant_config
from a2w.config import TrainConfig
from a2w.decoder import decode_utterances
from a2w.pipeline import SynthSpec, synth_corpus
from a2w.scoring import corpus_wer
from a2w.trainer import prepare_corpus, run_training

BASE = dict(layers=2, hidden=8, projection=6, dropout=0.1, epochs=2, batch_size=8,
            lr=0.01, seed=55, min_count=1, deltas=False, stacking=False)


@pytest.fixture(scope="module")
def corpora():
    spec = SynthSpec(vocab_size=5, feature_dim=4, min_words=1, max_words=3, proto_seed=6)
    return synth_corpus(spec, 32, seed=1), synth_corpus(spec, 12, seed=2, id_prefix="held")


ALIASES = ["full", "descending", "random", "no-momentum", "no-dropout", "no-projection", "small", "no-warm"]


class TestAblationSpec:
    def test_alias_edits(self):
        # each alias pins order="ascending" unless it sets the order, sets the
        # seed, and changes exactly the fields listed here
        base = TrainConfig(**{**BASE, "order": "random", "warm_ckpt": "warm.ckpt"})
        edits = {
            "full": {},
            "descending": {"order": "descending"},
            "random": {"order": "random"},
            "no-momentum": {"momentum": 0.0},
            "no-dropout": {"dropout": 0.0},
            "no-projection": {"projection": 0},
            "small": {"layers": base.layers - 1},
            "no-warm": {"warm_ckpt": ""},
        }
        assert list(VARIANTS) == list(edits) == ALIASES
        for alias, edit in edits.items():
            expected = dataclasses.replace(base, seed=7, **{"order": "ascending", **edit})
            assert variant_config(alias, base, seed=7) == expected, alias
        assert base.momentum == 0.9 and base.order == "random"  # base untouched
        one_layer = dataclasses.replace(base, layers=1)
        assert variant_config("small", one_layer, seed=7).layers == 1

    def test_standard_specs_cover_components(self):
        base = TrainConfig(**BASE)
        aliases = default_aliases(base)
        configs = [variant_config(a, base, 1) for a in aliases]
        assert all(c not in configs[:i] for i, c in enumerate(configs))
        assert aliases == ALIASES[:7]  # no warm checkpoint configured

    def test_named_specs_agree_with_standard_specs(self):
        # the default sweep is every alias whose config differs from all earlier ones
        for warm, expected in (("", ALIASES[:7]), ("warm.ckpt", ALIASES)):
            assert default_aliases(TrainConfig(warm_ckpt=warm)) == expected
            assert default_aliases(TrainConfig(**{**BASE, "warm_ckpt": warm})) == expected
        assert default_aliases(TrainConfig(**{**BASE, "layers": 1})) == [a for a in ALIASES[:7] if a != "small"]
        assert default_aliases(TrainConfig(**{**BASE, "dropout": 0.0})) == [a for a in ALIASES[:7] if a != "no-dropout"]


class TestRunAblation:
    def test_single_spec_matches_direct_run(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        result = run_ablation(base, ["full"], train_utts, held, tmp_path / "ab", seeds=[55])
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert not cell.error

        assert cell.spec_name == "full"
        assert (tmp_path / "ab" / "full" / "seed55" / "train_run.jsonl").exists()
        cfg = variant_config("full", base, 55)
        run, trained = run_training(cfg, train_utts, held, tmp_path / "direct")
        prepared = prepare_corpus(held, cfg)
        rows = decode_utterances(trained.model, prepared, trained.space.vocab, batch_size=8)
        refs = {u.id: list(u.transcript) for u in held}
        direct_wer = corpus_wer(refs, {i: w for i, w, _ in rows}).wer
        assert cell.wer == pytest.approx(direct_wer, abs=1e-12)
        assert cell.final_heldout == pytest.approx(run.records[-1].heldout_loss, abs=1e-12)

    def test_duplicate_specs_rejected_before_training(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        # no warm checkpoint: both aliases give one recipe
        with pytest.raises(ValueError, match="'full' and 'no-warm'"):
            run_ablation(base, ["full", "no-warm"], train_utts, held, tmp_path / "ab", seeds=[1])
        assert not (tmp_path / "ab").exists()

    def test_cells_reproducible(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        a = run_ablation(base, ["full"], train_utts, held, tmp_path / "a", seeds=[1])
        b = run_ablation(base, ["full"], train_utts, held, tmp_path / "b", seeds=[1])
        assert a.cells[0].wer == b.cells[0].wer
        assert a.cells[0].final_heldout == b.cells[0].final_heldout

    def test_failures_recorded_not_raised(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE, warm_ckpt="/nonexistent/path.ckpt")
        result = run_ablation(base, ["full", "no-warm"], train_utts, held, tmp_path / "ab", seeds=[3])
        by_name = {c.spec_name: c for c in result.cells}
        warm_on, warm_off = by_name["full"], by_name["no-warm"]
        assert warm_on.error
        assert not warm_off.error
        rows = result.rows()
        assert rows[-1].failures == 1  # failed spec sorts last

    def test_table_outputs(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        result = run_ablation(base, ["full"], train_utts, held, tmp_path / "ab", seeds=[1, 2])
        text = result.render_text()
        assert "mean_wer" in text.splitlines()[0]
        csv_path = tmp_path / "table.csv"
        result.write_csv(csv_path)
        assert len(csv_path.read_text().splitlines()) == 2
