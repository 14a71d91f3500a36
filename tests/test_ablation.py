import pytest

from a2w.ablation import AblationSpec, named_specs, run_ablation, standard_specs
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


class TestAblationSpec:
    def test_stable_names(self):
        spec = AblationSpec(order="descending", dropout=False, warm_start=False)
        assert spec.name == "order-descending_momentum-on_dropout-off_projection-on_warm-off_size-big"

    def test_apply_toggles(self):
        base = TrainConfig(**BASE)
        cfg = AblationSpec(momentum=False, projection=False, size="small", warm_start=False).apply(base, seed=7)
        assert cfg.momentum == 0.0
        assert cfg.projection == 0
        assert cfg.layers == base.layers - 1
        assert cfg.seed == 7
        assert base.momentum == 0.9  # base untouched

    def test_standard_specs_cover_components(self):
        base = TrainConfig(**BASE)
        specs = standard_specs(base)
        names = [s.name for s in specs]
        assert len(names) == len(set(names)) == 7  # no warm checkpoint configured
        assert any("order-descending" in n for n in names)
        assert any("dropout-off" in n for n in names)
        assert any("size-small" in n for n in names)

    def test_named_specs_agree_with_standard_specs(self):
        aliases = ["full", "descending", "random", "no-momentum", "no-dropout", "no-projection", "small", "no-warm"]
        for warm, count in (("", 7), ("warm.ckpt", 8)):
            base = TrainConfig(**{**BASE, "warm_ckpt": warm})
            named = named_specs(base)
            assert list(named) == aliases
            assert named["full"].warm_start == bool(warm)
            assert not named["no-warm"].warm_start
            assert standard_specs(base) == list(named.values())[:count]


class TestRunAblation:
    def test_single_spec_matches_direct_run(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        spec = AblationSpec(warm_start=False)
        result = run_ablation(base, [spec], train_utts, held, tmp_path / "ab", seeds=[55])
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert not cell.error

        cfg = spec.apply(base, 55)
        artifacts = run_training(cfg, train_utts, held, tmp_path / "direct")
        prepared = prepare_corpus(held, cfg)
        rows = decode_utterances(artifacts.model, prepared, artifacts.label_space.vocab, batch_size=8)
        refs = {u.id: list(u.transcript) for u in held}
        direct_wer = corpus_wer(refs, {i: w for i, w, _ in rows}).wer
        assert cell.wer == pytest.approx(direct_wer, abs=1e-12)
        assert cell.final_heldout == pytest.approx(artifacts.run.records[-1].heldout_loss, abs=1e-12)

    def test_duplicate_specs_rejected_before_training(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        full, no_warm = named_specs(base)["full"], named_specs(base)["no-warm"]
        assert full == no_warm  # no warm checkpoint: both aliases name one recipe
        with pytest.raises(ValueError, match=full.name):
            run_ablation(base, [full, no_warm], train_utts, held, tmp_path / "ab", seeds=[1])
        assert not (tmp_path / "ab").exists()

    def test_cells_reproducible(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        spec = AblationSpec(warm_start=False)
        a = run_ablation(base, [spec], train_utts, held, tmp_path / "a", seeds=[1])
        b = run_ablation(base, [spec], train_utts, held, tmp_path / "b", seeds=[1])
        assert a.cells[0].wer == b.cells[0].wer
        assert a.cells[0].final_heldout == b.cells[0].final_heldout

    def test_failures_recorded_not_raised(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE, warm_ckpt="/nonexistent/path.ckpt")
        specs = [AblationSpec(warm_start=True), AblationSpec(warm_start=False)]
        result = run_ablation(base, specs, train_utts, held, tmp_path / "ab", seeds=[3])
        by_name = {c.spec_name: c for c in result.cells}
        warm_on = by_name["order-ascending_momentum-on_dropout-on_projection-on_warm-on_size-big"]
        warm_off = by_name["order-ascending_momentum-on_dropout-on_projection-on_warm-off_size-big"]
        assert warm_on.error
        assert not warm_off.error
        rows = result.rows()
        assert rows[-1].failures == 1  # failed spec sorts last

    def test_table_outputs(self, corpora, tmp_path):
        train_utts, held = corpora
        base = TrainConfig(**BASE)
        result = run_ablation(base, [AblationSpec(warm_start=False)], train_utts, held, tmp_path / "ab", seeds=[1, 2])
        text = result.render_text()
        assert "mean_wer" in text.splitlines()[0]
        csv_path = tmp_path / "table.csv"
        result.write_csv(csv_path)
        assert len(csv_path.read_text().splitlines()) == 2
