import pytest

from a2w.config import TrainConfig, config_from_items, load_config, save_config


def test_defaults_match_recipe():
    cfg = TrainConfig()
    assert cfg.layers == 6
    assert cfg.hidden == 512
    assert cfg.projection == 256
    assert cfg.dropout == 0.25
    assert cfg.lr == 0.01
    assert cfg.momentum == 0.9
    assert cfg.flat_epochs == 10


def test_file_round_trip(tmp_path):
    cfg = TrainConfig(layers=2, hidden=16, dropout=0.0, order="descending", seed=9)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_file_parsing_with_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# a comment\nlayers=3\n\nlr = 0.02  # trailing\nstacking=false\n")
    cfg = load_config(path)
    assert cfg.layers == 3
    assert cfg.lr == 0.02
    assert cfg.stacking is False


def test_overrides_take_precedence(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("layers=3\nhidden=32\n")
    cfg = config_from_items({"hidden": "64"}, load_config(path))
    assert cfg.layers == 3
    assert cfg.hidden == 64


def test_bool_coercion():
    assert config_from_items({"deltas": "off"}).deltas is False
    assert config_from_items({"deltas": "TRUE"}).deltas is True
    with pytest.raises(ValueError):
        config_from_items({"deltas": "maybe"})


def test_unknown_key_rejected():
    with pytest.raises(KeyError):
        config_from_items({"learning_rate": "0.1"})


@pytest.mark.parametrize(
    "text, message",
    [
        ("layers=3\nnope=1\n", r"c\.txt:2: 'nope=1': unknown config key 'nope'"),
        ("layers=three\n", r"c\.txt:1: 'layers=three': invalid literal for int\(\)"),
    ],
    ids=["unknown-key", "bad-int"],
)
def test_bad_file_entry_names_path_and_key(tmp_path, text, message):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("layers 3\n")
    with pytest.raises(ValueError):
        load_config(path)
