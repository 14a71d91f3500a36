import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from a2w.alphabet import CHARSETS
from a2w.checkpoint import load_checkpoint, save_checkpoint
from a2w.config import DEFAULTS, TrainConfig, check_value, config_from_items, load_config, save_config
from a2w.network import Model, param_shapes
from a2w.pipeline import ORDERS
from a2w.trainer import OptimizerState, build_model_config, make_checkpoint, model_from_checkpoint

INIT_RULE = "uniform-fan-in or uniform-fan-in-gain:G with finite G > 0"

# one bad value for each rule of the table: test id -> (key, value as text, the error)
BAD_VALUES = {
    "layers": ("layers", "0", "layers=0: must be >= 1"),
    "hidden": ("hidden", "0", "hidden=0: must be >= 1"),
    "projection": ("projection", "-1", "projection=-1: must be >= 0"),
    "dropout": ("dropout", "1.5", "dropout=1.5: must be in [0, 1)"),
    "dropout-nan": ("dropout", "nan", "dropout=nan: must be in [0, 1)"),
    "grad-clip": ("grad_clip", "-1", "grad_clip=-1.0: must be finite and >= 0"),
    "grad-clip-inf": ("grad_clip", "inf", "grad_clip=inf: must be finite and >= 0"),
    "init": ("init", "bogus", f"init='bogus': must be {INIT_RULE}"),
    "init-gain-nan": ("init", "uniform-fan-in-gain:nan", f"init='uniform-fan-in-gain:nan': must be {INIT_RULE}"),
    "init-gain-0": ("init", "uniform-fan-in-gain:0", f"init='uniform-fan-in-gain:0': must be {INIT_RULE}"),
    "dtype": ("dtype", "float16", "dtype='float16': must be one of float64, float32"),
    "lr": ("lr", "-1", "lr=-1.0: must be finite and > 0"),
    "lr-inf": ("lr", "inf", "lr=inf: must be finite and > 0"),
    "momentum": ("momentum", "2", "momentum=2.0: must be in [0, 1)"),
    "momentum-nan": ("momentum", "nan", "momentum=nan: must be in [0, 1)"),
    "flat-epochs": ("flat_epochs", "-3", "flat_epochs=-3: must be >= 0"),
    "epochs": ("epochs", "0", "epochs=0: must be >= 1"),
    "batch-size": ("batch_size", "0", "batch_size=0: must be >= 1"),
    "order": ("order", "nope", "order='nope': must be one of ascending, descending, random"),
    "min-count": ("min_count", "0", "min_count=0: must be >= 1"),
    "targets": ("targets", "chars", "targets='chars': must be one of word, sar"),
    "charset": ("charset", "greek", "charset='greek': must be one of simple, positional"),
    "heldout-fraction": ("heldout_fraction", "1", "heldout_fraction=1.0: must be in [0, 1)"),
    "warm-ckpt": ("warm_ckpt", "a#b", "warm_ckpt='a#b': must be one line, without '#' or surrounding whitespace"),
}
# text that does not parse as its key's type, for the paths that read text
UNPARSEABLE = {
    "seed": ("seed", "1.5", "seed='1.5': invalid literal for int() with base 10: '1.5'"),
    "deltas": ("deltas", "maybe", "deltas='maybe': must be one of 1, true, yes, on, 0, false, no, off"),
}
TEXT_CASES = {**BAD_VALUES, **UNPARSEABLE}


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
        ("layers=3\nnope=1\n", r"c\.txt:2: unknown config key 'nope'"),
        ("layers=three\n", r"c\.txt:1: layers='three': invalid literal for int\(\)"),
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


def test_non_utf8_file_names_path(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"layers=\xff\n")
    with pytest.raises(ValueError, match=r"c\.txt: 'utf-8' codec can't decode byte 0xff"):
        load_config(path)


@pytest.mark.parametrize("key, raw, message", BAD_VALUES.values(), ids=BAD_VALUES)
def test_direct_construction_rejects_bad_value(key, raw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{key: type(DEFAULTS[key])(raw)})


@pytest.mark.parametrize(
    "key, value, message",
    [("layers", True, "layers=True: must be of type int"), ("lr", "0.1", "lr='0.1': must be of type float"),
     ("lr", 1, "lr=1: must be of type float"), ("deltas", 1, "deltas=1: must be of type bool"),
     ("order", " random", "order=' random': must be one line")],
    ids=["bool-for-int", "str-for-float", "int-for-float", "int-for-bool", "spaces"],
)
def test_direct_construction_rejects_wrong_type(key, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{key: value})


# a '#' starts a comment, so a config file cannot carry the warm_ckpt case
FILE_CASES = {name: case for name, case in TEXT_CASES.items() if "#" not in case[1]}


@pytest.mark.parametrize("key, raw, message", FILE_CASES.values(), ids=FILE_CASES)
def test_config_file_line_rejects_bad_value(tmp_path, key, raw, message):
    path = tmp_path / "c.txt"
    path.write_text(f"layers=2\n{key}={raw}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        load_config(path)


@pytest.mark.parametrize("key, raw, message", TEXT_CASES.values(), ids=TEXT_CASES)
def test_checkpoint_config_record_rejects_bad_value(tmp_path, key, raw, message):
    from test_checkpoint import TestFormat, sample_checkpoint

    path = tmp_path / "bad.ckpt"
    save_checkpoint(sample_checkpoint(), path)
    record = f"config {key}={raw}"
    TestFormat._rewrite_manifest_line(path, "config lr=", record)
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed manifest record {record!r}: {message}")):
        load_checkpoint(path)


def _table_accepts(key, value) -> bool:
    try:
        check_value(key, value)
    except ValueError:
        return False
    return True


_FRACTION = st.floats(0, 1, exclude_max=True)
# the values each rule accepts, spelled out apart from the table (TrainConfig
# raises if it rejects one); warm_ckpt is any text the table accepts
ACCEPTED_VALUES = {
    "layers": st.integers(min_value=1),
    "hidden": st.integers(min_value=1),
    "projection": st.integers(min_value=0),
    "dropout": _FRACTION,
    "grad_clip": st.floats(min_value=0, allow_infinity=False),
    "init": st.just("uniform-fan-in")
    | st.floats(min_value=0, exclude_min=True, allow_infinity=False).map("uniform-fan-in-gain:{}".format),
    "dtype": st.sampled_from(["float64", "float32"]),
    "lr": st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    "momentum": _FRACTION,
    "flat_epochs": st.integers(min_value=0),
    "epochs": st.integers(min_value=1),
    "batch_size": st.integers(min_value=1),
    "order": st.sampled_from(ORDERS),
    "seed": st.integers(),
    "deltas": st.booleans(),
    "stacking": st.booleans(),
    "min_count": st.integers(min_value=1),
    "targets": st.sampled_from(["word", "sar"]),
    "charset": st.sampled_from(sorted(CHARSETS)),
    "heldout_fraction": _FRACTION,
    "warm_ckpt": st.text().filter(lambda v: _table_accepts("warm_ckpt", v)),
}


def test_accepted_values_cover_every_key():
    assert ACCEPTED_VALUES.keys() == DEFAULTS.keys()


@given(st.fixed_dictionaries(ACCEPTED_VALUES).map(lambda values: TrainConfig(**values)))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_accepted_config_round_trips(tmp_path, cfg):
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg

    # the checkpoint holds the model's tensors and the draws reach millions of
    # hidden units, so the shape keys are capped small; projection stays under
    # the network's bound of 2 * hidden
    hidden = min(cfg.hidden, 3)
    projection = min(cfg.projection, 2 * hidden - 1)
    cfg = dataclasses.replace(cfg, layers=min(cfg.layers, 2), hidden=hidden, projection=projection)
    config = build_model_config(cfg, input_dim=3, output_dim=5)
    model = Model(config, {name: np.zeros(shape) for name, shape in param_shapes(config).items()})
    ckpt_path = tmp_path / "epoch001.ckpt"
    save_checkpoint(make_checkpoint(model, OptimizerState(velocity={}), cfg, 1), ckpt_path)
    back, back_model = model_from_checkpoint(ckpt_path)
    assert back == cfg
    assert back_model.config == model.config
