import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from a2w.checkpoint import Checkpoint, load_checkpoint, save_checkpoint


def sample_checkpoint():
    rng = np.random.default_rng(0)
    return Checkpoint(
        tensors={
            "model.layers.0.fwd.W": rng.normal(size=(8, 3)),
            "model.out.W": rng.normal(size=(4, 2)),
            "opt.v.out.W": rng.normal(size=(4, 2)),
            "model.layers.0.fwd.b": rng.normal(size=16),
        },
        config={"lr": "0.01", "order": "ascending"},
        epoch=7,
    )


def two_tensor_checkpoint():
    """``model.a`` at data offset 0 and ``model.b`` at 32, filling the data."""
    return Checkpoint(tensors={"model.a": np.arange(4.0).reshape(2, 2), "model.b": -np.arange(4.0).reshape(2, 2)}, epoch=3)


class TestRoundTrip:
    def test_tensors_and_metadata(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 7
        assert loaded.config == ckpt.config
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name, tensor in ckpt.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], tensor)

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = sample_checkpoint()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(ckpt, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_float32_params_round_trip_exactly(self, tmp_path):
        values = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)
        ckpt = Checkpoint(tensors={"model.w": values}, epoch=1)
        path = tmp_path / "f32.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path).tensors["model.w"].astype(np.float32)
        np.testing.assert_array_equal(back, values)


class TestFormat:
    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT0" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_manifest_contents(self, tmp_path):
        ckpt = sample_checkpoint()
        text = ckpt.manifest_text()
        lines = text.splitlines()
        assert lines[0] == "epoch 7"
        assert "config lr=0.01" in lines
        assert any(line.startswith("tensor model.out.W 4x2 ") for line in lines)

    def test_prefix_helpers(self):
        ckpt = sample_checkpoint()
        assert set(ckpt.model_tensors()) == {"layers.0.fwd.W", "out.W", "layers.0.fwd.b"}
        assert set(ckpt.velocity_tensors()) == {"out.W"}

    def test_truncated_data_detected(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "t.ckpt"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_model_checkpoint_names_file_and_tensor(self, tmp_path):
        from a2w.config import TrainConfig
        from a2w.network import init_model
        from a2w.trainer import OptimizerState, build_model_config, make_checkpoint

        cfg = TrainConfig(layers=1, hidden=4, projection=3)
        model = init_model(build_model_config(cfg, input_dim=5, output_dim=6), np.random.default_rng(2))
        ckpt = make_checkpoint(model, OptimizerState.zeros_like(model.params), cfg, 1)
        path = tmp_path / "epoch001.ckpt"
        save_checkpoint(ckpt, path)
        manifest = ckpt.manifest_text()
        offset = int(next(l for l in manifest.splitlines() if l.startswith("tensor model.out.W ")).split()[-1])
        path.write_bytes(path.read_bytes()[: 16 + len(manifest.encode()) + offset + 4])  # cut inside model.out.W
        with pytest.raises(ValueError, match=r"epoch001\.ckpt: tensor model\.out\.W data is truncated"):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_manifest_line(path, prefix, replacement):
        raw = path.read_bytes()
        manifest_len = int.from_bytes(raw[8:16], "little")
        lines = raw[16 : 16 + manifest_len].decode().splitlines()
        lines = [replacement if line.startswith(prefix) else line for line in lines]
        manifest = ("\n".join(lines) + "\n").encode()
        path.write_bytes(raw[:8] + len(manifest).to_bytes(8, "little") + manifest + raw[16 + manifest_len :])

    def test_negative_offset_names_file_and_tensor(self, tmp_path):
        path = tmp_path / "neg.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        self._rewrite_manifest_line(path, "tensor model.out.W ", "tensor model.out.W 4x2 -8")
        with pytest.raises(ValueError, match=r"neg\.ckpt: tensor model\.out\.W has negative data offset -8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", ["0x2", "-4x2", "4x0"])
    def test_non_positive_dims_name_file_and_tensor(self, tmp_path, dims):
        path = tmp_path / "dims.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        self._rewrite_manifest_line(path, "tensor model.out.W ", f"tensor model.out.W {dims} 0")
        with pytest.raises(ValueError, match=rf"dims\.ckpt: tensor model\.out\.W has a non-positive dimension in {dims}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "prefix, record",
        [
            ("tensor model.out.W ", "tensor model.out.W 2xa 0"),
            ("tensor model.out.W ", "tensor model.out.W 0"),
            ("epoch ", "epoch x"),
        ],
        ids=["bad-dim", "missing-field", "bad-epoch"],
    )
    def test_malformed_record_names_file_and_record(self, tmp_path, prefix, record):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        self._rewrite_manifest_line(path, prefix, record)
        with pytest.raises(ValueError, match=rf"bad\.ckpt: malformed manifest record '{record}'"):
            load_checkpoint(path)

    def test_non_utf8_manifest_names_file(self, tmp_path):
        path = tmp_path / "bin.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[16] = 0xFF  # first manifest byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"bin\.ckpt: 'utf-8' codec can't decode"):
            load_checkpoint(path)

    def test_manifest_past_end_names_file(self, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (len(raw)).to_bytes(8, "little") + raw[16:])
        with pytest.raises(ValueError, match=rf"long\.ckpt: manifest length {len(raw)} runs past the end"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "prefix, record, message",
        [
            ("tensor model.b ", "tensor model.b 2x2 0", "tensor model.b data [0, 32) overlaps tensor model.a [0, 32)"),
            ("tensor model.b ", "tensor model.a 2x2 32", "tensor model.a is listed twice"),
            ("tensor model.a ", "tensor model.a 1x2 0", "tensors cover 48 of the 64 data bytes"),
        ],
        ids=["overlap", "repeated-name", "uncovered-bytes"],
    )
    def test_bad_tensor_layout_names_file_and_tensors(self, tmp_path, capsys, prefix, record, message):
        from a2w.cli import cli_main

        path = tmp_path / "layout.ckpt"
        save_checkpoint(two_tensor_checkpoint(), path)
        self._rewrite_manifest_line(path, prefix, record)
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == f"{path}: {message}"
        assert cli_main(["inspect-ckpt", str(path)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_inspect_ckpt_exits_2_naming_file(self, tmp_path, capsys):
        from a2w.cli import cli_main

        path = tmp_path / "bad.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        self._rewrite_manifest_line(path, "tensor model.out.W ", "tensor model.out.W 2xa 0")
        assert cli_main(["inspect-ckpt", str(path)]) == 2
        assert f"{path}: malformed manifest record" in capsys.readouterr().err

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


_RECORD_EDITS = st.one_of(
    st.tuples(st.just("offset"), st.sampled_from(["model.a", "model.b"]), st.integers(-64, 128).map(str)),
    st.tuples(
        st.just("dims"),
        st.sampled_from(["model.a", "model.b"]),
        st.lists(st.integers(-2, 9), min_size=1, max_size=3).map(lambda ds: "x".join(map(str, ds))),
    ),
    st.tuples(st.just("name"), st.sampled_from(["model.a", "model.b"]), st.sampled_from(["model.a", "model.b"])),
    st.tuples(st.just("epoch"), st.just(""), st.text(max_size=12)),
    st.tuples(st.just("truncate"), st.just(""), st.integers(0, 200).map(str)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_RECORD_EDITS)
def test_edited_manifest_loads_exactly_or_names_the_file(tmp_path, edit):
    """One edited manifest record, or a truncated file, either loads the
    saved tensors bit for bit or raises a ValueError that starts with the
    path. A dims edit that keeps the element count only relabels the shape,
    which the data cannot reveal, so tensors are compared as raw bytes."""
    saved = two_tensor_checkpoint()
    path = tmp_path / "fuzz.ckpt"
    save_checkpoint(saved, path)
    field, target, value = edit
    if field == "truncate":
        path.write_bytes(path.read_bytes()[: int(value) % path.stat().st_size])
    elif field == "epoch":
        TestFormat._rewrite_manifest_line(path, "epoch ", f"epoch {value}")
    else:
        parts = {"model.a": ["model.a", "2x2", "0"], "model.b": ["model.b", "2x2", "32"]}[target]
        parts[["name", "dims", "offset"].index(field)] = value
        TestFormat._rewrite_manifest_line(path, f"tensor {target} ", " ".join(["tensor", *parts]))
    try:
        loaded = load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert set(loaded.tensors) == set(saved.tensors)
    for name, tensor in saved.tensors.items():
        assert loaded.tensors[name].tobytes() == tensor.tobytes()
