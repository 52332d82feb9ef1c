"""Checkpoint byte round-trip and format errors, the CLI train -> eval ->
stream -> bench path, and the CLI exit codes for usage, data and numerical
failures."""

import json
import struct

import numpy as np
import pytest

from sfhand.checkpoint import load_checkpoint, restore_model, save_checkpoint
from sfhand.cli import ABLATIONS, main
from sfhand.config import Config
from sfhand.data import generate_synthetic, write_clipfile
from sfhand.errors import DataFormatError, TruncationError, VersionError
from sfhand.metrics import MetricAccumulator
from sfhand.model import ForecastModel
from sfhand.stream import rollout
from sfhand.train import train

TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8,
            text_len=4, memory_size=2)


def test_save_restore_save_byte_identical(tmp_path):
    cfg = Config(**TINY)
    model = ForecastModel(cfg)
    first = save_checkpoint(tmp_path / "a.ckpt", cfg, model.tape.param_values(), step=3)
    restored, step = restore_model(first)
    assert step == 3
    second = save_checkpoint(tmp_path / "b.ckpt", restored.cfg,
                             restored.tape.param_values(), step=step)
    assert first.read_bytes() == second.read_bytes()


def test_trained_packed_model_round_trips_byte_identical(tmp_path):
    cfg = Config(**TINY, batch=2)
    model = ForecastModel(cfg)
    train(model, generate_synthetic(3, "reach", 1, frames=4, raster=16, pose_dim=6), steps=2)
    alpha = model.tape.params["memory.alpha"].value
    assert np.shares_memory(alpha, model.tape.buffer) and alpha != 1.0
    first = save_checkpoint(tmp_path / "a.ckpt", cfg, model.tape.param_values(), step=2)
    restored, step = restore_model(first)
    assert restored.tape.params["memory.alpha"].value.shape == () and step == 2
    second = save_checkpoint(tmp_path / "b.ckpt", restored.cfg,
                             restored.tape.param_values(), step=step)
    assert first.read_bytes() == second.read_bytes()
    for name, p in model.tape.params.items():
        np.testing.assert_array_equal(restored.tape.params[name].value, p.value)


def _gen_clips(tmp_path, scenario):
    data = str(tmp_path / "clips")
    assert main(["gen", "--scenario", scenario, "--count", "1", "--frames", "4",
                 "--raster", "16", "--pose-dim", "6", "--out", data]) == 0
    return data


def test_cli_train_then_eval_exits_zero(tmp_path, capsys):
    data = _gen_clips(tmp_path, "reach")
    ckpt = str(tmp_path / "model.ckpt")
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    assert main(["train", "--data", data, "--out-checkpoint", ckpt,
                 "--steps", "1", "--batch", "2", *flags]) == 0
    assert main(["eval", "--data", data, "--checkpoint", ckpt]) == 0
    assert "recall_at_05" in capsys.readouterr().out
    assert main(["stream", "--checkpoint", ckpt, "--clip", data]) == 0
    assert main(["bench", "--checkpoint", ckpt, "--length", "20"]) == 0
    assert "constant_cost = True" in capsys.readouterr().out


def test_cli_eval_ablations_set_their_config_field(tmp_path, capsys):
    data = _gen_clips(tmp_path, "two_hands")
    ckpt = str(tmp_path / "model.ckpt")
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    assert main(["train", "--data", data, "--out-checkpoint", ckpt,
                 "--steps", "1", "--batch", "2", *flags]) == 0
    expected = {"text": ("use_text", False), "video": ("use_video", False),
                "hand": ("use_hand", False), "memory": ("use_memory", False),
                "roi": ("memory_mode", "off")}
    assert set(expected) == set(ABLATIONS)
    for name, (field, value) in expected.items():
        out = tmp_path / f"{name}.json"
        capsys.readouterr()
        assert main(["eval", "--data", data, "--checkpoint", ckpt, "--ablate", name,
                     "--out", str(out)]) == 0
        assert "coverage = " in capsys.readouterr().out
        row = json.loads(out.read_text())
        assert row["ablate"] == [name]
        assert row["config"][field] == value
        untouched = {f for f, _ in expected.values()} - {field}
        assert all(row["config"][f] == Config().to_dict()[f] for f in untouched)


@pytest.mark.parametrize("mode", ("self", "oracle"))
def test_cli_eval_of_mixed_lengths_equals_pooled_single_clip_reports(tmp_path, mode):
    # 4- and 6-frame clips interleaved: each length runs as one lockstep
    # batch, and the report equals one rollout per clip pooled in file order
    four = generate_synthetic(8, "reach", 2, frames=4, raster=16, pose_dim=6)
    six = generate_synthetic(9, "two_hands", 2, frames=6, raster=16, pose_dim=6)
    clips = [four[0], six[0], six[1], four[1]]
    data = str(tmp_path / "mixed")
    write_clipfile(clips, data)
    cfg = Config(**TINY, confidence_threshold=0.0)  # every step emits both hands
    ckpt = save_checkpoint(tmp_path / "model.ckpt", cfg,
                           ForecastModel(cfg).tape.param_values(), step=0)
    out = tmp_path / "report.json"
    assert main(["eval", "--data", data, "--checkpoint", str(ckpt), "--mode", mode,
                 "--out", str(out)]) == 0
    model, _ = restore_model(ckpt)
    acc = MetricAccumulator()
    for clip in clips:
        acc.add_clip(rollout(model, [clip], mode=mode)[0][0], clip.gt[1:], clip.gt_joints[1:])
    expected = acc.report().to_dict()
    assert expected["hands"] > 0
    assert json.loads(out.read_text())["report"] == expected


def test_cli_eval_static_row_has_no_config(tmp_path):
    data = _gen_clips(tmp_path, "reach")
    out = tmp_path / "static.json"
    assert main(["eval", "--data", data, "--mode", "static", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["mode"] == "static" and row["ablate"] == []
    assert row["config"] is None


def test_cli_eval_static_rejects_ablate(tmp_path, capsys):
    data = _gen_clips(tmp_path, "reach")
    out = tmp_path / "static.json"
    assert main(["eval", "--data", data, "--mode", "static", "--ablate", "text",
                 "--out", str(out)]) == 1
    assert "--ablate" in capsys.readouterr().err
    assert not out.exists()


def _saved(tmp_path):
    cfg = Config(**TINY)
    params = ForecastModel(cfg).tape.param_values()
    return save_checkpoint(tmp_path / "ok.ckpt", cfg, params, step=1), cfg, params


@pytest.mark.parametrize("corrupt, error", [
    (lambda b: b"XXXX" + b[4:], DataFormatError),
    (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], VersionError),
    (lambda b: b[:-3], TruncationError),
    (lambda b: b + b"\0", DataFormatError),
], ids=["bad_magic", "wrong_version", "truncated", "trailing_bytes"])
def test_load_checkpoint_rejects_corrupt_bytes(tmp_path, corrupt, error):
    path, _, _ = _saved(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(error):
        load_checkpoint(bad)
    with pytest.raises(error):
        restore_model(bad)


def test_restore_model_rejects_shape_mismatch(tmp_path):
    _, cfg, params = _saved(tmp_path)
    params["decoder.queries"] = np.zeros((cfg.num_queries + 1, cfg.d), np.float32)
    path = save_checkpoint(tmp_path / "shape.ckpt", cfg, params, step=1)
    with pytest.raises(DataFormatError, match="decoder.queries"):
        restore_model(path)


def test_cli_exit_codes_for_usage_data_and_numerical_failures(tmp_path):
    data = str(tmp_path / "clips")
    assert main(["gen", "--scenario", "reach", "--count", "1", "--frames", "4",
                 "--raster", "16", "--pose-dim", "6", "--out", data]) == 0
    # usage: self mode needs a checkpoint
    assert main(["eval", "--data", data]) == 1
    # data: a file that is not a checkpoint
    path, _, _ = _saved(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
    assert main(["eval", "--data", data, "--checkpoint", str(bad)]) == 2
    # numerical: a learning rate that makes the model diverge
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    with np.errstate(all="ignore"):
        assert main(["train", "--data", data, "--out-checkpoint",
                     str(tmp_path / "m.ckpt"), "--steps", "2", "--batch", "2",
                     "--learning-rate", "1e30", *flags]) == 3


def test_cli_stream_exits_3_on_non_finite_head(tmp_path):
    data = _gen_clips(tmp_path, "reach")
    cfg = Config(**TINY)
    params = ForecastModel(cfg).tape.param_values()
    params["decoder.head_type.b"] = np.full(3, np.nan, np.float32)
    ckpt = save_checkpoint(tmp_path / "nan.ckpt", cfg, params, step=1)
    with np.errstate(invalid="ignore"):
        assert main(["stream", "--checkpoint", str(ckpt), "--clip", data]) == 3



def _with_config_blob(tmp_path, blob: bytes):
    """A saved checkpoint whose stored config bytes are replaced by ``blob``."""
    path, _, _ = _saved(tmp_path)
    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 16)
    bad = tmp_path / "config.ckpt"
    bad.write_bytes(raw[:16] + struct.pack("<I", len(blob)) + blob + raw[20 + cfg_len:])
    return bad


BAD_CONFIG_VALUES = [("d", "eight"), ("d", True), ("use_text", "no"), ("use_text", 0),
                     ("learning_rate", "fast"), ("memory_mode", 1),
                     ("confidence_threshold", 2.5), ("confidence_threshold", -0.1),
                     ("learning_rate", float("nan")), ("lambda_box", float("inf"))]


@pytest.mark.parametrize("field, value", BAD_CONFIG_VALUES)
def test_cli_rejects_a_mistyped_or_out_of_range_stored_config(tmp_path, capsys, field, value):
    data = _gen_clips(tmp_path, "reach")
    stored = dict(Config(**TINY).to_dict(), **{field: value})
    bad = _with_config_blob(tmp_path, json.dumps(stored).encode())
    with pytest.raises(DataFormatError, match=field):
        load_checkpoint(bad)
    assert main(["eval", "--data", data, "--checkpoint", str(bad)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("blob", [b'{"d": "\xff"}', b"[1, 2]", b'{"nope": 1}'],
                         ids=["not_utf8", "json_list", "unknown_field"])
def test_cli_rejects_a_stored_config_that_is_not_a_config_object(tmp_path, blob):
    data = _gen_clips(tmp_path, "reach")
    bad = _with_config_blob(tmp_path, blob)
    with pytest.raises(DataFormatError):
        load_checkpoint(bad)
    assert main(["stream", "--checkpoint", str(bad), "--clip", data]) == 2


def test_cli_rejects_a_parameter_name_that_is_not_utf8(tmp_path):
    path, _, _ = _saved(tmp_path)
    raw = path.read_bytes()
    first = min(ForecastModel(Config(**TINY)).tape.params).encode()
    bad = tmp_path / "name.ckpt"
    bad.write_bytes(raw.replace(first, b"\xff" + first[1:], 1))
    with pytest.raises(DataFormatError, match="utf-8"):
        load_checkpoint(bad)
    assert main(["bench", "--checkpoint", str(bad), "--length", "2"]) == 2


@pytest.mark.parametrize("field, value", BAD_CONFIG_VALUES)
def test_cli_train_rejects_a_mistyped_or_out_of_range_config_file(tmp_path, capsys,
                                                                  field, value):
    data = _gen_clips(tmp_path, "reach")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, field: value}))
    out = tmp_path / "m.ckpt"
    assert main(["train", "--data", data, "--out-checkpoint", str(out),
                 "--config", str(config), "--steps", "1"]) == 1
    assert field in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("content", [b"[1, 2]", b'{"d": "\xff"}'], ids=["json_list", "not_utf8"])
def test_cli_train_rejects_a_config_file_that_is_not_a_config_object(tmp_path, content):
    data = _gen_clips(tmp_path, "reach")
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert main(["train", "--data", data, "--out-checkpoint", str(tmp_path / "m.ckpt"),
                 "--config", str(config), "--steps", "1"]) == 2


def test_cli_flag_out_of_range_threshold_is_a_usage_error(tmp_path):
    data = _gen_clips(tmp_path, "reach")
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    assert main(["train", "--data", data, "--out-checkpoint", str(tmp_path / "m.ckpt"),
                 "--steps", "1", "--confidence-threshold", "2.5", *flags]) == 1


@pytest.mark.parametrize("flag, value", [("--learning-rate", "nan"), ("--lambda-box", "inf"),
                                         ("--weight-decay", "-inf")])
def test_cli_flag_non_finite_float_is_a_usage_error(tmp_path, capsys, flag, value):
    data = _gen_clips(tmp_path, "reach")
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    out = tmp_path / "m.ckpt"
    assert main(["train", "--data", data, "--out-checkpoint", str(out),
                 "--steps", "1", f"{flag}={value}", *flags]) == 1
    assert "finite" in capsys.readouterr().err and not out.exists()
