"""Checkpoint byte round-trip and the CLI train -> eval -> stream -> bench path."""

from sfhand.checkpoint import restore_model, save_checkpoint
from sfhand.cli import main
from sfhand.config import Config
from sfhand.model import ForecastModel

TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8,
            text_len=4, memory_size=2)


def test_save_restore_save_byte_identical(tmp_path):
    cfg = Config(**TINY)
    model = ForecastModel(cfg, seed=0)
    first = save_checkpoint(tmp_path / "a.ckpt", cfg, model.tape.param_values(), step=3)
    restored, step = restore_model(first)
    assert step == 3
    second = save_checkpoint(tmp_path / "b.ckpt", restored.cfg,
                             restored.tape.param_values(), step=step)
    assert first.read_bytes() == second.read_bytes()


def test_cli_train_then_eval_exits_zero(tmp_path, capsys):
    data = str(tmp_path / "clips")
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["gen", "--scenario", "reach", "--count", "1", "--frames", "4",
                 "--raster", "16", "--pose-dim", "6", "--out", data]) == 0
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in TINY.items()]
    assert main(["train", "--data", data, "--out-checkpoint", ckpt,
                 "--steps", "1", "--batch", "2", *flags]) == 0
    assert main(["eval", "--data", data, "--checkpoint", ckpt]) == 0
    assert "recall_at_05" in capsys.readouterr().out
    assert main(["stream", "--checkpoint", ckpt, "--clip", data]) == 0
    assert main(["bench", "--checkpoint", ckpt, "--length", "20"]) == 0
    assert "constant_cost = True" in capsys.readouterr().out
