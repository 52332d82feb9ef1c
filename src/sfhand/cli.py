"""Command-line entry points: gen / train / eval / stream / bench.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checkpoint import restore_model, save_checkpoint
from .config import OFF, Config
from .data import SCENARIOS, ClipSample, generate_synthetic, read_clipfile, write_clipfile
from .errors import DataFormatError, NumericalError, UsageError
from .hand import synthetic_joints
from .harness import evaluate_model
from .metrics import MetricAccumulator
from .model import ForecastModel
from .stream import bench, rollout
from .train import train, write_loss_curve

# eval --ablate name -> the config override it applies
ABLATIONS = {
    "text": {"use_text": False},
    "video": {"use_video": False},
    "hand": {"use_hand": False},
    "memory": {"use_memory": False},
    "roi": {"memory_mode": OFF},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _flag_name(field: str) -> str:
    return "--" + field.replace("_", "-")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(Config):
        name = _flag_name(f.name)
        if f.type == "bool" or isinstance(f.default, bool):
            p.add_argument(name, action=argparse.BooleanOptionalAction, default=None,
                           help=f"config override (default {f.default})")
        else:
            caster = type(f.default)
            p.add_argument(name, type=caster, default=None,
                           help=f"config override (default {f.default})")


def _config_from_args(args) -> Config:
    base = {}
    if getattr(args, "config", None):
        try:
            base = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise DataFormatError(f"cannot read config {args.config}: {e}") from e
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataFormatError(f"config {args.config} is not valid JSON: {e}") from e
        if not isinstance(base, dict):
            raise DataFormatError(f"config {args.config} is not a JSON object")
    for f in dataclasses.fields(Config):
        v = getattr(args, f.name, None)
        if v is not None:
            base[f.name] = v
    return Config.from_dict(base)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    clips = generate_synthetic(
        args.seed, args.scenario, args.count,
        frames=args.frames, raster=args.raster, pose_dim=args.pose_dim,
    )
    manifest, blob = write_clipfile(clips, args.out)
    print(f"wrote {len(clips)} {args.scenario} clip(s) "
          f"({args.frames} frames @ {args.raster}px) -> {manifest} + {blob}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    clips = read_clipfile(args.data)
    if not clips:
        raise UsageError(f"dataset {args.data} contains no clips")
    model = ForecastModel(cfg)
    records = train(model, clips)
    ckpt = save_checkpoint(args.out_checkpoint, cfg, model.tape.param_values(),
                           step=len(records))
    curve_path = args.loss_curve or str(Path(args.out_checkpoint).with_suffix(".losses.csv"))
    write_loss_curve(curve_path, records, cfg)
    first = records[0].total if records else float("nan")
    last = records[-1].total if records else float("nan")
    print(f"trained {len(records)} update(s) on {len(clips)} clip(s): "
          f"loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint: {ckpt}")
    print(f"loss curve: {curve_path}")
    return 0


def cmd_eval(args) -> int:
    clips = read_clipfile(args.data)
    if not clips:
        raise UsageError(f"dataset {args.data} contains no clips")
    if args.mode == "static":
        if args.ablate:
            raise UsageError("--ablate applies to a model; --mode static has none")
        model, config = None, None  # the baseline runs no model, so no config
    else:
        if not args.checkpoint:
            raise UsageError("--checkpoint is required unless --mode static")
        overrides = {k: v for a in args.ablate or [] for k, v in ABLATIONS[a].items()}
        model, _ = restore_model(args.checkpoint, overrides)
        config = model.cfg.to_dict()
    report = evaluate_model(model, clips, args.mode)
    row = {
        "mode": args.mode,
        "ablate": sorted(args.ablate or []),
        "report": report.to_dict(),
        "config": config,
        "data": str(args.data),
    }
    for k, v in report.to_dict().items():
        print(f"{k} = {v}")
    if args.out:
        Path(args.out).write_text(json.dumps(row, indent=2, sort_keys=True))
        print(f"report: {args.out}")
    return 0


def cmd_stream(args) -> int:
    model, _ = restore_model(args.checkpoint)
    clips = read_clipfile(args.clip)
    if not clips:
        raise UsageError(f"dataset {args.clip} contains no clips")
    if not 0 <= args.index < len(clips):
        raise UsageError(f"clip index {args.index} out of range (0..{len(clips) - 1})")
    clip = clips[args.index]
    forecasts, _ = rollout(model, clip, mode=args.mode)
    acc = MetricAccumulator()
    acc.add_clip(forecasts, clip.gt[1:], clip.gt_joints[1:])
    for k, v in acc.report().to_dict().items():
        print(f"{k} = {v}")
    if args.emit_trace:
        trace = ClipSample(
            id=f"{clip.id}-trace",
            instruction=clip.instruction,
            frames=clip.frames[1:].copy(),
            gt=[list(states) for states in forecasts],
            gt_joints=[
                {s.hand_type: synthetic_joints(s.pose, s.traj) for s in states}
                for states in forecasts
            ],
            camera_note=clip.camera_note,
        )
        manifest, blob = write_clipfile([trace], args.emit_trace)
        print(f"trace: {manifest} + {blob}")
    return 0


def cmd_bench(args) -> int:
    model, _ = restore_model(args.checkpoint)
    result = bench(model, args.length, seed=args.seed)
    for k, v in result.to_dict().items():
        print(f"{k} = {v}")
    print(f"config = {model.cfg.to_json().replace(chr(10), ' ')}")
    print(f"constant_cost = {result.constant_cost()}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sfhand",
                description="streaming language-guided 3D hand forecasting")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[], help="generate synthetic clips",
                       add_help=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--scenario", required=True, choices=SCENARIOS)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--out", required=True, help="output base path (.json/.bin)")
    g.add_argument("--frames", type=int, default=16)
    g.add_argument("--raster", type=int, default=64)
    g.add_argument("--pose-dim", dest="pose_dim", type=int, default=48)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="teacher-forced training")
    t.add_argument("--data", required=True)
    t.add_argument("--out-checkpoint", required=True)
    t.add_argument("--config", help="JSON config file; flags override it")
    t.add_argument("--loss-curve", help="loss curve path (default: <ckpt>.losses.csv)")
    _add_config_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint or the static baseline")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint")
    e.add_argument("--mode", choices=("self", "oracle", "static"), default="self")
    e.add_argument("--ablate", action="append", choices=ABLATIONS,
                   help="disable an input or memory feature (repeatable)")
    e.add_argument("--out", help="write the report row as JSON")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("stream", help="stream one clip and optionally dump a trace")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--clip", required=True, help="clip dataset base path")
    s.add_argument("--index", type=int, default=0)
    s.add_argument("--mode", choices=("self", "oracle"), default="self")
    s.add_argument("--emit-trace", help="write forecasts in clip format to this base path")
    s.set_defaults(func=cmd_stream)

    b = sub.add_parser("bench", help="throughput and constant-cost check")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--length", type=int, default=1000)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
