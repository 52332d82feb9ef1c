"""Model/run configuration with JSON round-trip and flag overrides."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import DataFormatError, UsageError

# Memory bias modes; ``sfhand.memory`` documents what each one does.
KEY_BROADCAST = "key_broadcast"
OFF = "off"
MEMORY_MODES = (KEY_BROADCAST, OFF)

# the values each field annotation admits; a bool is never a number here
_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class Config:
    d: int = 64                      # embedding dim
    heads: int = 4                   # attention heads in encoder/decoder blocks
    text_layers: int = 2
    hand_layers: int = 2
    decoder_layers: int = 4
    pose_dim: int = 48               # revisit flag: articulation dim of the pose vector
    memory_size: int = 15            # FIFO capacity N
    num_queries: int = 6             # detection queries
    raster: int = 64                 # frame side length
    patch: int = 8                   # patch side length
    text_len: int = 16               # tokenizer context length
    mlp_ratio: int = 4
    memory_heads: int = 1            # memory attention heads (no projections)
    lambda_type: float = 5.0
    lambda_box: float = 2.0
    lambda_pose: float = 2.0
    lambda_traj: float = 2.0
    background_weight: float = 0.1   # type-loss weight for unmatched queries
    # Desk-scale optimizer defaults; a full-scale run would use lr 2e-4 at
    # batch 256 per device, which is pointless at this size.
    learning_rate: float = 1e-3
    lr_schedule: str = "cosine"      # cosine (with short warmup) or constant
    batch: int = 8                   # clips per training wave, one frame each per update
    steps: int = 200                 # optimizer updates
    weight_decay: float = 0.01
    seed: int = 0
    memory_mode: str = KEY_BROADCAST
    use_memory: bool = True          # False bypasses the memory layer entirely
    use_text: bool = True
    use_video: bool = True
    use_hand: bool = True
    scheduled_sampling: float = 0.0  # prob. of self-feeding h during training
    precision: str = "float32"
    confidence_threshold: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) != (f.type == "bool") or not isinstance(v, _TYPES[f.type]):
                raise UsageError(f"config field {f.name!r} must be a {f.type}, got {v!r}")
            if f.type == "float" and not _finite(v):
                raise UsageError(f"config field {f.name!r} must be finite, got {v!r}")
        positive = (
            "d heads text_layers hand_layers decoder_layers pose_dim memory_size "
            "num_queries raster patch text_len mlp_ratio memory_heads batch"
        ).split()
        for f in positive:
            if getattr(self, f) <= 0:
                raise UsageError(f"config field {f!r} must be positive")
        for f in ("lambda_type", "lambda_box", "lambda_pose", "lambda_traj",
                  "background_weight", "learning_rate", "weight_decay",
                  "scheduled_sampling"):
            if getattr(self, f) < 0:
                raise UsageError(f"config field {f!r} must be non-negative")
        if self.steps < 0:
            raise UsageError("config field 'steps' must be non-negative")
        if self.raster % self.patch != 0:
            raise UsageError(f"patch {self.patch} must divide raster {self.raster}")
        if self.d % self.heads != 0:
            raise UsageError(f"heads {self.heads} must divide d {self.d}")
        if self.d % self.memory_heads != 0:
            raise UsageError(f"memory_heads {self.memory_heads} must divide d {self.d}")
        if self.memory_mode not in MEMORY_MODES:
            raise UsageError(f"memory_mode must be one of {MEMORY_MODES}")
        if self.lr_schedule not in ("cosine", "constant"):
            raise UsageError("lr_schedule must be 'cosine' or 'constant'")
        if self.precision not in ("float32", "float64"):
            raise UsageError("precision must be 'float32' or 'float64'")
        if self.num_queries < 2:
            raise UsageError("num_queries must be at least 2")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise UsageError("confidence_threshold must be in [0, 1]")

    @property
    def grid(self) -> int:
        return self.raster // self.patch

    @property
    def num_visual_tokens(self) -> int:
        return self.grid * self.grid

    def memory_token_count(self) -> int:
        """Tokens per memory entry under the current modality flags."""
        n = 0
        if self.use_video:
            n += self.num_visual_tokens
        if self.use_hand:
            n += 2
        return n

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        if not isinstance(d, dict):
            raise DataFormatError(f"config must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise DataFormatError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Config":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"config is not valid JSON: {e}") from e
        return cls.from_dict(d)

    def replace(self, **kwargs) -> "Config":
        return dataclasses.replace(self, **kwargs)
