"""Input encoders: byte-level text, patch-based visual, masked hand.

Each encoder is a small pre-LN transformer over a batch of B inputs that
returns one (B, n, d) tensor of the shared dimension d: text from (B, L)
token ids, visual tokens in row-major patch-grid order from (B, R, R, 3)
frames, hand tokens from the (B, 2, k) slot array of ``hand_slots``, the
one place hand states become numbers; this module alone knows its columns.
The text encoder masks PAD positions out of attention; the hand encoder
masks absent slots and zeroes their output tokens.
"""

from __future__ import annotations

import numpy as np

from . import blocks, tensor as T
from .config import Config
from .errors import DimensionError, UsageError
from .hand import CM_PER_M, HandType
from .tensor import Tape, Tensor

PAD_ID = 256
BOS_ID = 257
VOCAB = 258


def tokenize_text(instruction: str, text_len: int = 16) -> np.ndarray:
    """Byte-level ids: BOS, then UTF-8 bytes, PAD-filled, length text_len."""
    raw = instruction.encode("utf-8")[: text_len - 1]
    ids = [BOS_ID] + list(raw)
    ids += [PAD_ID] * (text_len - len(ids))
    return np.array(ids, dtype=np.int64)


# slot row columns: one-hot type (3), box cx cy w h (4), pose (P),
# trajectory in metres (3), presence flag (1)
BOX = slice(3, 7)
PRESENT = -1


def hand_input_dim(pose_dim: int) -> int:
    return 3 + 4 + pose_dim + 3 + 1


def hand_slots(hands, pose_dim: int) -> np.ndarray:
    """(B, 2, k) float64 slot rows from B frames' hand-state lists: the
    left hand's row, then the right's, all zeros when that hand is absent
    or invisible. Trajectory enters in metres to keep the projection
    inputs O(1). A non-hand type or two states of one type in a frame is
    a ``UsageError``; a visible hand's pose dim must be ``pose_dim``."""
    slots = np.zeros((len(hands), 2, hand_input_dim(pose_dim)))
    for rows, states in zip(slots, hands):
        seen = set()
        for s in states or []:
            if s.hand_type not in (HandType.LEFT, HandType.RIGHT):
                raise UsageError(f"hand state with non-hand type {s.hand_type}")
            if s.hand_type in seen:
                raise UsageError(f"duplicate {s.hand_type.name} hand state")
            seen.add(s.hand_type)
            if not s.visible:
                continue
            if s.pose.dim != pose_dim:
                raise DimensionError(f"pose dim {s.pose.dim} != config {pose_dim}")
            row = rows[s.hand_type.value]
            row[s.hand_type.value] = 1.0
            row[BOX] = s.bbox.as_array()
            row[7 : 7 + pose_dim] = s.pose.theta
            row[7 + pose_dim : 10 + pose_dim] = s.traj.as_array() / CM_PER_M
            row[PRESENT] = 1.0
    return slots


class TextEncoder:
    def __init__(self, tape: Tape, cfg: Config, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d
        self.embed = blocks.init_table(tape, rng, "text.embed", VOCAB, d)
        self.pos = blocks.init_table(tape, rng, "text.pos", cfg.text_len, d)
        self.blocks = [
            blocks.init_block(tape, rng, f"text.block{i}", d, cfg.mlp_ratio)
            for i in range(cfg.text_layers)
        ]
        self.ln_out = blocks.init_layernorm(tape, "text.ln_out", d)

    def __call__(self, ids: np.ndarray) -> Tensor:
        """(B, L) token ids. Each distinct row is encoded once, and the
        (B, L, d) tokens are gathered from those rows, so the gradients of
        rows sharing an instruction add up in its one encoding."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.cfg.text_len:
            raise DimensionError(f"expected (B, {self.cfg.text_len}) token ids, got {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise UsageError("token ids must be integers")
        ids, inverse = np.unique(ids, axis=0, return_inverse=True)
        pad_mask = (ids != PAD_ID).astype(np.float64)
        x = T.add(self.embed[ids], self.pos)
        for p in self.blocks:
            x = blocks.encoder_block(x, p, self.cfg.heads, key_mask=pad_mask)
        # the inverse's shape differs across numpy 2.0.x releases
        return blocks.layer_norm(x, self.ln_out)[inverse.reshape(-1)]


class VisualEncoder:
    def __init__(self, tape: Tape, cfg: Config, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d
        in_dim = cfg.patch * cfg.patch * 3
        self.proj = blocks.init_linear(tape, rng, "visual.proj", in_dim, d)
        self.pos = blocks.init_table(tape, rng, "visual.pos", cfg.num_visual_tokens, d)
        self.blocks = [
            blocks.init_block(tape, rng, f"visual.block{i}", d, cfg.mlp_ratio)
            for i in range(2)
        ]
        self.ln_out = blocks.init_layernorm(tape, "visual.ln_out", d)

    def patches(self, frames: np.ndarray) -> np.ndarray:
        """(B, g*g, p*p*3): each frame's row-major grid of flattened patch
        pixels; patch (i,j) reads rows [p*i, p*i+p) and columns
        [p*j, p*j+p) of a (B, R, R, 3) batch of frames."""
        r, p, g = self.cfg.raster, self.cfg.patch, self.cfg.grid
        frames = np.asarray(frames)
        if frames.ndim != 4 or frames.shape[1:] != (r, r, 3):
            raise DimensionError(f"expected (B, {r}, {r}, 3) frames, got {frames.shape}")
        b = frames.shape[0]
        tiled = frames.reshape(b, g, p, g, p, 3).swapaxes(2, 3)
        return tiled.reshape(b, g * g, p * p * 3)

    def hand_patches(self, slots: np.ndarray) -> np.ndarray:
        """(B, g*g) uint8 bits in ``patches``' order from (B, 2, k) slots: a
        patch is set iff a hand's box overlaps it with positive area; an
        absent slot's all-zero box covers nothing. Patches lie inside the
        frame, so a box need not be clamped to it first."""
        edges = np.arange(self.cfg.grid + 1) / self.cfg.grid
        box = slots[..., BOX]
        lo = (box[..., :2] - box[..., 2:] / 2.0)[..., None]  # (B, 2, xy, 1)
        hi = (box[..., :2] + box[..., 2:] / 2.0)[..., None]
        cover = np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1]) > 0  # (B, 2, xy, g)
        hit = cover[..., 1, :, None] & cover[..., 0, None, :]  # (B, 2, g, g)
        return hit.any(axis=1).reshape(len(slots), -1).astype(np.uint8)

    def __call__(self, frames: np.ndarray) -> Tensor:
        """(B, R, R, 3) frames."""
        tape = self.pos.tape
        x = blocks.linear(tape.constant(self.patches(frames)), self.proj)
        x = T.add(x, self.pos)
        for p in self.blocks:
            x = blocks.encoder_block(x, p, self.cfg.heads)
        return blocks.layer_norm(x, self.ln_out)


class HandEncoder:
    def __init__(self, tape: Tape, cfg: Config, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d
        self.proj = blocks.init_linear(tape, rng, "hand.proj", hand_input_dim(cfg.pose_dim), d)
        self.slot = blocks.init_table(tape, rng, "hand.slot", 2, d)
        self.blocks = [
            blocks.init_block(tape, rng, f"hand.block{i}", d, cfg.mlp_ratio)
            for i in range(cfg.hand_layers)
        ]
        self.ln_out = blocks.init_layernorm(tape, "hand.ln_out", d)

    def __call__(self, slots: np.ndarray) -> Tensor:
        """(B, 2, k) slot array from ``hand_slots``; (B, 2, d) slot tokens."""
        if slots.ndim != 3 or slots.shape[1:] != (2, hand_input_dim(self.cfg.pose_dim)):
            raise DimensionError(f"expected (B, 2, k) hand slots, got {slots.shape}")
        present = slots[..., PRESENT]
        tape = self.slot.tape
        x = T.add(blocks.linear(tape.constant(slots), self.proj), self.slot)
        for p in self.blocks:
            x = blocks.encoder_block(x, p, self.cfg.heads, key_mask=present)
        x = blocks.layer_norm(x, self.ln_out)
        # absent slots contribute nothing downstream
        return T.mul(x, tape.constant(present[..., None]))
