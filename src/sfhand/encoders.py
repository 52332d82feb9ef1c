"""Input encoders: byte-level text, patch-based visual, masked hand.

Each encoder is a small pre-LN transformer that returns a batch of B
inputs as one (B, n, d) tensor of the shared dimension d; visual tokens
are in row-major patch-grid order. The text and visual encoders also take
a single input without the B axis and return (n, d). The text encoder
masks PAD positions out of attention; the hand encoder masks invisible
hand slots and zeroes their output tokens.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import blocks, tensor as T
from .config import Config
from .errors import DimensionError, UsageError
from .hand import CM_PER_M, HandState, HandType
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


def hand_input_dim(pose_dim: int) -> int:
    # one-hot type (3) + bbox (4) + theta (P) + traj (3) + visible flag (1)
    return 3 + 4 + pose_dim + 3 + 1


def hand_slot_vector(state: Optional[HandState], pose_dim: int) -> np.ndarray:
    """Raw per-slot input; zeros when the slot is empty or invisible.

    Trajectory enters in meters to keep the projection inputs O(1).
    """
    vec = np.zeros(hand_input_dim(pose_dim))
    if state is None or not state.visible:
        return vec
    if state.pose.dim != pose_dim:
        raise DimensionError(f"pose dim {state.pose.dim} != config {pose_dim}")
    vec[state.hand_type.value] = 1.0
    vec[3:7] = state.bbox.as_array()
    vec[7 : 7 + pose_dim] = state.pose.theta
    vec[7 + pose_dim : 10 + pose_dim] = state.traj.as_array() / CM_PER_M
    vec[10 + pose_dim] = 1.0
    return vec


def hands_to_slots(states) -> list[Optional[HandState]]:
    """Order 0..2 states into [Left, Right] slots; duplicate types are an error."""
    slots: list[Optional[HandState]] = [None, None]
    for s in states or []:
        if s.hand_type not in (HandType.LEFT, HandType.RIGHT):
            raise UsageError(f"hand state with non-hand type {s.hand_type}")
        i = 0 if s.hand_type is HandType.LEFT else 1
        if slots[i] is not None:
            raise UsageError(f"duplicate {s.hand_type.name} hand state")
        slots[i] = s
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
        """(L,) token ids, or (B, L) for a batch."""
        ids = np.asarray(ids)
        if ids.ndim not in (1, 2) or ids.shape[-1] != self.cfg.text_len:
            raise DimensionError(f"expected {self.cfg.text_len} token ids, got {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise UsageError("token ids must be integers")
        pad_mask = (ids != PAD_ID).astype(np.float64)
        x = T.add(self.embed[ids], self.pos)
        for p in self.blocks:
            x = blocks.encoder_block(x, p, self.cfg.heads, key_mask=pad_mask)
        return blocks.layer_norm(x, self.ln_out)


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

    def patches(self, frame: np.ndarray) -> np.ndarray:
        """Row-major grid of flattened patch pixels; patch (i,j) reads
        rows [p*i, p*i+p) and columns [p*j, p*j+p). A (B, R, R, 3) batch
        of frames gives one grid per frame."""
        r, p = self.cfg.raster, self.cfg.patch
        frame = np.asarray(frame)
        if frame.ndim not in (3, 4) or frame.shape[-3:] != (r, r, 3):
            raise DimensionError(f"expected frame {r}x{r}x3, got {frame.shape}")
        g, lead = self.cfg.grid, frame.shape[:-3]
        tiled = frame.reshape(lead + (g, p, g, p, 3)).swapaxes(-4, -3)
        return tiled.reshape(lead + (g * g, p * p * 3))

    def __call__(self, frame: np.ndarray) -> Tensor:
        """(R, R, 3) frame, or (B, R, R, 3) for a batch."""
        tape = self.pos.tape
        x = blocks.linear(tape.constant(self.patches(frame)), self.proj)
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

    def _slot_inputs(self, states):
        slots = hands_to_slots(states)
        vis = np.array(
            [1.0 if (s is not None and s.visible) else 0.0 for s in slots]
        )
        return np.stack([hand_slot_vector(s, self.cfg.pose_dim) for s in slots]), vis

    def __call__(self, states) -> Tensor:
        """B lists of one frame's hand states each; (B, 2, d) slot tokens."""
        raw, vis = (np.stack(a) for a in zip(*map(self._slot_inputs, states)))
        tape = self.slot.tape
        x = T.add(blocks.linear(tape.constant(raw), self.proj), self.slot)
        for p in self.blocks:
            x = blocks.encoder_block(x, p, self.cfg.heads, key_mask=vis)
        x = blocks.layer_norm(x, self.ln_out)
        # invisible slots contribute nothing downstream
        return T.mul(x, tape.constant(vis[..., None]))
