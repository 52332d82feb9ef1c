"""DETR-style decoder with learnable queries plus the full forward step.

One forward step encodes the inputs, refines the visual+hand tokens
through the FIFO memory, concatenates the text tokens in front, and
decodes a fixed set of query predictions (type logits, box, pose,
trajectory). The box head is sigmoid-bounded; pose and trajectory heads
are linear in natural units (radians, centimeters). A frame's hands enter
once, as the ``encoders.hand_slots`` array that the hand encoder and the
memory's ROI mask both read.

Training, evaluation and streaming all step a batch of B independent
streams, each advancing one frame (B = 1 for a single stream): every
tensor has a leading B axis, one memory queue holds the B streams' past
steps, and the decoder's queries broadcast against the (B, n, d) tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import blocks, tensor as T
from .config import Config
from .encoders import PRESENT, HandEncoder, TextEncoder, VisualEncoder, hand_slots, tokenize_text
from .errors import DimensionError, NumericalError, UsageError
from .hand import CM_PER_M, BBox, HandPose, HandState, HandType, Trajectory3D
from .memory import MemoryLayer, MemoryQueue
from .tensor import Tape, Tensor

TRAJ_BOUND = 9999.0  # clamp head output inside the Trajectory3D sanity range


@dataclass
class DecodedStep:
    """Per-query prediction heads, still attached to the tape."""

    # each (B, Q, k) for a batch of B streams; one stream's are (Q, k)
    type_logits: Tensor  # (B, Q, 3) left/right/background
    boxes: Tensor        # (B, Q, 4) sigmoid cx cy w h
    pose: Tensor         # (B, Q, P)
    traj: Tensor         # (B, Q, 3) centimeters

    def stacked_values(self) -> np.ndarray:
        """All head outputs as one (B, Q, 3+4+P+3) array, detached."""
        return np.concatenate(
            [self.type_logits.value, self.boxes.value, self.pose.value, self.traj.value],
            axis=-1,
        )

    def frame(self, j: int) -> "DecodedStep":
        """Stream j's (Q, k) heads of a batch, on the tape."""
        return DecodedStep(self.type_logits[j], self.boxes[j], self.pose[j], self.traj[j])


def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class ForecastModel:
    """Encoders + memory layer + query decoder over one shared tape."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.tape = Tape(dtype=cfg.precision)
        rng = np.random.default_rng(cfg.seed)
        self.text = TextEncoder(self.tape, cfg, rng)
        self.visual = VisualEncoder(self.tape, cfg, rng)
        self.hand = HandEncoder(self.tape, cfg, rng)
        self.memory = MemoryLayer(self.tape, cfg)
        d = cfg.d
        self.queries = self.tape.parameter(
            "decoder.queries", rng.normal(0.0, 0.5, (cfg.num_queries, d))
        )
        max_tokens = cfg.text_len + cfg.num_visual_tokens + 2
        self.mem_pos = blocks.init_table(self.tape, rng, "decoder.mem_pos", max_tokens, d)
        self.blocks = [
            blocks.init_block(self.tape, rng, f"decoder.block{i}", d, cfg.mlp_ratio, cross=True)
            for i in range(cfg.decoder_layers)
        ]
        self.ln_out = blocks.init_layernorm(self.tape, "decoder.ln_out", d)
        self.head_type = blocks.init_linear(self.tape, rng, "decoder.head_type", d, 3)
        self.head_box = blocks.init_linear(self.tape, rng, "decoder.head_box", d, 4)
        self.head_pose = blocks.init_linear(self.tape, rng, "decoder.head_pose", d, cfg.pose_dim)
        self.head_traj = blocks.init_linear(self.tape, rng, "decoder.head_traj", d, 3)

    # -- construction helpers -------------------------------------------------

    def new_queue(self, streams: int = 1) -> MemoryQueue:
        cfg = self.cfg
        return MemoryQueue(cfg.memory_size, cfg.memory_token_count(), cfg.d, streams)

    def encode_instructions(self, instructions: Sequence[str]) -> np.ndarray:
        """Detached (B, L, d) text token values, one row per instruction,
        for caching across a streaming session."""
        ids = np.stack([tokenize_text(s, self.cfg.text_len) for s in instructions])
        with self.tape.no_record():
            return self.text(ids).value

    def encode_current(self, frames: Optional[np.ndarray], hands: Sequence[list]):
        """(B, n, d) visual+hand tokens on the tape (None when both
        modalities are off) and their (B, n) uint8 ROI mask, from
        (B, R, R, 3) frames and B hand lists: a patch's bit is set iff a
        present hand's box overlaps it, a hand slot's iff it is present."""
        slots = hand_slots(hands, self.cfg.pose_dim)
        tokens: list[Tensor] = []
        masks = [np.zeros((len(slots), 0), dtype=np.uint8)]
        if self.cfg.use_video:
            if frames is None:
                raise UsageError("video enabled but no frame given")
            tokens.append(self.visual(frames))
            masks.append(self.visual.hand_patches(slots))
        if self.cfg.use_hand:
            tokens.append(self.hand(slots))
            masks.append(slots[..., PRESENT])
        e_t = T.concat(tokens, axis=-2) if tokens else None
        return e_t, np.concatenate(masks, axis=-1).astype(np.uint8)

    # -- decoding --------------------------------------------------------------

    def decode(self, f_me: Tensor) -> DecodedStep:
        """(B, Q, ·) heads from the (B, n, d) tokens the queries attend to."""
        n, d = f_me.value.shape[-2:]
        if d != self.cfg.d:
            raise DimensionError(f"memory-augmented tokens have dim {d}, expected {self.cfg.d}")
        if n > self.mem_pos.value.shape[0]:
            raise DimensionError(f"{n} tokens exceed positional table")
        keys = T.add(f_me, self.mem_pos[0:n])  # positions enter the keys only
        x = self.queries
        for p in self.blocks:
            x = blocks.decoder_block(x, keys, f_me, p, self.cfg.heads)
        x = blocks.layer_norm(x, self.ln_out)
        return DecodedStep(
            type_logits=blocks.linear(x, self.head_type),
            boxes=T.sigmoid(blocks.linear(x, self.head_box)),
            pose=blocks.linear(x, self.head_pose),
            # linear in centimeters; the meter-scale parameterization keeps
            # optimizer steps commensurate with the other heads
            traj=T.mul(blocks.linear(x, self.head_traj), CM_PER_M),
        )

    # -- the full forward -----------------------------------------------------

    def forward_step(
        self,
        frames: Optional[np.ndarray],
        hands: Sequence[list],
        queue: MemoryQueue,
        *,
        instruction_ids: Optional[np.ndarray] = None,
        instruction_values: Optional[np.ndarray] = None,
    ) -> DecodedStep:
        """Encode inputs, run the memory layer and enqueue, decode.

        A batch is B streams at one step each: (B, R, R, 3) frames, B hand
        lists and the queue of their past steps, which the step reads,
        then extends. Text enters either as (B, L) ids (re-encoded on the
        tape; needed when training) or as cached detached values (streaming
        inference), (B, L, d) or one (L, d) shared by the batch.
        """
        cfg = self.cfg
        e_t, mask = self.encode_current(frames, hands)
        aug = e_t
        if cfg.use_memory and e_t is not None:
            aug = self.memory.forward(queue, e_t)
            queue.enqueue(e_t.value, mask)

        f_parts: list[Tensor] = []
        if cfg.use_text:
            if instruction_ids is not None:
                f_parts.append(self.text(instruction_ids))
            elif instruction_values is not None:
                shape = (len(hands),) + instruction_values.shape[-2:]
                f_parts.append(self.tape.constant(np.broadcast_to(instruction_values, shape)))
            else:
                raise UsageError("text enabled but no instruction given")
        if aug is not None:
            f_parts.append(aug)
        if not f_parts:
            raise UsageError("all modalities disabled; nothing to decode from")
        return self.decode(f_parts[0] if len(f_parts) == 1 else T.concat(f_parts, axis=-2))

    # -- prediction -> hand states ---------------------------------------------

    def select_hands(self, decoded: DecodedStep) -> list[HandState]:
        """One stream's hand states from its (Q, ·) heads, ``decoded.frame(j)``
        of a batch. At most one state per hand type: the query with the
        highest class probability, emitted only when it clears
        ``confidence_threshold``. Ties break to the lower query index.
        A non-finite head output
        raises ``NumericalError``: no comparison with NaN is true, so a NaN
        class score would otherwise pass unnoticed."""
        heads = {"type": decoded.type_logits.value, "box": decoded.boxes.value,
                 "pose": decoded.pose.value, "trajectory": decoded.traj.value}
        for name, values in heads.items():
            if not np.isfinite(values).all():
                raise NumericalError(f"non-finite {name} head output")
        probs = _softmax_np(heads["type"].astype(np.float64))
        boxes, pose, traj = heads["box"], heads["pose"], heads["trajectory"]
        out: list[HandState] = []
        for hand_type in (HandType.LEFT, HandType.RIGHT):
            col = probs[:, hand_type.value]
            q = int(np.argmax(col))
            if col[q] < self.cfg.confidence_threshold:
                continue
            cx, cy, w, h = np.clip(boxes[q], 1e-6, 1.0).tolist()
            t = np.clip(traj[q].astype(np.float64), -TRAJ_BOUND, TRAJ_BOUND)
            out.append(
                HandState(
                    hand_type=hand_type,
                    bbox=BBox(cx, cy, w, h),
                    pose=HandPose(pose[q].astype(np.float64)),
                    traj=Trajectory3D(float(t[0]), float(t[1]), float(t[2])),
                    visible=True,
                )
            )
        return out
