"""DETR-style decoder with learnable queries plus the full forward step.

One forward step encodes the inputs, refines the visual+hand tokens
through the FIFO memory, concatenates the text tokens in front, and
decodes a fixed set of query predictions (type logits, box, pose,
trajectory). The box head is sigmoid-bounded; pose and trajectory heads
are linear in natural units (radians, centimeters).

The same step runs a batch of B frames: every tensor gains a leading B
axis, and the decoder's queries broadcast against the (B, n, d) tokens.
The memory layer is the one per-frame loop, since each frame attends to
the entries the frames before it enqueued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import blocks, tensor as T
from .config import Config
from .encoders import HandEncoder, TextEncoder, VisualEncoder, is_hand_batch, tokenize_text
from .errors import DimensionError, NumericalError, UsageError
from .hand import CM_PER_M, BBox, HandPose, HandState, HandType, Trajectory3D
from .memory import MemoryLayer, MemoryQueue, roi_mask
from .tensor import Tape, Tensor

TRAJ_BOUND = 9999.0  # clamp head output inside the Trajectory3D sanity range


@dataclass
class DecodedStep:
    """Per-query prediction heads, still attached to the tape."""

    # each (Q, k), or (B, Q, k) for a batch of B frames
    type_logits: Tensor  # (Q, 3) left/right/background
    boxes: Tensor        # (Q, 4) sigmoid cx cy w h
    pose: Tensor         # (Q, P)
    traj: Tensor         # (Q, 3) centimeters

    def stacked_values(self) -> np.ndarray:
        """All head outputs as one (Q, 3+4+P+3) array, detached."""
        return np.concatenate(
            [self.type_logits.value, self.boxes.value, self.pose.value, self.traj.value],
            axis=-1,
        )

    def frame(self, j: int) -> "DecodedStep":
        """Frame j's heads of a batch, on the tape."""
        return DecodedStep(self.type_logits[j], self.boxes[j], self.pose[j], self.traj[j])


@dataclass
class StepResult:
    decoded: DecodedStep
    f_me: Tensor  # (n, d) or (B, n, d) tokens the decoder attends to


def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class ForecastModel:
    """Encoders + memory layer + query decoder over one shared tape."""

    def __init__(self, cfg: Config, seed: Optional[int] = None):
        self.cfg = cfg
        self.tape = Tape(dtype=cfg.precision)
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
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

    def new_queue(self) -> MemoryQueue:
        return MemoryQueue(
            capacity=self.cfg.memory_size,
            token_count=self.cfg.memory_token_count(),
            dim=self.cfg.d,
        )

    def encode_instruction(self, instruction: str) -> np.ndarray:
        """Detached text token values for caching across a streaming session."""
        ids = tokenize_text(instruction, self.cfg.text_len)
        with self.tape.no_record():
            return self.text(ids).value

    def encode_current(self, frame: Optional[np.ndarray], hands):
        """Current-step visual+hand tokens on the tape (None when both
        modalities are off) and their ROI mask; the queue stores these.
        A batch of frames and hand lists gives (B, n, d) tokens and a
        (B, n) mask."""
        parts: list[Tensor] = []
        if self.cfg.use_video:
            if frame is None:
                raise UsageError("video enabled but no frame given")
            parts.append(self.visual(frame))
        if self.cfg.use_hand:
            parts.append(self.hand(hands))
        e_t = T.concat(parts, axis=-2) if parts else None
        if is_hand_batch(hands):
            return e_t, np.stack([roi_mask(h, self.cfg) for h in hands])
        return e_t, roi_mask(hands, self.cfg)

    # -- decoding --------------------------------------------------------------

    def decode(self, f_me: Tensor) -> DecodedStep:
        n, d = f_me.value.shape[-2:]
        if d != self.cfg.d:
            raise DimensionError(f"memory-augmented tokens have dim {d}, expected {self.cfg.d}")
        if n > self.mem_pos.value.shape[0]:
            raise DimensionError(f"{n} tokens exceed positional table")
        pos = self.mem_pos[0:n]
        x = self.queries
        for p in self.blocks:
            x = blocks.decoder_block(x, f_me, p, self.cfg.heads, mem_pos=pos)
        x = blocks.layer_norm(x, self.ln_out)
        return DecodedStep(
            type_logits=blocks.linear(x, self.head_type),
            boxes=T.sigmoid(blocks.linear(x, self.head_box)),
            pose=blocks.linear(x, self.head_pose),
            # linear in centimeters; the meter-scale parameterization keeps
            # optimizer steps commensurate with the other heads
            traj=T.mul(blocks.linear(x, self.head_traj), CM_PER_M),
        )

    # -- the full per-frame forward -------------------------------------------

    def forward_step(
        self,
        frame: Optional[np.ndarray],
        hands,
        queue: MemoryQueue | Sequence[MemoryQueue],
        *,
        instruction_ids: Optional[np.ndarray] = None,
        instruction_values: Optional[np.ndarray] = None,
    ) -> StepResult:
        """Encode inputs, run the memory layer and enqueue, decode.

        Text enters either as ids (re-encoded on the tape; needed when
        training) or as cached detached values (streaming inference).

        A batch is a (B, R, R, 3) frame array, B hand lists, (B, L) ids
        and one queue per frame. Frames run through the memory layer in
        batch order, each enqueueing before the next attends, so frames
        that share a queue see each other as consecutive steps would.
        """
        cfg = self.cfg
        e_t, mask = self.encode_current(frame, hands)
        aug = e_t
        if cfg.use_memory and e_t is not None:
            if isinstance(queue, MemoryQueue):
                aug = self._remember(queue, e_t, mask)
            else:
                aug = T.stack([self._remember(q, e_t[j], mask[j])
                               for j, q in enumerate(queue)])

        f_parts: list[Tensor] = []
        if cfg.use_text:
            if instruction_ids is not None:
                f_parts.append(self.text(instruction_ids))
            elif instruction_values is not None:
                f_parts.append(self.tape.constant(instruction_values))
            else:
                raise UsageError("text enabled but no instruction given")
        if aug is not None:
            f_parts.append(aug)
        if not f_parts:
            raise UsageError("all modalities disabled; nothing to decode from")
        f_me = f_parts[0] if len(f_parts) == 1 else T.concat(f_parts, axis=-2)
        return StepResult(decoded=self.decode(f_me), f_me=f_me)

    def _remember(self, queue: MemoryQueue, e_t: Tensor, mask: np.ndarray) -> Tensor:
        """One frame's memory layer, then its tokens join the queue."""
        aug = self.memory.forward(queue, e_t, mask)
        queue.enqueue(e_t.value, mask)
        return aug

    # -- prediction -> hand states ---------------------------------------------

    def select_hands(self, decoded: DecodedStep) -> list[HandState]:
        """At most one state per hand type: the query with the highest class
        probability, emitted only when it clears ``confidence_threshold``.
        Ties break to the lower query index. A non-finite head output
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
            cx, cy, w, h = (float(np.clip(v, 1e-6, 1.0)) for v in boxes[q])
            t = np.clip(traj[q].astype(np.float64), -TRAJ_BOUND, TRAJ_BOUND)
            out.append(
                HandState(
                    hand_type=hand_type,
                    bbox=BBox(float(np.clip(cx, 0.0, 1.0)), float(np.clip(cy, 0.0, 1.0)), w, h),
                    pose=HandPose(pose[q].astype(np.float64)),
                    traj=Trajectory3D(float(t[0]), float(t[1]), float(t[2])),
                    visible=True,
                )
            )
        return out
