"""ROI-biased FIFO attention memory over B lockstep streams.

A fixed-capacity queue holds, per step, the (B, n, d) token embeddings of
a batch's B streams with their (B, n) binary region-of-interest masks,
snapshot at enqueue time and laid out by the caller
(``ForecastModel.encode_current``). The B streams start together on a
fresh queue, so every entry belongs to every stream's current clip. The
layer refines the current tokens by one attention into the flattened
queue, the scores optionally biased by a learnable scalar times the
stored masks; an empty queue passes the tokens through. The bias mode is
``Config.memory_mode``, checked when the config is built; two modes ship:

* ``key_broadcast`` (default): each stored key token k gets ``alpha *
  mask_k`` added to its score column, so hand-region history attracts
  attention from every query.
* ``off``: no bias; alpha unused.

Biasing query rows instead would change nothing: row-wise softmax is
shift invariant, so a bias constant along each query row is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import KEY_BROADCAST, Config
from .errors import DimensionError, UsageError
from .tensor import Tape, Tensor


@dataclass
class MemoryEntry:
    embedding: np.ndarray  # (B, tokens, d), detached values
    roi_mask: np.ndarray   # (B, tokens), binary snapshot from enqueue time


@dataclass
class MemoryQueue:
    """FIFO of the N most recent steps of B streams, oldest first."""

    capacity: int
    token_count: int
    dim: int
    streams: int = 1
    entries: list[MemoryEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity <= 0 or self.streams <= 0:
            raise UsageError("memory capacity and stream count must be positive")

    def __len__(self):
        return len(self.entries)

    def enqueue(self, embedding: np.ndarray, mask: np.ndarray) -> None:
        embedding = np.asarray(embedding)
        mask = np.asarray(mask)
        layout = (self.streams, self.token_count)
        if embedding.shape != layout + (self.dim,):
            raise DimensionError(
                f"entry shape {embedding.shape} != queue layout {layout + (self.dim,)}"
            )
        if mask.shape != layout:
            raise DimensionError(f"mask shape {mask.shape} != {layout}")
        if not np.all((mask == 0) | (mask == 1)):
            raise UsageError("roi mask entries must be 0 or 1")
        self.entries.append(MemoryEntry(embedding.copy(), mask.astype(np.uint8)))
        if len(self.entries) > self.capacity:
            del self.entries[0]


class MemoryLayer:
    """Owns the learnable bias scale; stateless across sessions."""

    def __init__(self, tape: Tape, cfg: Config):
        self.cfg = cfg
        self.alpha = tape.parameter("memory.alpha", np.asarray(1.0))

    def forward(self, queue: MemoryQueue, e_t: Tensor) -> Tensor:
        """Residual attention of each stream's current tokens into its
        entries, scores biased by the masks stored with them. An empty
        queue skips attention and returns ``e_t``."""
        layout = (queue.streams, queue.token_count, queue.dim)
        if e_t.value.shape != layout:
            raise DimensionError(f"current tokens {e_t.value.shape} != queue layout {layout}")
        if not queue.entries:
            return e_t
        keys = np.concatenate([e.embedding for e in queue.entries], axis=1)  # a constant
        bias = None
        if self.cfg.memory_mode == KEY_BROADCAST:
            key_mask = np.concatenate([e.roi_mask for e in queue.entries], axis=1)
            bias = T.mul(self.alpha, key_mask[:, None, None])  # over heads and query rows
        return T.add(e_t, T.attend(e_t, keys, keys, self.cfg.memory_heads, bias))
