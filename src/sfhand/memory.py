"""ROI-biased FIFO attention memory.

A fixed-capacity queue holds the most recent token embeddings together
with a binary region-of-interest mask snapshot taken at enqueue time, both
laid out by the caller (``ForecastModel.encode_current``). The layer
refines the current tokens by attending into the flattened queue, with the
scores optionally biased by a learnable scalar times the stored masks.

The bias mode is ``Config.memory_mode``, checked when the config is
built; two modes ship:

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
    embedding: np.ndarray  # (tokens, d), detached values
    roi_mask: np.ndarray   # (tokens,), binary snapshot from enqueue time


@dataclass
class MemoryQueue:
    """FIFO of the N most recent token embeddings, oldest first."""

    capacity: int
    token_count: int
    dim: int
    entries: list[MemoryEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity <= 0:
            raise UsageError("memory capacity must be positive")

    def __len__(self):
        return len(self.entries)

    def enqueue(self, embedding: np.ndarray, mask: np.ndarray) -> None:
        embedding = np.asarray(embedding)
        mask = np.asarray(mask)
        if embedding.shape != (self.token_count, self.dim):
            raise DimensionError(
                f"entry shape {embedding.shape} != queue layout "
                f"({self.token_count}, {self.dim})"
            )
        if mask.shape != (self.token_count,):
            raise DimensionError(f"mask length {mask.shape} != {self.token_count}")
        if not np.all((mask == 0) | (mask == 1)):
            raise UsageError("roi mask entries must be 0 or 1")
        self.entries.append(MemoryEntry(embedding.copy(), mask.astype(np.uint8).copy()))
        if len(self.entries) > self.capacity:
            del self.entries[0]

    def flat_keys(self, dtype) -> np.ndarray:
        return np.concatenate([e.embedding for e in self.entries], axis=0).astype(
            dtype, copy=False
        )

    def flat_masks(self) -> np.ndarray:
        return np.concatenate([e.roi_mask for e in self.entries])


class MemoryLayer:
    """Owns the learnable bias scale; stateless across sessions."""

    def __init__(self, tape: Tape, cfg: Config):
        self.cfg = cfg
        self.alpha = tape.parameter("memory.alpha", np.asarray(1.0))

    def forward(self, queue: MemoryQueue, e_t: Tensor) -> Tensor:
        """Residual attention of the current tokens into the queue, scores
        biased by the masks stored with its entries. An empty queue skips
        attention and returns ``e_t`` unchanged."""
        n, d = e_t.value.shape
        if n != queue.token_count or d != queue.dim:
            raise DimensionError(
                f"current tokens {e_t.value.shape} != queue layout "
                f"({queue.token_count}, {queue.dim})"
            )
        if len(queue) == 0:
            return e_t

        tape = e_t.tape
        kv = queue.flat_keys(tape.dtype)  # an array, so attend keeps it constant
        bias = None
        if self.cfg.memory_mode == KEY_BROADCAST:
            key_mask = queue.flat_masks().astype(np.float64)
            bias = T.mul(self.alpha, tape.constant(key_mask))
        return T.add(e_t, T.attend(e_t, kv, kv, self.cfg.memory_heads, bias))
