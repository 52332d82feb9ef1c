"""ROI-biased FIFO attention memory over B lockstep streams.

A fixed-capacity queue holds, per step, the (B, n, d) token embeddings of
a batch's B streams with their (B, n) binary region-of-interest masks,
snapshot at enqueue time and laid out by the caller
(``ForecastModel.encode_current``). A stream sees only its window: the
newest entries of its current visit. The layer refines the current tokens
by one attention into the flattened queue, keys outside a stream's window
masked out and the scores optionally biased by a learnable scalar times
the stored masks; a stream with an empty window passes its tokens through.
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
from .blocks import MASK_BIAS
from .config import KEY_BROADCAST, Config
from .errors import DimensionError, UsageError
from .tensor import Tape, Tensor


@dataclass
class MemoryEntry:
    embedding: np.ndarray  # (B, tokens, d), detached values
    roi_mask: np.ndarray   # (B, tokens), binary snapshot from enqueue time


@dataclass
class MemoryQueue:
    """FIFO of the N most recent steps of B streams, oldest first;
    ``window[b]`` counts the newest entries of stream b's current visit."""

    capacity: int
    token_count: int
    dim: int
    streams: int = 1
    entries: list[MemoryEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity <= 0 or self.streams <= 0:
            raise UsageError("memory capacity and stream count must be positive")
        self.window = np.zeros(self.streams, dtype=np.int64)

    def __len__(self):
        return len(self.entries)

    def restart(self, stream: int) -> None:
        """Start a new visit on one stream: its window is empty again."""
        self.window[stream] = 0

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
        self.window = np.minimum(self.window + 1, len(self.entries))


class MemoryLayer:
    """Owns the learnable bias scale; stateless across sessions."""

    def __init__(self, tape: Tape, cfg: Config):
        self.cfg = cfg
        self.alpha = tape.parameter("memory.alpha", np.asarray(1.0))

    def forward(self, queue: MemoryQueue, e_t: Tensor) -> Tensor:
        """Residual attention of each stream's current tokens into its
        window, scores biased by the masks stored with the entries. When
        every window is empty, attention is skipped and ``e_t`` returned."""
        layout = (queue.streams, queue.token_count, queue.dim)
        if e_t.value.shape != layout:
            raise DimensionError(f"current tokens {e_t.value.shape} != queue layout {layout}")
        length = int(queue.window.max())
        if length == 0:
            return e_t

        # the newest entries some window holds; entry i of those, oldest
        # first, is in stream b's window iff i >= length - window[b]
        entries = queue.entries[-length:]
        keys = np.concatenate([e.embedding for e in entries], axis=1)  # a constant
        seen = np.arange(length) >= length - queue.window[:, None]
        hidden = np.repeat(np.where(seen, 0.0, MASK_BIAS), queue.token_count, axis=1)
        bias = hidden[:, None, None]  # (B, 1, 1, keys): over heads and query rows
        if self.cfg.memory_mode == KEY_BROADCAST:
            key_mask = np.concatenate([e.roi_mask for e in entries], axis=1)
            bias = T.add(T.mul(self.alpha, key_mask[:, None, None]), bias)
        read = T.attend(e_t, keys, keys, self.cfg.memory_heads, bias)
        return T.add(e_t, T.mul(read, (queue.window > 0)[:, None, None]))
