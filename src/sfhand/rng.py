"""Deterministic 64-bit PRNG for the synthetic data path.

The generator is xorshift64* with a splitmix64 seed scrambler. Both update
rules are fixed integer recurrences (documented in FORMATS.md), so streams
are bit-identical across platforms and Python versions. The float outputs
use only division by a power of two, never transcendentals, which keeps
generated datasets byte-reproducible.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step; used to turn arbitrary seeds into good states."""
    x = (x + _SPLITMIX_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class Xorshift64Star:
    """xorshift64* stream: x ^= x>>12; x ^= x<<25; x ^= x>>27; out = x * M."""

    def __init__(self, seed: int):
        # Scramble so that small/sequential seeds give unrelated streams and
        # the all-zero state (a fixed point of xorshift) can never occur.
        state = splitmix64(seed & MASK64)
        self.state = state if state != 0 else _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * _XORSHIFT_MULT) & MASK64

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 high bits -> [0, 1) double with exact power-of-two scaling.
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u / 9007199254740992.0)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) (unbiased via rejection)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = MASK64 - (MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n


def derive_seed(seed: int, index: int) -> int:
    """Per-item stream seed: base seed XOR item index (scrambled at init)."""
    return (seed ^ index) & MASK64
