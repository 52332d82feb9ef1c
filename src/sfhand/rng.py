"""Deterministic 64-bit PRNG for the synthetic data path.

The generator is xorshift64* with a splitmix64 seed scrambler. Both update
rules are fixed integer recurrences (documented in FORMATS.md), so streams
are bit-identical across platforms and Python versions. The float outputs
use only division by a power of two, never transcendentals, which keeps
generated datasets byte-reproducible.

``Xorshift64Star.uniforms`` draws a block of n values at once by jump-ahead
(Haramoto et al., "Efficient jump ahead for F2-linear random number
generators", 2008). The state step T is linear over GF(2)^64: each of its
three shift-XORs is a 64x64 bit matrix, so T^k is one too, and T^k(x) is the
XOR of the columns of T^k picked by the set bits of x. Splitting x into its
8 bytes, T^k is 8 tables of 256 precomputed XORs, and applying it to a whole
uint64 array is 8 gathers and 8 XORs. With T^(2^j) for each j, the states
s_1..s_k give s_(k+1)..s_(2k) = T^k(s_1..s_k) in one application, so n states
take about log2(n) of them. The output scramble then repeats the scalar
path's integer and IEEE double operations elementwise, so a block is bitwise
the same as n calls of ``uniform``.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


# Block draws compute this many states with the scalar step before doubling;
# a power of two, so each doubling jumps by T^(2^j).
_SCALAR_PREFIX = 64

# _JUMP_TABLES[j][b, v] = T^(2^j) applied to byte value v at byte b of the
# state; each is built on first use by squaring T^(2^(j-1)).
_JUMP_TABLES: dict[int, np.ndarray] = {}


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

    def uniforms(self, lo, hi, n: int) -> np.ndarray:
        """The float64 array of n successive ``uniform(lo, hi)`` calls.

        ``lo`` and ``hi`` broadcast against the n draws. The generator ends
        in the state those n calls would leave it in.
        """
        states = np.empty(n, dtype=np.uint64)
        k = min(n, _SCALAR_PREFIX)
        for i in range(k):
            self.next_u64()
            states[i] = self.state
        while k < n:
            m = min(k, n - k)
            states[k:k + m] = _apply(_jump_table(k.bit_length() - 1), states[:m])
            k += m
        if n:
            self.state = int(states[-1])
        u = ((states * np.uint64(_XORSHIFT_MULT)) >> np.uint64(11)).astype(np.float64)
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


def _apply(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The linear map held in ``table`` applied to each state in ``x``."""
    xb = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = table[0].take(xb[:, 0])
    for b in range(1, 8):
        out ^= table[b].take(xb[:, b])
    return out


def _byte_table(cols: np.ndarray) -> np.ndarray:
    """(8, 256) XOR table of a bit matrix given by its 64 column images."""
    table = np.zeros((8, 256), dtype=np.uint64)
    for b in range(8):
        for i in range(8):
            table[b, 1 << i:2 << i] = table[b, :1 << i] ^ cols[8 * b + i]
    return table


def _jump_table(j: int) -> np.ndarray:
    """Byte tables of T^(2^j)."""
    if j not in _JUMP_TABLES:
        if j == 0:  # T applied to each basis bit
            cols = np.uint64(1) << np.arange(64, dtype=np.uint64)
            cols ^= cols >> np.uint64(12)
            cols ^= cols << np.uint64(25)
            cols ^= cols >> np.uint64(27)
        else:  # T^(2^(j-1)) applied to the columns of T^(2^(j-1))
            half = _jump_table(j - 1)
            cols = _apply(half, half[:, 1 << np.arange(8)].reshape(64))
        _JUMP_TABLES[j] = _byte_table(cols)
    return _JUMP_TABLES[j]
