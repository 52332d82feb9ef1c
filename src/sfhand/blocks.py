"""Shared transformer building blocks (pre-LN, multi-head, tape ops)."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor

MASK_BIAS = -1e9  # additive score for keys excluded from attention


def init_linear(tape: Tape, rng: np.random.Generator, name: str, nin: int, nout: int,
                bias: bool = True):
    p = {"w": tape.parameter(f"{name}.w", rng.normal(0.0, 1.0 / np.sqrt(nin), (nin, nout)))}
    if bias:
        p["b"] = tape.parameter(f"{name}.b", np.zeros(nout))
    return p


def init_layernorm(tape: Tape, name: str, dim: int):
    g = tape.parameter(f"{name}.g", np.ones(dim))
    b = tape.parameter(f"{name}.b", np.zeros(dim))
    return {"g": g, "b": b}


def init_table(tape: Tape, rng: np.random.Generator, name: str, rows: int, dim: int,
               std: float = 0.02) -> Tensor:
    return tape.parameter(name, rng.normal(0.0, std, (rows, dim)))


def init_attention(tape: Tape, rng: np.random.Generator, name: str, d: int):
    # no key bias: it adds a constant to each query's score row, which the
    # softmax cancels, so its gradient is exactly zero
    return {
        "q": init_linear(tape, rng, f"{name}.q", d, d),
        "k": init_linear(tape, rng, f"{name}.k", d, d, bias=False),
        "v": init_linear(tape, rng, f"{name}.v", d, d),
        "o": init_linear(tape, rng, f"{name}.o", d, d),
    }


def init_block(tape: Tape, rng: np.random.Generator, name: str, d: int, mlp_ratio: int,
               cross: bool = False):
    p = {
        "ln1": init_layernorm(tape, f"{name}.ln1", d),
        "attn": init_attention(tape, rng, f"{name}.attn", d),
        "ln_mlp": init_layernorm(tape, f"{name}.ln_mlp", d),
        "mlp1": init_linear(tape, rng, f"{name}.mlp1", d, d * mlp_ratio),
        "mlp2": init_linear(tape, rng, f"{name}.mlp2", d * mlp_ratio, d),
    }
    if cross:
        p["ln_x"] = init_layernorm(tape, f"{name}.ln_x", d)
        p["xattn"] = init_attention(tape, rng, f"{name}.xattn", d)
    return p


def linear(x: Tensor, p) -> Tensor:
    return T.affine(x, p["w"], p.get("b"))


def layer_norm(x: Tensor, p) -> Tensor:
    return T.layer_norm(x, p["g"], p["b"])


def attention(q_in: Tensor, k_in: Tensor, v_in: Tensor, p, heads: int,
              key_mask=None) -> Tensor:
    """Multi-head attention with q/k/v/o projections around ``T.attend``.

    ``k_in`` and ``v_in`` are the inputs of the key and value projections
    (the same tensor, unless keys carry a position the values do not);
    ``key_mask`` is a binary (m,) vector over keys, or (B, m) with one row
    per sample (0 = excluded).
    """
    q = linear(q_in, p["q"])
    k = linear(k_in, p["k"])
    v = linear(v_in, p["v"])
    bias = None
    if key_mask is not None:
        bias = (1.0 - np.asarray(key_mask, dtype=q_in.tape.dtype)) * MASK_BIAS
        bias = bias[..., None, None, :]  # broadcast over heads and query rows
    return linear(T.attend(q, k, v, heads, bias), p["o"])


def mlp(x: Tensor, p) -> Tensor:
    return linear(T.gelu(linear(x, p["mlp1"])), p["mlp2"])


def encoder_block(x: Tensor, p, heads: int, key_mask=None) -> Tensor:
    h = layer_norm(x, p["ln1"])
    x = T.add(x, attention(h, h, h, p["attn"], heads, key_mask=key_mask))
    x = T.add(x, mlp(layer_norm(x, p["ln_mlp"]), p))
    return x


def decoder_block(x: Tensor, mem_keys: Tensor, mem: Tensor, p, heads: int) -> Tensor:
    """Self-attention, then cross-attention from ``mem_keys`` keys onto
    ``mem`` values, then the MLP."""
    h = layer_norm(x, p["ln1"])
    x = T.add(x, attention(h, h, h, p["attn"], heads))
    x = T.add(x, attention(layer_norm(x, p["ln_x"]), mem_keys, mem, p["xattn"], heads))
    x = T.add(x, mlp(layer_norm(x, p["ln_mlp"]), p))
    return x
