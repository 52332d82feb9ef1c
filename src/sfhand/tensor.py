"""Dense tensors with a reverse-mode differentiation tape.

Values are numpy arrays in a configurable precision: float32 for training
and streaming, float64 for gradient checks. Every operation is a pure
function of its operands' values that appends one record to the owning tape;
``Tape.backward`` runs a single reversed sweep over the records (creation
order is topological by construction) and returns gradients for every
named parameter. The sweep frees each record as it passes it, so a
training update holds its activations only until their gradients are
taken, and a loss can be differentiated once.

A tensor is a parameter, an op record, or a constant. A constant
(``Tape.constant``, or an array or number an op is given) is a leaf that
is never recorded and never differentiated. Only live tensors take
gradients: parameters, and op records whose backward has not run yet.
Every op skips the gradient of an operand that is not live, so a
constant's ``grad`` stays None and its gradient is never computed.

The transformer's two hot spots are one record each, with hand-written
analytic backward rules: ``affine`` is ``x @ w + b``, and ``attend`` is a
whole multi-head scaled dot-product attention (scores, bias, softmax,
values and the head merge). Both take an optional leading batch axis:
rows are (n, d) for one frame or (B, n, d) for B frames, and an unbatched
operand broadcasts against a batched one, its gradient summed back over
the batch.

Inside ``Tape.no_record()`` ops return plain value tensors: no backward
rule is kept and no record is appended, so inference pays only for its
arithmetic; such a tensor is not live, and ``Tape.backward`` rejects it
as a loss. ``Tape.ops`` counts the ops since the last ``Tape.reset``,
recorded or not, so the work per step stays visible either way; a
constant is not an op and is not counted.

Parameters are the one mutable state. ``Tape.pack`` moves them into one
flat buffer of the tape's dtype, in registration order, each parameter's
value a C-contiguous view into it, so the optimizer updates all of them in
place with a few whole-buffer passes. ``Tape.set_param`` writes into the
existing array, packed or not. Anything that keeps a view of a parameter
across an update sees the update.

A tape is single-owner and single-threaded. ``Tape.reset`` drops the op
records of the last step but keeps registered parameters alive, so one
tape serves a whole training run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, UsageError

_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """One node of the tape: an array plus its backward rule."""

    __slots__ = ("tape", "value", "bwd", "grad", "name")

    def __init__(self, tape: "Tape", value: np.ndarray, bwd=None, name=None):
        self.tape = tape
        self.value = value
        self.bwd = bwd
        self.grad: Optional[np.ndarray] = None
        self.name = name

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag})"

    def __getitem__(self, key):
        return slice_(self, key)


class Tape:
    """Ordered op records (``nodes``) plus named leaf parameters (``params``)."""

    def __init__(self, dtype="float32"):
        self.dtype = np.dtype(dtype)
        if self.dtype not in _ALLOWED_DTYPES:
            raise UsageError(f"unsupported dtype {dtype!r}; use float32 or float64")
        self.params: dict[str, Tensor] = {}
        self.buffer: Optional[np.ndarray] = None  # every parameter's values, once packed
        self.nodes: list[Tensor] = []
        self.recording = True
        self.ops = 0  # ops since the last reset, recorded or not

    def parameter(self, name: str, value) -> Tensor:
        if name in self.params:
            raise UsageError(f"parameter {name!r} already registered")
        if self.buffer is not None:
            raise UsageError(f"parameter {name!r} registered after the tape was packed")
        arr = np.array(value, dtype=self.dtype, order="C")  # preserves 0-d
        t = Tensor(self, arr, name=name)
        self.params[name] = t
        return t

    def constant(self, value) -> Tensor:
        """A leaf that is neither recorded nor counted, and takes no gradient."""
        return Tensor(self, np.asarray(value, dtype=self.dtype))

    def reset(self) -> None:
        """Drop op records, keep parameters registered and their values."""
        self.nodes = []
        self.ops = 0
        for p in self.params.values():
            p.grad = None

    @contextmanager
    def no_record(self):
        """Run ops for their values only; the previous mode is restored on exit."""
        previous = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = previous

    def pack(self) -> np.ndarray:
        """Move every parameter's values into one flat buffer, in
        registration order, and make each value a view into it; returns
        the buffer. Packing twice changes nothing."""
        if self.buffer is None:
            params = self.params.values()
            self.buffer = np.empty(sum(p.value.size for p in params), dtype=self.dtype)
            lo = 0
            for p in params:
                hi = lo + p.value.size
                self.buffer[lo:hi] = p.value.reshape(-1)
                p.value = self.buffer[lo:hi].reshape(p.value.shape)
                lo = hi
        return self.buffer

    def set_param(self, name: str, value) -> None:
        """Write new values into a parameter's array (checkpoint load);
        the array itself, a view of the buffer once packed, is kept."""
        p = self.params[name]
        arr = np.asarray(value)
        if arr.shape != p.value.shape:
            raise DimensionError(
                f"parameter {name!r}: new shape {arr.shape} != {p.value.shape}"
            )
        p.value[...] = arr

    def param_values(self) -> dict[str, np.ndarray]:
        return {name: p.value for name, p in self.params.items()}

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Gradient of a scalar loss w.r.t. every named parameter.

        Each op record drops its gradient and backward rule once its rule
        has run, and the tape keeps no records, so the same loss cannot be
        differentiated twice."""
        if loss.tape is not self:
            raise UsageError("loss tensor belongs to another tape")
        if loss.value.shape != ():
            raise UsageError(f"loss must be scalar, got shape {loss.value.shape}")
        if not any(n is loss for n in reversed(self.nodes)):
            raise UsageError("loss was not recorded on this tape since its last reset")
        nodes, self.nodes = self.nodes, []
        for p in self.params.values():
            p.grad = None
        loss.grad = np.ones((), dtype=self.dtype)
        while nodes:
            n = nodes.pop()
            if n.grad is not None:
                n.bwd(n.grad)
            n.bwd = n.grad = None
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.value))
            for name, p in self.params.items()
        }


def _record(tape: Tape, value: np.ndarray, bwd) -> Tensor:
    tape.ops += 1
    if not tape.recording:
        return Tensor(tape, value)
    t = Tensor(tape, value, bwd)
    tape.nodes.append(t)
    return t


def _lift(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise UsageError("operands live on different tapes")
        return x
    return tape.constant(x)


def _live(t: Tensor) -> bool:
    """A parameter, or an op record whose backward has not run yet: the
    only tensors a gradient flows into."""
    return t.name is not None or t.bwd is not None


def _acc(t: Tensor, g: np.ndarray) -> None:
    if _live(t):
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _operands(a, b) -> tuple[Tensor, Tensor]:
    tape = a.tape if isinstance(a, Tensor) else b.tape
    return _lift(tape, a), _lift(tape, b)


def _broadcasting(a: Tensor, b: Tensor, val: np.ndarray, da, db) -> Tensor:
    """Record an elementwise op of two operands under numpy broadcasting:
    ``da(g)`` and ``db(g)`` are the gradients of ``a`` and ``b`` at the
    broadcast shape, each summed back down to its operand's shape."""

    def bwd(g):
        if _live(a):
            _acc(a, _unbroadcast(da(g), a.value.shape))
        if _live(b):
            _acc(b, _unbroadcast(db(g), b.value.shape))

    return _record(a.tape, val, bwd)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _broadcasting(a, b, a.value + b.value, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _broadcasting(a, b, a.value - b.value, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _broadcasting(a, b, a.value * b.value,
                         lambda g: g * b.value, lambda g: g * a.value)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _broadcasting(a, b, a.value / b.value, lambda g: g / b.value,
                         lambda g: -g * a.value / (b.value * b.value))


def abs_(a: Tensor) -> Tensor:
    """Elementwise |x| with subgradient 0 at 0."""
    sign = np.sign(a.value)

    def bwd(g):
        _acc(a, g * sign)

    return _record(a.tape, np.abs(a.value), bwd)


def maximum(a, b) -> Tensor:
    """Elementwise max; a tie routes the whole gradient to ``a``."""
    a, b = _operands(a, b)
    awins = a.value >= b.value
    return _broadcasting(a, b, np.maximum(a.value, b.value),
                         lambda g: g * awins, lambda g: g * ~awins)


def minimum(a, b) -> Tensor:
    """Elementwise min; a tie routes the whole gradient to ``a``."""
    a, b = _operands(a, b)
    awins = a.value <= b.value
    return _broadcasting(a, b, np.minimum(a.value, b.value),
                         lambda g: g * awins, lambda g: g * ~awins)


# ---------------------------------------------------------------------------
# linear algebra and shape plumbing


def affine(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``x @ w + b`` as one record: x is (..., n, k), w is (k, m) and b is
    (m,), or None for no bias."""
    tape = x.tape
    w = _lift(tape, w)
    b = None if b is None else _lift(tape, b)
    xs, ws = x.value.shape, w.value.shape
    bs = ws[1:] if b is None else b.value.shape
    if len(xs) < 2 or len(ws) != 2 or xs[-1] != ws[0] or bs != ws[1:]:
        raise DimensionError(f"affine expects (..., n, k) @ (k, m) + (m,), got {xs} @ {ws} + {bs}")

    def bwd(g):
        # w.value is the forward's weight only until the optimizer updates
        # it in place, which it does after the backward. A batch stacks its
        # rows, so each gradient is one 2-D product.
        g = g.reshape(-1, ws[1])
        if _live(x):
            _acc(x, (g @ w.value.T).reshape(xs))
        if _live(w):
            _acc(w, x.value.reshape(-1, ws[0]).T @ g)
        if b is not None and _live(b):
            _acc(b, g.sum(axis=0))

    val = x.value @ w.value
    return _record(tape, val if b is None else val + b.value, bwd)


def _merge_heads(x: np.ndarray, d: int) -> np.ndarray:
    """(..., heads, rows, d / heads) -> (..., rows, d), heads in column order."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (d,))


def attend(q: Tensor, k, v, heads: int, bias=None) -> Tensor:
    """Multi-head scaled dot-product attention as one record.

    ``q`` is (..., n, d) and ``k``, ``v`` are (..., m, d); leading batch
    axes broadcast, so (n, d) queries against (B, m, d) keys give (B, n, d).
    Each is viewed as a (..., heads, rows, d / heads) stack of column
    blocks; the scores are one batched product, scaled by 1/sqrt(d /
    heads). ``bias`` is added to the (..., heads, n, m) scores under
    broadcasting, so shape (m,) biases keys, (n, 1) biases query rows and
    (B, 1, 1, m) biases each sample's keys. Each score row goes through a
    max-shifted softmax, so a row of equal scores attends uniformly.
    Returns the merge of the head outputs, heads in column order.

    ``k``, ``v`` and ``bias`` may each be a tensor or an array, which is
    lifted to a constant. The backward is the analytic softmax-attention
    gradient; the gradient of an operand is summed over the axes it
    broadcast along.
    """
    tape = q.tape
    k, v = _lift(tape, k), _lift(tape, v)
    bias = None if bias is None else _lift(tape, bias)
    kval, vval = k.value, v.value
    qs, ks = q.value.shape, kval.shape
    if len(qs) < 2:
        raise DimensionError(f"attend expects (..., n, d) queries, got {qs}")
    d = qs[-1]
    if len(ks) < 2 or ks[-1] != d or vval.shape != ks or d % heads:
        raise DimensionError(
            f"attend expects (..., m, {d}) keys and values and heads dividing {d}, got "
            f"{ks}, {vval.shape} and {heads} heads"
        )
    dh = d // heads
    kv_heads = ks[:-1] + (heads, dh)
    qh = q.value.reshape(qs[:-1] + (heads, dh)).swapaxes(-2, -3)
    kh = kval.reshape(kv_heads).swapaxes(-2, -3)
    vh = vval.reshape(kv_heads).swapaxes(-2, -3)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=tape.dtype)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if bias is not None:
        scores = scores + bias.value
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    val = _merge_heads(s @ vh, d)

    def bwd(g):
        go = g.reshape(g.shape[:-1] + (heads, dh)).swapaxes(-2, -3)
        gs = go @ vh.swapaxes(-1, -2)
        gscores = s * (gs - (gs * s).sum(axis=-1, keepdims=True))
        if bias is not None and _live(bias):
            _acc(bias, _unbroadcast(gscores, bias.value.shape))
        graw = gscores * scale
        if _live(v):
            _acc(v, _unbroadcast(_merge_heads(s.swapaxes(-1, -2) @ go, d), ks))
        if _live(k):
            _acc(k, _unbroadcast(_merge_heads(graw.swapaxes(-1, -2) @ qh, d), ks))
        if _live(q):
            _acc(q, _unbroadcast(_merge_heads(graw @ kh, d), qs))

    return _record(tape, val, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    def bwd(g):
        _acc(a, g.reshape(a.value.shape))

    return _record(a.tape, a.value.reshape(shape), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise UsageError("concat of an empty sequence")
    tape = tensors[0].tape
    tensors = [_lift(tape, t) for t in tensors]
    val = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _acc(t, g[tuple(idx)])

    return _record(tape, val, bwd)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Join equal-shape tensors along a new leading axis."""
    if not tensors:
        raise UsageError("stack of an empty sequence")
    tape = tensors[0].tape
    tensors = [_lift(tape, t) for t in tensors]

    def bwd(g):
        for t, gt in zip(tensors, g):
            _acc(t, gt)

    return _record(tape, np.stack([t.value for t in tensors]), bwd)


def _is_basic_key(key) -> bool:
    """True for a basic index (ints, slices, Ellipsis, None), which selects
    no element twice; arrays, lists and booleans make it advanced."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


def slice_(a: Tensor, key) -> Tensor:
    """Numpy-style indexing; gradients scatter-add back into place."""
    val = a.value[key]

    def bwd(g):
        full = np.zeros_like(a.value)
        if _is_basic_key(key):
            full[key] += g  # no element repeats: the same 0.0 + g as np.add.at
        else:
            np.add.at(full, key, g)
        _acc(a, full)

    return _record(a.tape, val, bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    val = a.value.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.value.shape).copy())

    return _record(a.tape, val, bwd)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# nonlinearities

_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    x = a.value
    inner = _GELU_C * (x + 0.044715 * (x * x * x))  # x**3 on float32 goes through pow
    th = np.tanh(inner)
    val = 0.5 * x * (1.0 + th)

    def bwd(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        dx = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * dinner
        _acc(a, g * dx)

    return _record(a.tape, val, bwd)


def sigmoid(a: Tensor) -> Tensor:
    x = a.value
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = s.astype(x.dtype, copy=False)

    def bwd(g):
        _acc(a, g * s * (1.0 - s))

    return _record(a.tape, s, bwd)


def log_softmax_rows(a: Tensor) -> Tensor:
    x = a.value
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    val = shifted - lse
    soft = np.exp(val)

    def bwd(g):
        _acc(a, g - soft * g.sum(axis=-1, keepdims=True))

    return _record(a.tape, val, bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x = a.value
    n = x.shape[-1]
    # np.add.reduce / n is what x.mean and x.var compute, without their
    # per-call dispatch; the values are bitwise equal
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    val = xhat * gain.value + bias.value

    def bwd(g):
        _acc(gain, _unbroadcast(g * xhat, gain.value.shape))
        _acc(bias, _unbroadcast(g, bias.value.shape))
        dxhat = g * gain.value
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
        _acc(a, inv * (dxhat - m1 - xhat * m2))

    return _record(a.tape, val, bwd)


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Weighted mean cross-entropy of integer class targets.

    ``weights`` are per-row multipliers (defaults to 1); the result is
    sum(w_i * nll_i) / n_rows.
    """
    targets = np.asarray(targets)
    n = logits.value.shape[0]
    if targets.shape != (n,):
        raise DimensionError(f"targets shape {targets.shape} != ({n},)")
    ls = log_softmax_rows(logits)
    picked = slice_(ls, (np.arange(n), targets))
    if weights is None:
        return mul(sum_(picked), -1.0 / n)
    return mul(sum_(mul(picked, weights)), -1.0 / n)
