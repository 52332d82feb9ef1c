"""Finite-difference checks of every differentiable tape op."""

import copy

import numpy as np
import pytest

from sfhand import tensor as T
from sfhand.config import MEMORY_MODES, Config
from sfhand.data import generate_synthetic
from sfhand.encoders import BOS_ID, PAD_ID, tokenize_text
from sfhand.gradcheck import grad_check
from sfhand.matching import composite_loss
from sfhand.model import ForecastModel


def tape_fn(build):
    """Wrap a graph builder into the (params -> loss, grads) shape."""

    def fn(params):
        tape = T.Tape(dtype="float64")
        handles = {k: tape.parameter(k, v) for k, v in params.items()}
        loss = build(tape, handles)
        grads = tape.backward(loss)
        return loss.item(), grads

    return fn


def run(build, params, tol=1e-4, **kw):
    report = grad_check(tape_fn(build), params, **kw)
    assert report.max_rel_err <= tol, f"\n{report}"
    return report


def test_quadratic_bowl_near_exact():
    # Central differences are exact for quadratics up to roundoff.
    report = run(
        lambda tape, h: T.sum_(T.mul(h["p"], h["p"])),
        {"p": np.random.default_rng(0).standard_normal(7)},
        tol=1e-8,
    )
    assert report.max_rel_err <= 1e-8


def test_matmul_chain():
    # two affine layers around a nonlinearity: every operand gets a gradient
    rng = np.random.default_rng(1)

    def build(tape, h):
        y = T.affine(T.gelu(T.affine(h["x"], h["w1"], h["b1"])), h["w2"], h["b2"])
        return T.sum_(T.mul(y, y))

    run(
        build,
        {"x": rng.standard_normal((3, 4)), "w1": rng.standard_normal((4, 5)),
         "b1": rng.standard_normal(5), "w2": rng.standard_normal((5, 2)),
         "b2": rng.standard_normal(2)},
    )


def test_softmax_cross_entropy_composite():
    rng = np.random.default_rng(2)
    targets = np.array([2, 0, 1])

    def build(tape, h):
        logits = T.affine(h["x"], h["w"], h["b"])
        return T.cross_entropy(logits, targets)

    report = run(
        build,
        {"x": rng.standard_normal((3, 5)), "w": rng.standard_normal((5, 4)),
         "b": rng.standard_normal(4)},
        tol=1e-6,
    )
    assert report.max_rel_err <= 1e-6


def test_elementwise_ops():
    rng = np.random.default_rng(3)
    run(
        lambda tape, h: T.sum_(
            T.div(T.mul(T.gelu(h["a"]), T.sigmoid(h["b"])), T.add(T.abs_(h["c"]), 1.5))
        ),
        {
            "a": rng.standard_normal((2, 3)),
            "b": rng.standard_normal((2, 3)),
            "c": rng.standard_normal((2, 3)) + 3.0,  # keep |c| away from the kink
        },
    )


def test_min_max_at_generic_points():
    rng = np.random.default_rng(4)
    run(
        lambda tape, h: T.sum_(
            T.add(T.maximum(h["a"], h["b"]), T.minimum(T.mul(h["a"], 2.0), h["b"]))
        ),
        {"a": rng.standard_normal(6), "b": rng.standard_normal(6)},
    )


@pytest.mark.parametrize("shape", ((3,), (1, 3), ()), ids=("row", "keepdims_row", "number"))
@pytest.mark.parametrize("op", (T.add, T.sub, T.mul, T.div, T.maximum, T.minimum),
                         ids=lambda op: op.__name__)
def test_broadcasting_ops(op, shape):
    # a (2, 3) operand against a (3,) or (1, 3) one or a Python number, on
    # either side of the op. Magnitudes in [0.5, 2] keep div away from its
    # pole, and values at least 1e-3 apart keep max and min off their ties.
    rng = np.random.default_rng(12)
    signed = lambda s: rng.uniform(0.5, 2.0, s) * rng.choice((-1.0, 1.0), s)  # noqa: E731
    params = {"a": signed((2, 3))}
    if shape:
        params["b"] = signed(shape)
    other = params.get("b", 1.7)
    assert np.abs(params["a"] - other).min() > 1e-3
    w1, w2 = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))

    def build(tape, h):
        b = h.get("b", 1.7)
        return T.add(T.sum_(T.mul(op(h["a"], b), w1)), T.sum_(T.mul(op(b, h["a"]), w2)))

    run(build, params, tol=1e-6)


def test_layer_norm_and_embedding():
    rng = np.random.default_rng(5)
    ids = np.array([1, 3, 1])

    def build(tape, h):
        x = h["table"][ids]
        return T.mean_(T.layer_norm(x, h["g"], h["b"]) )

    run(
        build,
        {
            "table": rng.standard_normal((5, 4)),
            "g": rng.uniform(0.5, 1.5, 4),
            "b": rng.standard_normal(4),
        },
    )


def test_softmax_rows_through_matmul():
    # One tensor as queries, keys and values: the softmax and both
    # products inside T.attend send three gradients into it.
    rng = np.random.default_rng(6)

    def build(tape, h):
        out = T.attend(h["x"], h["x"], h["x"], 2)
        return T.sum_(T.mul(out, out))

    run(build, {"x": rng.standard_normal((5, 4))})


@pytest.mark.parametrize("heads", (1, 4))
@pytest.mark.parametrize("bias", ("none", "key_vector", "query_column", "tensor"))
def test_attend_heads_and_bias(heads, bias):
    # m != n, so a transposed score matrix cannot pass; the tensor bias is
    # alpha times a key mask, as in the memory layer
    rng = np.random.default_rng(10)
    n, m, d = 3, 5, 8
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    arrays = {"none": None, "key_vector": rng.standard_normal(m),
              "query_column": rng.standard_normal((n, 1))}

    def build(tape, h):
        b = T.mul(h["alpha"], mask) if bias == "tensor" else arrays[bias]
        out = T.attend(h["q"], h["k"], h["v"], heads, b)
        return T.sum_(T.mul(out, out))

    params = {"q": rng.standard_normal((n, d)), "k": rng.standard_normal((m, d)),
              "v": rng.standard_normal((m, d))}
    if bias == "tensor":
        params["alpha"] = np.asarray(0.7)
    report = run(build, params)
    if bias == "tensor":
        alpha = next(p for p in report.params if p.name == "alpha")
        assert abs(alpha.tape_grad) > 1e-3, alpha


@pytest.mark.parametrize("queries", ("batched", "shared"))
def test_attend_batch_axis_and_key_mask(queries):
    # (B, n, d) or broadcast (n, d) queries against (B, m, d) keys and
    # values, with a per-sample key mask, as the batched decoder runs
    rng = np.random.default_rng(11)
    b, n, m, d = 2, 3, 4, 8
    mask = np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0]])
    bias = ((1.0 - mask) * -1e9)[:, None, None, :]

    def build(tape, h):
        out = T.attend(h["q"], h["k"], h["v"], 2, bias)
        return T.sum_(T.mul(out, out))

    q_shape = (b, n, d) if queries == "batched" else (n, d)
    run(build, {"q": rng.standard_normal(q_shape), "k": rng.standard_normal((b, m, d)),
                "v": rng.standard_normal((b, m, d))})


def test_concat_slice_reshape():
    rng = np.random.default_rng(7)

    def build(tape, h):
        cat = T.concat([h["a"], h["b"]], axis=0)
        part = cat[1:4]
        return T.sum_(T.mul(T.reshape(part, (1, -1)), 3.0))

    run(
        build,
        {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((3, 3))},
    )


def test_report_counts_coordinates():
    p = {"p": np.random.default_rng(8).standard_normal(50)}
    report = grad_check(
        tape_fn(lambda tape, h: T.sum_(T.mul(h["p"], h["p"]))),
        p,
        max_coords_per_param=10,
    )
    assert report.params[0].checked <= 10
    assert report.total_checked >= 1


def test_large_loss_offset_is_rounding_noise_not_a_mismatch():
    # A constant 1e6 leaves the gradient 2p (about 1e-3) unchanged, but
    # rounds each loss to about 1e-10, so each difference quotient at
    # eps=1e-5 carries about 1e-5 of noise: 1e-2 of the gradient.
    p = {"p": np.random.default_rng(9).standard_normal(6) * 1e-3}
    offset = tape_fn(lambda tape, h: T.add(T.sum_(T.mul(h["p"], h["p"])), 1e6))
    report = grad_check(offset, p)
    assert report.max_rel_err <= 1e-4, f"\n{report}"

    def doubled(params):  # a wrong gradient, off by far more than the noise
        value, grads = offset(params)
        return value, {k: 2.0 * g for k, g in grads.items()}

    assert grad_check(doubled, p).max_rel_err > 0.1


@pytest.mark.parametrize("memory_mode", MEMORY_MODES)
def test_whole_model_through_composite_loss(memory_mode):
    cfg = Config(d=8, heads=2, text_layers=1, hand_layers=1, decoder_layers=1,
                 pose_dim=6, num_queries=2, raster=16, patch=8, text_len=4,
                 memory_size=2, memory_heads=2, mlp_ratio=2, precision="float64",
                 memory_mode=memory_mode)
    clips = generate_synthetic(5, "two_hands", 3, frames=4, raster=16, pose_dim=6)
    model = ForecastModel(cfg)
    # one wave of three streams at frame 2, the first and last sharing an
    # instruction, so the text encoder's gather adds two streams' gradients
    # into one encoding; "up" is short enough to leave a PAD
    ids = np.stack([tokenize_text(s, cfg.text_len)
                    for s in (clips[0].instruction, "up", clips[0].instruction)])
    assert len(np.unique(ids, axis=0)) == 2 and (ids == PAD_ID).any()
    # frozen queue of the wave's detached frames 0 and 1, so every
    # gradient ends at this update. Each loss steps a copy of it, since a
    # step enqueues.
    frozen = model.new_queue(len(clips))
    for j in (0, 1):
        e_t, mask = model.encode_current(np.stack([c.frames[j] for c in clips]),
                                         [c.gt[j] for c in clips])
        frozen.enqueue(e_t.value, mask)
    assert len(frozen) == 2

    def loss_at(params):
        for name, value in params.items():
            model.tape.set_param(name, value)
        model.tape.reset()
        decoded = model.forward_step(np.stack([c.frames[2] for c in clips]),
                                     [c.gt[2] for c in clips], copy.deepcopy(frozen),
                                     instruction_ids=ids)
        return composite_loss(decoded, [c.gt[3] for c in clips], cfg)[0]

    params = {k: v.copy() for k, v in model.tape.param_values().items()}
    grads = model.tape.backward(loss_at(params))
    # grad_check reads the gradients of its first call, made at ``params``;
    # the perturbed calls only need the loss. The loss is about 20, and
    # grad_check discounts the rounding noise that puts into each
    # difference quotient, so the default eps holds every parameter to
    # the same relative bound.
    report = grad_check(lambda p: (loss_at(p).item(), grads), params,
                        max_coords_per_param=3)
    assert report.max_rel_err <= 1e-4, f"\n{report}"

    # random coordinates of text.embed fall on rows no id selects, whose
    # gradient is 0; probe every coordinate of the rows the ids select:
    # BOS, an instruction byte and PAD
    rows = [BOS_ID, int(ids[0, 1]), PAD_ID]
    embed = params["text.embed"]

    def rows_loss(p):
        table = embed.copy()
        table[rows] = p["rows"]
        return loss_at({**params, "text.embed": table}).item(), {"rows": grads["text.embed"][rows]}

    assert (np.abs(grads["text.embed"][rows]).max(axis=1) > 0).all()
    report = grad_check(rows_loss, {"rows": embed[rows]}, max_coords_per_param=len(rows) * cfg.d)
    assert report.total_checked == len(rows) * cfg.d
    assert report.max_rel_err <= 1e-4, f"\n{report}"
