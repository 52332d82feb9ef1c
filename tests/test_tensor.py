"""Tape op unit tests: frozen examples plus independent oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfhand import tensor as T
from sfhand.errors import DimensionError, UsageError


def make_tape(dtype="float64"):
    return T.Tape(dtype=dtype)


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def attention_weights(scores, dtype="float64"):
    """The weights ``T.attend`` puts on each key for given (heads, n, m)
    scores. Zero queries and keys leave the bias as the scores, and each
    head's value block is the identity, so the output is the weights."""
    scores = np.asarray(scores)
    heads, n, m = scores.shape
    tape = make_tape(dtype)
    zeros_q = tape.constant(np.zeros((n, heads * m)))
    zeros_k = tape.constant(np.zeros((m, heads * m)))
    eye = tape.constant(np.tile(np.eye(m), (1, heads)))
    out = T.attend(zeros_q, zeros_k, eye, heads, bias=scores).value
    return out.reshape(n, heads, m).transpose(1, 0, 2)


def per_head_attention(q, k, v, heads, bias=0.0):
    """Reference: one head at a time, column blocks of d / heads."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh) + bias
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append(w / w.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(outs, axis=1)


class TestMatmul:
    """The matrix product of ``T.affine``."""

    def test_identity(self):
        tape = make_tape()
        x = tape.constant(np.arange(9.0).reshape(3, 3))
        eye = tape.constant(np.eye(3))
        npt.assert_array_equal(T.affine(eye, x, tape.constant(np.zeros(3))).value, x.value)

    def test_forced_by_definition(self):
        tape = make_tape()
        a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        b = tape.constant([[1.0], [1.0]])
        out = T.affine(a, b, tape.constant([0.5]))
        npt.assert_array_equal(out.value, [[3.5], [7.5]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        tape = make_tape("float64")
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        bias = rng.standard_normal(3)
        got = T.affine(tape.constant(a), tape.constant(b), tape.constant(bias)).value
        npt.assert_allclose(got, triple_loop_matmul(a, b) + bias, atol=1e-12)

    def test_shape_mismatch(self):
        tape = make_tape()
        z = lambda *shape: tape.constant(np.zeros(shape))  # noqa: E731
        with pytest.raises(DimensionError):
            T.affine(z(2, 3), z(2, 3), z(3))
        with pytest.raises(DimensionError):
            T.affine(z(2, 3), z(3, 4), z(3))
        with pytest.raises(DimensionError):
            T.affine(z(3), z(3, 4), z(4))

    def test_batch_axis_equals_per_sample_loop(self):
        rng = np.random.default_rng(11)
        x0, w0, b0 = (rng.standard_normal((3, 5, 4)), rng.standard_normal((4, 2)),
                      rng.standard_normal(2))
        tape = make_tape()
        x, w, b = (tape.parameter(n, v) for n, v in (("x", x0), ("w", w0), ("b", b0)))
        out = T.affine(x, w, b)
        for j in range(3):
            npt.assert_array_equal(out.value[j], T.affine(tape.constant(x0[j]), w, b).value)
        gout = rng.standard_normal(out.value.shape)
        grads = tape.backward(T.sum_(T.mul(out, gout)))
        npt.assert_allclose(grads["x"], gout @ w0.T, atol=1e-12)
        npt.assert_allclose(grads["w"], sum(x0[j].T @ gout[j] for j in range(3)), atol=1e-12)
        npt.assert_allclose(grads["b"], gout.sum(axis=(0, 1)), atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4)])
    def test_input_gradient_equals_the_per_frame_product(self, shape):
        rng = np.random.default_rng(13)
        tape = make_tape("float64")
        x = tape.parameter("x", rng.standard_normal(shape))
        w0 = rng.standard_normal((4, 6))
        out = T.affine(x, tape.parameter("w", w0))
        gout = rng.standard_normal(out.value.shape)
        gx = tape.backward(T.sum_(T.mul(out, gout)))["x"]
        frames = gout.reshape(-1, 5, 6)
        want = np.stack([g @ w0.T for g in frames]).reshape(shape)
        assert gx.shape == shape
        npt.assert_allclose(gx, want, rtol=0, atol=1e-12)

    def test_replaced_weight_is_not_kept_alive(self):
        # set_param writes into the parameter's own array, so no old array
        # is left for the last step's records to hold, and affine's
        # backward reads the weight the parameter has when it runs
        tape = make_tape()
        w = tape.parameter("w", np.ones((3, 2)))
        T.affine(tape.constant(np.ones((4, 3))), w, tape.parameter("b", np.zeros(2)))
        array = w.value
        tape.set_param("w", np.arange(6.0).reshape(3, 2))
        assert w.value is array
        npt.assert_array_equal(w.value, np.arange(6.0).reshape(3, 2))
        with pytest.raises(DimensionError):
            tape.set_param("w", np.zeros((2, 3)))
        assert w.value is array

    def test_precision_follows_the_tape(self):
        for dtype in ("float32", "float64"):
            tape = make_tape(dtype)
            out = T.affine(tape.constant(np.ones((2, 3))), tape.constant(np.ones((3, 2))),
                           tape.constant(np.ones(2)))
            assert out.value.dtype == np.dtype(dtype)


class TestSoftmax:
    """The softmax of ``T.attend``, read out through ``attention_weights``."""

    def test_uniform_on_constant_row(self):
        npt.assert_allclose(attention_weights([[[0.0, 0.0, 0.0]]]),
                            [[[1 / 3, 1 / 3, 1 / 3]]], atol=1e-15)
        # zero queries score every key alike, so each output row is the
        # mean of the values
        rng = np.random.default_rng(4)
        tape = make_tape()
        k, v = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        out = T.attend(tape.constant(np.zeros((2, 4))), tape.constant(k),
                       tape.constant(v), 2).value
        npt.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-15)

    def test_shift_invariance(self):
        x = np.array([[[0.3, -1.2, 4.0, 0.0]]])
        npt.assert_allclose(attention_weights(x), attention_weights(x + 123.456), atol=1e-14)
        # a per-query-row bias is a shift of that row's scores
        rng = np.random.default_rng(5)
        tape = make_tape()
        q, k, v = (tape.constant(rng.standard_normal(s)) for s in ((3, 4), (6, 4), (6, 4)))
        plain = T.attend(q, k, v, 2).value
        shifted = T.attend(q, k, v, 2, bias=rng.standard_normal((3, 1)) * 50).value
        npt.assert_allclose(plain, shifted, atol=1e-13)

    def test_direct_formula_oracle(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        e = np.exp(x)
        npt.assert_allclose(attention_weights(x), e / e.sum(), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-60, 60), min_size=2, max_size=6),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_sum_to_one(self, rows):
        x = np.array(rows)[None]
        s64 = attention_weights(x, "float64")
        npt.assert_allclose(s64.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s64 >= 0)
        s32 = attention_weights(x, "float32")
        assert s32.dtype == np.float32
        npt.assert_allclose(s32.sum(axis=-1), 1.0, atol=1e-6)


class TestAttend:
    def test_stacked_heads_match_per_head_loop(self):
        rng = np.random.default_rng(8)
        q, k, v = rng.standard_normal((3, 8)), rng.standard_normal((7, 8)), rng.standard_normal((7, 8))
        bias = rng.standard_normal(7)
        tape = make_tape()
        for heads in (1, 2, 4):
            got = T.attend(tape.constant(q), tape.constant(k), tape.constant(v), heads,
                           bias=bias).value
            npt.assert_allclose(got, per_head_attention(q, k, v, heads, bias), atol=1e-12)

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_array_keys_and_values_are_constants(self, dtype, monkeypatch):
        # the memory layer's call: array keys = values, a tensor alpha * mask bias
        rng = np.random.default_rng(9)
        q0, kv = rng.standard_normal((5, 8)), rng.standard_normal((12, 8))
        mask, w = rng.integers(0, 2, 12).astype(float), rng.standard_normal((5, 8))
        lifted = []
        lift = T._lift
        monkeypatch.setattr(T, "_lift", lambda tape, x: lifted.append(x) or lift(tape, x))
        grads, ops, nodes = [], [], []
        for keys_as_tensor in (True, False):
            tape = make_tape(dtype)
            q = tape.parameter("q", q0)
            alpha = tape.parameter("memory.alpha", np.asarray(0.7))
            keys = tape.constant(kv) if keys_as_tensor else kv.astype(dtype)
            bias = T.mul(alpha, tape.constant(mask))
            lifted.clear()
            out = T.attend(q, keys, keys, 2, bias)
            # an array goes through the same lift as every other op's operand
            assert [x is keys for x in lifted] == [True, True, False]
            ops.append(tape.ops)
            nodes.append(len(tape.nodes))
            grads.append(tape.backward(T.sum_(T.mul(out, w))))
            if keys_as_tensor:
                assert keys.grad is None
        assert ops == nodes == [2, 2]  # mul and attend; no record for keys
        for name in ("q", "memory.alpha"):
            npt.assert_array_equal(grads[1][name], grads[0][name])

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("shared_queries", (False, True))
    def test_batch_axis_equals_per_sample_loop(self, shared_queries, masked):
        # (B, n, d) queries, or (n, d) queries shared by every sample, against
        # (B, m, d) keys and values, with a per-sample (B, 1, 1, m) key mask
        rng = np.random.default_rng(12)
        b, n, m, d, heads = 3, 4, 5, 8, 2
        q0 = rng.standard_normal((n, d) if shared_queries else (b, n, d))
        k0, v0 = rng.standard_normal((b, m, d)), rng.standard_normal((b, m, d))
        bias = (rng.integers(0, 2, (b, 1, 1, m)) - 1.0) * 1e9 if masked else None
        tape = make_tape()
        q, k, v = (tape.parameter(name, x) for name, x in (("q", q0), ("k", k0), ("v", v0)))
        out = T.attend(q, k, v, heads, bias)
        assert out.value.shape == (b, n, d)
        w = rng.standard_normal((b, n, d))
        grads = tape.backward(T.sum_(T.mul(out, w)))

        want = {"q": np.zeros_like(q0), "k": np.zeros_like(k0), "v": np.zeros_like(v0)}
        for j in range(b):
            loop = make_tape()
            qj = loop.parameter("q", q0 if shared_queries else q0[j])
            kj, vj = loop.parameter("k", k0[j]), loop.parameter("v", v0[j])
            outj = T.attend(qj, kj, vj, heads, None if bias is None else bias[j, 0, 0])
            npt.assert_allclose(out.value[j], outj.value, atol=1e-12)
            gj = loop.backward(T.sum_(T.mul(outj, w[j])))
            if shared_queries:
                want["q"] += gj["q"]
            else:
                want["q"][j] = gj["q"]
            want["k"][j], want["v"][j] = gj["k"], gj["v"]
        for name in want:
            npt.assert_allclose(grads[name], want[name], atol=1e-12, err_msg=name)

    def test_shape_mismatch(self):
        tape = make_tape()
        z = lambda *shape: tape.constant(np.zeros(shape))  # noqa: E731
        with pytest.raises(DimensionError):
            T.attend(z(2, 4), z(3, 4), z(2, 4), 2)   # keys and values differ in rows
        with pytest.raises(DimensionError):
            T.attend(z(2, 4), z(3, 6), z(3, 6), 2)   # key width != query width
        with pytest.raises(DimensionError):
            T.attend(z(2, 6), z(3, 6), z(3, 6), 4)   # 4 heads do not divide 6


class TestBackward:
    def test_sum_gives_ones(self):
        tape = make_tape()
        p = tape.parameter("p", np.random.default_rng(0).standard_normal((3, 4)))
        grads = tape.backward(T.sum_(p))
        npt.assert_array_equal(grads["p"], np.ones((3, 4)))

    def test_squared_norm_gives_2p(self):
        tape = make_tape()
        vals = np.random.default_rng(1).standard_normal(5)
        p = tape.parameter("p", vals)
        grads = tape.backward(T.sum_(T.mul(p, p)))
        npt.assert_allclose(grads["p"], 2 * vals, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        tape = make_tape()
        p = tape.parameter("p", np.ones(3))
        with pytest.raises(UsageError):
            tape.backward(p)

    def test_reset_keeps_parameters(self):
        tape = make_tape()
        p = tape.parameter("p", np.ones(3))
        T.sum_(T.mul(p, p))
        assert len(tape.nodes) == 2  # op records only; the parameter lives in params
        tape.reset()
        assert tape.nodes == [] and tape.params == {"p": p}
        grads = tape.backward(T.sum_(p))
        npt.assert_array_equal(grads["p"], np.ones(3))

    def test_unused_parameter_gets_zero_grad(self):
        tape = make_tape()
        p = tape.parameter("p", np.ones(3))
        q = tape.parameter("q", np.ones(2))
        grads = tape.backward(T.sum_(p))
        npt.assert_array_equal(grads["q"], np.zeros(2))

    def test_sweep_frees_records_and_keeps_parameters(self):
        tape = make_tape()
        p = tape.parameter("p", np.arange(3.0))
        sq = T.mul(p, p)
        loss = T.sum_(sq)
        grads = tape.backward(loss)
        npt.assert_array_equal(grads["p"], 2 * np.arange(3.0))
        assert tape.nodes == [] and tape.params == {"p": p}
        for record in (sq, loss):
            assert record.bwd is None and record.grad is None
        assert p.grad is grads["p"]

    def test_second_backward_of_one_loss_rejected(self):
        tape = make_tape()
        p = tape.parameter("p", np.ones(3))
        loss = T.sum_(T.mul(p, p))
        tape.backward(loss)
        with pytest.raises(UsageError):
            tape.backward(loss)

    def test_tensor_made_while_not_recording_rejected(self):
        tape = make_tape()
        p = tape.parameter("p", np.ones(3))
        with tape.no_record():
            loss = T.sum_(T.mul(p, p))
        with pytest.raises(UsageError):
            tape.backward(loss)


class TestNoRecord:
    def test_values_without_records_and_ops_counted(self):
        tape = make_tape()
        p = tape.parameter("p", np.arange(3.0))
        two = tape.constant(2.0)
        assert tape.ops == 0 and tape.nodes == []  # a constant is a leaf, not an op
        recorded = T.sum_(T.mul(p, two))
        assert tape.ops == len(tape.nodes) == 2
        npt.assert_array_equal(tape.backward(recorded)["p"], [2.0, 2.0, 2.0])
        assert two.grad is None
        tape.reset()
        assert tape.ops == 0 and tape.nodes == []
        with tape.no_record():
            quiet = T.sum_(T.mul(p, tape.constant(2.0)))
        assert tape.nodes == []
        assert tape.ops == 2
        assert quiet.bwd is None
        npt.assert_array_equal(quiet.value, recorded.value)

    def test_previous_mode_restored_on_error(self):
        tape = make_tape()
        with pytest.raises(DimensionError):
            with tape.no_record():
                T.affine(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))),
                         tape.constant(np.zeros(3)))
        assert tape.recording
        with tape.no_record():
            with tape.no_record():
                pass
            assert not tape.recording
        assert tape.recording


class TestPack:
    def make_packed(self, dtype="float32"):
        tape = make_tape(dtype)
        values = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0]),
                  "alpha": np.asarray(9.0), "t": np.arange(10.0, 14.0).reshape(2, 1, 2)}
        params = [tape.parameter(name, v) for name, v in values.items()]
        return tape, params, values

    def test_values_are_views_of_one_buffer_in_registration_order(self):
        for dtype in ("float32", "float64"):
            tape, params, values = self.make_packed(dtype)
            buf = tape.pack()
            assert tape.buffer is buf and buf.dtype == np.dtype(dtype) and buf.ndim == 1
            npt.assert_array_equal(buf, np.concatenate([v.ravel() for v in values.values()]))
            lo = 0
            for p, (name, v) in zip(params, values.items()):
                assert p.value.shape == v.shape and p.value.flags.c_contiguous
                assert p.value.ctypes.data == buf.ctypes.data + lo * buf.itemsize
                npt.assert_array_equal(p.value, v)
                lo += p.value.size
            assert lo == buf.size

    def test_parameter_after_packing_raises(self):
        tape, _, _ = self.make_packed()
        tape.pack()
        with pytest.raises(UsageError):
            tape.parameter("late", np.ones(2))

    def test_set_param_writes_into_the_buffer(self):
        tape, params, _ = self.make_packed()
        buf = tape.pack()
        tape.set_param("b", [-1.0, -2.0])
        tape.set_param("alpha", 0.5)
        npt.assert_array_equal(buf[6:9], [-1.0, -2.0, 0.5])
        assert params[2].value.shape == ()

    def test_gradients_are_unchanged_by_packing(self):
        grads = []
        for pack in (False, True):
            tape, params, _ = self.make_packed("float64")
            if pack:
                tape.pack()
            w, b, alpha, t = params
            out = T.add(T.affine(T.reshape(t, (2, 2)), T.slice_(w, (slice(None), slice(0, 2))), b),
                        alpha)
            grads.append(tape.backward(T.sum_(T.mul(out, out))))
        for name in grads[0]:
            npt.assert_array_equal(grads[0][name], grads[1][name])


class TestOpValues:
    def test_concat_and_slice_roundtrip(self):
        tape = make_tape()
        a = tape.constant(np.arange(6.0).reshape(2, 3))
        b = tape.constant(np.arange(9.0).reshape(3, 3))
        cat = T.concat([a, b], axis=0)
        npt.assert_array_equal(cat.value[0:2], a.value)
        npt.assert_array_equal(cat[2:5].value, b.value)

    def test_embedding_lookup(self):
        tape = make_tape()
        table = tape.parameter("emb", np.arange(12.0).reshape(4, 3))
        out = table[np.array([3, 0, 3])]
        npt.assert_array_equal(out.value, table.value[[3, 0, 3]])
        grads = tape.backward(T.sum_(out))
        # duplicate row 3 accumulates twice
        npt.assert_array_equal(grads["emb"][3], 2 * np.ones(3))
        npt.assert_array_equal(grads["emb"][1], np.zeros(3))

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_layer_norm_equals_np_var_formula_bitwise(self, dtype):
        rng = np.random.default_rng(11)
        for shape in ((64, 64), (82, 64), (6, 64), (2, 64)):
            x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
            g, b = rng.standard_normal(shape[-1:]), rng.standard_normal(shape[-1:])
            tape = make_tape(dtype)
            got = T.layer_norm(tape.constant(x), tape.constant(g), tape.constant(b)).value
            g, b = g.astype(dtype), b.astype(dtype)
            mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
            expected = (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * g + b
            npt.assert_array_equal(got, expected)

    def test_layer_norm_normalizes(self):
        tape = make_tape()
        x = tape.constant(np.random.default_rng(3).standard_normal((4, 8)) * 5 + 2)
        g = tape.parameter("g", np.ones(8))
        b = tape.parameter("b", np.zeros(8))
        out = T.layer_norm(x, g, b).value
        npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        npt.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_cross_entropy_matches_manual(self):
        tape = make_tape()
        logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
        targets = np.array([0, 2])
        ce = T.cross_entropy(tape.constant(logits), targets).item()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        manual = -np.mean([np.log(probs[0, 0]), np.log(probs[1, 2])])
        npt.assert_allclose(ce, manual, atol=1e-12)

    def test_cross_entropy_weights(self):
        tape = make_tape()
        logits = np.array([[1.0, -1.0], [1.0, -1.0]])
        targets = np.array([0, 1])
        full = T.cross_entropy(tape.constant(logits), targets, weights=[1.0, 0.0]).item()
        only_first = T.cross_entropy(tape.constant(logits[:1]), targets[:1]).item()
        npt.assert_allclose(full, only_first / 2, atol=1e-12)

    def test_min_max_values(self):
        tape = make_tape()
        a = tape.constant([1.0, 5.0, 2.0])
        b = tape.constant([3.0, 3.0, 3.0])
        npt.assert_array_equal(T.maximum(a, b).value, [3.0, 5.0, 3.0])
        npt.assert_array_equal(T.minimum(a, b).value, [1.0, 3.0, 2.0])

    def test_min_max_ties_route_the_gradient_to_the_first_operand(self):
        tape = make_tape()
        a = tape.parameter("a", [1.0, 2.0, 3.0])
        b = tape.parameter("b", [1.0, 0.0, 3.0])
        for op, ga, gb in ((T.maximum, [1, 1, 1], [0, 0, 0]),
                           (T.minimum, [1, 0, 1], [0, 1, 0])):
            grads = tape.backward(T.sum_(op(a, b)))
            npt.assert_array_equal(grads["a"], ga, err_msg=op.__name__)
            npt.assert_array_equal(grads["b"], gb, err_msg=op.__name__)
        # GIoU's maximum(x, 0.0) meets exact ties for disjoint boxes
        x = tape.parameter("x", [0.0, -1.0, 1.0])
        npt.assert_array_equal(tape.backward(T.sum_(T.maximum(x, 0.0)))["x"], [1, 0, 1])

    def test_cross_tape_mixing_rejected(self):
        t1, t2 = make_tape(), make_tape()
        with pytest.raises(UsageError):
            T.add(t1.constant(1.0), t2.constant(1.0))


_IDX = np.array([3, 0, 3])


class TestSliceBackward:
    """Basic keys accumulate by assignment, advanced keys by np.add.at; both
    must give the gradient np.add.at gives, bit for bit."""

    @pytest.mark.parametrize("key, basic", [
        (2, True),
        (np.int64(-1), True),
        (slice(1, 3), True),
        ((slice(None), 2), True),
        ((Ellipsis, 1), True),
        ((None, slice(0, 2)), True),
        ((1, None, slice(None, None, -2)), True),
        ((), True),
        (_IDX, False),
        ([1, 1, 2], False),
        ((np.arange(3), np.array([0, 2, 0])), False),
        ((np.array([0, 0, 0]), np.array([1, 1, 1])), False),
        (np.array([True, False, True, True]), False),
        (True, False),
    ])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gradient_equals_add_at_reference(self, key, basic, dtype):
        assert T._is_basic_key(key) == basic
        tape = make_tape(dtype)
        x = tape.parameter("x", np.arange(12.0).reshape(4, 3))
        out = x[key]
        rng = np.random.default_rng(0)
        w = rng.standard_normal(out.value.shape).astype(dtype)
        w.flat[0] = -0.0  # 0.0 + -0.0 is +0.0 either way
        want = np.zeros((4, 3), dtype=dtype)
        np.add.at(want, key, w)
        got = tape.backward(T.sum_(T.mul(out, tape.constant(w))))["x"]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
