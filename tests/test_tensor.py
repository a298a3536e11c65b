"""Tensor core: forward oracles, finite-difference gradients, tape rules."""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from desklm import tensor as T
from desklm.errors import (
    ContractError,
    DegenerateRowError,
    IndexBoundsError,
    ShapeError,
)
from desklm.tensor import Tape, Tensor, no_grad

from helpers import assert_close, numeric_grad

FD_H = 1e-5
FD_ATOL = 1e-6
FD_RTOL = 1e-4


# ---------------------------------------------------------------------
# Frozen forward values, worked out by hand before the ops were written.
# ---------------------------------------------------------------------


def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    npt.assert_array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_softmax_hand_value():
    # exp(1), exp(2), exp(3) normalised; values frozen from a by-hand
    # evaluation at 15 digits.
    out = T.softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
    expected = [0.090030573170380462, 0.244728471054797646, 0.665240955774821878]
    npt.assert_allclose(out.data[0], expected, rtol=0, atol=1e-15)


def test_softmax_constant_row_is_uniform():
    for c in (-7.5, 0.0, 3.25, 1e6):
        out = T.softmax_rows(Tensor([[c, c, c, c]]))
        npt.assert_allclose(out.data[0], [0.25] * 4, rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(0, 5, (13, 9)))
    out = T.softmax_rows(x)
    npt.assert_allclose(out.data.sum(axis=1), np.ones(13), rtol=0, atol=1e-12)
    assert (out.data >= 0).all()


def test_layer_norm_hand_value():
    # mean 2, population var 2/3; (x - 2) / sqrt(2/3) at eps = 0.
    x = Tensor([[1.0, 2.0, 3.0]])
    out = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)
    expected = [-1.224744871391589049, 0.0, 1.224744871391589049]
    npt.assert_allclose(out.data[0], expected, rtol=0, atol=1e-15)


def test_layer_norm_standardises():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(3.0, 2.5, (6, 16)))
    out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=0.0)
    npt.assert_allclose(out.data.mean(axis=1), np.zeros(6), rtol=0, atol=1e-12)
    npt.assert_allclose(out.data.var(axis=1), np.ones(6), rtol=0, atol=1e-9)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 4, (5, 7))
    a = T.log_softmax_rows(Tensor(x)).data
    b = np.log(T.softmax_rows(Tensor(x)).data)
    npt.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_gelu_reference_points():
    # gelu(0) = 0; gelu is odd-ish around 0: gelu(x) + gelu(-x) = x... not
    # exactly, so pin simple facts instead: monotone on [0, inf), and
    # gelu(large) ~ large, gelu(-large) ~ 0.
    x = T.gelu(Tensor([[0.0, 10.0, -10.0]]))
    npt.assert_allclose(x.data[0][0], 0.0, atol=1e-15)
    npt.assert_allclose(x.data[0][1], 10.0, atol=1e-6)
    npt.assert_allclose(x.data[0][2], 0.0, atol=1e-6)


def test_transpose_reshape_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, (3, 4))
    t = Tensor(x)
    npt.assert_array_equal(T.transpose(t).data, x.T)
    npt.assert_array_equal(T.reshape(t, (4, 3)).data, x.reshape(4, 3))
    npt.assert_array_equal(T.reshape(t, (12,)).data, x.reshape(12))


def test_matmul_associativity():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(0, 1, (4, 5)))
    b = Tensor(rng.normal(0, 1, (5, 6)))
    c = Tensor(rng.normal(0, 1, (6, 3)))
    left = T.matmul(T.matmul(a, b), c).data
    right = T.matmul(a, T.matmul(b, c)).data
    npt.assert_allclose(left, right, rtol=0, atol=1e-10)


def test_gather_rows_identity():
    rng = np.random.default_rng(9)
    table = Tensor(rng.normal(0, 1, (6, 4)))
    out = T.gather_rows(table, np.arange(6))
    npt.assert_array_equal(out.data, table.data)


def _row_offsets(cols, width):
    """Flat offsets of column cols[..., i, j] of row i in an (r, width) block."""
    return np.arange(cols.shape[-2])[:, None] * width + cols


def test_gather_flat_forward():
    x = Tensor([[10.0, 11.0, 12.0], [20.0, 21.0, 22.0]])
    idx = np.array([[2, 0], [1, 1]])
    out = T.gather_flat(x, _row_offsets(idx, 3))
    npt.assert_array_equal(out.data, [[12.0, 10.0], [21.0, 21.0]])


# ---------------------------------------------------------------------
# Masking semantics.
# ---------------------------------------------------------------------


def test_masked_softmax_exact_zero():
    x = Tensor([[1.0, 5.0, 2.0, 7.0]], requires_grad=True)
    with Tape() as tape:
        y = T.softmax_rows(x, 1.0, np.array([[False, True, False, True]]))
        loss = T.sum_all(T.mul(y, Tensor([[1.0, 2.0, 3.0, 4.0]])))
    assert y.data[0, 1] == 0.0 and y.data[0, 3] == 0.0
    npt.assert_allclose(y.data[0, 0] + y.data[0, 2], 1.0, atol=1e-15)
    tape.backward(loss)
    assert x.grad[0, 1] == 0.0 and x.grad[0, 3] == 0.0


def test_fully_masked_row_raises():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DegenerateRowError) as err:
        T.softmax_rows(x, 1.0, np.array([[False, False], [True, True]]))
    assert "1" in str(err.value)


def _softmax_and_grad(build, a, probe):
    """Forward values and d sum(y * probe) / d a of y = build(a)."""
    x = Tensor(a, requires_grad=True)
    with Tape() as tape:
        y = build(x)
        loss = T.sum_all(T.mul(y, Tensor(probe)))
    tape.backward(loss)
    return y.data, x.grad


def _fused_cases():
    rng = np.random.default_rng(40)
    causal = np.triu(np.ones((6, 6), dtype=bool), k=1)
    cols = np.zeros((2, 1, 1, 6), dtype=bool)
    cols[0, ..., 4:] = True
    cols[1, ..., 1] = True
    single = np.zeros((6, 6), dtype=bool)
    single[2, 1:] = True                 # row 2 has one live entry
    return [(rng.normal(0, 3, (2, 3, 6, 6)), 0.25, m) for m in (causal, cols, single)] \
        + [(rng.normal(0, 3, (2, 3, 6, 6)), 0.25, None),
           (rng.normal(0, 3, (3, 6)), 1.0, None)]


@pytest.mark.parametrize("a, scale, mask", _fused_cases())
def test_fused_softmax_matches_unfused_chain(a, scale, mask):
    probe = np.random.default_rng(41).normal(0, 1, a.shape)

    def unfused(x):
        return T.softmax_rows(T.mul(x, scale), 1.0, mask)

    y, g = _softmax_and_grad(lambda x: T.softmax_rows(x, scale, mask), a, probe)
    y_ref, g_ref = _softmax_and_grad(unfused, a, probe)
    assert np.array_equal(y, y_ref) and np.array_equal(g, g_ref)
    # the plain numpy formula, exp everywhere: exp(-inf) is exactly 0.0
    logits = a * scale if mask is None else np.where(mask, -np.inf, a * scale)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    assert np.array_equal(y, e / e.sum(axis=-1, keepdims=True))


def test_fused_softmax_masked_entries_and_degenerate_row():
    a = np.random.default_rng(42).normal(0, 1, (2, 4, 4))
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 1:] = True
    mask[2, 3] = True
    y, g = _softmax_and_grad(lambda x: T.softmax_rows(x, 0.5, mask), a,
                             np.random.default_rng(43).normal(0, 1, a.shape))
    blocked = np.broadcast_to(mask, a.shape)
    assert (y[blocked] == 0.0).all() and (g[blocked] == 0.0).all()
    assert (y[:, 0, 0] == 1.0).all()
    mask[3] = True
    with pytest.raises(DegenerateRowError) as err:
        T.softmax_rows(Tensor(a), 0.5, mask)
    assert "0, 3" in str(err.value)


def test_fused_softmax_mask_is_not_a_tape_parent():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    mask = np.array([[False, True, False]])
    with Tape() as tape:
        y = T.softmax_rows(x, 2.0, mask)
    assert len(tape) == 1 and y._node.parents == (x,)
    npt.assert_array_equal(y.data, [[0.5, 0.0, 0.5]] * 2)
    with pytest.raises(ShapeError):
        T.softmax_rows(x, 2.0, np.zeros((3, 3), dtype=bool))
    # an additive float mask fails loudly instead of being read as bools
    for bad in (np.array([[0.0, -np.inf, 0.0]]), np.array([[0, 1, 0]])):
        with pytest.raises(ContractError, match="must be bool"):
            T.softmax_rows(x, 2.0, bad)


def test_softmax_blocked_entries_are_positive_zero_and_match_the_skip_formula():
    # blocked entries are exponentiated as -inf; the bits equal those of
    # a zero-filled output with exp skipped where the mask is True
    rng = np.random.default_rng(49)
    a = rng.normal(0, 1, (2, 3, 5, 5))
    a[..., 1, :] = [0.0, -1600.0, -1800.0, 5.0, 1.0e300]  # open entries underflow
    a[0, 0, 2, 3] = np.nan                                 # a blocked NaN is not read
    mask = np.triu(np.ones((5, 5), dtype=bool), k=1)
    mask[1, 3:] = True
    scale = 0.5
    x = a * scale
    np.copyto(x, -np.inf, where=mask)
    x -= x.max(axis=-1, keepdims=True)
    want = np.zeros_like(x)
    np.exp(x, out=want, where=~mask)
    want /= want.sum(axis=-1, keepdims=True)
    y = T.softmax_rows(Tensor(a), scale, mask).data
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))
    blocked = np.broadcast_to(mask, a.shape)
    assert (y[blocked] == 0.0).all() and not np.signbit(y[blocked]).any()
    assert (y[..., 1, 1:3] == 0.0).all() and (y[..., 1, 0] == 1.0).all()


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_constant_operand_gets_no_gradient(op):
    rng = np.random.default_rng(44)
    a, b = rng.normal(0, 1, (2, 3, 4)), rng.normal(0, 1, (3, 4))
    g = rng.normal(0, 1, (2, 3, 4))
    with Tape():
        left = op(Tensor(a, requires_grad=True), Tensor(b))
        right = op(Tensor(a), Tensor(b, requires_grad=True))
    ga, none_b = left._node.bwd(g)
    none_a, gb = right._node.bwd(g)
    assert none_a is None and none_b is None
    want_a = g * b if op is T.mul else g
    want_b = {T.add: g.sum(axis=0), T.mul: (g * a).sum(axis=0)}[op]
    assert np.array_equal(ga, want_a) and np.array_equal(gb, want_b)


def test_matmul_and_layer_norm_constant_operands_get_no_gradient():
    rng = np.random.default_rng(48)
    a, w = rng.normal(0, 1, (2, 3, 4)), rng.normal(0, 1, (4, 5))
    gain, bias = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
    g, gln = rng.normal(0, 1, (2, 3, 5)), rng.normal(0, 1, a.shape)
    x = Tensor(a, requires_grad=True)
    with Tape():
        h = T.mul(x, 1.0)
        ref = weakref.ref(h.data)
        left = T.matmul(h, Tensor(w))
        # a's gradient reads only w: h's array is not kept
        del h
        assert ref() is None
        right = T.matmul(Tensor(a), Tensor(w, requires_grad=True))
        both = T.matmul(Tensor(a, requires_grad=True), Tensor(w, requires_grad=True))
        ln_const = T.layer_norm(x, Tensor(gain), Tensor(bias))
        ln_all = T.layer_norm(x, Tensor(gain, requires_grad=True),
                              Tensor(bias, requires_grad=True))
    ga, none_w = left._node.bwd(g)
    none_a, gw = right._node.bwd(g)
    want_a, want_w = both._node.bwd(g)
    assert none_a is None and none_w is None
    assert np.array_equal(ga, want_a) and np.array_equal(gw, want_w)
    dx, none_gain, none_bias = ln_const._node.bwd(gln)
    want_dx, dgain, dbias = ln_all._node.bwd(gln)
    assert none_gain is None and none_bias is None
    assert np.array_equal(dx, want_dx) and dgain is not None and dbias is not None


def test_dropout_matches_two_multiplies():
    # a * (keep * scale) against (a * keep) * scale, signed zeros included
    a = np.random.default_rng(45).normal(0, 1, (8, 8))
    a[0, :4] = [-0.0, 0.0, -1.0, 1.0e300]
    g = np.random.default_rng(46).normal(0, 1, (8, 8))
    x = Tensor(a, requires_grad=True)
    with Tape() as tape:
        y = T.dropout(x, 0.3, np.random.default_rng(47))
    keep = (np.random.default_rng(47).random(a.shape) >= 0.3).astype(np.float64)
    scale = 1.0 / (1.0 - 0.3)
    want = a * keep * scale
    assert np.array_equal(y.data, want)
    assert np.array_equal(np.signbit(y.data), np.signbit(want))
    (gx,) = y._node.bwd(g)
    assert np.array_equal(gx, g * keep * scale) and len(tape) == 1


def _closure_arrays(t):
    """The ndarrays that t's backward closure holds."""
    cells = t._node.bwd.__closure__ or ()
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


def _parent_gelu_grad(x, g):
    """d gelu / dx times g, as the op computed it when it kept x and tanh."""
    t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
    sech2 = 1.0 - t * t
    dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3 * 0.044715 * x * x)
    return g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * dinner)


def test_dropout_and_gelu_keep_one_array_each():
    a = np.random.default_rng(52).normal(0, 1, (5, 7))
    x = Tensor(a, requires_grad=True)
    with Tape():
        dropped = T.dropout(x, 0.3, np.random.default_rng(53))
        activated = T.gelu(x)
    (keep,) = _closure_arrays(dropped)
    assert keep.dtype == bool and keep.shape == a.shape
    (dx,) = _closure_arrays(activated)
    assert dx.dtype == np.float64 and dx.shape == a.shape


def test_gelu_records_nothing_without_grad_and_keeps_its_bits():
    a = np.random.default_rng(54).normal(0, 3, (4, 6))
    with Tape() as tape:
        recorded = T.gelu(Tensor(a, requires_grad=True))
        constant = T.gelu(Tensor(a))
    with no_grad():
        unrecorded = T.gelu(Tensor(a, requires_grad=True))
    assert len(tape) == 1 and constant._node is None and unrecorded._node is None
    for y in (constant, unrecorded):
        assert np.array_equal(y.data.view(np.uint64), recorded.data.view(np.uint64))


def test_gelu_gradient_is_the_parent_formula_bitwise():
    mags = [0.0, 1e-300, 3.0, 30.0, 1e200]
    a = np.array([s * v for v in mags for s in (1.0, -1.0)])
    g = np.random.default_rng(55).normal(0, 1, a.shape)
    x = Tensor(a, requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"), Tape():
        y = T.gelu(x)
        (got,) = y._node.bwd(g)
        want = _parent_gelu_grad(a, g)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(got[-2:]).all() and np.isfinite(got[:-2]).all()


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _layer_norm_formula(x, gain, bias, g, eps=1e-5):
    """Forward and (dx, dgain, dbias) of layer_norm as plain expressions."""
    d = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    dxhat = g * gain
    term = d * dxhat - dxhat.sum(axis=-1, keepdims=True) - xhat * (dxhat * xhat).sum(
        axis=-1, keepdims=True)
    return (xhat * gain + bias, inv / d * term,
            (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


def test_gelu_and_layer_norm_are_their_formulas_bitwise():
    # Both ops work in arrays of their own; every product and sum stays
    # in the formula's order, on any host, so the bits are the formula's.
    rng = np.random.default_rng(56)
    x = rng.normal(0, 3, (3, 5, 12))  # a width that is no power of two
    x[0, 0, :6] = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0]
    g = rng.normal(0, 1, x.shape)
    gain, bias = rng.normal(1, 0.3, 12), rng.normal(0, 0.3, 12)
    with Tape():
        act = T.gelu(Tensor(x, requires_grad=True))
        ln = T.layer_norm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True),
                          Tensor(bias, requires_grad=True))
    c = np.sqrt(2.0 / np.pi)
    want_act = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
    assert np.array_equal(_bits(act.data), _bits(want_act))
    assert np.array_equal(_bits(act._node.bwd(g)[0]), _bits(_parent_gelu_grad(x, g)))
    want_ln, *want_grads = _layer_norm_formula(x, gain, bias, g)
    assert np.array_equal(_bits(ln.data), _bits(want_ln))
    for got, want in zip(ln._node.bwd(g), want_grads):
        assert np.array_equal(_bits(got), _bits(want))


def test_softmax_backwards_are_their_formulas_bitwise():
    rng = np.random.default_rng(57)
    a = rng.normal(0, 2, (2, 3, 4, 7))
    g = rng.normal(0, 1, a.shape)
    with Tape():
        sm = T.softmax_rows(Tensor(a, requires_grad=True), 0.3)
        ls = T.log_softmax_rows(Tensor(a, requires_grad=True))
    y = sm.data
    want_sm = y * (g - (g * y).sum(axis=-1, keepdims=True)) * 0.3
    want_ls = g - np.exp(ls.data) * g.sum(axis=-1, keepdims=True)
    assert np.array_equal(_bits(sm._node.bwd(g)[0]), _bits(want_sm))
    assert np.array_equal(_bits(ls._node.bwd(g)[0]), _bits(want_ls))


@pytest.mark.parametrize("ashape,bshape", [
    ((2, 3, 4, 5), (2, 3, 5, 6)),   # (b, h, m, n) probabilities @ (b, h, n, hs) values
    ((2, 1, 4, 5), (3, 5, 6)),      # leading dims broadcast both ways
    ((2, 3, 4, 5), (5, 6)),         # a stack times one matrix
])
def test_dropout_matmul_is_dropout_then_matmul_bitwise(ashape, bshape):
    rng = np.random.default_rng(58)
    a, b = rng.normal(0, 1, ashape), rng.normal(0, 1, bshape)
    a.flat[:2] = [-0.0, 0.0]
    probe = Tensor(rng.normal(0, 1, np.broadcast_shapes(ashape[:-2], bshape[:-2])
                              + (ashape[-2], bshape[-1])))
    runs = []
    for fused in (False, True):
        draws = np.random.default_rng(59)
        x, w = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = (T.dropout_matmul(x, w, 0.3, draws) if fused
                   else T.matmul(T.dropout(x, 0.3, draws), w))
            loss = T.sum_all(T.mul(out, probe))
        tape.backward(loss)
        runs.append((out.data, x.grad, w.grad, draws.bit_generator.state, len(tape)))
    (*want, want_state, unfused_nodes), (*got, got_state, fused_nodes) = runs
    for fused_arr, unfused_arr in zip(got, want):
        assert fused_arr.shape == unfused_arr.shape
        assert np.array_equal(_bits(fused_arr), _bits(unfused_arr))
    assert got_state == want_state and fused_nodes == unfused_nodes - 1


def test_dropout_matmul_without_dropout_is_matmul():
    rng = np.random.default_rng(60)
    a, b = rng.normal(0, 1, (2, 4, 5)), rng.normal(0, 1, (2, 5, 3))
    want = T.matmul(Tensor(a), Tensor(b)).data
    draws = np.random.default_rng(61)
    state = draws.bit_generator.state
    g = rng.normal(0, 1, want.shape)
    for p, r in ((0.0, draws), (0.3, None)):
        x, w = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = T.dropout_matmul(x, w, p, r)
            plain = T.matmul(x, w)
        assert np.array_equal(_bits(out.data), _bits(want)) and len(tape) == 2
        for got, expected in zip(out._node.bwd(g), plain._node.bwd(g)):
            assert np.array_equal(_bits(got), _bits(expected))
    assert draws.bit_generator.state == state  # p = 0 draws nothing
    for p in (1.0, -0.1, 1.5):
        for r in (draws, None):
            with pytest.raises(ContractError):
                T.dropout_matmul(Tensor(a), Tensor(b), p, r)
    with pytest.raises(ShapeError):
        T.dropout_matmul(Tensor(a), Tensor(a), 0.3, draws)


# ---------------------------------------------------------------------
# Finite-difference gradient checks, one per primitive.
# ---------------------------------------------------------------------


def _fd_check(build, arrays):
    """build(*tensors) -> scalar Tensor; checks every input's gradient."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
    tape.backward(loss)
    for pos, (t, a) in enumerate(zip(tensors, arrays)):
        def f():
            fresh = [Tensor(arr) for arr in arrays]
            return build(*fresh).item()
        got = numeric_grad(f, a, h=FD_H)
        assert t.grad is not None, f"input {pos} has no gradient"
        assert_close(t.grad, got, atol=FD_ATOL, rtol=FD_RTOL, label=f"input {pos}")


def _probe(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(0, 1, shape))


def test_grad_matmul():
    rng = np.random.default_rng(21)
    a, b = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (4, 2))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.matmul(x, y), _probe((3, 2), 0))), [a, b])


def test_grad_add_variants():
    rng = np.random.default_rng(22)
    a, b = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (3, 4))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.add(x, y), _probe((3, 4), 1))), [a, b])
    v = rng.normal(0, 1, (4,))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.add(x, y), _probe((3, 4), 2))), [a, v])


def test_grad_sub_neg():
    rng = np.random.default_rng(23)
    a, b = rng.normal(0, 1, (2, 5)), rng.normal(0, 1, (2, 5))
    # subtraction is spelled add(x, mul(y, -1.0))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.add(x, T.mul(y, -1.0)), _probe((2, 5), 4))),
              [a, b])
    # negation is spelled mul(x, -1.0)
    _fd_check(lambda x: T.sum_all(T.mul(T.mul(x, -1.0), _probe((2, 5), 5))), [a])


def test_add_refuses_a_python_scalar():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    for scalar in (1.0, 2, np.float64(0.5)):
        with pytest.raises(ShapeError):
            T.add(x, scalar)


def test_mul_by_minus_one_is_bitwise_negation():
    a = np.array([[1.5, -0.0, 0.0, -2.25, 1e-310, -np.inf]])
    g = np.array([[0.5, 0.0, -0.0, -3.0, -1e-310, 2.0]])
    x = Tensor(a, requires_grad=True)
    with Tape():
        y = T.mul(x, -1.0)
    (gx,) = y._node.bwd(g)
    # equal bits, so -0.0 and 0.0 are told apart
    assert (y.data.view(np.int64) == (-a).view(np.int64)).all()
    assert (gx.view(np.int64) == (-g).view(np.int64)).all()


def test_transpose_swaps_an_axis_with_the_next():
    rng = np.random.default_rng(67)
    a = rng.normal(0, 1, (2, 3, 4, 5))
    t = Tensor(a)
    npt.assert_array_equal(T.transpose(t, axis=-3).data, np.swapaxes(a, 1, 2))
    npt.assert_array_equal(T.transpose(t, axis=0).data, np.swapaxes(a, 0, 1))
    npt.assert_array_equal(T.transpose(t).data, np.swapaxes(a, 2, 3))
    for axis in (-1, 3, 4, -5):  # no axis after it
        with pytest.raises(ShapeError):
            T.transpose(t, axis=axis)
    with pytest.raises(ShapeError):
        T.transpose(Tensor(np.ones(3)))
    _fd_check(lambda x: T.sum_all(T.mul(T.transpose(x, axis=-3), _probe((2, 4, 3, 5), 68))),
              [a])


def test_grad_mul_variants():
    rng = np.random.default_rng(24)
    a, b = rng.normal(0, 1, (3, 3)), rng.normal(0, 1, (3, 3))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.mul(x, y), _probe((3, 3), 6))), [a, b])
    v = rng.normal(0, 1, (3,))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.mul(x, y), _probe((3, 3), 7))), [a, v])
    _fd_check(lambda x: T.sum_all(T.mul(T.mul(x, -1.5), _probe((3, 3), 8))), [a])


def test_grad_transpose_reshape_sums():
    rng = np.random.default_rng(25)
    a = rng.normal(0, 1, (3, 4))
    _fd_check(lambda x: T.sum_all(T.mul(T.transpose(x), _probe((4, 3), 9))), [a])
    _fd_check(lambda x: T.sum_all(T.mul(T.reshape(x, (2, 6)), _probe((2, 6), 10))), [a])
    _fd_check(lambda x: T.sum_all(x), [a])
    _fd_check(lambda x: T.sum_all(T.mul(T.row_sum(x), Tensor(
        np.random.default_rng(11).normal(0, 1, (3,))))), [a])


def test_grad_gathers_and_slices():
    rng = np.random.default_rng(26)
    table = rng.normal(0, 1, (5, 4))
    idx = np.array([0, 3, 3, 1, 4, 3])  # duplicates on purpose
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_rows(x, idx), _probe((6, 4), 12))),
              [table])
    m = rng.normal(0, 1, (4, 6))
    cols = np.array([[0, 5, 2], [1, 1, 3], [5, 4, 0], [2, 2, 2]])
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_flat(x, _row_offsets(cols, 6)),
                                        _probe((4, 3), 13))), [m])


def test_grad_softmax_logsoftmax():
    rng = np.random.default_rng(27)
    a = rng.normal(0, 2, (3, 5))
    _fd_check(lambda x: T.sum_all(T.mul(T.softmax_rows(x), _probe((3, 5), 16))), [a])
    _fd_check(lambda x: T.sum_all(T.mul(T.log_softmax_rows(x), _probe((3, 5), 17))), [a])


def test_grad_layer_norm():
    rng = np.random.default_rng(28)
    x = rng.normal(0, 2, (4, 6))
    g = rng.normal(1, 0.2, (6,))
    b = rng.normal(0, 0.2, (6,))
    _fd_check(lambda t, gg, bb: T.sum_all(
        T.mul(T.layer_norm(t, gg, bb, eps=1e-5), _probe((4, 6), 18))), [x, g, b])


def test_grad_gelu():
    rng = np.random.default_rng(29)
    a = rng.normal(0, 2, (4, 4))
    _fd_check(lambda x: T.sum_all(T.mul(T.gelu(x), _probe((4, 4), 19))), [a])


def test_grad_dropout_fixed_mask():
    a = np.random.default_rng(30).normal(0, 1, (6, 6))

    def build(x):
        rng = np.random.default_rng(99)  # same mask on every call
        return T.sum_all(T.mul(T.dropout(x, 0.4, rng), _probe((6, 6), 20)))

    _fd_check(build, [a])


def test_grad_dropout_matmul_reseeded():
    rng = np.random.default_rng(32)
    a, b = rng.normal(0, 1, (2, 3, 4, 5)), rng.normal(0, 1, (2, 3, 5, 2))

    def build(x, y):
        draws = np.random.default_rng(98)  # reseeded: one mask on every call
        return T.sum_all(T.mul(T.dropout_matmul(x, y, 0.4, draws), _probe((2, 3, 4, 2), 21)))

    _fd_check(build, [a, b])


def test_grad_masked_softmax():
    rng = np.random.default_rng(31)
    a = rng.normal(0, 1, (3, 4))
    mask = np.zeros((3, 4), dtype=bool)
    mask[0, 2] = True
    mask[2, 0] = True

    def build(x):
        return T.sum_all(T.mul(T.softmax_rows(x, 1.0, mask), _probe((3, 4), 21)))

    _fd_check(build, [a])


# ---------------------------------------------------------------------
# The same ops over leading dims: 3-D and 4-D inputs, broadcasting.
# ---------------------------------------------------------------------


def test_grad_lifted_matmul():
    rng = np.random.default_rng(60)
    a, b = rng.normal(0, 1, (2, 3, 4, 5)), rng.normal(0, 1, (2, 3, 5, 2))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.matmul(x, y), _probe((2, 3, 4, 2), 60))),
              [a, b])
    # a stack times one broadcast weight
    x3, w = rng.normal(0, 1, (3, 4, 5)), rng.normal(0, 1, (5, 2))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.matmul(x, y), _probe((3, 4, 2), 61))),
              [x3, w])
    # per-head weights broadcast over the batch axis
    wh = rng.normal(0, 1, (3, 5, 2))
    _fd_check(lambda x, y: T.sum_all(T.mul(T.matmul(x, y), _probe((2, 3, 4, 2), 62))),
              [a, wh])


def test_grad_lifted_shape_ops():
    rng = np.random.default_rng(61)
    a = rng.normal(0, 1, (2, 3, 4, 5))
    _fd_check(lambda x: T.sum_all(T.mul(T.transpose(x), _probe((2, 3, 5, 4), 63))), [a])
    _fd_check(lambda x: T.sum_all(T.mul(T.reshape(x, (6, 20)), _probe((6, 20), 64))), [a])
    _fd_check(lambda x: T.sum_all(T.mul(T.row_sum(x), _probe((2, 3, 4), 65))), [a])
    x3 = rng.normal(0, 1, (3, 4, 5))
    _fd_check(lambda x: T.sum_all(T.mul(T.row_sum(x), _probe((3, 4), 66))), [x3])


def test_grad_lifted_row_ops():
    rng = np.random.default_rng(62)
    for shape in ((3, 4, 5), (2, 2, 3, 5)):
        a = rng.normal(0, 2, shape)
        _fd_check(lambda x: T.sum_all(T.mul(T.softmax_rows(x), _probe(shape, 67))), [a])
        _fd_check(lambda x: T.sum_all(T.mul(T.log_softmax_rows(x), _probe(shape, 68))),
                  [a])
        g, b = rng.normal(1, 0.2, (5,)), rng.normal(0, 0.2, (5,))
        _fd_check(lambda x, gg, bb: T.sum_all(
            T.mul(T.layer_norm(x, gg, bb, eps=1e-5), _probe(shape, 69))), [a, g, b])
        _fd_check(lambda x: T.sum_all(T.mul(T.gelu(x), _probe(shape, 70))), [a])

        def dropped(x, shape=shape):
            return T.sum_all(T.mul(T.dropout(x, 0.3, np.random.default_rng(5)),
                                   _probe(shape, 71)))

        _fd_check(dropped, [a])


def test_grad_lifted_gathers():
    rng = np.random.default_rng(63)
    table = rng.normal(0, 1, (2, 5, 3))       # a stack of tables
    idx = np.array([[4, 0], [4, 4], [1, 2]])  # duplicates on purpose
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_rows(x, idx), _probe((2, 3, 2, 3), 72))),
              [table])
    flat = rng.normal(0, 1, (6, 3))
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_rows(x, idx), _probe((3, 2, 3), 73))),
              [flat])
    # one (n, n) index matrix shared by every leading block
    m = rng.normal(0, 1, (2, 3, 4, 6))
    cols = rng.integers(0, 6, (4, 4))
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_flat(x, _row_offsets(cols, 6)),
                                        _probe((2, 3, 4, 4), 74))), [m])
    m3 = rng.normal(0, 1, (3, 4, 6))
    cols3 = rng.integers(0, 6, (3, 4, 2))
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_flat(x, _row_offsets(cols3, 6)),
                                        _probe((3, 4, 2), 75))), [m3])


def test_gather_flat_matches_take_along_axis():
    rng = np.random.default_rng(64)
    m = rng.normal(0, 1, (2, 3, 4, 6))
    cols = rng.integers(0, 6, (4, 5))
    got = T.gather_flat(Tensor(m), _row_offsets(cols, 6)).data
    want = np.take_along_axis(m, np.broadcast_to(cols, (2, 3, 4, 5)), axis=-1)
    npt.assert_array_equal(got, want)


def test_gather_flat_per_block_offsets():
    # one offset table per leading block, broadcast over the heads axis,
    # as the mask decoder gathers delta rows at each row's own query slots
    rng = np.random.default_rng(66)
    m = rng.normal(0, 1, (2, 3, 4, 6))
    cols = rng.integers(0, 6, (2, 1, 4, 5))
    got = T.gather_flat(Tensor(m), _row_offsets(cols, 6)).data
    npt.assert_array_equal(got, np.take_along_axis(m, cols, axis=-1))
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_flat(x, _row_offsets(cols, 6)),
                                        _probe((2, 3, 4, 5), 76))), [m])
    with pytest.raises(ShapeError):
        T.gather_flat(Tensor(m), _row_offsets(rng.integers(0, 6, (3, 1, 4, 5)), 6))


def test_gather_flat_reads_across_rows():
    # an offset may land in any row of its block: the p2c layout
    rng = np.random.default_rng(67)
    m = rng.normal(0, 1, (2, 3, 4))
    off = rng.integers(0, 12, (5, 3))
    got = T.gather_flat(Tensor(m), off).data
    npt.assert_array_equal(got, m.reshape(2, 12)[:, off])
    _fd_check(lambda x: T.sum_all(T.mul(T.gather_flat(x, off), _probe((2, 5, 3), 77))),
              [m])


def test_gather_flat_rejects_bad_offsets():
    m = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(IndexBoundsError) as err:
        T.gather_flat(m, np.array([[0, 12]]))
    assert "12" in str(err.value)
    with pytest.raises(IndexBoundsError):
        T.gather_flat(m, np.array([[-1, 0]]))
    with pytest.raises(ContractError):
        T.gather_flat(m, np.array([[0.0, 1.0]]))
    with pytest.raises(ShapeError):
        T.gather_flat(m, np.array([0, 1]))
    with pytest.raises(ShapeError):
        T.gather_flat(Tensor(np.zeros(4)), np.array([[0, 1]]))


def _add_gathered_cases():
    rng = np.random.default_rng(68)
    shared = _row_offsets(rng.integers(0, 6, (4, 5)), 6)
    per_block = _row_offsets(rng.integers(0, 6, (2, 1, 4, 5)), 6)
    return [shared, per_block]


@pytest.mark.parametrize("off", _add_gathered_cases())
def test_add_gathered_is_add_of_gather_bitwise(off):
    rng = np.random.default_rng(69)
    m = rng.normal(0, 1, (2, 3, 4, 6))
    base = rng.normal(0, 1, (2, 3, 4, 5))
    base[0, 0, 0, :3] = [-0.0, np.inf, np.nan]
    m[0, 0, 0, :] = -0.0                        # -0.0 + -0.0 stays -0.0
    g = rng.normal(0, 1, base.shape)

    def run(build):
        b, x = Tensor(base, requires_grad=True), Tensor(m, requires_grad=True)
        with Tape() as tape:
            y = build(b, x)
            loss = T.sum_all(T.mul(y, Tensor(g)))
        tape.backward(loss)
        return [t.view(np.uint64) for t in (y.data, b.grad, x.grad)]

    got = run(lambda b, x: T.add_gathered(b, x, off))
    want = run(lambda b, x: T.add(b, T.gather_flat(x, off)))
    for u, w in zip(got, want):
        assert np.array_equal(u, w)


def test_grad_add_gathered():
    rng = np.random.default_rng(70)
    off = rng.integers(0, 12, (5, 3))           # repeats, and reads across rows
    _fd_check(lambda b, x: T.sum_all(T.mul(T.add_gathered(b, x, off), _probe((2, 5, 3), 78))),
              [rng.normal(0, 1, (2, 5, 3)), rng.normal(0, 1, (2, 3, 4))])


def test_add_gathered_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(71)
    base, m = rng.normal(0, 1, (2, 5, 3)), rng.normal(0, 1, (2, 3, 4))
    off = rng.integers(0, 12, (5, 3))
    g = rng.normal(0, 1, base.shape)
    with Tape():
        left = T.add_gathered(Tensor(base, requires_grad=True), Tensor(m), off)
        right = T.add_gathered(Tensor(base), Tensor(m, requires_grad=True), off)
        both = T.add_gathered(Tensor(base, requires_grad=True),
                              Tensor(m, requires_grad=True), off)
    gb, none_m = left._node.bwd(g)
    none_b, gm = right._node.bwd(g)
    want_b, want_m = both._node.bwd(g)
    assert none_b is None and none_m is None
    assert np.array_equal(gb, want_b) and np.array_equal(gm, want_m)


def test_add_gathered_rejects_bad_offsets():
    base, m = Tensor(np.zeros((2, 1, 2))), Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ContractError):
        T.add_gathered(base, m, np.array([[0.0, 1.0]]))
    with pytest.raises(IndexBoundsError) as err:
        T.add_gathered(base, m, np.array([[0, 12]]))
    assert "12" in str(err.value)
    with pytest.raises(ShapeError):
        T.add_gathered(base, m, np.array([[0, 1, 2]]))
    with pytest.raises(ShapeError):
        T.add_gathered(base, m, np.array([[0], [1]]))


def test_grad_broadcast_add_mul():
    rng = np.random.default_rng(65)
    a = rng.normal(0, 1, (2, 3, 4, 4))
    for bshape in ((4,), (4, 4), (2, 1, 4, 4), (3, 1, 1), (1, 4, 1)):
        b = rng.normal(0, 1, bshape)
        for op in (T.add, T.mul):
            _fd_check(lambda x, y, op=op: T.sum_all(T.mul(op(x, y), _probe(a.shape, 76))),
                      [a, b])


def test_broadcast_is_one_way():
    a = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((4,))), a)  # the first operand never stretches
    with pytest.raises(ShapeError):
        T.mul(Tensor(np.zeros((1, 4))), a)
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))


def test_broadcasts_to_agrees_with_numpy():
    # seeded shape pairs of ranks 0-4 and extents 0-3, so 0 and 1 are common
    rng = np.random.default_rng(22)

    def draw():
        return tuple(int(e) for e in rng.integers(0, 4, size=rng.integers(0, 5)))

    broadcast = 0
    for _ in range(2000):
        shape, target = draw(), draw()
        try:
            want = np.broadcast_shapes(shape, target) == target
        except ValueError:
            want = False
        assert T._broadcasts_to(shape, target) == want, (shape, target)
        broadcast += want
    assert 100 < broadcast < 1900  # both answers are exercised


def test_broadcastable_agrees_with_numpy():
    # matmul's leading-dims check: seeded shape pairs as above
    rng = np.random.default_rng(23)

    def draw():
        return tuple(int(e) for e in rng.integers(0, 4, size=rng.integers(0, 5)))

    together = 0
    for _ in range(2000):
        a, b = draw(), draw()
        try:
            np.broadcast_shapes(a, b)
            want = True
        except ValueError:
            want = False
        assert T._broadcastable(a, b) == want, (a, b)
        together += want
    assert 100 < together < 1900  # both answers are exercised


def test_fully_masked_row_named_in_a_stack():
    mask = np.zeros((2, 3, 4), dtype=bool)
    mask[1, 2] = True
    with pytest.raises(DegenerateRowError) as err:
        T.softmax_rows(Tensor(np.zeros((2, 3, 4))), 1.0, mask)
    assert "1, 2" in str(err.value)


# ---------------------------------------------------------------------
# Exactness and tape behaviour.
# ---------------------------------------------------------------------


def test_quadratic_grad_is_exact():
    rng = np.random.default_rng(40)
    x = Tensor(rng.normal(0, 3, (5, 7)), requires_grad=True)
    with Tape() as tape:
        loss = T.mul(T.sum_all(T.mul(x, x)), 0.5)
    tape.backward(loss)
    npt.assert_array_equal(x.grad, x.data)  # bitwise


def test_backward_accumulates_across_calls():
    # two tapes that record the same expression add up on .grad
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as first_tape:
        first_loss = T.sum_all(T.mul(x, 3.0))
    first_tape.backward(first_loss)
    first = x.grad.copy()
    with Tape() as tape:
        loss = T.sum_all(T.mul(x, 3.0))
    tape.backward(loss)
    npt.assert_array_equal(x.grad, 2 * first)


def test_backward_frees_what_each_node_saved_while_the_loss_lives():
    # softmax_rows' closure holds its output; once the walk has passed
    # that node nothing does, though the tape and the loss are still held
    rng = np.random.default_rng(61)
    x = Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
    w = Tensor(rng.normal(0, 1, (3, 5)))
    with Tape() as tape:
        p = T.softmax_rows(x, 0.5)
        ref = weakref.ref(p.data)
        loss = T.sum_all(T.mul(p, w))
        del p
    assert ref() is not None
    tape.backward(loss)
    assert ref() is None


def test_second_backward_on_a_used_tape_is_refused():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    w = Tensor([[0.5, -1.0]], requires_grad=True)
    with Tape() as tape:
        loss = T.sum_all(T.mul(x, w))
    tape.backward(loss)
    gx, gw = x.grad.copy(), w.grad.copy()
    with pytest.raises(ContractError, match="already backed out"):
        tape.backward(loss)
    with pytest.raises(ContractError, match="already backed out"):
        tape.backward(loss, targets=[x])
    npt.assert_array_equal(x.grad, gx)
    npt.assert_array_equal(w.grad, gw)


def test_a_refused_backward_leaves_the_tape_whole():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape():
        elsewhere = T.sum_all(T.mul(x, 5.0))
    with Tape() as tape:
        y = T.mul(x, 3.0)
        loss = T.sum_all(y)
    refused = (lambda: tape.backward(y),                    # not a scalar
               lambda: tape.backward(elsewhere),            # another tape's loss
               lambda: tape.backward(loss, targets=[y]))    # an intermediate
    for call in refused:
        with pytest.raises(ContractError):
            call()
    assert x.grad is None
    tape.backward(loss)
    npt.assert_array_equal(x.grad, [[3.0, 3.0]])


def test_dropping_tape_and_loss_frees_the_graph():
    # no reference cycle between the tape and its nodes: plain reference
    # counting frees an intermediate once the tape and the loss are gone
    gc.disable()
    try:
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            mid = T.mul(x, 3.0)
            loss = T.sum_all(mid)
        tape.backward(loss)
        ref = weakref.ref(mid)
        del mid, loss, tape
        assert ref() is None
    finally:
        gc.enable()


def test_unread_op_output_is_freed_before_backward():
    # add's backward reads nothing and softmax_rows' reads only its own
    # output, so the sum goes as soon as its name does
    rng = np.random.default_rng(60)
    a, b, w = (rng.normal(0, 1, (3, 5)) for _ in range(3))
    x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        s = T.add(x, y)
        ref = weakref.ref(s.data)
        p = T.softmax_rows(s, 0.5)
        del s
        assert ref() is None
        loss = T.sum_all(T.mul(p, Tensor(w)))
    tape.backward(loss)
    want = p.data * (w - (w * p.data).sum(axis=-1, keepdims=True)) * 0.5
    npt.assert_array_equal(x.grad, want)
    npt.assert_array_equal(y.grad, want)


def test_backward_targets_filter():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = Tensor([[3.0, 4.0]], requires_grad=True)
    with Tape() as tape:
        loss = T.sum_all(T.mul(x, y))
    tape.backward(loss, targets=[x])
    assert x.grad is not None
    assert y.grad is None


def test_backward_fills_leaves_not_intermediates():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = Tensor([[3.0, -1.0]], requires_grad=True)
    with Tape() as tape:
        mid = T.add(x, y)
        loss = T.sum_all(T.mul(mid, mid))
    tape.backward(loss)
    assert mid.grad is None and loss.grad is None
    npt.assert_array_equal(x.grad, 2 * mid.data)
    npt.assert_array_equal(y.grad, 2 * mid.data)
    # add hands one gradient array to both leaves; each owns a copy
    x.grad *= 0.5
    npt.assert_array_equal(y.grad, 2 * mid.data)


def test_backward_target_intermediate_is_refused():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        mid = T.mul(x, 3.0)
        loss = T.sum_all(T.mul(mid, mid))
    with pytest.raises(ContractError, match="leaves"):
        tape.backward(loss, targets=[mid])
    with pytest.raises(ContractError, match="leaves"):
        tape.backward(loss, targets=[x, mid])
    assert mid.grad is None and x.grad is None
    # a refused call left the tape whole
    tape.backward(loss, targets=[x])
    npt.assert_array_equal(x.grad, 18 * x.data)


def test_no_grad_records_nothing():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        with no_grad():
            y = T.mul(x, 2.0)
        assert len(tape) == 0
        assert not y.requires_grad
    z = T.mul(x, 2.0)  # outside any tape
    assert not z.requires_grad


def test_nested_tape_isolation():
    x = Tensor([[2.0]], requires_grad=True)
    with Tape() as outer:
        a = T.mul(x, 3.0)
        with Tape() as inner:
            b = T.mul(x, 5.0)
            inner_loss = T.sum_all(b)
        inner.backward(inner_loss, targets=[x])
        inner_grad = x.grad.copy()
        x.grad = None
        outer_loss = T.sum_all(a)
    outer.backward(outer_loss)
    npt.assert_array_equal(inner_grad, [[5.0]])
    npt.assert_array_equal(x.grad, [[3.0]])
    # the inner tape's nodes never leaked onto the outer tape
    assert all(n is not b._node for n in outer._nodes)


def test_inner_tape_treats_an_outer_intermediate_as_a_leaf():
    x = Tensor([[2.0, -1.0]], requires_grad=True)
    with Tape() as outer:
        b = T.mul(x, 3.0)
        with Tape() as inner:
            inner_loss = T.sum_all(T.mul(b, b))
        inner.backward(inner_loss)
        outer_loss = T.sum_all(b)
    # b was recorded on the outer tape: the inner tape stops at it
    assert len(inner) == 2 and x.grad is None
    npt.assert_array_equal(b.grad, 2 * b.data)
    with Tape() as fresh:
        fresh_loss = T.sum_all(T.mul(b, b))
    fresh.backward(fresh_loss, targets=[b])
    npt.assert_array_equal(b.grad, 4 * b.data)
    b.grad = None
    outer.backward(outer_loss)
    npt.assert_array_equal(x.grad, [[3.0, 3.0]])
    assert b.grad is None


def test_backward_preconditions():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, 2.0)
    with pytest.raises(ContractError):
        tape.backward(y)  # not scalar
    empty = Tape()
    with pytest.raises(ContractError):
        with empty:
            pass
        empty.backward(T.sum_all(x))


def test_dropout_semantics():
    rng = np.random.default_rng(50)
    x = Tensor(np.ones((400, 50)))
    same = T.dropout(x, 0.0, rng)
    assert same is x  # p = 0 is the identity, not a copy
    dropped = T.dropout(x, 0.3, np.random.default_rng(51))
    kept = dropped.data != 0.0
    # inverted scaling preserves the mean
    assert abs(dropped.data.mean() - 1.0) < 0.02
    npt.assert_allclose(dropped.data[kept], 1.0 / 0.7, rtol=0, atol=1e-12)
    with pytest.raises(ContractError):
        T.dropout(x, 1.0, rng)
    with pytest.raises(ContractError):
        T.dropout(x, -0.1, rng)


def test_dropout_without_rng_is_the_identity():
    # no rng, no dropout: the input itself, at any legal rate
    x = Tensor(np.ones((4, 5)), requires_grad=True)
    assert T.dropout(x, 0.3, None) is x
    with pytest.raises(ContractError):
        T.dropout(x, 1.0, None)


def test_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    c = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        T.matmul(a, b)
    with pytest.raises(ShapeError) as err:
        T.matmul(a, c)
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)
    with pytest.raises(ShapeError):
        T.add(a, c)
    with pytest.raises(ShapeError):
        T.mul(a, Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        T.add(a, Tensor(np.zeros((2,))))  # column-wise broadcast unsupported
    with pytest.raises(ShapeError):
        T.reshape(a, (7,))
    with pytest.raises(ShapeError):
        T.layer_norm(a, Tensor(np.ones(2)), Tensor(np.zeros(3)))


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_unsupported_operand_names_its_type(op):
    with pytest.raises(ShapeError) as err:
        op(Tensor(np.zeros((2, 3))), "x")
    assert "<class 'str'>" in str(err.value)


def test_index_bounds_errors():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexBoundsError) as err:
        T.gather_rows(table, np.array([0, 4]))
    assert "4" in str(err.value)
    with pytest.raises(IndexBoundsError):
        T.gather_rows(table, np.array([-1]))
    m = Tensor(np.zeros((2, 3)))
    with pytest.raises(IndexBoundsError):
        T.gather_flat(m, np.array([[0, 6], [1, 1]]))


def test_duplicate_gather_rows_accumulate():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    idx = np.array([1, 1, 1, 0])
    with Tape() as tape:
        loss = T.sum_all(T.gather_rows(table, idx))
    tape.backward(loss)
    npt.assert_array_equal(table.grad, [[1.0, 1.0], [3.0, 3.0], [0.0, 0.0]])


def test_scalar_tensor_arithmetic():
    a = T.sum_all(Tensor([[1.0, 2.0]]))
    b = T.sum_all(Tensor([[4.0]]))
    c = T.add(a, b)
    assert c.item() == 7.0
    assert T.mul(c, 0.5).item() == 3.5
