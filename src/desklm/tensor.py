"""Dense float64 tensors with a reverse-mode gradient tape.

The surface is deliberately small: exactly the operations the attention
kernels, the transformer blocks and the losses need, nothing more.  All
storage is numpy float64.  Gradients are computed by recording one
graph node per op on the innermost active Tape and replaying the nodes
in reverse.  A node keeps only what its backward reads (see Tape), so
an op output is freed with its Tensor unless a backward closure
captured it, and the replay drops each closure as it passes, so a tape
is backed out once and holds no saved array after it.  Gradients add
up on .grad across tapes.  The stack of active tapes is one
module-level list: the package is single-threaded and starts no thread
of its own.

Every op works over any leading dims: the matrix ops (matmul,
dropout_matmul, and transpose by default) act on the last two axes, the
row ops (row_sum, the softmaxes, symmetric_kl, layer_norm) on the last
axis, and gather_flat and add_gathered on each trailing (r, c) block,
so an (n, d) row and a (b, h, n, d) batch run through the same code.

Broadcasting has one rule: in add and mul the second operand
broadcasts to the first operand's shape (numpy rules), and the backward
pass sums its gradient over the broadcast axes.  Only mul takes a
python scalar as its second operand.  matmul and dropout_matmul
broadcast the leading dims of both operands, so a (b, n, d) batch times
a (d, e) weight is one call.  Anything else raises ShapeError.  An
operand that does not require a gradient when the op is recorded gets
none in the backward, and an op keeps no array that only that gradient
would read.  An op writes its intermediates into arrays it allocated
itself, never into an input or a gradient it was handed, and does each
product and sum in the order its formula gives, so working in place
moves no bit.

Masking convention: a mask is a bool numpy array, True at blocked
entries.  softmax_rows(a, scale, mask) takes the scale and the mask
itself, broadcasting to a's shape, and computes the softmax of a * scale
over the entries the mask leaves open, in one op.  Blocked entries are
-inf when exponentiated, so they get probability exactly +0.0.  A row
with every entry blocked has no defined distribution and raises
DegenerateRowError.

Allocator policy: a training step builds and frees tens of MB of arrays.
glibc's dynamic trim threshold hands that freed memory back to the
kernel after every step, so the next step faults fresh pages in again.
On glibc, importing this module raises the mmap threshold to 32 MiB and
the trim threshold to 1 GiB (process-wide mallopt), so freed arrays are
reused in-process.  Resident memory then stays at its high-water mark.
No computed number depends on this.

Thread policy: OpenBLAS splits a matrix product over its threads, and
the bits of a long reduction (the weight gradient X^T G in matmul's
backward) depend on how many there are.  Importing this module sets the
OpenBLAS that numpy bundles (scipy-openblas) to one thread, so a run's
bytes do not depend on OPENBLAS_NUM_THREADS or on the core count.  A
numpy without a bundled OpenBLAS is left alone.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateRowError,
    IndexBoundsError,
    ShapeError,
)

# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Make glibc keep freed arrays for reuse instead of unmapping them.

    Both thresholds are set: fixing the trim threshold alone also fixes
    the mmap threshold at its 128 KiB default, and every larger array
    would then be mmapped and faulted in afresh.  A 0 return (value
    refused) leaves glibc's defaults, which is harmless.  Other libcs
    are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, finding the library
    as perfbench's machine() does; no such library, nothing to do."""
    import ctypes
    import glob

    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_set_num_threads64_",
                   "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
            if hasattr(lib, fn):
                setter = getattr(lib, fn)
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                setter(1)
                return


_one_blas_thread()

# Active tapes, innermost last; no_grad pushes None.
_tape_stack: list = []


def _active_tape():
    return _tape_stack[-1] if _tape_stack else None


class Tape:
    """Records one node per op, in creation order, for reverse replay.

    Use as a context manager:

        with Tape() as tape:
            loss = ...
        tape.backward(loss)

    Tapes nest; only the innermost active tape records.  A nested tape
    can be discarded after use (gradient-of-gradient is not supported,
    the outer tape never sees the inner tape's records).  To this tape,
    a tensor recorded on another tape is a leaf like a parameter.

    A node holds what backward reads and nothing else: its parents
    (their nodes, or leaf tensors), its backward closure and this
    tape's owner token.  It never refers to its output, so an op output
    that no closure captured (an add, a head-split copy, the scores
    before the softmax) is freed as soon as its Tensor is dropped.  The
    token is a plain object, not the tape, so no node refers back to
    the tape and no reference cycle is left for the cyclic collector.

    backward walks the nodes once, newest first, and clears each node's
    parents and closure as it passes, whether or not a gradient reached
    it: an array a closure saved is freed once its gradient has gone
    to its parents, so a training step peaks near what its forward
    holds, not at the whole graph plus every gradient.  A tape is
    therefore backed out once; a second backward raises ContractError.
    Gradients add up on .grad across tapes, as SiFT's clean tape and
    the trainer's tape do.
    """

    def __init__(self) -> None:
        self._nodes: list[_Node] = []
        self._token = object()
        self._spent = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        top = _tape_stack.pop()
        if top is not self:
            raise ContractError("tape stack corrupted: exited out of order")

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: "Tensor", targets: Sequence["Tensor"] | None = None) -> None:
        """Accumulate d loss / d t into t.grad for leaves.

        loss must be a scalar (size-1) tensor recorded on this tape.  A
        leaf is a tensor this tape did not record: a parameter, a
        perturbation, another tape's output.  Without targets every leaf
        receives a .grad; with targets only the named leaves do, and
        naming a tensor this tape recorded raises ContractError.
        Recorded intermediates keep grad None.  Gradients accumulate
        across tapes; reset .grad to None between steps.  A refused call
        raises before any node is touched and leaves the tape whole; a
        call on a tape already backed out raises ContractError.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._nodes:
            raise ContractError("backward on an empty tape")
        if self._spent:
            raise ContractError("backward on a tape that was already backed out; "
                                "record the loss again on a fresh tape")
        token = self._token
        if loss._node is None or loss._node.owner is not token:
            raise ContractError("loss was not recorded on this tape")
        wanted = None if targets is None else set(targets)
        if wanted is not None and any(t._node is not None and t._node.owner is token
                                      for t in wanted):
            raise ContractError("backward targets must be leaves, not tensors "
                                "this tape recorded")
        self._spent = True
        grads: dict = {loss._node: np.ones_like(loss.data)}

        for node in reversed(self._nodes):
            g = grads.pop(node, None)
            parents, bwd = node.parents, node.bwd
            # Every child of this node has been walked: what its closure
            # saved goes once its gradient has gone to its parents.
            node.parents = node.bwd = None
            if g is None:
                continue
            for parent, pg in zip(parents, bwd(g)):
                if pg is None:
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = pg

        # A parent is walked after every child it has, so whatever is
        # left belongs to leaves.
        for leaf, g in grads.items():
            if wanted is None or leaf in wanted:
                _deposit(leaf, g)


def _deposit(t: "Tensor", g: np.ndarray) -> None:
    # The copy matters: one array can reach two leaves (add hands g to
    # both operands), and clip_gradients scales .grad in place.
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad = t.grad + g


class _Node:
    """One recorded op: parents, backward closure, owner token."""

    __slots__ = ("parents", "bwd", "owner")

    def __init__(self, parents: tuple, bwd: Callable, owner: object) -> None:
        self.parents = parents
        self.bwd = bwd
        self.owner = owner


class no_grad:
    """Context manager that suspends recording entirely."""

    def __enter__(self) -> "no_grad":
        _tape_stack.append(None)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack.pop()


def recording() -> bool:
    """True when a Tape is active and not suspended by no_grad."""
    return _active_tape() is not None


class Tensor:
    """A dense float64 array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.array(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    # -- construction helpers ------------------------------------------

    @staticmethod
    def _from_data(data: np.ndarray) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        t.grad = None
        t.requires_grad = False
        t._node = None
        return t

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _record(out: Tensor, parents: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    # Plain loops, no generators: this runs once per op, and on
    # CPython 3.11 any(<genexpr>) alone took about 0.3 us, a loop 0.05.
    tape = _active_tape()
    if tape is None:
        return out
    for p in parents:
        if p.requires_grad:
            break
    else:
        return out
    token = tape._token
    links = []
    for p in parents:  # this tape's node, or the tensor itself as a leaf
        n = p._node
        links.append(p if n is None or n.owner is not token else n)
    out.requires_grad = True
    out._node = node = _Node(tuple(links), bwd, token)
    tape._nodes.append(node)
    return out


def _broadcasts_to(shape: tuple, target: tuple) -> bool:
    """Whether shape broadcasts to target without changing it, that is
    np.broadcast_shapes(shape, target) == target, minus its exception."""
    if len(shape) > len(target):
        return False
    return all(s == 1 or s == t for s, t in zip(reversed(shape), reversed(target)))


def _broadcastable(a: tuple, b: tuple) -> bool:
    """Whether two shapes broadcast together, that is whether
    np.broadcast_shapes(a, b) succeeds, minus its exception."""
    return all(s == t or s == 1 or t == 1 for s, t in zip(reversed(a), reversed(b)))


def _check_broadcast(op: str, a: Tensor, b) -> None:
    """The second operand must be a tensor broadcasting to the first
    operand's shape; ShapeError naming b's type or both shapes otherwise."""
    if not isinstance(b, Tensor):
        raise ShapeError(f"{op}: unsupported operand {type(b)}")
    if not _broadcasts_to(b.shape, a.shape):
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the axes that broadcasting added or stretched."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if stretched:
        g = g.sum(axis=stretched, keepdims=True)
    return g


def _scatter_add(g: np.ndarray, off: np.ndarray, shape: tuple, block: int) -> np.ndarray:
    """Gradient of a gather that took offsets off from every block of
    block consecutive elements: g summed back into a zero array of shape.
    Repeated offsets accumulate."""
    size = math.prod(shape)
    flat = (np.arange(size // block, dtype=np.int64)[:, None] * block + off).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=size).reshape(shape)


# -- elementwise -------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, with b a tensor broadcasting to a.shape."""
    _check_broadcast("add", a, b)
    out = Tensor._from_data(a.data + b.data)
    ga, gb, bshape = a.requires_grad, b.requires_grad, b.shape
    return _record(out, (a, b), lambda g: [g if ga else None,
                                           _unbroadcast(g, bshape) if gb else None])


def mul(a: Tensor, b) -> Tensor:
    """Hadamard product, with b a python scalar or a tensor; same shape
    rules as add."""
    if isinstance(b, (int, float, np.floating, np.integer)):
        s = float(b)
        out = Tensor._from_data(a.data * s)
        return _record(out, (a,), lambda g: [g * s])
    _check_broadcast("mul", a, b)
    out = Tensor._from_data(a.data * b.data)
    # each operand's gradient reads only the other operand
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    bshape = b.shape
    return _record(out, (a, b), lambda g: [None if bd is None else g * bd,
                                           None if ad is None else _unbroadcast(g * ad, bshape)])


# -- linear algebra ----------------------------------------------------


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A stack times one matrix is a single (rows, k) @ (k, n) product.
    if b.ndim == 2 and a.ndim > 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return a @ b


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ShapeError("matmul expects two tensors")
    if not (a.ndim >= 2 and b.ndim >= 2 and a.shape[-1] == b.shape[-2]
            and _broadcastable(a.shape[:-2], b.shape[:-2])):
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")


def _matmul_grads(g, ad, bd, ashape: tuple, bshape: tuple) -> list:
    """The gradients of a @ b for output gradient g, each None when the
    other operand's data (bd for a's, ad for b's) was not kept."""
    ga = None if bd is None else _unbroadcast(_mm(g, _swap(bd)), ashape)
    if ad is None:
        gb = None
    elif len(bshape) == 2:
        gb = ad.reshape(-1, ashape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        gb = _unbroadcast(_swap(ad) @ g, bshape)
    return [ga, gb]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (..., k, n); the leading dims broadcast."""
    _check_matmul(a, b)
    out = Tensor._from_data(_mm(a.data, b.data))
    # each operand's gradient reads only the other operand
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    ashape, bshape = a.shape, b.shape
    return _record(out, (a, b), lambda g: _matmul_grads(g, ad, bd, ashape, bshape))


def dropout_matmul(a: Tensor, b: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """matmul(dropout(a, p, rng), b) as one op, with the same draws and
    the same bits, output and gradients alike.

    The dropped copy of a lives only while the product is formed: the
    op keeps what matmul would, with a itself in place of that copy,
    plus the one-byte keep mask, and its backward forms
    (a * keep) * scale again.  p == 0 or no rng is plain matmul.
    """
    _check_rate(p)
    if p == 0.0 or rng is None:
        return matmul(a, b)
    _check_matmul(a, b)
    dropped, keep, scale = _drop(a.data, p, rng)
    out = Tensor._from_data(_mm(dropped, b.data))
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    ashape, bshape = a.shape, b.shape

    def bwd(g):
        again = None if ad is None else (ad * keep) * scale  # the dropped copy
        ga, gb = _matmul_grads(g, again, bd, ashape, bshape)
        if ga is not None:  # dropout's (ga * keep) * scale, in the fresh ga
            ga *= keep
            ga *= scale
        return [ga, gb]

    return _record(out, (a, b), bwd)


def transpose(a: Tensor, axis: int = -2) -> Tensor:
    """Swap axis with the axis after it; by default the last two."""
    ax = axis + a.ndim if axis < 0 else axis
    if not 0 <= ax < a.ndim - 1:
        raise ShapeError(f"transpose: no axis after axis {axis} in shape {a.shape}")
    out = Tensor._from_data(np.ascontiguousarray(np.swapaxes(a.data, ax, ax + 1)))
    return _record(out, (a,), lambda g: [np.ascontiguousarray(np.swapaxes(g, ax, ax + 1))])


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    orig = a.shape
    out = Tensor._from_data(np.ascontiguousarray(a.data.reshape(shape)))
    return _record(out, (a,), lambda g: [g.reshape(orig)])


# -- reductions --------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._from_data(np.asarray(a.data.sum()))
    shape = a.shape
    return _record(out, (a,), lambda g: [np.full(shape, float(g))])


def row_sum(a: Tensor) -> Tensor:
    """Sum over the last axis: (..., n) -> (...)."""
    if a.ndim < 1:
        raise ShapeError(f"row_sum needs at least one axis, got shape {a.shape}")
    out = Tensor._from_data(a.data.sum(axis=-1))
    shape = a.shape
    return _record(out, (a,), lambda g: [np.broadcast_to(g[..., None], shape).copy()])


# -- gathers -----------------------------------------------------------


def check_indices(name: str, values, limit: int) -> np.ndarray:
    """values as an int64 array, once they are known to be integers in
    [0, limit): ContractError for any other dtype (floats, bools,
    strings), IndexBoundsError naming the first value out of range.
    The gathers, and the token ids, targets and query slots that the
    model and attention take, are read through here."""
    idx = np.asarray(values)
    if idx.dtype.kind not in "iu":
        raise ContractError(f"{name}: dtype {idx.dtype} is not an integer type")
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        bad = idx[(idx < 0) | (idx >= limit)].flat[0]
        raise IndexBoundsError(f"{name} {bad} out of range [0, {limit})")
    return idx.astype(np.int64, copy=False)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup along the second-to-last axis: table[..., indices, :].

    table is (..., r, d) and indices an integer array of any shape; the
    output is (..., *indices.shape, d).  Duplicate indices accumulate
    their gradients into the same row, which is what embedding layers
    need.
    """
    if table.ndim < 2:
        raise ShapeError(f"gather_rows expects a table of rows, got {table.shape}")
    rows, cols = table.shape[-2:]
    idx = check_indices("gather_rows index", indices, rows)
    out = Tensor._from_data(np.take(table.data, idx, axis=-2))
    tshape = table.shape

    def bwd(g):
        off = (idx.reshape(-1, 1) * cols + np.arange(cols)).ravel()
        return [_scatter_add(g, off, tshape, rows * cols)]

    return _record(out, (table,), bwd)


def _flat_offsets(op: str, ashape: tuple, offsets) -> tuple[np.ndarray, int, tuple]:
    """Check offsets into each trailing (r, c) block of an ashape array
    (see gather_flat); return the flat int64 offsets, the block size
    they index and the gathered shape."""
    off = np.asarray(offsets)
    if len(ashape) < 2 or off.ndim < 2:
        raise ShapeError(f"{op} needs a (..., r, c) tensor and (..., m, n) offsets, "
                         f"got {ashape} and {off.shape}")
    lead = ashape[:-2]
    if not _broadcasts_to(off.shape[:-2], lead):
        raise ShapeError(f"{op}: offsets {off.shape} do not pair with {ashape}")
    block = ashape[-2] * ashape[-1]
    off = check_indices(f"{op} offset", off, block)
    if any(s != 1 for s in off.shape[:-2]):
        # a table per block: offsets into a taken as one block
        blocks = np.arange(math.prod(lead), dtype=np.int64)
        off, block = blocks.reshape(lead + (1, 1)) * block + off, blocks.size * block
    return off.reshape(-1), block, lead + off.shape[-2:]


def gather_flat(a: Tensor, offsets) -> Tensor:
    """Take from each trailing block at flat offsets:
    output[..., i, j] = a[..., :, :].ravel()[offsets[..., i, j]].

    a is (..., r, c) and offsets an integer (..., m, n) array with
    entries in [0, r * c); the output is (..., m, n) with a's leading
    dims.  Offsets whose leading dims are all 1 (or absent) are one
    table shared by every block, so an (h, n, 2k) tensor gathered with
    one (n, n) table gives (h, n, n).  Otherwise their leading dims
    broadcast against a's and each block reads its own table: a
    (b, h, m, 2k) tensor gathered with (b, 1, m, n) offsets gives
    (b, h, m, n).  Repeated offsets accumulate their gradients.
    """
    flat, block, shape = _flat_offsets("gather_flat", a.shape, offsets)
    out = Tensor._from_data(np.take(a.data.reshape(-1, block), flat, axis=1).reshape(shape))
    ashape = a.shape
    return _record(out, (a,), lambda g: [_scatter_add(g, flat, ashape, block)])


def add_gathered(base: Tensor, a: Tensor, offsets) -> Tensor:
    """base + gather_flat(a, offsets) as one op, written into one array.

    The gathered shape must equal base.shape.  The sum has the bits of
    add(base, gather_flat(a, offsets)), and so do both gradients.
    """
    flat, block, shape = _flat_offsets("add_gathered", a.shape, offsets)
    if shape != base.shape:
        raise ShapeError(f"add_gathered: gathered shape {shape} is not {base.shape}")
    out = np.take(a.data.reshape(-1, block), flat, axis=1).reshape(shape)
    np.add(base.data, out, out=out)
    gb, ga, ashape = base.requires_grad, a.requires_grad, a.shape
    return _record(Tensor._from_data(out), (base, a), lambda g: [
        g if gb else None, _scatter_add(g, flat, ashape, block) if ga else None])


# -- nonlinearities ----------------------------------------------------


def softmax_rows(a: Tensor, scale: float = 1.0, mask=None) -> Tensor:
    """Softmax of a * scale over the last axis, as one op.

    mask, when given, is a bool numpy array that broadcasts to a's shape
    and is True at blocked entries; it is not a tape parent.  Blocked
    entries are set to -inf before the exp, so they receive probability
    exactly +0.0 and zero gradient.  A row with all entries blocked
    raises DegenerateRowError naming the row.
    """
    if a.ndim < 1:
        raise ShapeError(f"softmax_rows needs at least one axis, got {a.shape}")
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise ContractError(f"softmax_rows: mask must be bool, got {mask.dtype}")
        if not _broadcasts_to(mask.shape, a.shape):
            raise ShapeError(f"softmax_rows: mask {mask.shape} does not "
                             f"broadcast to {a.shape}")
    x = a.data * scale
    if mask is not None:
        np.copyto(x, -np.inf, where=mask)
    m = x.max(axis=-1, keepdims=True)
    dead = m[..., 0] == -np.inf
    if dead.any():
        row = ", ".join(str(int(i)) for i in np.argwhere(dead)[0])
        raise DegenerateRowError(f"softmax row {row} is fully masked")
    x -= m
    # blocked entries hold -inf, and exp(-inf) is exactly +0.0
    y = np.exp(x, out=x)
    y /= y.sum(axis=-1, keepdims=True)

    out = Tensor._from_data(y)

    def bwd(g):
        # y * (g - <g, y>) * scale, in one array
        dg = g * y
        np.subtract(g, dg.sum(axis=-1, keepdims=True), out=dg)
        dg *= y
        dg *= scale
        return [dg]

    return _record(out, (a,), bwd)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_rows(a: Tensor) -> Tensor:
    """Log softmax over the last axis.  No mask handling: intended for logits."""
    if a.ndim < 1:
        raise ShapeError(f"log_softmax_rows needs at least one axis, got {a.shape}")
    out_data = _log_softmax(a.data)
    out = Tensor._from_data(out_data)

    def bwd(g):
        dg = np.exp(out_data)
        dg *= g.sum(axis=-1, keepdims=True)
        return [np.subtract(g, dg, out=dg)]

    return _record(out, (a,), bwd)


def symmetric_kl(p_logits: Tensor, q_logits: Tensor) -> Tensor:
    """Sum over rows of KL(p||q) + KL(q||p), from two (..., vocab) logit
    tensors of one shape, as one op.

    Uses the identity sum((p - q) * (log p - log q)), which is
    non-negative term by term since log is monotone.  With D = p - q and
    L = log p - log q, the gradient in p's logits is p (L - <p, L>) + D
    and in q's -(q (L - <q, L>) + D), since D sums to zero over a row.
    Both are worked out here, and only for an operand that will get
    one, so the op keeps at most one array per operand; bitwise equal
    operands get exactly zero.
    """
    if p_logits.ndim < 1 or p_logits.shape != q_logits.shape:
        raise ShapeError(f"symmetric_kl: logits {p_logits.shape} and "
                         f"{q_logits.shape} must be one (..., vocab) shape")
    lp, lq = _log_softmax(p_logits.data), _log_softmax(q_logits.data)
    ldiff = lp - lq
    p, q = np.exp(lp, out=lp), np.exp(lq, out=lq)  # the logs are not read again
    diff = p - q
    out = Tensor._from_data(np.asarray((diff * ldiff).sum()))
    recorded = _active_tape() is not None

    def grad(r: np.ndarray) -> np.ndarray:
        # r (L - <r, L>) + D, in one array
        g = r * ldiff
        np.subtract(ldiff, g.sum(axis=-1, keepdims=True), out=g)
        g *= r
        g += diff
        return g

    gp = grad(p) if recorded and p_logits.requires_grad else None
    gq = None
    if recorded and q_logits.requires_grad:
        gq = grad(q)
        np.negative(gq, out=gq)
    return _record(out, (p_logits, q_logits), lambda g: [
        None if gp is None else g * gp, None if gq is None else g * gq])


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardisation over the last axis followed by an affine map.

    Uses the population variance over the last axis.  eps >= 0; zero is
    permitted (callers feeding constant rows with eps=0 get a division
    by zero, which is on them per the precondition).
    """
    if a.ndim < 1:
        raise ShapeError(f"layer_norm needs at least one axis, got {a.shape}")
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match width {d}"
        )
    if eps < 0:
        raise ContractError("layer_norm: eps must be non-negative")
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    out = Tensor._from_data(out)
    gd = gain.data
    ga, ggain, gbias = a.requires_grad, gain.requires_grad, bias.requires_grad

    def bwd(g):
        dx = dgain = dbias = None
        if ga:
            # inv / d * (d * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
            dxhat = g * gd
            dx = dxhat * xhat
            proj = dx.sum(axis=-1, keepdims=True)
            np.multiply(dxhat, d, out=dx)
            dx -= dxhat.sum(axis=-1, keepdims=True)
            dx -= np.multiply(xhat, proj, out=dxhat)
            dx *= inv / d
        if ggain:
            dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        if gbias:
            dbias = g.reshape(-1, d).sum(axis=0)
        return [dx, dgain, dbias]

    return _record(out, (a, gain, bias), bwd)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation (smooth everywhere)."""
    # 0.5 x (1 + t), t = tanh(c (x + 0.044715 x^3)), each product and
    # sum in the formula's order; t is scratch, and 1 + t grows into dx
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    dx = t + 1.0
    y = np.multiply(x, 0.5)
    y *= dx
    out = Tensor._from_data(y)
    if not a.requires_grad or _active_tape() is None:
        return out
    # the derivative 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2),
    # worked out now so that only it is kept; half_x is the second scratch
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    half_x = np.multiply(x, 0.5)
    half_x *= t
    np.multiply(x, 3 * 0.044715, out=t)
    t *= x
    t += 1.0
    t *= _GELU_C
    half_x *= t
    dx *= 0.5
    dx += half_x
    return _record(out, (a,), lambda g: [g * dx])


def _check_rate(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate {p} outside [0, 1)")


def _drop(x: np.ndarray, p: float, rng: np.random.Generator):
    """(x * keep) * scale in a new array, the one-byte keep mask drawn
    from rng, and the scale."""
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    out = x * keep
    out *= scale
    return out, keep, scale


def dropout(a: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout, with its keep mask drawn from rng.  p == 0 or no
    rng returns the input tensor unchanged: no rng, no dropout."""
    _check_rate(p)
    if p == 0.0 or rng is None:
        return a
    # a one-byte keep mask; with keep 0 or 1, (a * keep) * scale equals
    # a * (keep * scale) bit for bit, signed zeros included.
    out, keep, scale = _drop(a.data, p, rng)
    return _record(Tensor._from_data(out), (a,), lambda g: [(g * keep) * scale])
