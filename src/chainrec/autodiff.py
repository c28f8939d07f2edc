"""Minimal reverse-mode tape over numpy arrays.

Every op in this module accepts plain ndarrays or :class:`Var` nodes and
returns the matching kind. An op computes its forward once and passes it,
with one adjoint per input, to :func:`_record`, the one place that decides
how an op joins the tape: with no Var input the ndarray comes back
unrecorded; otherwise it becomes a graph node whose vector-Jacobian closure
runs the Var inputs' adjoints. The forward math is therefore written once
and reused verbatim for inference (ndarray path) and training (Var path).

Gradients are exact; the test suite verifies every op and the full training
objective against central finite differences.
"""

import numpy as np
import scipy.sparse as sp

from . import backend
from .sparse import row_slice


class Var:
    """A tape node: an ndarray value plus the closure that backpropagates it."""

    __slots__ = ("value", "_parents", "_vjp", "grad", "_fresh")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value)
        self._parents = parents
        self._vjp = vjp
        self.grad = None
        self._fresh = False   # the VJP returns arrays nothing else holds


def val(x):
    """Underlying ndarray of a Var, or the input unchanged."""
    return x.value if isinstance(x, Var) else x


def _record(out, inputs, *adjoints, fresh=False):
    """Join an op's result to the tape: ``adjoints[i](g)`` is the gradient
    for ``inputs[i]`` given the gradient ``g`` of ``out``, a new array if
    ``fresh``.

    Returns ``out`` unchanged when no input is a Var. Otherwise returns a
    Var whose VJP runs only the Var inputs' adjoints, in input order.
    """
    taped = [(x, adj) for x, adj in zip(inputs, adjoints) if isinstance(x, Var)]
    if not taped:
        return out
    parents, adjs = zip(*taped)
    node = Var(out, parents, lambda g: tuple(adj(g) for adj in adjs))
    node._fresh = fresh
    return node


class RowGrad:
    """Row-sparse gradient of an (n, d) table: ``rows[k]`` adds to row ``idx[k]``.

    A gather's backward returns one instead of a dense (n, d) table;
    :func:`backward` scatters every such contribution to a node into one
    dense gradient of its own when the node is reached.
    """

    __slots__ = ("idx", "rows")

    def __init__(self, idx, rows):
        self.idx = idx
        self.rows = rows


def backward(out: Var):
    """Backpropagate d(out)/d(leaf) through the tape; seeds with ones.

    Sets ``.grad`` on every leaf (a Var with no backward closure) reachable
    from ``out``; interior gradients are released when this returns.
    ``out`` is normally a scalar loss.
    """
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(out): np.ones_like(out.value)}
    row_grads = {}
    # Ids whose pending dense gradient is fresh (allocated here or by a fresh
    # VJP), so it may be summed into: a VJP may also hand back its own ``g``
    # (add, reshape) or an array it holds, which is referenced elsewhere.
    owned = set()
    # Interior gradients stay referenced until the pass ends. Releasing each
    # once its closure had run lowered peak memory, but the allocator then
    # returned and re-faulted pages within every step: 2.9k extra page
    # faults and 10% more time per training step on a 1k-node graph.
    interior = []
    for node in reversed(order):
        g = grads.pop(id(node), None)
        parts = row_grads.pop(id(node), None)
        if parts:
            dtype = np.result_type(*(p.rows for p in parts))
            if g is None or id(node) not in owned or g.dtype != np.result_type(g, dtype):
                dense = np.zeros((node.value.shape[0], parts[0].rows.shape[1]), dtype)
                g = dense if g is None else _accumulate(dense, g, True)
            for p in parts:
                backend.scatter_add_rows(p.idx, p.rows, g.shape[0], g)
        if node._vjp is None:
            node.grad = g
            continue
        if g is None:
            continue
        interior.append(g)
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if isinstance(pg, RowGrad):
                row_grads.setdefault(id(p), []).append(pg)
                continue
            acc = grads.get(id(p))
            if acc is not None:
                # into the newer buffer if fresh: the older one is freed and the
                # step's last allocation stays live (else 2.5k page faults a step)
                pg = (_accumulate(pg, acc, True) if node._fresh
                      else _accumulate(acc, pg, id(p) in owned))
            grads[id(p)] = pg
            if node._fresh or acc is not None:
                owned.add(id(p))


def _accumulate(acc, pg, in_place):
    """acc + pg, written into acc when allowed and the sum keeps acc's dtype."""
    if in_place and acc.dtype == np.result_type(acc, pg):
        acc += pg
        return acc
    return acc + pg


def _unbroadcast(g, shape):
    """Sum gradient g down to the given (possibly broadcast) operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] > 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------

def add(a, b):
    av, bv = val(a), val(b)
    out = np.add(av, bv)
    return _record(out, (a, b), lambda g: _unbroadcast(g, np.shape(av)),
                   lambda g: _unbroadcast(g, np.shape(bv)))


def add_n(items, scale=None, out=None):
    """Sum of ``items`` times ``scale``, bit-identical to chained :func:`add`
    then :func:`mul`, in one new array: the first sum allocates, the later
    sums and the scale run in place. One tape node; every input gets ``g``
    (or ``g * scale``, computed once). One input and no scale comes back
    as it is. An untaped sum of two or more items may name an ``out``
    array, one of the items included, instead of allocating."""
    items = list(items)
    if len(items) == 1 and scale is None:
        return items[0]
    vals = [val(x) for x in items]
    out = np.add(vals[0], vals[1], out=out) if len(vals) > 1 else np.array(vals[0])
    for v in vals[2:]:
        out = _accumulate(out, v, True)
    if scale is not None:
        out *= scale
    scaled = []

    def adjoint(g, shape):
        if not scaled:
            scaled.append(g if scale is None else g * scale)
        return _unbroadcast(scaled[0], shape)

    return _record(out, items, *(lambda g, s=np.shape(v): adjoint(g, s) for v in vals))


def mul(a, b):
    av, bv = val(a), val(b)
    out = np.multiply(av, bv)
    return _record(out, (a, b), lambda g: _unbroadcast(g * bv, np.shape(av)),
                   lambda g: _unbroadcast(g * av, np.shape(bv)))


def matmul(a, b):
    av, bv = val(a), val(b)
    out = np.matmul(av, bv)
    return _record(out, (a, b), lambda g: np.outer(g, bv) if bv.ndim == 1 else g @ bv.T,
                   lambda g: np.outer(av, g) if av.ndim == 1 else av.T @ g, fresh=True)


def split_rows_matmul(a, split, w_top, w_bottom, out=None):
    """Rows ``:split`` of ``a`` times ``w_top``ᵀ over rows ``split:`` times
    ``w_bottom``ᵀ, written into one new table, or into ``out`` (not ``a``)
    if given. The product covers every row, so the ``a``-adjoint is dense,
    summed with ``a``'s other dense gradients."""
    av, wt, wb = val(a), val(w_top), val(w_bottom)

    def stacked(x, top, bottom, out=None):
        if out is None:
            out = np.empty((x.shape[0], top.shape[1]), np.result_type(x, top, bottom))
        np.matmul(x[:split], top, out=out[:split])
        np.matmul(x[split:], bottom, out=out[split:])
        return out

    return _record(stacked(av, wt.T, wb.T, out), (a, w_top, w_bottom),
                   lambda g: stacked(g, wt, wb),
                   lambda g: (av[:split].T @ g[:split]).T,
                   lambda g: (av[split:].T @ g[split:]).T, fresh=True)


def transpose(a):
    out = np.transpose(val(a))
    return _record(out, (a,), lambda g: g.T)


def asum(a):
    """Sum over all entries."""
    av = val(a)
    out = np.sum(av)
    return _record(out, (a,), lambda g: np.broadcast_to(g, av.shape).copy())


def sumsq(a):
    """Sum of squared entries (L2 regularization term)."""
    av = val(a)
    out = np.sum(av * av)
    return _record(out, (a,), lambda g: g * 2.0 * av)


def rowdot(a, b):
    """Paired row dot products of two equal-shape matrices -> vector."""
    av, bv = val(a), val(b)
    out = np.einsum("ij,ij->i", av, bv)
    return _record(out, (a, b), lambda g: g[:, None] * bv, lambda g: g[:, None] * av)


# ---------------------------------------------------------------------------
# indexing / shaping
# ---------------------------------------------------------------------------

def gather(a, idx):
    """Rows (2-D) or entries (1-D) of a at integer indices; repeats allowed."""
    idx = np.asarray(idx)
    av = val(a)
    out = av[idx]

    def adjoint(g):
        if av.ndim == 1:
            return backend.segment_sum(idx, np.ascontiguousarray(g), av.shape[0])
        return RowGrad(idx.reshape(-1), g.reshape(-1, av.shape[1]))

    return _record(out, (a,), adjoint, fresh=True)


def reshape(a, shape):
    av = val(a)
    out = np.reshape(av, shape)
    return _record(out, (a,), lambda g: g.reshape(av.shape))


def concat(items, axis):
    vals = [np.asarray(val(x)) for x in items]
    out = np.concatenate(vals, axis=axis)
    splits = np.cumsum([v.shape[axis] for v in vals])[:-1]
    return _record(out, items, *(lambda g, i=i: np.split(g, splits, axis=axis)[i]
                                 for i in range(len(items))))


def stack_scalars(items):
    """Stack 0-d values into a 1-D vector of their common dtype."""
    out = np.stack([np.asarray(val(x)).reshape(()) for x in items])
    return _record(out, items, *(lambda g, i=i: np.asarray(g[i])
                                 for i in range(len(items))))


def fill(scalar, shape):
    """Broadcast a 0-d value to a constant-filled array of the given shape
    and the value's dtype."""
    out = np.full(shape, val(scalar))
    return _record(out, (scalar,), lambda g: np.asarray(g.sum()))


# ---------------------------------------------------------------------------
# nonlinear
# ---------------------------------------------------------------------------

def softmax(a):
    """Softmax of a 1-D vector."""
    av = val(a)
    m = np.max(av)
    e = np.exp(av - m)
    y = e / e.sum()
    return _record(y, (a,), lambda g: y * (g - np.dot(g, y)))


def softplus(a):
    av = val(a)
    out = np.logaddexp(0.0, av)
    # exp(-av) overflows to inf below about -88 (float32) or -709 (float64),
    # and g / inf is 0, the exact limit
    adjoint = np.errstate(over="ignore")(lambda g: g / (1.0 + np.exp(-av)))
    return _record(out, (a,), adjoint)


def leaky_relu(a, slope):
    av = val(a)
    out = np.where(av > 0, av, slope * av)
    return _record(out, (a,), lambda g: np.where(av > 0, g, g * slope))


def rsqrt_safe(a):
    """1/sqrt(x) where x > 0, exactly 0 elsewhere (zero-degree guard)."""
    av = val(a)
    pos = av > 0
    out = np.zeros_like(av)
    out[pos] = 1.0 / np.sqrt(av[pos])
    return _record(out, (a,), lambda g: g * np.where(pos, -0.5 * out**3, 0.0))


def reciprocal_safe(a):
    """1/x where x != 0, exactly 0 elsewhere (zero-row guard)."""
    av = val(a)
    nz = av != 0
    out = np.zeros_like(av)
    out[nz] = 1.0 / av[nz]
    return _record(out, (a,), lambda g: g * np.where(nz, -(out**2), 0.0))


def row_normalize(a):
    """Rows scaled to unit L2 norm; all-zero rows stay zero."""
    av = val(a)
    norms = np.sqrt(np.einsum("ij,ij->i", av, av))
    inv = np.zeros_like(norms)
    nz = norms > 0
    inv[nz] = 1.0 / norms[nz]
    y = av * inv[:, None]

    def adjoint(g):
        # d/dx (x/|x|) = (g - y (g.y)) / |x| on nonzero rows
        proj = np.einsum("ij,ij->i", g, y)
        return (g - y * proj[:, None]) * inv[:, None]

    return _record(y, (a,), adjoint)


def logsumexp_rows(a):
    """Row-wise log-sum-exp of a 2-D matrix -> vector."""
    av = val(a)
    m = np.max(av, axis=1, keepdims=True)
    e = np.exp(av - m)
    s = e.sum(axis=1, keepdims=True)
    out = (m + np.log(s)).ravel()
    return _record(out, (a,), lambda g: g[:, None] * (e / s))


def take_diag(a):
    av = val(a)
    out = np.diagonal(av).copy()

    def adjoint(g):
        full = np.zeros_like(av)
        np.fill_diagonal(full, g)
        return full

    return _record(out, (a,), adjoint)


# ---------------------------------------------------------------------------
# sparse
# ---------------------------------------------------------------------------

def spmm(struct, vals, x):
    """Sparse (CSR struct + constant per-edge vals) times dense x:
    :func:`spmm_rows` at every row. Differentiable in x only."""
    return spmm_rows(struct, vals, x, np.arange(struct.n))


def spmm_rows(struct, vals, x, rows, x_rows=None):
    """Rows ``rows`` of the sparse (CSR struct + constant per-edge vals)
    times dense x product, computed from those CSR rows only.
    Differentiable in x only.

    ``rows`` are sorted unique row indices. With ``x_rows`` (sorted unique,
    covering every column of those rows) ``x`` is compact, row k holding
    node ``x_rows[k]``, and so is the x-adjoint. Each output row sums its
    edges in CSR order, so a row is bit-identical whichever ``rows`` hold
    it. The x-adjoint is a product with the transposed slice, whose rows
    keep their entries in ascending source order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    indptr, edges = row_slice(struct, rows)
    cols = struct.cols[edges]
    if x_rows is not None:
        pos = np.full(struct.n, -1, dtype=cols.dtype)
        pos[x_rows] = np.arange(len(x_rows))
        cols = pos[cols]
        # scipy does not bounds-check column indices
        if cols.size and cols.min() < 0:
            raise ValueError("x_rows must cover every column of the rows")
    ev, xv = vals[edges], val(x)
    out = backend.spmm(indptr, cols, ev, xv)

    def x_adjoint(g):
        # scipy's O(nnz) CSR -> CSC pass gives the transposed slice
        t = sp.csr_matrix((ev, cols, indptr),
                          shape=(rows.shape[0], xv.shape[0])).tocsc()
        return backend.spmm(t.indptr, t.indices, t.data, np.ascontiguousarray(g))

    return _record(out, (x,), x_adjoint, fresh=True)
