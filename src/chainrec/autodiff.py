"""Minimal reverse-mode tape over numpy arrays.

Every op in this module accepts plain ndarrays or :class:`Var` nodes and
returns the matching kind: pure-ndarray calls evaluate eagerly with no
recording, Var calls build a graph node holding a vector-Jacobian closure.
The forward math is therefore written once and reused verbatim for
inference (ndarray path) and training (Var path).

Gradients are exact; the test suite verifies every op and the full training
objective against central finite differences.
"""

import numpy as np
import scipy.sparse as sp

from . import backend
from .sparse import row_slice


class Var:
    """A tape node: an ndarray value plus the closure that backpropagates it."""

    __slots__ = ("value", "_parents", "_vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value)
        self._parents = parents
        self._vjp = vjp
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


def val(x):
    """Underlying ndarray of a Var, or the input unchanged."""
    return x.value if isinstance(x, Var) else x


def _is_var(*xs):
    return any(isinstance(x, Var) for x in xs)


class RowGrad:
    """Row-sparse gradient of an (n, d) table: ``rows[k]`` adds to row ``idx[k]``.

    A gather's backward returns one instead of a dense (n, d) table;
    :func:`backward` joins every such contribution to a node and densifies
    them with one scatter when the node is reached.
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
            if isinstance(p, Var) and id(p) not in seen:
                stack.append((p, False))

    grads = {id(out): np.ones_like(out.value)}
    row_grads = {}
    # Ids whose pending dense gradient this function allocated. Only those
    # are accumulated in place: a VJP may hand back its own ``g`` (add,
    # reshape), which is then another node's pending gradient as well.
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
            if len(parts) == 1:
                idx, rows = parts[0].idx, parts[0].rows
            else:
                idx = np.concatenate([p.idx for p in parts])
                rows = np.concatenate([p.rows for p in parts])
            dense = backend.scatter_add_rows(idx, rows, node.value.shape[0])
            g = dense if g is None else _accumulate(dense, g, True)
        if node._vjp is None:
            node.grad = g
            continue
        if g is None:
            continue
        interior.append(g)
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if not isinstance(p, Var) or pg is None:
                continue
            if isinstance(pg, RowGrad):
                row_grads.setdefault(id(p), []).append(pg)
                continue
            acc = grads.get(id(p))
            if acc is None:
                grads[id(p)] = pg
            else:
                grads[id(p)] = _accumulate(acc, pg, id(p) in owned)
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
    if not _is_var(a, b):
        return np.add(a, b)
    av, bv = val(a), val(b)
    out = av + bv
    parents = tuple(x for x in (a, b) if isinstance(x, Var))

    def vjp(g):
        grads = []
        if isinstance(a, Var):
            grads.append(_unbroadcast(g, np.shape(av)))
        if isinstance(b, Var):
            grads.append(_unbroadcast(g, np.shape(bv)))
        return tuple(grads)

    return Var(out, parents, vjp)


def mul(a, b):
    if not _is_var(a, b):
        return np.multiply(a, b)
    av, bv = val(a), val(b)
    out = av * bv
    parents = tuple(x for x in (a, b) if isinstance(x, Var))

    def vjp(g):
        grads = []
        if isinstance(a, Var):
            grads.append(_unbroadcast(g * bv, np.shape(av)))
        if isinstance(b, Var):
            grads.append(_unbroadcast(g * av, np.shape(bv)))
        return tuple(grads)

    return Var(out, parents, vjp)


def matmul(a, b):
    if not _is_var(a, b):
        return np.matmul(a, b)
    av, bv = val(a), val(b)
    out = av @ bv
    parents = tuple(x for x in (a, b) if isinstance(x, Var))

    def vjp(g):
        grads = []
        if isinstance(a, Var):
            if av.ndim == 2 and bv.ndim == 2:
                grads.append(g @ bv.T)
            elif av.ndim == 2 and bv.ndim == 1:
                grads.append(np.outer(g, bv))
            else:  # 1-D @ 2-D
                grads.append(bv @ g)
        if isinstance(b, Var):
            if av.ndim == 2 and bv.ndim == 2:
                grads.append(av.T @ g)
            elif av.ndim == 2 and bv.ndim == 1:
                grads.append(av.T @ g)
            else:
                grads.append(np.outer(av, g))
        return tuple(grads)

    return Var(out, parents, vjp)


def transpose(a):
    if not _is_var(a):
        return np.transpose(a)
    return Var(val(a).T, (a,), lambda g: (g.T,))


def asum(a, axis=None):
    """Sum over all entries or along one axis."""
    if not _is_var(a):
        return np.sum(a, axis=axis)
    av = val(a)
    out = np.sum(av, axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, av.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), av.shape).copy(),)

    return Var(out, (a,), vjp)


def amean(a):
    n = val(a).size
    return mul(asum(a), 1.0 / n)


def sumsq(a):
    """Sum of squared entries (L2 regularization term)."""
    if not _is_var(a):
        return float(np.sum(np.square(a)))
    av = val(a)
    return Var(np.sum(av * av), (a,), lambda g: (g * 2.0 * av,))


def rowdot(a, b):
    """Paired row dot products of two equal-shape matrices -> vector."""
    if not _is_var(a, b):
        return np.einsum("ij,ij->i", a, b)
    av, bv = val(a), val(b)
    out = np.einsum("ij,ij->i", av, bv)
    parents = tuple(x for x in (a, b) if isinstance(x, Var))

    def vjp(g):
        grads = []
        if isinstance(a, Var):
            grads.append(g[:, None] * bv)
        if isinstance(b, Var):
            grads.append(g[:, None] * av)
        return tuple(grads)

    return Var(out, parents, vjp)


# ---------------------------------------------------------------------------
# indexing / shaping
# ---------------------------------------------------------------------------

def gather(a, idx):
    """Rows (2-D) or entries (1-D) of a at integer indices; repeats allowed."""
    idx = np.asarray(idx)
    if not _is_var(a):
        return a[idx]
    av = val(a)
    out = av[idx]
    n = av.shape[0]

    def vjp(g):
        if av.ndim == 1:
            return (backend.segment_sum(idx, np.ascontiguousarray(g), n),)
        return (RowGrad(idx.reshape(-1), g.reshape(-1, av.shape[1])),)

    return Var(out, (a,), vjp)


def segsum(vals, idx, n):
    """out[idx[k]] += vals[k] into a length-n vector (weighted node degrees)."""
    idx = np.asarray(idx)
    if not _is_var(vals):
        return backend.segment_sum(idx, vals, n)
    out = backend.segment_sum(idx, val(vals), n)
    return Var(out, (vals,), lambda g: (g[idx],))


def reshape(a, shape):
    if not _is_var(a):
        return np.reshape(a, shape)
    av = val(a)
    return Var(av.reshape(shape), (a,), lambda g: (g.reshape(av.shape),))


def concat(items, axis):
    if not _is_var(*items):
        return np.concatenate([np.asarray(x) for x in items], axis=axis)
    vals = [val(x) for x in items]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    splits = np.cumsum(sizes)[:-1]
    parents = tuple(x for x in items if isinstance(x, Var))

    def vjp(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p for x, p in zip(items, pieces) if isinstance(x, Var))

    return Var(out, parents, vjp)


def stack_scalars(items):
    """Stack 0-d values into a 1-D vector of their common dtype."""
    if not _is_var(*items):
        return np.stack([np.asarray(x).reshape(()) for x in items])
    out = np.stack([np.asarray(val(x)).reshape(()) for x in items])
    parents = tuple(x for x in items if isinstance(x, Var))

    def vjp(g):
        return tuple(np.asarray(g[i]) for i, x in enumerate(items) if isinstance(x, Var))

    return Var(out, parents, vjp)


def fill(scalar, shape):
    """Broadcast a 0-d value to a constant-filled array of the given shape
    and the value's dtype."""
    if not _is_var(scalar):
        return np.full(shape, scalar)
    out = np.full(shape, val(scalar))
    return Var(out, (scalar,), lambda g: (np.asarray(g.sum()),))


# ---------------------------------------------------------------------------
# nonlinear
# ---------------------------------------------------------------------------

def softmax(a):
    """Softmax of a 1-D vector."""
    av = val(a)
    m = np.max(av)
    e = np.exp(av - m)
    y = e / e.sum()
    if not _is_var(a):
        return y

    def vjp(g):
        return (y * (g - np.dot(g, y)),)

    return Var(y, (a,), vjp)


def softplus(a):
    av = val(a)
    out = np.logaddexp(0.0, av)
    if not _is_var(a):
        return out

    def vjp(g):
        return (g / (1.0 + np.exp(-av)),)

    return Var(out, (a,), vjp)


def leaky_relu(a, slope):
    av = val(a)
    out = np.where(av > 0, av, slope * av)
    if not _is_var(a):
        return out

    def vjp(g):
        return (np.where(av > 0, g, g * slope),)

    return Var(out, (a,), vjp)


def rsqrt_safe(a):
    """1/sqrt(x) where x > 0, exactly 0 elsewhere (zero-degree guard)."""
    av = val(a)
    pos = av > 0
    out = np.zeros_like(av)
    out[pos] = 1.0 / np.sqrt(av[pos])
    if not _is_var(a):
        return out

    def vjp(g):
        return (g * np.where(pos, -0.5 * out**3, 0.0),)

    return Var(out, (a,), vjp)


def reciprocal_safe(a):
    """1/x where x != 0, exactly 0 elsewhere (zero-row guard)."""
    av = val(a)
    nz = av != 0
    out = np.zeros_like(av)
    out[nz] = 1.0 / av[nz]
    if not _is_var(a):
        return out

    def vjp(g):
        return (g * np.where(nz, -(out**2), 0.0),)

    return Var(out, (a,), vjp)


def row_normalize(a):
    """Rows scaled to unit L2 norm; all-zero rows stay zero."""
    av = val(a)
    norms = np.sqrt(np.einsum("ij,ij->i", av, av))
    inv = np.zeros_like(norms)
    nz = norms > 0
    inv[nz] = 1.0 / norms[nz]
    y = av * inv[:, None]
    if not _is_var(a):
        return y

    def vjp(g):
        # d/dx (x/|x|) = (g - y (g.y)) / |x| on nonzero rows
        proj = np.einsum("ij,ij->i", g, y)
        return ((g - y * proj[:, None]) * inv[:, None],)

    return Var(y, (a,), vjp)


def logsumexp_rows(a):
    """Row-wise log-sum-exp of a 2-D matrix -> vector."""
    av = val(a)
    m = np.max(av, axis=1, keepdims=True)
    e = np.exp(av - m)
    s = e.sum(axis=1, keepdims=True)
    out = (m + np.log(s)).ravel()
    if not _is_var(a):
        return out

    def vjp(g):
        return (g[:, None] * (e / s),)

    return Var(out, (a,), vjp)


def take_diag(a):
    av = val(a)
    out = np.diagonal(av).copy()
    if not _is_var(a):
        return out

    def vjp(g):
        full = np.zeros_like(av)
        np.fill_diagonal(full, g)
        return (full,)

    return Var(out, (a,), vjp)


# ---------------------------------------------------------------------------
# sparse
# ---------------------------------------------------------------------------

def spmm(struct, vals, x):
    """Sparse (CSR struct + per-edge vals) times dense x.

    ``struct`` carries constant arrays (indptr, cols, rows, rev) where
    ``rev`` maps each edge to its reverse edge, so the adjoint w.r.t. x is
    a second spmm with permuted values. Differentiable in vals and x.
    """
    if not _is_var(vals, x):
        return backend.spmm(struct.indptr, struct.cols, vals, x)
    vv, xv = val(vals), val(x)
    out = backend.spmm(struct.indptr, struct.cols, vv, xv)
    parents = tuple(p for p in (vals, x) if isinstance(p, Var))

    def vjp(g):
        g = np.ascontiguousarray(g)
        grads = []
        if isinstance(vals, Var):
            grads.append(backend.spmm_grad_vals(struct.rows, struct.cols, g, xv))
        if isinstance(x, Var):
            grads.append(backend.spmm(struct.indptr, struct.cols, vv[struct.rev], g))
        return tuple(grads)

    return Var(out, parents, vjp)


def spmm_rows(struct, vals, x, rows, x_rows=None):
    """``spmm(struct, vals, x)[rows]`` computed from those CSR rows only.

    ``rows`` are sorted unique row indices. With ``x_rows`` (sorted unique,
    covering every column of those rows) ``x`` is compact, row k holding
    node ``x_rows[k]``, and so is the x-adjoint. Each output row sums its
    edges in the order the full product does, so it is bit-identical to
    that row. The x-adjoint is a product with the transposed slice, whose
    rows keep their entries in ascending source order as the full adjoint
    sums them; the vals-gradient is zero off the slice's edges.
    """
    rows = np.asarray(rows, dtype=np.int64)
    indptr, edges = row_slice(struct, rows)
    cols = struct.cols[edges]
    if x_rows is not None:
        pos = np.full(struct.n, -1, dtype=np.int64)
        pos[x_rows] = np.arange(len(x_rows))
        cols = pos[cols]
        # scipy does not bounds-check column indices
        if cols.size and cols.min() < 0:
            raise ValueError("x_rows must cover every column of the rows")
    vv, xv = val(vals), val(x)
    out = backend.spmm(indptr, cols, vv[edges], xv)
    if not _is_var(vals, x):
        return out
    parents = tuple(p for p in (vals, x) if isinstance(p, Var))

    def vjp(g):
        g = np.ascontiguousarray(g)
        grads = []
        if isinstance(vals, Var):
            local = np.repeat(np.arange(rows.shape[0]), np.diff(indptr))
            gv = backend.spmm_grad_vals(local, cols, g, xv)
            full = np.zeros(struct.nnz, dtype=gv.dtype)
            full[edges] = gv
            grads.append(full)
        if isinstance(x, Var):
            # scipy's O(nnz) CSR -> CSC pass gives the transposed slice
            t = sp.csr_matrix((vv[edges], cols, indptr),
                              shape=(rows.shape[0], xv.shape[0])).tocsc()
            grads.append(backend.spmm(t.indptr, t.indices, t.data, g))
        return tuple(grads)

    return Var(out, parents, vjp)
