"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for a small attention decoder run over a batch of
classes and a hinge-based metric loss: elementwise arithmetic with
broadcasting, matmul over stacks of matrices, ``linear`` (``x @ w + b`` as
one node), axis permutations, the attention head split and merge (a
reshape and an axis permutation as one node each), softmax, layer norm,
row gathers, concatenation along any axis, and sums.
Graphs are plain DAGs of ``Tensor`` nodes; ``backward()`` walks them in
iterative topological order (chains get thousands of nodes deep) and
consumes them: an interior node drops its gradient, backward closure and
parents as soon as its backward has run, so activations are freed during
the walk and only the leaves keep gradients.

Every node is built through ``Tensor.__init__``, so counting its calls
counts the nodes of a graph.  Constants (requires_grad=False leaves, or any
node whose ancestors are all constants) carry no parents and no backward
closure: an op on constants costs its numpy arithmetic plus one
``Tensor.__init__`` that stores the result (a float64 ndarray is kept as
given, without a conversion call, and a node without parents skips the
scan of their flags).  The reductions inside ``layer_norm`` and
``softmax_rows`` call the ufunc reductions that ``ndarray.mean``/``sum``/
``max`` call, without those methods' Python wrappers, so their results are
the same bits.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_F64 = np.dtype(np.float64)


class Tensor:
    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad", "__weakref__")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        requires_grad: bool = False,
    ):
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        self.parents = parents
        self._backward = backward
        if parents and not requires_grad:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Accumulate this scalar's gradient into every leaf's ``grad``,
        consuming the graph as the module docstring says; a backward that
        reaches a consumed node raises ``RuntimeError``."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node.parents is None:
                raise RuntimeError("backward() through a graph an earlier backward() consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = node.parents = None

    # operator sugar; scalars and ndarrays are treated as constants
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    @property
    def T(self):
        return transpose(self)


def _wrap(x) -> Tensor:
    return x if type(x) is Tensor else Tensor(x)


def const(x) -> Tensor:
    return Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _binary(a: Tensor, b: Tensor, out: np.ndarray, da, db) -> Tensor:
    if not (a.requires_grad or b.requires_grad):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(da(g), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(db(g), b.data.shape))

    return Tensor(out, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def _matmul_backward(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    if a.requires_grad:
        a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
    if b.requires_grad:
        if b.data.ndim == 2:
            rows = a.data.reshape(-1, a.data.shape[-1])
            b._accumulate(rows.T @ g.reshape(-1, g.shape[-1]))
        else:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))


def matmul(a, b) -> Tensor:
    """Product over the last two axes of operands of at least two axes;
    leading axes broadcast as in ``np.matmul``.

    The gradient of a 2-D operand against a stack is summed over the stack
    by one product of the flattened rows.
    """
    a, b = _wrap(a), _wrap(b)
    out = a.data @ b.data
    if not (a.requires_grad or b.requires_grad):
        return Tensor(out)
    return Tensor(out, (a, b), lambda g: _matmul_backward(a, b, g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: the product, then ``b`` added in place,
    so ``b`` must broadcast to the product's shape.  The same bits as
    ``add(matmul(x, w), b)``, and each operand gets its gradient at the
    point in the backward walk where the pair gave it."""
    out = x.data @ w.data
    out += b.data
    if not (x.requires_grad or w.requires_grad or b.requires_grad):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))
        _matmul_backward(x, w, g)

    return Tensor(out, (x, w, b), backward)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes as ``np.transpose`` does; reverses them when ``axes`` is None."""
    out = a.data.transpose(axes)
    if not a.requires_grad:
        return Tensor(out)
    inverse = None if axes is None else np.argsort(axes)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.transpose(inverse))

    return Tensor(out, (a,), backward)


def split_heads(a: Tensor, n_heads: int, axes: Sequence[int]) -> Tensor:
    """(B, t, D) to (B, t, H, D/H) by reshape, then permuted by ``axes``:
    one node for the pair, the same view of ``a``'s data."""
    B, t, d = a.data.shape
    out = a.data.reshape(B, t, n_heads, d // n_heads).transpose(axes)
    if not a.requires_grad:
        return Tensor(out)
    inverse = np.argsort(axes)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.transpose(inverse).reshape(a.data.shape))

    return Tensor(out, (a,), backward)


def merge_heads(a: Tensor) -> Tensor:
    """(B, H, t, dh) to (B, t, H * dh): heads moved next to their features,
    then joined; one node for the transpose and reshape."""
    B, H, t, dh = a.data.shape
    out = a.data.transpose(0, 2, 1, 3).reshape(B, t, H * dh)
    if not a.requires_grad:
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.reshape(B, t, H, dh).transpose(0, 2, 1, 3))

    return Tensor(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    if not a.requires_grad:
        return Tensor(out)
    mask = a.data > 0.0

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    return Tensor(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    if not a.requires_grad:
        return Tensor(out)
    # zero-subgradient at 0 so exactly-coincident points do not blow up
    inv = np.where(out > 0.0, 0.5 / np.where(out > 0.0, out, 1.0), 0.0)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * inv)

    return Tensor(out, (a,), backward)


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    if not a.requires_grad:
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor(out, (a,), backward)


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)``: the same ufunc reduction."""
    return np.add.reduce(x, axis=-1, keepdims=True)


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``: the same sum and division."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis; entries at -inf (an additive key mask)
    get weight exactly 0 and no gradient."""
    z = a.data - np.maximum.reduce(a.data, axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / _sum_last(e)
    if not a.requires_grad:
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        dot = _sum_last(g * out)
        a._accumulate(out * (g - dot))

    return Tensor(out, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row over the last axis, then scale and shift."""
    xc = a.data - _mean_last(a.data)
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    if not (a.requires_grad or gain.requires_grad or bias.requires_grad):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            dxhat = g * gain.data
            m1 = _mean_last(dxhat)
            m2 = _mean_last(dxhat * xhat)
            a._accumulate(inv * (dxhat - m1 - xhat * m2))

    return Tensor(out, (a, gain, bias), backward)


def take_rows(a: Tensor, idx) -> Tensor:
    """Rows of ``a`` picked by an integer index array of any shape."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]
    if not a.requires_grad:
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        a._accumulate(ga)

    return Tensor(out, (a,), backward)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    # a tuple of its own: the caller's list may grow, and holding it from
    # the backward closure would tie later nodes into a reference cycle
    parts = tuple(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    if not any(p.requires_grad for p in parts):
        return Tensor(out)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                p._accumulate(g[tuple(sl)])

    return Tensor(out, parts, backward)
