"""Reverse-mode automatic differentiation over a flat scalar-loss tape.

A :class:`Tape` records primitive operations in execution order; because
nodes are appended as they run, the record is already topologically
sorted and a single reverse sweep visits each node exactly once.

Registered primitives and their gradient conventions:

=============  ====================================================
add/sub/mul/div  elementwise with numpy broadcasting; gradients are
                 summed over broadcast axes
exp, log, tanh   elementwise, smooth
relu             subgradient 0 at the kink (grad = 1 only where x > 0)
matmul           2-D matrix product
vsum             sum-reduce, full or along one axis
vmax             max-reduce; ties send the gradient to the first
                 maximal index (numpy argmax order)
reshape          shape change, gradient reshaped back
take_slice       contiguous 1-D slice, gradient scattered back
take_column      single matrix column, gradient scattered back
=============  ====================================================

Each primitive takes a tape variable and records one node; only the
binary operators accept a plain ndarray or scalar, as a constant operand.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over axes that numpy broadcasting introduced."""
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Var:
    """Handle to one tape node; supports arithmetic operators."""

    __slots__ = ("tape", "index", "value")

    # make ndarray <op> Var defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self):
        return np.shape(self.value)

    def __add__(self, other):
        return _binary(self, other, np.add, _vjp_add)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract, _vjp_sub)

    def __rsub__(self, other):
        return _binary(other, self, np.subtract, _vjp_sub)

    def __mul__(self, other):
        return _binary(self, other, np.multiply, _vjp_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, np.divide, _vjp_div)

    def __rtruediv__(self, other):
        return _binary(other, self, np.divide, _vjp_div)

    def __matmul__(self, other):
        return _binary(self, other, np.matmul, _vjp_matmul)

    def __rmatmul__(self, other):
        return _binary(other, self, np.matmul, _vjp_matmul)

    def __neg__(self):
        return _unary(self, np.negative, lambda a, out: lambda g: (-g,))


class Tape:
    """Append-only record of primitive operations ending in a scalar."""

    def __init__(self):
        # node i -> (parent indices, vjp(g) -> parent gradients)
        self._nodes: list[tuple[tuple[int, ...], Callable | None]] = []

    def input(self, value) -> Var:
        value = np.asarray(value, dtype=np.float64)
        return self._append(value, (), None)

    def _append(self, value, parents, vjp) -> Var:
        self._nodes.append((parents, vjp))
        return Var(self, len(self._nodes) - 1, value)

    def gradient(self, output: Var, wrt: Var) -> np.ndarray:
        """Adjoint of ``wrt`` for a scalar ``output``; fresh buffers per call."""
        if np.size(output.value) != 1:
            raise ValueError(
                f"backward pass needs a scalar output, got shape {output.shape}"
            )
        adjoint: list = [None] * (output.index + 1)
        adjoint[output.index] = np.ones_like(np.asarray(output.value, dtype=np.float64))
        for i in range(output.index, -1, -1):
            g = adjoint[i]
            if g is None:
                continue
            parents, vjp = self._nodes[i]
            if vjp is None:
                continue
            for pid, pg in zip(parents, vjp(g)):
                if adjoint[pid] is None:
                    adjoint[pid] = pg
                else:
                    adjoint[pid] = adjoint[pid] + pg
        g = adjoint[wrt.index] if wrt.index <= output.index else None
        if g is None:
            return np.zeros_like(np.asarray(wrt.value, dtype=np.float64))
        return np.asarray(g, dtype=np.float64).reshape(np.shape(wrt.value))


# ---------------------------------------------------------------------------
# primitive construction helpers

def _const(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _binary(a, b, op, make_vjp):
    if isinstance(a, Var):
        tape = a.tape
    elif isinstance(b, Var):
        tape = b.tape
    else:
        raise TypeError("binary op needs at least one tape variable")
    av = a.value if isinstance(a, Var) else _const(a)
    bv = b.value if isinstance(b, Var) else _const(b)
    out = op(av, bv)
    full = make_vjp(av, bv, out)
    parents, parts = [], []
    if isinstance(a, Var):
        parents.append(a.index)
        parts.append(0)
    if isinstance(b, Var):
        parents.append(b.index)
        parts.append(1)

    def vjp(g):
        grads = full(g)
        return tuple(grads[k] for k in parts)

    return tape._append(out, tuple(parents), vjp)


def _unary(a: Var, op, make_vjp):
    out = op(a.value)
    vjp_full = make_vjp(a.value, out)
    return a.tape._append(out, (a.index,), vjp_full)


def _vjp_add(av, bv, out):
    return lambda g: (_unbroadcast(g, np.shape(av)), _unbroadcast(g, np.shape(bv)))


def _vjp_sub(av, bv, out):
    return lambda g: (_unbroadcast(g, np.shape(av)), _unbroadcast(-g, np.shape(bv)))


def _vjp_mul(av, bv, out):
    return lambda g: (
        _unbroadcast(g * bv, np.shape(av)),
        _unbroadcast(g * av, np.shape(bv)),
    )


def _vjp_div(av, bv, out):
    return lambda g: (
        _unbroadcast(g / bv, np.shape(av)),
        _unbroadcast(-g * av / (bv * bv), np.shape(bv)),
    )


def _vjp_matmul(av, bv, out):
    return lambda g: (np.matmul(g, bv.T), np.matmul(av.T, g))


# ---------------------------------------------------------------------------
# unary primitives: each records one node on its input's tape

def exp(x: Var) -> Var:
    return _unary(x, np.exp, lambda a, out: lambda g: (g * out,))


def log(x: Var) -> Var:
    return _unary(x, np.log, lambda a, out: lambda g: (g / a,))


def tanh(x: Var) -> Var:
    return _unary(x, np.tanh, lambda a, out: lambda g: (g * (1.0 - out * out),))


def relu(x: Var) -> Var:
    return _unary(
        x,
        lambda a: np.maximum(a, 0.0),
        lambda a, out: lambda g: (g * (a > 0.0),),
    )


def vsum(x: Var, axis: int | None = None) -> Var:
    out = np.sum(x.value, axis=axis)
    shape = np.shape(x.value)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(np.float64, copy=True),)
        ge = np.expand_dims(g, axis)
        return (np.broadcast_to(ge, shape).astype(np.float64, copy=True),)

    return x.tape._append(out, (x.index,), vjp)


def vmax(x: Var, axis: int | None = None) -> Var:
    out = np.max(x.value, axis=axis)
    shape = np.shape(x.value)
    if axis is None:
        flat_idx = int(np.argmax(x.value))

        def vjp(g):
            z = np.zeros(shape, dtype=np.float64)
            z.flat[flat_idx] = g
            return (z,)

    else:
        idx = np.argmax(x.value, axis=axis)

        def vjp(g):
            z = np.zeros(shape, dtype=np.float64)
            np.put_along_axis(
                z, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis
            )
            return (z,)

    return x.tape._append(out, (x.index,), vjp)


def reshape(x: Var, shape) -> Var:
    old = np.shape(x.value)
    out = np.reshape(x.value, shape)
    return x.tape._append(out, (x.index,), lambda g: (np.reshape(g, old),))


def take_slice(x: Var, start: int, stop: int) -> Var:
    """Contiguous slice of a 1-D vector."""
    if np.ndim(x.value) != 1:
        raise ValueError("take_slice expects a 1-D vector")
    out = x.value[start:stop]
    n = x.value.shape[0]

    def vjp(g):
        z = np.zeros(n, dtype=np.float64)
        z[start:stop] = g
        return (z,)

    return x.tape._append(out, (x.index,), vjp)


def take_column(x: Var, col: int) -> Var:
    """Single column of a 2-D matrix, as a vector."""
    if np.ndim(x.value) != 2:
        raise ValueError("take_column expects a 2-D matrix")
    out = x.value[:, col]
    shape = np.shape(x.value)

    def vjp(g):
        z = np.zeros(shape, dtype=np.float64)
        z[:, col] = g
        return (z,)

    return x.tape._append(out, (x.index,), vjp)


def value_and_grad(f, theta) -> tuple[float, np.ndarray]:
    """Evaluate a scalar function of a flat parameter vector and its gradient.

    ``f`` must be composed of the registered primitives. The gradient is
    exact up to floating point; finite differences are the usual oracle.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter vector contains non-finite entries")
    tape = Tape()
    x = tape.input(theta)
    out = f(x)
    if not isinstance(out, Var):
        raise TypeError("function did not return a tape variable")
    value = float(np.asarray(out.value).reshape(()))
    grad = tape.gradient(out, x)
    return value, grad
