"""Dense float64 tensors with a reverse-mode differentiation tape.

Backward rules are themselves built from taped primitives, so a gradient
computed with ``create_graph=True`` can be differentiated again.  That is
what powers :func:`hvp` (Hessian-vector products in the latent) and
:func:`mixed_vjp` (parameter derivatives of a latent gradient), the two
second-order quantities the backward flow integration needs.

Tapes are explicit and caller-owned: ops record onto the innermost active
``recording()`` context, and differentiating requires that context to still
be open.  Each taped evaluation (a second-order sweep, or a first-order one
that has no closed-form kernel in ``models``) opens its own short-lived
tape, which bounds memory.  A tape's nodes point at their tensors but no
tensor points back at its node, so a closed tape is freed by reference
counting alone.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes; message names both."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf.  Never propagated silently."""


class GradError(RuntimeError):
    """Gradient request cannot be served (no live tape, non-scalar, ...)."""


class Tensor:
    """Immutable dense array of float64 values.

    ``data`` is always C-contiguous float64.  The autodiff engine is
    functional: :func:`grad` returns gradients instead of storing them.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded primitive: output, parents, and its backward rule.

    ``vjp(g, needs)`` maps the output cotangent to one cotangent per
    parent; entries whose ``needs`` flag is false may be returned as None
    and their computation skipped.
    """

    __slots__ = ("name", "out", "parents", "vjp")

    def __init__(self, name: str, out: Tensor, parents: tuple[Tensor, ...],
                 vjp: Callable[[Tensor, tuple], tuple]):
        self.name = name
        self.out = out
        self.parents = parents
        self.vjp = vjp


class Tape:
    """Ordered record of primitive ops, in execution (topological) order."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[Node] = []

    def __len__(self) -> int:
        return len(self.ops)


_state = threading.local()


def _tape_stack() -> list[Tape]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


@contextmanager
def recording():
    """Open a tape; ops on tensors requiring grad are recorded until exit."""
    tape = Tape()
    stack = _tape_stack()
    stack.append(tape)
    try:
        yield tape
    finally:
        stack.pop()


@contextmanager
def paused():
    """Temporarily disable recording (used for non-create_graph sweeps)."""
    stack = _tape_stack()
    saved = stack[:]
    stack.clear()
    try:
        yield
    finally:
        stack.extend(saved)


def _check_finite(arr: np.ndarray, opname: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value produced by '{opname}'")


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def constant(data) -> Tensor:
    """A tensor that never takes gradients (targets, masks, cached values)."""
    return _as_tensor(data)


def _record(name: str, out_data: np.ndarray, parents: tuple[Tensor, ...],
            vjp: Callable[[Tensor, tuple], tuple]) -> Tensor:
    _check_finite(out_data, name)
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(out_data, dtype=np.float64)
    tape = active_tape()
    track = tape is not None and any(p.requires_grad for p in parents)
    out.requires_grad = track
    if track:
        tape.ops.append(Node(name, out, parents, vjp))
    return out


def _same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# Primitives.  Every vjp is written with these same primitives so that a
# create_graph sweep yields a re-differentiable graph.
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "add")
    return _record("add", a.data + b.data, (a, b),
                   lambda g, needs: (g if needs[0] else None,
                                     g if needs[1] else None))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "sub")
    return _record("sub", a.data - b.data, (a, b),
                   lambda g, needs: (g if needs[0] else None,
                                     neg(g) if needs[1] else None))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _record("neg", -a.data, (a,),
                   lambda g, needs: (neg(g) if needs[0] else None,))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "mul")
    return _record("mul", a.data * b.data, (a, b),
                   lambda g, needs: (mul(g, b) if needs[0] else None,
                                     mul(g, a) if needs[1] else None))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "div")
    return _record("div", a.data / b.data, (a, b),
                   lambda g, needs: (
                       div(g, b) if needs[0] else None,
                       neg(div(mul(g, a), mul(b, b))) if needs[1] else None))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _record("scale", a.data * c, (a,),
                   lambda g, needs: (scale(g, c) if needs[0] else None,))


def add_scalar(a, c: float) -> Tensor:
    a = _as_tensor(a)
    return _record("add_scalar", a.data + float(c), (a,),
                   lambda g, needs: (g if needs[0] else None,))


def smul(s, t) -> Tensor:
    """Multiply tensor ``t`` by scalar tensor ``s`` (both differentiable)."""
    s, t = _as_tensor(s), _as_tensor(t)
    if s.size != 1:
        raise ShapeError(f"smul: scalar operand has shape {s.shape}")
    return _record("smul", float(s.data.reshape(-1)[0]) * t.data, (s, t),
                   lambda g, needs: (dot(g, t) if needs[0] else None,
                                     smul(s, g) if needs[1] else None))


def dot(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.size != b.size:
        raise ShapeError(f"dot: sizes {a.shape} and {b.shape} differ")
    val = np.dot(a.data.reshape(-1), b.data.reshape(-1))
    return _record("dot", np.asarray(val), (a, b),
                   lambda g, needs: (smul(g, b) if needs[0] else None,
                                     smul(g, a) if needs[1] else None))


def matmul(a, b) -> Tensor:
    """Matrix @ vector or matrix @ matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if b.data.ndim == 1:
        vjp = lambda g, needs: (
            outer(g, b) if needs[0] else None,
            tmatvec(a, g) if needs[1] else None)
    else:
        vjp = lambda g, needs: (
            matmul(g, transpose(b)) if needs[0] else None,
            matmul(transpose(a), g) if needs[1] else None)
    return _record("matmul", a.data @ b.data, (a, b), vjp)


def affine(w, x, b) -> Tensor:
    """w @ x + b for a weight matrix, input vector, and bias vector."""
    w, x, b = _as_tensor(w), _as_tensor(x), _as_tensor(b)
    if w.data.ndim != 2 or x.data.ndim != 1:
        raise ShapeError(f"affine: need matrix and vector, got {w.shape}, {x.shape}")
    if w.shape[1] != x.shape[0] or b.shape != (w.shape[0],):
        raise ShapeError(
            f"affine: incompatible shapes w={w.shape} x={x.shape} b={b.shape}")
    return _record("affine", w.data @ x.data + b.data, (w, x, b),
                   lambda g, needs: (
                       outer(g, x) if needs[0] else None,
                       tmatvec(w, g) if needs[1] else None,
                       g if needs[2] else None))


def tmatvec(a, v) -> Tensor:
    """aᵀ @ v without materializing the transpose (hot backward path)."""
    a, v = _as_tensor(a), _as_tensor(v)
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[0] != v.shape[0]:
        raise ShapeError(f"tmatvec: incompatible shapes {a.shape}ᵀ @ {v.shape}")
    return _record("tmatvec", a.data.T @ v.data, (a, v),
                   lambda g, needs: (outer(v, g) if needs[0] else None,
                                     matmul(a, g) if needs[1] else None))


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: needs a matrix, got {a.shape}")
    return _record("transpose", a.data.T, (a,),
                   lambda g, needs: (transpose(g) if needs[0] else None,))


def outer(u, v) -> Tensor:
    u, v = _as_tensor(u), _as_tensor(v)
    if u.data.ndim != 1 or v.data.ndim != 1:
        raise ShapeError(f"outer: needs vectors, got {u.shape}, {v.shape}")
    return _record("outer", np.outer(u.data, v.data), (u, v),
                   lambda g, needs: (
                       matmul(g, v) if needs[0] else None,
                       matmul(transpose(g), u) if needs[1] else None))


def tsum(a) -> Tensor:
    a = _as_tensor(a)
    val = np.asarray(a.data.sum())
    shape = a.shape

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        return (smul(g, constant(np.ones(shape))),)

    return _record("sum", val, (a,), vjp)


def tmean(a) -> Tensor:
    a = _as_tensor(a)
    return scale(tsum(a), 1.0 / a.size)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):  # overflow becomes NonFiniteError
        val = np.exp(a.data)
    out = _record("exp", val, (a,),
                  lambda g, needs: (mul(g, out) if needs[0] else None,))
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise NonFiniteError("log of non-positive value")
    return _record("log", np.log(a.data), (a,),
                   lambda g, needs: (div(g, a) if needs[0] else None,))


# The array forms of the nonlinear ops.  The closed-form kernels in
# ``models`` call these same functions, so kernel and tape agree bit for bit.

def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Two-branch logistic sigmoid; never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def elu_values(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def elu_slope(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def bce_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-element binary cross-entropy of logits x against targets y, in
    the form max(x,0) - x*y + log1p(exp(-|x|)) that never overflows."""
    return np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = _record("sigmoid", sigmoid_values(a.data), (a,), lambda g, needs: (
        mul(g, mul(out, add_scalar(neg(out), 1.0))) if needs[0] else None,))
    return out


def elu(a) -> Tensor:
    """ELU with unit scale: x for x > 0, exp(x) - 1 otherwise."""
    a = _as_tensor(a)
    return _record("elu", elu_values(a.data), (a,), lambda g, needs: (
        mul(g, _elu_prime(a)) if needs[0] else None,))


def _elu_prime(a: Tensor) -> Tensor:
    """d elu / dx.  Differentiable once more; third order is cut off."""
    x = a.data
    val = elu_slope(x)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        second = np.where(x > 0, 0.0, np.exp(np.minimum(x, 0.0)))
        return (mul(g, constant(second)),)

    return _record("elu_prime", val, (a,), vjp)


def select(mask, a, b) -> Tensor:
    """Elementwise mask ? a : b.  The mask is data, never differentiated."""
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "select")
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != a.shape:
        raise ShapeError(f"select: mask {m.shape} vs operands {a.shape}")

    def vjp(g, needs):
        ga = mul(g, constant(m)) if needs[0] else None
        gb = mul(g, constant(1.0 - m)) if needs[1] else None
        return (ga, gb)

    return _record("select", np.where(m != 0.0, a.data, b.data), (a, b), vjp)


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy over elements, computed in logit space
    (:func:`bce_values`).  ``targets`` must lie in [0, 1] and is treated as
    a constant."""
    a = _as_tensor(logits)
    y = np.asarray(targets.data if isinstance(targets, Tensor) else targets,
                   dtype=np.float64)
    if y.shape != a.shape:
        raise ShapeError(f"bce_with_logits: logits {a.shape} vs targets {y.shape}")
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("bce_with_logits: targets must lie in [0, 1]")
    val = np.asarray(bce_values(a.data, y).mean())
    n = a.size
    y_const = constant(y)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        resid = scale(sub(sigmoid(a), y_const), 1.0 / n)
        return (smul(g, resid),)

    return _record("bce_with_logits", val, (a,), vjp)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def grad(output: Tensor, wrt: Sequence[Tensor], create_graph: bool = False,
         allow_unreached: bool = True) -> list[Tensor]:
    """Reverse-mode gradients of a scalar ``output`` w.r.t. each of ``wrt``.

    Sweeps the active tape once in reverse execution order, and only
    computes cotangents along paths that connect ``wrt`` to ``output``.
    With ``create_graph`` the sweep's own ops are recorded, so the results
    can be differentiated again.  Tensors unreached by the sweep get a zero
    gradient, or raise if ``allow_unreached`` is false.
    """
    if output.data.size != 1:
        raise GradError(f"grad needs a scalar output, shape is {output.shape}")
    tape = active_tape()
    if tape is None:
        raise GradError("no live tape: call grad inside the recording() "
                        "context that built the output")

    snapshot = len(tape.ops)

    # Forward reachability pass: which tensors depend on any wrt tensor.
    marked: set[int] = {id(w) for w in wrt}
    for idx in range(snapshot):
        node = tape.ops[idx]
        if any(id(p) in marked for p in node.parents):
            marked.add(id(node.out))

    cot: dict[int, Tensor] = {id(output): constant(np.ones_like(output.data))}

    def sweep():
        for idx in range(snapshot - 1, -1, -1):
            node = tape.ops[idx]
            if id(node.out) not in marked:
                continue
            g_out = cot.get(id(node.out))
            if g_out is None:
                continue
            needs = tuple(id(p) in marked for p in node.parents)
            parent_gs = node.vjp(g_out, needs)
            for parent, pg in zip(node.parents, parent_gs):
                if pg is None:
                    continue
                prev = cot.get(id(parent))
                cot[id(parent)] = pg if prev is None else add(prev, pg)

    if create_graph:
        sweep()
    else:
        with paused():
            sweep()

    results = []
    for w in wrt:
        g = cot.get(id(w))
        if g is None:
            if not allow_unreached:
                raise GradError("a requested tensor is not on the tape")
            g = constant(np.zeros_like(w.data))
        results.append(g)
    return results


def hvp(output: Tensor, z: Tensor, vec: Tensor) -> Tensor:
    """Hessian-vector product (d²output/dz²) @ vec via double backward."""
    if vec.shape != z.shape:
        raise ShapeError(f"hvp: vec {vec.shape} vs z {z.shape}")
    if active_tape() is None:
        raise GradError("second-order unavailable: no live tape "
                        "(keep the recording() context open)")
    (gz,) = grad(output, [z], create_graph=True)
    s = dot(gz, constant(vec.data))
    (h,) = grad(s, [z])
    return h


def mixed_vjp(output: Tensor, z: Tensor, thetas: Sequence[Tensor],
              lam: Tensor) -> list[Tensor]:
    """Gradient w.r.t. each theta of <d output/dz, lam>.

    This is the lam-weighted mixed second derivative that the backward flow
    integral accumulates per time slice.
    """
    if lam.shape != z.shape:
        raise ShapeError(f"mixed_vjp: lam {lam.shape} vs z {z.shape}")
    if active_tape() is None:
        raise GradError("second-order unavailable: no live tape "
                        "(keep the recording() context open)")
    (gz,) = grad(output, [z], create_graph=True)
    s = dot(gz, constant(lam.data))
    return grad(s, list(thetas))
