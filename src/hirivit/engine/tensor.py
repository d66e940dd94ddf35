"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation tape is a DAG of nodes apart from the tensors' data: a taped
result's ``_node`` holds its backward closure and its parents' nodes, and a
leaf is its own node. A closure keeps what its gradient reads (arrays and
shapes, never an input ``Tensor`` other than a parameter), so an activation
lives only while a closure or the caller holds its array.
``backward(loss)`` walks that tape once, in reverse topological order, and
accumulates gradients into every ``requires_grad`` leaf. The walk consumes
the tape: each node drops its parents and closure as it is reached, so the
arrays the closures saved are freed during the walk, and a finished
``loss`` or its logits pin nothing. A second ``backward`` through a
consumed node raises ``ValueError``; run the forward again instead.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional

import numpy as np

DEFAULT_DTYPE = np.float64

_grad_enabled = True
_observer = None


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (teacher / eval passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def observe(observer):
    """Send the block's events to ``observer``, then restore the previous one.

    ``observer.call(module, x)`` replaces each ``Module.__call__`` and runs
    ``module.forward(x)`` itself; ``observer.on_result(out, k)`` sees each op
    result with its contraction length ``k`` (0 for an op that contracts none).
    """
    global _observer
    prev = _observer
    _observer = observer
    try:
        yield observer
    finally:
        _observer = prev


class _Node:
    """A taped result's place on the tape: its backward closure and its parents' nodes."""

    __slots__ = ("_parents", "_backward")
    requires_grad = True        # only a result that needs a gradient gets a node

    def __init__(self, parents: tuple, backward: Optional[Callable[[np.ndarray], tuple]]):
        self._parents = parents
        self._backward = backward


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_node")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=DEFAULT_DTYPE)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(DEFAULT_DTYPE)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.op = op
        self._node: Optional[_Node] = None

    # -- tape --------------------------------------------------------------

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):        # lets a tracer wrap a taped result's closure
        self._node._backward = fn

    # -- structure ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"


def records_tape(parents: tuple) -> bool:
    """Whether an op on ``parents`` goes on the tape: grads are live and a parent needs one."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _tape_node(t: Tensor):
    """The node of ``t`` on the tape: its ``_Node``, or ``t`` itself for a leaf."""
    return t if t._node is None else t._node


def make_result(data: np.ndarray, parents: Iterable[Tensor], op: str,
                backward: Optional[Callable[[np.ndarray], tuple]], k: int = 0) -> Tensor:
    """Wrap an op result, giving it a tape node only when :func:`records_tape`."""
    parents = tuple(parents)
    needs = records_tape(parents)
    out = Tensor(data, requires_grad=needs, op=op)
    if needs:
        out._node = _Node(tuple(_tape_node(p) for p in parents), backward)
    if _observer is not None:
        _observer.on_result(out, k)
    return out


def topo_order(root: Tensor) -> list:
    """Reverse-topological schedule of the tape nodes below ``root``, whose
    own node comes last.

    Iterative DFS; each node appears exactly once.
    """
    order = []
    visited = set()
    stack = [(_tape_node(root), False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _consumed(g):
    """Stands in for a backward closure that :func:`backward` has freed."""
    raise ValueError("the tape below this tensor was consumed by an earlier backward;"
                     " run the forward again")


def backward(loss: Tensor):
    """Populate gradients of every requires_grad leaf reachable from ``loss``.

    ``loss`` must be scalar (size 1). Each node is unlinked from the tape
    (parents and closure dropped) before its closure runs, and the closure
    and its gradient are dropped once they have been used.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to backpropagate")

    order = topo_order(loss)
    if any(node._backward is _consumed for node in order):
        _consumed(None)
    grads: dict[int, np.ndarray] = {id(order[-1]): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        parents, fn = node._parents, node._backward
        if parents:
            node._parents, node._backward = (), _consumed
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not parents:
            node.accumulate_grad(g)
        if fn is None:
            continue
        parent_grads = fn(g)
        fn = g = None
        for p, pg in zip(parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            elif p._parents or p._backward is not None:
                grads[id(p)] = pg
            else:
                p.accumulate_grad(pg)
        parent_grads = pg = None
