from .tensor import Tensor, backward, no_grad, observe, topo_order
from . import ops
from .gradcheck import GradCheckReport, grad_check
from .reference import (CountingBackend, loop_conv2d, loop_conv2d_grads, loop_linear,
                        loop_matmul)

__all__ = [
    "Tensor", "backward", "no_grad", "observe", "topo_order", "ops",
    "grad_check", "GradCheckReport",
    "CountingBackend", "loop_conv2d", "loop_conv2d_grads", "loop_linear", "loop_matmul",
]
