from .tensor import Tensor, backward, grad_enabled, no_grad, topo_order
from . import ops
from .gradcheck import GradCheckReport, grad_check
from .reference import (CountingBackend, MacCounter, loop_conv2d, loop_conv2d_grads,
                        loop_linear, loop_matmul)

__all__ = [
    "Tensor", "backward", "no_grad", "grad_enabled", "topo_order", "ops",
    "grad_check", "GradCheckReport",
    "CountingBackend", "MacCounter", "loop_conv2d", "loop_conv2d_grads", "loop_linear",
    "loop_matmul",
]
