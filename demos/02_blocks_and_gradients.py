"""Block zoo walkthrough: shapes, identities, and gradient validation.

Runs each building block on a tiny input, shows its shape behavior, and
closes with central-difference gradient checks against the autograd engine.
"""

import numpy as np

from hirivit.blocks import (Attention, ClassifierHead, ConvFFNBlock,
                            DownsampleA, DownsampleB, HighResBlock,
                            HighResStem, TransformerBlock)
from hirivit.engine import Tensor, grad_check, ops
from hirivit.params import init_tree

rng = np.random.default_rng(0)


def tree_of(block, seed=0):
    tree = block.param_tree()
    init_tree(tree, seed)
    return tree


print("=" * 72)
print("1. the two-branch stem quarters the input")
print("=" * 72)
stem = HighResStem(3, 32)
tree_of(stem, 1)
x = Tensor(rng.standard_normal((1, 3, 64, 64)))
print(f"stem: {x.shape} -> {stem(x).shape}")
print("high branch: depth-wise conv then strided conv (cheap, full detail)")
print("low branch: downsample first, then the wider convs (cheap, semantic)")
print()

print("=" * 72)
print("2. stage blocks preserve shape; downsamplers halve it")
print("=" * 72)
hr = HighResBlock(32, 4)
tree_of(hr, 2)
f = Tensor(rng.standard_normal((1, 32, 16, 16)))
print(f"high-resolution block: {f.shape} -> {hr(f).shape}")
dsa = DownsampleA(32, 64)
tree_of(dsa, 3)
print(f"downsample A:          {f.shape} -> {dsa(f).shape}")
dsb = DownsampleB(32, 64)
tree_of(dsb, 4)
print(f"downsample B:          {f.shape} -> {dsb(f).shape}")
cffn = ConvFFNBlock(32, 4)
tree_of(cffn, 5)
print(f"conv feed-forward:     {f.shape} -> {cffn(f).shape}")
blk = TransformerBlock(32, 4, heads=4, sr_ratio=2)
tree_of(blk, 6)
print(f"transformer block:     {f.shape} -> {blk(f).shape}")
head = ClassifierHead(32, 10, hidden=64)
tree_of(head, 7)
print(f"classifier head:       {f.shape} -> {head(f).shape}")
print()

print("=" * 72)
print("3. residual identities: zeroed projections pass the input through")
print("=" * 72)
blk2 = TransformerBlock(16, 2, heads=2, sr_ratio=1)
tree_of(blk2, 8)
for mod in (blk2.attn.proj, blk2.ffn.fc2):
    mod.weight.data[...] = 0.0
    mod.bias.data[...] = 0.0
x16 = Tensor(rng.standard_normal((1, 16, 4, 4)))
print("output == input:", bool((blk2(x16).data == x16.data).all()))
print()

print("=" * 72)
print("4. attention is permutation-equivariant over tokens, bitwise at this")
print("   12-token shape (not where the query-key BLAS product's result for a")
print("   row depends on the row's position, e.g. 196 queries x 196 keys)")
print("=" * 72)
attn = Attention(16, 4, 1)
tree_of(attn, 9)
toks = rng.standard_normal((1, 12, 16))
perm = rng.permutation(12)
out = attn.forward_tokens(Tensor(toks), (3, 4)).data
out_p = attn.forward_tokens(Tensor(toks[:, perm]), (3, 4)).data
print("permute-then-apply == apply-then-permute:", bool((out[:, perm] == out_p).all()))
print()

print("=" * 72)
print("5. central-difference gradient checks (h=1e-5, tol=1e-4)")
print("=" * 72)
for name, block, shape in [
        ("hr_block", HighResBlock(8, 2), (1, 8, 4, 4)),
        ("cffn", ConvFFNBlock(6, 2), (1, 6, 4, 4)),
        ("attention", Attention(8, 2, 1), (1, 8, 2, 2))]:
    tree = tree_of(block, 10)
    for path, t in tree.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf in ("beta", "bias"):
            t.data[...] = rng.standard_normal(t.shape) * 0.05
    xin = Tensor(rng.standard_normal(shape), requires_grad=True)
    w = Tensor(rng.standard_normal(block.out_shape(shape)))
    tensors = {"input": xin}
    tensors.update(dict(tree.trainable_items()))
    rep = grad_check(lambda: ops.tsum(ops.mul(block(xin), w)), tensors)
    print(f"{name:<10} max rel err {rep.max_rel_err:.2e}"
          f"  ({'PASS' if rep.passed else 'FAIL'})")
