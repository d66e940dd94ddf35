"""Named parameter trees, deterministic init, and binary checkpoints.

Checkpoint layout (version 1, little-endian):
    magic  b"HIRI"
    u32    format version
    repeated records until 4 bytes remain:
        u32     name length
        bytes   name (utf-8)
        u32     rank
        u64*rank extents
        f64*prod(extents) payload
    u32    CRC32 over all payload bytes, in record order

The CRC covers the payload bytes only. A flipped name byte that stays valid
UTF-8 loads under the altered name; ``ParamTree.copy_into`` (``load_state``)
then rejects the tree and names that entry.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib

import numpy as np

from .engine import Tensor
from .errors import ConfigError

MAGIC = b"HIRI"
VERSION = 1
MAX_RANK = 64         # NumPy's dimension limit


class ParamTree:
    """Ordered path -> Tensor map; the unit of serialization and averaging.

    Holds both trainable parameters and persistent buffers (running BN
    statistics); ``trainable`` marks which entries carry gradients.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._trainable: dict[str, bool] = {}

    def add(self, path: str, tensor: Tensor, trainable: bool):
        if path in self._entries:
            raise ConfigError(f"duplicate parameter path {path!r}")
        self._entries[path] = tensor
        self._trainable[path] = trainable

    def __len__(self):
        return len(self._entries)

    def __contains__(self, path):
        return path in self._entries

    def __getitem__(self, path) -> Tensor:
        return self._entries[path]

    def paths(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def trainable_items(self):
        return [(p, t) for p, t in self._entries.items() if self._trainable[p]]

    def total_params(self) -> int:
        """Learnable parameter count (running statistics excluded)."""
        return sum(t.size for _, t in self.trainable_items())

    def clone(self) -> "ParamTree":
        out = ParamTree()
        for path, t in self._entries.items():
            c = Tensor(t.data.copy())
            out.add(path, c, self._trainable[path])
        return out

    def copy_into(self, other: "ParamTree"):
        """Copy values into an isomorphic tree, preserving array identity; if the
        trees differ, copy nothing and name the first path or shape that does."""
        for i, (path, dst) in enumerate(itertools.zip_longest(self.paths(), other.paths())):
            if path != dst:
                raise ConfigError(f"parameter trees are not isomorphic: entry {i} is"
                                  f" {path!r} here and {dst!r} in the target")
            if other[path].shape != self[path].shape:
                raise ConfigError(f"shape mismatch at {path}: {other[path].shape}"
                                  f" vs {self[path].shape}")
        for path, t in self.items():
            np.copyto(other[path].data, t.data)

    def allclose(self, other: "ParamTree", atol=0.0) -> bool:
        if other.paths() != self.paths():
            return False
        if atol == 0.0:
            return all(np.array_equal(t.data, other[p].data) for p, t in self.items())
        return all(np.allclose(t.data, other[p].data, atol=atol) for p, t in self.items())


def truncated_normal(rng: np.random.Generator, shape, std=0.02):
    """Normal(0, std) with rejection outside +-2 standard deviations."""
    x = rng.standard_normal(shape) * std
    bound = 2.0 * std
    flat = x.reshape(-1)
    redraw = np.flatnonzero(np.abs(flat) > bound)
    while redraw.size:      # only the redrawn entries can still be out of bounds
        flat[redraw] = rng.standard_normal(redraw.size) * std
        redraw = redraw[np.abs(flat[redraw]) > bound]
    return x


def init_tree(tree: ParamTree, seed: int):
    """Deterministic init: truncated normal for weights, affine identities."""
    rng = np.random.default_rng(seed)
    for path, t in tree.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf == "weight":
            t.data[...] = truncated_normal(rng, t.shape)
        elif leaf in ("gamma", "running_var"):
            t.data[...] = 1.0
        else:   # bias, beta, running_mean
            t.data[...] = 0.0


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def save_checkpoint(tree: ParamTree, path: str):
    crc = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, tensor in tree.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", tensor.ndim))
            for extent in tensor.shape:
                fh.write(struct.pack("<Q", extent))
            payload = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
            crc = zlib.crc32(payload, crc)
            fh.write(payload)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def load_checkpoint(path: str) -> ParamTree:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The file is read once into one byte buffer and every array is a float64
    view into it (possibly unaligned), so loading makes no per-array copy.
    A truncated or corrupt file raises ConfigError naming the byte offset.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if bytes(buf[:4]) != MAGIC:
        raise ConfigError(f"{path}: bad magic {bytes(buf[:4])!r}")
    end = buf.size - 4      # the CRC trailer starts here

    def take(off: int, nbytes: int, what: str) -> np.ndarray:
        if nbytes > end - off:
            raise ConfigError(
                f"{path}: {what} at byte {off} runs past the {max(end - off, 0)}"
                f" bytes left before the CRC (truncated or corrupt file)")
        return buf[off:off + nbytes]

    def read(fmt: str, off: int, what: str) -> tuple:
        return struct.unpack(fmt, take(off, struct.calcsize(fmt), what))

    (version,) = read("<I", 4, "format version")
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    tree = ParamTree()
    off = 8
    crc = 0
    while off < end:
        (nlen,) = read("<I", off, "name length")
        off += 4
        try:
            name = bytes(take(off, nlen, "name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: name at byte {off} is not UTF-8") from exc
        off += nlen
        (rank,) = read("<I", off, f"rank of {name!r}")
        if rank > MAX_RANK:
            raise ConfigError(f"{path}: rank {rank} of {name!r} at byte {off}"
                              f" exceeds {MAX_RANK}")
        off += 4
        shape_at = off
        extents = read(f"<{rank}Q", off, f"extents of {name!r}")
        off += 8 * rank
        payload = take(off, 8 * math.prod(extents), f"payload of {name!r}")
        off += payload.size
        crc = zlib.crc32(payload, crc)
        try:
            data = payload.view("<f8").reshape(extents)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(
                f"{path}: shape of {name!r} at byte {shape_at} is unusable: {exc}") from exc
        tree.add(name, Tensor(data),
                 trainable=not name.endswith(("running_mean", "running_var")))
    (stored,) = struct.unpack("<I", buf[end:])
    if stored != (crc & 0xFFFFFFFF):
        raise ConfigError(f"{path}: payload CRC mismatch")
    return tree
