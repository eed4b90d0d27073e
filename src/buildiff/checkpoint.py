"""Binary checkpoint format for named parameter arrays.

Layout (little-endian): magic "BDIF", version u32, count u32, then per
parameter: name length u16, name bytes (utf-8), rank u8, dims u32 each,
payload f64 row-major.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"BDIF"
VERSION = 1


class CheckpointError(IOError):
    pass


@contextlib.contextmanager
def replaced(path, mode: str = "wb"):
    """A file opened for writing at `<path>.tmp`, moved onto path by one
    os.replace when the block ends. If the block raises, the temp file is
    removed and path is left as it was. No fsync: this survives a killed
    process, not a power loss."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_params(path, params: dict[str, np.ndarray]) -> None:
    """Write params to path in one commit point (see `replaced`)."""
    with replaced(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name, p in params.items():
            arr = np.asarray(p, dtype=np.float64, order="C")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())


def load_params(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a malformed or truncated file raises
    CheckpointError naming the path and the byte offset, and no other
    error."""
    path = Path(path)
    buf = memoryview(path.read_bytes())
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(
                f"{path}: truncated at byte offset {len(buf)}: {what} needs "
                f"{n} bytes at offset {pos}")
        pos += n
        return buf[pos - n:pos]

    if take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        at = pos
        (nlen,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = bytes(take(nlen, "name")).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{path}: parameter name at byte offset {at} is not utf-8") from None
        (rank,) = struct.unpack("<B", take(1, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
        n = math.prod(dims)
        data = np.frombuffer(take(8 * n, f"data of {name!r}"), dtype="<f8")
        try:
            params[name] = data.reshape(dims).astype(np.float64)
        except ValueError as exc:  # more dims than numpy takes, or too big
            raise CheckpointError(f"{path}: shape {dims} of {name!r} at byte "
                                  f"offset {at}: {exc}") from None
    return params


def check_records(path, blob: dict[str, np.ndarray],
                  shapes: dict[str, tuple[int, ...]], what: str) -> None:
    """Raise CheckpointError naming path, the record and both shapes
    unless blob holds exactly the records named in `shapes`, each in its
    shape; `what` names the parameter set they describe, as in "the d=128
    base stage"."""
    for name, want in shapes.items():
        if name not in blob:
            raise CheckpointError(f"{path}: no record {name!r}; {what} "
                                  f"needs one of shape {want}")
        if blob[name].shape != want:
            raise CheckpointError(f"{path}: record {name!r} has shape "
                                  f"{blob[name].shape}; {what} needs {want}")
    extra = sorted(blob.keys() - shapes.keys())
    if extra:
        raise CheckpointError(f"{path}: {what} has no record {extra[0]!r} "
                              f"(shape {blob[extra[0]].shape})")
