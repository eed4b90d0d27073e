"""Point cloud containers, unit-cube normalization, footprint projection,
farthest point sampling, exact nearest-neighbour search (scipy's k-d tree,
first occurrence on duplicate rows) and PLY/XYZ/BPC I/O."""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import replaced


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3) float64

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        self.points = pts

    @property
    def count(self) -> int:
        return self.points.shape[0]


def normalize_unit_cube(cloud: PointCloud) -> PointCloud:
    """Center at the bounding-box center and scale uniformly so the largest
    axis range spans [-1, 1]. Aspect ratio is preserved."""
    if cloud.count < 1:
        raise ValueError("empty cloud")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise ValueError("degenerate cloud: all points identical")
    center = (lo + hi) / 2.0
    scale = 2.0 / extent
    return PointCloud((cloud.points - center) * scale)


def farthest_point_sample(cloud: PointCloud, k: int, seed: int) -> PointCloud:
    """Greedy max-min subset of k points; the first pick is seeded-random.

    x, y and z are kept as three contiguous columns, and each squared
    distance is formed as (dx*dx + dy*dy) + dz*dz, the order in which a row
    sum over (n, 3) adds them, so the picks equal the row-wise loop's."""
    n = cloud.count
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cloud of {n} points")
    rng = np.random.default_rng(seed)
    pts = cloud.points
    x, y, z = (np.ascontiguousarray(pts[:, j]) for j in range(3))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    dist = np.full(n, np.inf)
    d = np.empty(n)
    t = np.empty(n)
    for i in range(k):
        if i:
            chosen[i] = dist.argmax()
        p = chosen[i]
        np.subtract(x, x[p], out=d)
        np.multiply(d, d, out=d)
        np.subtract(y, y[p], out=t)
        np.multiply(t, t, out=t)
        np.add(d, t, out=d)
        np.subtract(z, z[p], out=t)
        np.multiply(t, t, out=t)
        np.add(d, t, out=d)
        np.minimum(dist, d, out=dist)
    return PointCloud(pts[chosen])


def nearest_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of a, squared distance to its nearest row of b; used by
    the metrics. Distances are recomputed exactly at the nearest index."""
    idx = nearest_indices(a, b)
    return np.sum((a - b[idx]) ** 2, axis=1)


def nearest_indices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index into b of the nearest neighbour of each row of a: an exact
    k-d tree search. Exact duplicate rows of b (0.0 and -0.0 compare
    equal) resolve to their first occurrence: the tree holds only the first
    occurrence of each distinct row, found by a stable lexsort."""
    from scipy.spatial import cKDTree  # here: most commands never need scipy
    order = np.lexsort(b.T[::-1])
    ranked = b[order]
    first = np.empty(len(b), dtype=bool)
    first[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    keep = np.sort(order[first])
    _, idx = cKDTree(b[keep]).query(a)
    return keep[idx]


# ---------------------------------------------------------------- file io

BPC_MAGIC = b"BPC1"


def save_bpc(path, cloud: PointCloud) -> None:
    """Compact binary: magic 'BPC1', u32 count, f32 xyz triples (LE)."""
    with replaced(path) as fh:
        fh.write(BPC_MAGIC)
        fh.write(struct.pack("<I", cloud.count))
        fh.write(cloud.points.astype("<f4").tobytes())


def load_bpc(path) -> PointCloud:
    """Read a BPC1 file. A header shorter than 8 bytes, a payload shorter
    than its point count needs or a nan or inf coordinate raises IOError
    naming the path."""
    raw = Path(path).read_bytes()
    if raw[:4] != BPC_MAGIC:
        raise IOError(f"{path}: not a BPC1 file")
    if len(raw) < 8:
        raise IOError(f"{path}: BPC header needs 8 bytes, the file has {len(raw)}")
    (n,) = struct.unpack_from("<I", raw, 4)
    if len(raw) - 8 < 12 * n:
        raise IOError(f"{path}: BPC count {n} needs {12 * n} payload bytes, "
                      f"the file has {len(raw) - 8}")
    pts = np.frombuffer(raw, dtype="<f4", count=3 * n, offset=8).reshape(n, 3)
    return _cloud_of(path, pts.astype(np.float64))


def _xyz_text(cloud: PointCloud) -> str:
    """One "x y z" line per point, each coordinate as %.9g, formatted in
    one string operation."""
    return ("%.9g %.9g %.9g\n" * cloud.count) % tuple(cloud.points.ravel().tolist())


def save_ply(path, cloud: PointCloud) -> None:
    with replaced(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {cloud.count}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        fh.write(_xyz_text(cloud))


def _cloud_of(path, pts: np.ndarray) -> PointCloud:
    """The cloud of a loaded (n, 3) array; a nan or inf coordinate raises
    IOError naming path."""
    try:
        return PointCloud(pts)
    except ValueError as exc:
        raise IOError(f"{path}: {exc}") from None


def _xyz_rows(path, source, max_rows=None) -> np.ndarray:
    """Whitespace-separated x y z rows of source as an (n, 3) array; no rows
    give a (0, 3) array, without numpy's warning. A non-numeric value or a
    row of another width raises IOError naming path."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pts = np.loadtxt(source, dtype=np.float64, max_rows=max_rows,
                             ndmin=2)
    except ValueError as exc:
        raise IOError(f"{path}: {exc}") from None
    if pts.size and pts.shape[1] != 3:
        raise IOError(f"{path}: rows have {pts.shape[1]} values, need 3 (x y z)")
    return pts.reshape(-1, 3)


def _ply_vertex_count(path, fh) -> int:
    """The vertex count of the PLY header read from fh, which is left at
    the first row after `end_header`."""
    if fh.readline().strip() != "ply":
        raise IOError(f"{path}: not a PLY file")
    n = None
    while True:
        line = fh.readline()
        if not line:
            raise IOError(f"{path}: truncated PLY header")
        line = line.strip()
        if line.startswith("element vertex"):
            try:
                n = int(line.split()[-1])
            except ValueError:
                n = -1  # reported below
            if not 0 <= n <= np.iinfo(np.int64).max:
                raise IOError(f"{path}: bad vertex count in {line!r}")
        elif line == "end_header":
            break
    if n is None:
        raise IOError(f"{path}: no vertex element")
    return n


def load_ply(path) -> PointCloud:
    """Read an ASCII PLY's vertex rows. A malformed header or row, bytes
    that are not UTF-8, fewer rows than the header promises or a nan or
    inf coordinate raises IOError naming the path."""
    with open(path) as fh:
        try:
            n = _ply_vertex_count(path, fh)
        except UnicodeDecodeError as exc:
            raise IOError(f"{path}: {exc}") from None
        pts = _xyz_rows(path, fh, max_rows=n)
    if len(pts) != n:
        raise IOError(f"{path}: PLY header promises {n} vertex rows, "
                      f"the file has {len(pts)}")
    return _cloud_of(path, pts)


def save_xyz(path, cloud: PointCloud) -> None:
    with replaced(path, "w") as fh:
        fh.write(_xyz_text(cloud))


def load_xyz(path) -> PointCloud:
    return _cloud_of(path, _xyz_rows(path, path))
