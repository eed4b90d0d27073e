"""Procedural building dataset: parametric meshes, surface sampling,
orthographic silhouette rendering, manifests, and the roof-type oracle
used by the acceptance suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from .conditioner import SilhouetteImage, save_pgm
from .geometry import PointCloud, normalize_unit_cube, save_bpc

ROOF_TYPES = ("flat", "gable", "hip")


@dataclass
class BuildingSpec:
    width: float                 # footprint extent along x
    depth: float                 # footprint extent along y
    wall_height: float
    roof_type: str = "flat"
    roof_pitch: float = 0.0      # rise over run
    # L-shape: cut a notch of (notch_w, notch_d) out of the +x/+y corner; 0 = rectangle
    notch_w: float = 0.0
    notch_d: float = 0.0
    view_azimuth: float = 0.0
    view_elevation: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.width <= 0 or self.depth <= 0 or self.wall_height <= 0:
            raise ValueError("building dimensions must be positive")
        if self.roof_type not in ROOF_TYPES:
            raise ValueError(f"unknown roof type {self.roof_type!r}")
        if self.roof_pitch < 0:
            raise ValueError("roof pitch must be >= 0")
        if self.roof_type == "flat" and self.roof_pitch != 0.0:
            raise ValueError("flat roofs have pitch 0")


@dataclass
class Mesh:
    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (F, 3) int indices

    def areas(self) -> np.ndarray:
        v = self.vertices
        t = self.triangles
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        return 0.5 * np.linalg.norm(cross, axis=1)


def _ear_clip(poly: list[tuple[float, float]]) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon by ear clipping; indices into poly."""
    idx = list(range(len(poly)))
    tris = []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def inside(p, a, b, c):
        d1 = cross(a, b, p)
        d2 = cross(b, c, p)
        d3 = cross(c, a, p)
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("ear clipping failed; polygon may be degenerate")
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = poly[i0], poly[i1], poly[i2]
            if cross(a, b, c) <= 0:
                continue
            if any(inside(poly[j], a, b, c) for j in idx
                   if j not in (i0, i1, i2)):
                continue
            tris.append((i0, i1, i2))
            idx.pop(k)
            break
        else:
            raise ValueError("no ear found; polygon may be non-simple")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def _footprint_outline(spec: BuildingSpec) -> list[tuple[float, float]]:
    w, d = spec.width, spec.depth
    if spec.notch_w > 0 and spec.notch_d > 0:
        nw, nd = spec.notch_w, spec.notch_d
        if nw >= w or nd >= d:
            raise ValueError("notch larger than footprint")
        return [(0, 0), (w, 0), (w, d - nd), (w - nw, d - nd), (w - nw, d), (0, d)]
    return [(0, 0), (w, 0), (w, d), (0, d)]


def _prism(outline, height: float) -> Mesh:
    n = len(outline)
    verts = [(x, y, 0.0) for x, y in outline] + [(x, y, height) for x, y in outline]
    tris = []
    base = _ear_clip(outline)
    for a, b, c in base:
        tris.append((a, c, b))               # bottom, facing down
        tris.append((n + a, n + b, n + c))   # top, facing up
    for i in range(n):
        j = (i + 1) % n
        tris.append((i, j, n + j))
        tris.append((i, n + j, n + i))
    return Mesh(np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64))


def _gable_mesh(spec: BuildingSpec) -> Mesh:
    w, d, h = spec.width, spec.depth, spec.wall_height
    hr = h + spec.roof_pitch * d / 2.0
    verts = np.array([
        (0, 0, 0), (w, 0, 0), (w, d, 0), (0, d, 0),      # 0-3 base
        (0, 0, h), (w, 0, h), (w, d, h), (0, d, h),      # 4-7 wall top
        (0, d / 2, hr), (w, d / 2, hr),                  # 8-9 ridge
    ], dtype=np.float64)
    tris = [
        (0, 2, 1), (0, 3, 2),            # bottom
        (0, 1, 5), (0, 5, 4),            # front wall y=0
        (2, 3, 7), (2, 7, 6),            # back wall y=d
        (3, 0, 4), (3, 4, 8), (3, 8, 7),  # left gable end x=0
        (1, 2, 6), (1, 6, 9), (1, 9, 5),  # right gable end x=w
        (4, 5, 9), (4, 9, 8),            # front roof slope
        (6, 7, 8), (6, 8, 9),            # back roof slope
    ]
    return Mesh(verts, np.array(tris, dtype=np.int64))


def _hip_mesh(spec: BuildingSpec) -> Mesh:
    w, d, h = spec.width, spec.depth, spec.wall_height
    if w <= d:
        raise ValueError("hip roof requires width > depth (ridge along x)")
    ins = d / 2.0
    hr = h + spec.roof_pitch * d / 2.0
    verts = np.array([
        (0, 0, 0), (w, 0, 0), (w, d, 0), (0, d, 0),
        (0, 0, h), (w, 0, h), (w, d, h), (0, d, h),
        (ins, d / 2, hr), (w - ins, d / 2, hr),          # 8-9 ridge
    ], dtype=np.float64)
    tris = [
        (0, 2, 1), (0, 3, 2),
        (0, 1, 5), (0, 5, 4),
        (1, 2, 6), (1, 6, 5),
        (2, 3, 7), (2, 7, 6),
        (3, 0, 4), (3, 4, 7),
        (4, 5, 9), (4, 9, 8),            # front roof trapezoid
        (6, 7, 8), (6, 8, 9),            # back roof trapezoid
        (7, 4, 8),                       # left hip triangle
        (5, 6, 9),                       # right hip triangle
    ]
    return Mesh(verts, np.array(tris, dtype=np.int64))


def generate_building(spec: BuildingSpec) -> Mesh:
    """Watertight triangle mesh for the given spec."""
    if spec.roof_type == "flat":
        return _prism(_footprint_outline(spec), spec.wall_height)
    if spec.notch_w > 0 or spec.notch_d > 0:
        raise ValueError("pitched roofs are only generated on rectangular footprints")
    if spec.roof_type == "gable":
        return _gable_mesh(spec)
    return _hip_mesh(spec)


def sample_surface(mesh: Mesh, n: int, seed: int,
                   normalize: bool = True) -> PointCloud:
    """Area-weighted uniform surface sampling; normalized to [-1,1]^3 unless
    disabled (tests check on-surface residuals in raw coordinates)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    areas = mesh.areas()
    total = areas.sum()
    if total <= 0:
        raise ValueError("zero-area mesh")
    rng = np.random.default_rng(seed)
    faces = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    t = mesh.triangles[faces]
    a = mesh.vertices[t[:, 0]]
    b = mesh.vertices[t[:, 1]]
    c = mesh.vertices[t[:, 2]]
    pts = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    cloud = PointCloud(pts)
    if normalize:
        cloud = normalize_unit_cube(cloud)
    return cloud


SUPERSAMPLE = 4  # coverage samples per pixel along each axis


def render_silhouette(mesh: Mesh, view: tuple[float, float],
                      resolution: int = 32) -> SilhouetteImage:
    """Orthographic soft-coverage silhouette along the view direction,
    centered and scaled to 90% of the frame."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    az, el = view
    fwd = np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    right = np.array([-np.sin(az), np.cos(az), 0.0])
    up = np.cross(fwd, right)
    uv = np.stack([mesh.vertices @ right, mesh.vertices @ up], axis=1)
    lo = uv.min(axis=0)
    hi = uv.max(axis=0)
    center = (lo + hi) / 2.0
    extent = float((hi - lo).max())
    if extent <= 0:
        raise ValueError("degenerate projection")
    scale = 0.9 * resolution / extent
    # pixel coords: building centered in the frame, v axis pointing up
    uv = (uv - center) * scale + resolution / 2.0

    ss = SUPERSAMPLE
    grid = (np.arange(resolution * ss) + 0.5) / ss
    gx, gy = np.meshgrid(grid, grid)
    px = gx.reshape(-1)
    py = gy.reshape(-1)
    covered = np.zeros(px.size, dtype=bool)
    for tri in mesh.triangles:
        a, b, c = uv[tri[0]], uv[tri[1]], uv[tri[2]]
        d1 = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
        d2 = (c[0] - b[0]) * (py - b[1]) - (c[1] - b[1]) * (px - b[0])
        d3 = (a[0] - c[0]) * (py - c[1]) - (a[1] - c[1]) * (px - c[0])
        inside = ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
        covered |= inside
    cov = covered.reshape(resolution, ss, resolution * ss).reshape(
        resolution, ss, resolution, ss).mean(axis=(1, 3))
    return SilhouetteImage(cov[::-1])  # image row 0 at the top


MANIFEST_FIELDS = ("id", "split", "cloud", "silhouette")


@dataclass
class DatasetManifest:
    entries: list[dict] = field(default_factory=list)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"entries": self.entries}, fh, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "DatasetManifest":
        """Read a manifest: an "entries" list of objects with string
        MANIFEST_FIELDS. Invalid JSON or a missing or mistyped field raises
        ValueError naming the path, and the entry index and field."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from None
        entries = doc.get("entries") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ValueError(f'{path}: the manifest needs an "entries" list')
        for i, e in enumerate(entries):
            for key in MANIFEST_FIELDS:
                if not isinstance(e, dict) or not isinstance(e.get(key), str):
                    raise ValueError(f"{path}: entry {i} needs a string {key!r}")
        return DatasetManifest(entries)


def random_spec(rng: np.random.Generator, roof_type: str) -> BuildingSpec:
    w = rng.uniform(1.0, 1.6)
    d = rng.uniform(0.8, min(w, 1.4) - 0.05) if roof_type == "hip" else rng.uniform(0.8, 1.4)
    # views stay roughly ridge-aligned so the roof profile shows up in the
    # silhouette; fully random azimuths make many flat/gable views identical
    az = rng.choice([0.0, np.pi]) + rng.uniform(-0.6, 0.6)
    return BuildingSpec(
        width=w,
        depth=d,
        wall_height=rng.uniform(0.4, 0.8),
        roof_type=roof_type,
        roof_pitch=0.0 if roof_type == "flat" else rng.uniform(0.5, 0.9),
        view_azimuth=float(az),
        view_elevation=rng.uniform(0.15, 0.45),
        seed=int(rng.integers(2 ** 31)),
    )


def build_dataset(out_dir, n_train: int = 200, n_test: int = 50,
                  roof_mix: tuple[str, ...] = ("flat", "gable"),
                  n_points: int = 4096, resolution: int = 32,
                  seed: int = 0) -> DatasetManifest:
    """Generate clouds + silhouettes + manifest under out_dir."""
    if n_train < 1 or n_test < 1:
        raise ValueError("counts must be >= 1")
    out = Path(out_dir)
    (out / "clouds").mkdir(parents=True, exist_ok=True)
    (out / "silhouettes").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifest = DatasetManifest()
    for i in range(n_train + n_test):
        split = "train" if i < n_train else "test"
        roof = roof_mix[i % len(roof_mix)]
        spec = random_spec(rng, roof)
        mesh = generate_building(spec)
        cloud = sample_surface(mesh, n_points, seed=spec.seed)
        img = render_silhouette(mesh, (spec.view_azimuth, spec.view_elevation),
                                resolution=resolution)
        bid = f"b{i:05d}"
        save_bpc(out / "clouds" / f"{bid}.bpc", cloud)
        save_pgm(out / "silhouettes" / f"{bid}.pgm", img)
        manifest.entries.append({
            "id": bid,
            "split": split,
            "spec": asdict(spec),
            "cloud": f"clouds/{bid}.bpc",
            "silhouette": f"silhouettes/{bid}.pgm",
        })
    manifest.save(out / "manifest.json")
    return manifest


def roof_oracle(cloud: PointCloud) -> str:
    """Classify a normalized cloud as flat or gable from the z-spread of its
    top slab (z at or above the 80th percentile). Thresholds are fixed."""
    if cloud.count < 20:
        raise ValueError("roof_oracle needs at least 20 points")
    z = cloud.points[:, 2]
    cut = np.percentile(z, 80.0)
    top = z[z >= cut]
    return "flat" if float(top.std()) < 0.05 else "gable"
