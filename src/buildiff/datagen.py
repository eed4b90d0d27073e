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

# Vertices: 0-3 the z=0 ring and 4-7 the wall-top ring, each counter-clockwise
# from the origin; a pitched roof adds 8-9, the ridge ends. Triangles face out.
_WALLS = [(0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),   # y=0, x=w
          (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7)]   # y=d, x=0
ROOF_TRIANGLES = {
    "flat": [(3, 1, 0), (7, 4, 5), (1, 3, 2), (5, 6, 7)] + _WALLS,  # bottom, top
    "gable": [
        (0, 2, 1), (0, 3, 2),                         # bottom
        (0, 1, 5), (0, 5, 4), (2, 3, 7), (2, 7, 6),   # walls y=0, y=d
        (3, 0, 4), (3, 4, 8), (3, 8, 7),              # gable end x=0
        (1, 2, 6), (1, 6, 9), (1, 9, 5),              # gable end x=w
        (4, 5, 9), (4, 9, 8), (6, 7, 8), (6, 8, 9),   # slopes y<d/2, y>d/2
    ],
    "hip": [(0, 2, 1), (0, 3, 2)] + _WALLS + [        # bottom, walls
        (4, 5, 9), (4, 9, 8), (6, 7, 8), (6, 8, 9),   # trapezoids y<d/2, y>d/2
        (7, 4, 8), (5, 6, 9),                         # hip ends x=0, x=w
    ],
}


@dataclass
class BuildingSpec:
    width: float                 # footprint extent along x
    depth: float                 # footprint extent along y
    wall_height: float
    roof_type: str = "flat"
    roof_pitch: float = 0.0      # rise over run
    view_azimuth: float = 0.0
    view_elevation: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.width <= 0 or self.depth <= 0 or self.wall_height <= 0:
            raise ValueError("building dimensions must be positive")
        if self.roof_type not in ROOF_TRIANGLES:
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


def generate_building(spec: BuildingSpec) -> Mesh:
    """Watertight triangle mesh of a w x d box with the spec's roof; a
    pitched roof's ridge runs along x at height h + pitch * d / 2."""
    w, d, h = spec.width, spec.depth, spec.wall_height
    verts = [(0, 0, 0), (w, 0, 0), (w, d, 0), (0, d, 0),
             (0, 0, h), (w, 0, h), (w, d, h), (0, d, h)]
    if spec.roof_type == "hip" and w <= d:
        raise ValueError("hip roof requires width > depth (ridge along x)")
    if spec.roof_type != "flat":
        ins = d / 2.0 if spec.roof_type == "hip" else 0.0
        hr = h + spec.roof_pitch * d / 2.0
        verts += [(ins, d / 2, hr), (w - ins, d / 2, hr)]
    return Mesh(np.array(verts, dtype=np.float64),
                np.array(ROOF_TRIANGLES[spec.roof_type], dtype=np.int64))


def surface_points(mesh: Mesh, n: int, seed: int) -> np.ndarray:
    """n area-weighted uniform draws on the mesh surface, in the mesh's
    coordinates, as an (n, 3) array."""
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
    return a + u[:, None] * (b - a) + v[:, None] * (c - a)


def sample_surface(mesh: Mesh, n: int, seed: int) -> PointCloud:
    """surface_points normalized to [-1,1]^3 (see normalize_unit_cube)."""
    return normalize_unit_cube(PointCloud(surface_points(mesh, n, seed)))


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
        try:
            doc = json.loads(Path(path).read_bytes())
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: not valid JSON: nested too deeply") from None
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
    """Generate clouds + silhouettes + manifest under out_dir. Every
    argument is checked before anything is written."""
    if n_train < 1 or n_test < 1:
        raise ValueError("counts must be >= 1")
    if n_points < 2:  # one point cannot be scaled to the unit cube
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    unknown = [r for r in roof_mix if r not in ROOF_TRIANGLES]
    if unknown or not roof_mix:
        raise ValueError(f"roof_mix {','.join(roof_mix)!r}: roof types are "
                         f"{', '.join(ROOF_TRIANGLES)}")
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
