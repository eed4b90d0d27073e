import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from buildiff.datagen import (MANIFEST_FIELDS, BuildingSpec, DatasetManifest,
                              build_dataset,
                              generate_building, random_spec,
                              render_silhouette, roof_oracle, sample_surface,
                              surface_points)
from buildiff.geometry import PointCloud, load_bpc, normalize_unit_cube


def box_spec(**kw):
    return BuildingSpec(width=2.0, depth=1.0, wall_height=1.0, **kw)


def is_watertight(mesh) -> bool:
    """Every undirected edge is shared by exactly two triangles."""
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return all(c == 2 for c in edges.values())


class TestSpecValidation:
    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            BuildingSpec(width=0.0, depth=1.0, wall_height=1.0)

    def test_unknown_roof(self):
        with pytest.raises(ValueError):
            box_spec(roof_type="dome")

    def test_flat_roof_with_pitch(self):
        with pytest.raises(ValueError):
            box_spec(roof_type="flat", roof_pitch=0.5)


class TestMeshes:
    def test_flat_box_twelve_triangles(self):
        mesh = generate_building(box_spec())
        assert len(mesh.vertices) == 8
        assert len(mesh.triangles) == 12

    def test_flat_box_total_area(self):
        mesh = generate_building(box_spec())  # 2 x 1 x 1 box
        # 2*(2*1) bottom+top + 2*(2*1) long walls + 2*(1*1) short walls
        assert mesh.areas().sum() == pytest.approx(10.0)

    def test_gable_max_height(self):
        spec = box_spec(roof_type="gable", roof_pitch=0.8)
        mesh = generate_building(spec)
        assert mesh.vertices[:, 2].max() == pytest.approx(
            spec.wall_height + spec.roof_pitch * spec.depth / 2.0)

    def test_hip_ridge_shorter_than_width(self):
        mesh = generate_building(box_spec(roof_type="hip", roof_pitch=0.6))
        top = mesh.vertices[mesh.vertices[:, 2] == mesh.vertices[:, 2].max()]
        ridge_len = np.abs(top[0, 0] - top[1, 0])
        assert 0 < ridge_len < 2.0

    def test_hip_requires_wide_footprint(self):
        with pytest.raises(ValueError):
            generate_building(BuildingSpec(width=1.0, depth=1.0,
                                           wall_height=1.0, roof_type="hip",
                                           roof_pitch=0.5))

    @pytest.mark.parametrize("kw", [
        {},
        {"roof_type": "gable", "roof_pitch": 0.7},
        {"roof_type": "hip", "roof_pitch": 0.7},
    ])
    def test_all_variants_watertight(self, kw):
        assert is_watertight(generate_building(box_spec(**kw)))

    @pytest.mark.parametrize("roof", ["flat", "gable", "hip"])
    def test_signed_volume_matches_solid(self, roof):
        """Sum of v0.(v1 x v2)/6 over outward triangles is the solid's
        volume. Taken about the vertex centroid, which lies inside the
        convex solid, so every triangle adds a positive tetrahedron and a
        dropped or flipped one changes the sum."""
        pitch = 0.0 if roof == "flat" else 0.6
        spec = box_spec(roof_type=roof, roof_pitch=pitch)
        w, d, h = spec.width, spec.depth, spec.wall_height
        r = pitch * d / 2.0
        want = w * d * h + {"flat": 0.0, "gable": w * d * r / 2.0,
                            "hip": r * d * (3.0 * w - d) / 6.0}[roof]
        mesh = generate_building(spec)
        v = mesh.vertices[mesh.triangles] - mesh.vertices.mean(axis=0)
        tets = np.einsum("ij,ij->i", v[:, 0], np.cross(v[:, 1], v[:, 2])) / 6.0
        assert (tets > 0).all()
        assert tets.sum() == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx({"flat": 2.0, "gable": 2.3, "hip": 2.25}[roof])

    def test_open_mesh_detected(self):
        mesh = generate_building(box_spec())
        mesh.triangles = mesh.triangles[:-1]
        assert not is_watertight(mesh)


class TestSampling:
    def test_points_lie_on_surface(self):
        spec = box_spec(roof_type="gable", roof_pitch=0.6)
        mesh = generate_building(spec)
        points = surface_points(mesh, 2000, seed=0)
        # residual against every supporting plane; each point must sit on one
        v = mesh.vertices
        t = mesh.triangles
        normals = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = np.einsum("ij,ij->i", normals, v[t[:, 0]])
        dist = np.abs(points @ normals.T - offsets)
        assert dist.min(axis=1).max() < 1e-9

    def test_area_proportional_faces(self):
        mesh = generate_building(box_spec())
        n = 20000
        points = surface_points(mesh, n, seed=1)
        # count bottom-face points (z == 0); expect share = 2/10 of area
        frac = np.mean(points[:, 2] < 1e-12)
        p = 2.0 / 10.0
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(frac - p) < 3 * sigma + 1e-9

    def test_normalized_by_default(self, tmp_path):
        """sample_surface, and so every dataset cloud, is surface_points
        normalized to [-1, 1]^3."""
        mesh = generate_building(box_spec())
        cloud = sample_surface(mesh, 100, seed=2)
        want = normalize_unit_cube(PointCloud(surface_points(mesh, 100, seed=2)))
        assert cloud.points.tobytes() == want.points.tobytes()
        manifest = build_dataset(tmp_path, n_train=2, n_test=1, n_points=100, seed=4)
        for e in manifest.entries:
            points = load_bpc(tmp_path / e["cloud"]).points
            assert np.ptp(points, axis=0).max() == pytest.approx(2.0, abs=1e-6)
            assert points.min() >= -1.0 - 1e-6
            assert points.max() <= 1.0 + 1e-6

    def test_deterministic(self):
        mesh = generate_building(box_spec())
        a = sample_surface(mesh, 64, seed=3)
        b = sample_surface(mesh, 64, seed=3)
        np.testing.assert_array_equal(a.points, b.points)


class TestSilhouette:
    def test_shape_and_range(self):
        mesh = generate_building(box_spec())
        img = render_silhouette(mesh, (0.3, 0.4), resolution=32)
        assert img.pixels.shape == (32, 32)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_head_on_box_is_axis_aligned_rectangle(self):
        # looking along +y at a box: silhouette is a filled rectangle
        mesh = generate_building(box_spec())
        img = render_silhouette(mesh, (np.pi / 2, 0.0), resolution=32)
        cov = img.pixels
        rows = cov.max(axis=1) > 0.5
        cols = cov.max(axis=0) > 0.5
        interior = cov[np.ix_(rows, cols)]
        assert interior.min() > 0.9  # solid, no holes

    def test_covers_about_ninety_percent_of_frame(self):
        mesh = generate_building(box_spec())
        img = render_silhouette(mesh, (np.pi / 2, 0.0), resolution=40)
        occupied = (img.pixels > 0.5).any(axis=0)
        width_frac = occupied.sum() / 40.0
        assert 0.82 <= width_frac <= 0.95

    def test_gable_peak_at_top_rows(self):
        spec = box_spec(roof_type="gable", roof_pitch=0.9)
        mesh = generate_building(spec)
        # viewing along the ridge (x axis) shows the triangular profile
        img = render_silhouette(mesh, (0.0, 0.0), resolution=32)
        row_widths = (img.pixels > 0.5).sum(axis=1)
        occupied = row_widths[row_widths > 0]
        assert occupied[0] < occupied[-1] * 0.6  # narrow top, wide base

    def test_resolution_floor(self):
        mesh = generate_building(box_spec())
        with pytest.raises(ValueError):
            render_silhouette(mesh, (0.0, 0.3), resolution=4)


class TestDataset:
    def test_negative_seed_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            build_dataset(tmp_path / "ds", n_train=2, n_test=1, seed=-1)
        assert not (tmp_path / "ds").exists()

    def test_build_layout_and_determinism(self, tmp_path):
        m1 = build_dataset(tmp_path / "a", n_train=6, n_test=2, n_points=128,
                           resolution=16, seed=9)
        m2 = build_dataset(tmp_path / "b", n_train=6, n_test=2, n_points=128,
                           resolution=16, seed=9)
        assert [e["id"] for e in m1.entries] == [e["id"] for e in m2.entries]
        for e1, e2 in zip(m1.entries, m2.entries):
            assert e1["spec"] == e2["spec"]
            b1 = (tmp_path / "a" / e1["cloud"]).read_bytes()
            b2 = (tmp_path / "b" / e2["cloud"]).read_bytes()
            assert b1 == b2
            s1 = (tmp_path / "a" / e1["silhouette"]).read_bytes()
            s2 = (tmp_path / "b" / e2["silhouette"]).read_bytes()
            assert s1 == s2

    def test_split_sizes_and_disjoint(self, tmp_path):
        m = build_dataset(tmp_path, n_train=6, n_test=3, n_points=64,
                          resolution=16, seed=0)
        train = {e["id"] for e in m.entries if e["split"] == "train"}
        test = {e["id"] for e in m.entries if e["split"] == "test"}
        assert len(train) == 6 and len(test) == 3
        assert not train & test

    def test_roof_mix_round_robin(self, tmp_path):
        m = build_dataset(tmp_path, n_train=4, n_test=2, n_points=64,
                          resolution=16, seed=0, roof_mix=("flat", "gable"))
        roofs = [e["spec"]["roof_type"] for e in m.entries]
        assert roofs == ["flat", "gable"] * 3

    def test_manifest_round_trip(self, tmp_path):
        m = build_dataset(tmp_path, n_train=2, n_test=1, n_points=64,
                          resolution=16, seed=1)
        back = DatasetManifest.load(tmp_path / "manifest.json")
        assert back.entries == m.entries

    def test_clouds_loadable_and_normalized(self, tmp_path):
        m = build_dataset(tmp_path, n_train=2, n_test=1, n_points=64,
                          resolution=16, seed=2)
        for e in m.entries:
            cloud = load_bpc(tmp_path / e["cloud"])
            assert cloud.count == 64
            assert np.abs(cloud.points).max() <= 1.0 + 1e-6


# ------------------------------------------------------- manifest fuzzing

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# JSON documents built from the names a manifest holds
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["train", "test", "b00000", "clouds/b00000.bpc"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["entries", *MANIFEST_FIELDS, "spec"]), inner, max_size=5),
    max_leaves=12).map(lambda doc: json.dumps(doc).encode())


def _loads_or_names_path(path):
    """DatasetManifest.load returns a manifest whose entries hold every
    MANIFEST_FIELDS string, or raises ValueError naming path, never
    another exception."""
    try:
        manifest = DatasetManifest.load(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        for e in manifest.entries:
            assert all(isinstance(e[key], str) for key in MANIFEST_FIELDS)


@FUZZ
@given(data=st.one_of(st.binary(max_size=200), JSON_DOCS))
def test_arbitrary_manifest_loads_or_raises_naming_path(tmp_path, data):
    path = tmp_path / "manifest.json"
    path.write_bytes(data)
    _loads_or_names_path(path)


@pytest.fixture(scope="module")
def manifest_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    build_dataset(root, n_train=2, n_test=1, n_points=16, resolution=8, seed=0)
    return (root / "manifest.json").read_bytes()


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                      max_size=4),
       cut=st.integers(0, 10 ** 6))
def test_edited_manifest_loads_or_raises_naming_path(tmp_path, manifest_bytes,
                                                     flips, cut):
    """A valid manifest with bytes flipped and its tail cut off either
    loads or raises ValueError naming the file."""
    blob = bytearray(manifest_bytes)
    for where, xor in flips:
        blob[where % len(blob)] ^= xor
    path = tmp_path / "manifest.json"
    path.write_bytes(bytes(blob[:len(blob) - cut % (len(blob) + 1)]))
    _loads_or_names_path(path)


@pytest.mark.parametrize("opener", [b"[", b'{"entries":'])
def test_deeply_nested_manifest_names_path(tmp_path, opener):
    """JSON nested deeper than the decoder recurses raises ValueError
    naming the file, not RecursionError."""
    path = tmp_path / "manifest.json"
    path.write_bytes(opener * 100_000)
    with pytest.raises(ValueError, match="nested too deeply") as err:
        DatasetManifest.load(path)
    assert str(path) in str(err.value)


class TestRoofOracle:
    def test_matches_labels_on_fresh_samples(self):
        rng = np.random.default_rng(42)
        total = correct = 0
        for i in range(150):
            roof = "flat" if i % 2 == 0 else "gable"
            spec = random_spec(rng, roof)
            mesh = generate_building(spec)
            cloud = sample_surface(mesh, 1024, seed=spec.seed)
            correct += roof_oracle(cloud) == roof
            total += 1
        assert correct / total >= 0.99

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            roof_oracle(PointCloud(np.random.default_rng(0).random((10, 3))))

    def test_synthetic_extremes(self):
        rng = np.random.default_rng(2)
        xy = rng.uniform(-1, 1, size=(400, 2))
        flat = np.column_stack([xy, np.where(rng.random(400) < 0.5, 1.0, -1.0)])
        assert roof_oracle(PointCloud(flat)) == "flat"
        peaked = np.column_stack([xy, 1.0 - np.abs(xy[:, 0])])
        assert roof_oracle(PointCloud(peaked)) == "gable"
