import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.spatial.distance import cdist

from buildiff import geometry as G


def random_cloud(rng, n):
    return G.PointCloud(rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0))


class TestNormalize:
    def test_unit_cube_corners(self):
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                           dtype=float)
        out = G.normalize_unit_cube(G.PointCloud(corners))
        expected = corners * 2.0 - 1.0
        np.testing.assert_allclose(out.points, expected)

    def test_already_normalized_identity(self):
        pts = np.array([[-1.0, -1, -1], [1, 1, 1]])
        out = G.normalize_unit_cube(G.PointCloud(pts))
        np.testing.assert_allclose(out.points, pts)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            G.normalize_unit_cube(G.PointCloud(np.ones((5, 3))))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 30)
        once = G.normalize_unit_cube(cloud)
        twice = G.normalize_unit_cube(once)
        assert np.abs(twice.points - once.points).max() < 1e-12


class TestFPS:
    def test_k_equals_count_is_permutation(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 20)
        out = G.farthest_point_sample(cloud, 20, seed=3)
        assert sorted(map(tuple, out.points)) == sorted(map(tuple, cloud.points))

    def test_collinear_greedy(self):
        cloud = G.PointCloud([[0.0, 0, 0], [0.1, 0, 0], [1.0, 0, 0]])
        for seed in range(50):
            out = G.farthest_point_sample(cloud, 2, seed=seed)
            if out.points[0, 0] == 0.0:
                np.testing.assert_allclose(out.points[1], [1.0, 0, 0])
                return
        pytest.fail("no seed picked the origin first")

    def test_k_one(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, 10)
        out = G.farthest_point_sample(cloud, 1, seed=9)
        assert out.count == 1

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            G.farthest_point_sample(G.PointCloud(np.zeros((3, 3))), 4, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 64)
        a = G.farthest_point_sample(cloud, 16, seed=7)
        b = G.farthest_point_sample(cloud, 16, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_spread_beats_random_subsets(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 128)
        fps = G.farthest_point_sample(cloud, 12, seed=0)

        def min_pairwise(pts):
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            return d[np.triu_indices(len(pts), 1)].min()

        fps_spread = min_pairwise(fps.points)
        for _ in range(20):
            idx = rng.choice(cloud.count, 12, replace=False)
            assert fps_spread >= min_pairwise(cloud.points[idx]) - 1e-12


def fps_row_loop(cloud, k, seed):
    """The row-wise loop farthest_point_sample replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    pts = cloud.points
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(cloud.count)
    dist = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        np.minimum(dist, np.sum((pts - pts[nxt]) ** 2, axis=1), out=dist)
    return pts[chosen]


def test_fps_bitwise_equal_to_row_loop():
    """Random clouds, and a lattice with duplicates whose many near-equal
    distances make the picks depend on the order of the sum."""
    rng = np.random.default_rng(11)
    clouds = [rng.normal(size=(4096, 3)) * scale for scale in (1.0, 1e-3, 40.0)]
    clouds.append(rng.integers(0, 16, size=(4096, 3)) * 0.1)
    for seed, pts in enumerate(clouds):
        cloud = G.PointCloud(pts)
        out = G.farthest_point_sample(cloud, 1024, seed=seed)
        assert np.array_equal(out.points, fps_row_loop(cloud, 1024, seed))


class TestNearestIndices:
    def test_exact_hit(self):
        rng = np.random.default_rng(7)
        pts = random_cloud(rng, 100).points
        assert G.nearest_indices(pts[37:38], pts).tolist() == [37]
        assert np.array_equal(G.nearest_indices(pts, pts), np.arange(100))

    def test_tie_lowest_index(self):
        b = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        assert G.nearest_indices(np.zeros((1, 3)), b).tolist() == [0]

    def test_duplicate_rows_resolve_to_lowest_index(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(50, 3))
        base[:, 2] = 0.0
        b = base[rng.integers(0, 50, size=400)]
        b[rng.random(400) < 0.5, 2] = -0.0
        want = [np.flatnonzero((b == row).all(axis=1))[0] for row in b]
        assert np.array_equal(G.nearest_indices(b, b), want)
        q = b + rng.normal(size=b.shape) * 0.01
        assert np.array_equal(G.nearest_indices(q, b), cdist(q, b).argmin(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 512),
           m=st.integers(1, 512), project=st.booleans(),
           duplicates=st.booleans(), noise=st.sampled_from([0.0, 0.01, 0.1, 1.0]))
    def test_matches_cdist_argmin(self, seed, n, m, project, duplicates, noise):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(m, 3))
        if duplicates:
            b = b[rng.integers(0, m, size=m)]
        a = b[rng.integers(0, m, size=n)] + rng.normal(size=(n, 3)) * noise
        if project:
            a[:, 2] = rng.choice([0.0, -0.0], size=n)
            b[:, 2] = rng.choice([0.0, -0.0], size=m)
        assert np.array_equal(G.nearest_indices(a, b), cdist(a, b).argmin(axis=1))


class TestKdTree:
    """The k-d tree behind nearest_indices against a linear scan, one query
    at a time."""

    def test_matches_linear_scan_bulk(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 1000)
        for q in rng.normal(size=(100, 3)):
            d2 = np.sum((cloud.points - q) ** 2, axis=1)
            idx = int(G.nearest_indices(q[None], cloud.points)[0])
            assert idx == int(d2.argmin())
            assert d2[idx] == pytest.approx(d2.min())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 2048))
    def test_matches_linear_scan_property(self, seed, n):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, n)
        queries = rng.normal(size=(5, 3))
        got = G.nearest_indices(queries, cloud.points)
        for q, idx in zip(queries, got):
            d2 = np.sum((cloud.points - q) ** 2, axis=1)
            assert d2[idx] == pytest.approx(d2.min())
            assert idx == int(d2.argmin())


class TestFileFormats:
    @pytest.mark.parametrize("save,load", [
        (G.save_ply, G.load_ply),
        (G.save_xyz, G.load_xyz),
    ])
    def test_text_round_trip(self, tmp_path, save, load):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 33)
        path = tmp_path / "cloud.dat"
        save(path, cloud)
        back = load(path)
        assert back.count == 33
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-6, rtol=1e-6)

    @pytest.mark.parametrize("n", [0, 1, 4096])
    def test_text_writers_bytes_equal_per_row_formatting(self, tmp_path, n):
        """save_ply writes the header then the rows that a per-point
        f"{x:.9g} {y:.9g} {z:.9g}" loop writes; save_xyz writes the rows
        that np.savetxt(fmt="%.9g") writes."""
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-12, 12, size=(n, 3))
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -5e-324,
                    -1.7976931348623157e308, 0.0, 1e16, 123456789.5, 1e-5]
        pts.ravel()[:len(extremes)] = extremes[:pts.size]
        cloud = G.PointCloud(pts)
        rows = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in cloud.points)
        G.save_ply(tmp_path / "c.ply", cloud)
        header = (f"ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\n"
                  "property float y\nproperty float z\nend_header\n")
        assert (tmp_path / "c.ply").read_bytes() == (header + rows).encode()
        G.save_xyz(tmp_path / "c.xyz", cloud)
        np.savetxt(tmp_path / "want.xyz", cloud.points, fmt="%.9g")
        assert (tmp_path / "c.xyz").read_bytes() == (tmp_path / "want.xyz").read_bytes()
        assert (tmp_path / "c.xyz").read_bytes() == rows.encode()

    def test_bpc_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng, 17)
        path = tmp_path / "cloud.bpc"
        G.save_bpc(path, cloud)
        back = G.load_bpc(path)
        # f32 storage
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-5, rtol=1e-5)
        with open(path, "rb") as fh:
            assert fh.read(4) == b"BPC1"

    def test_bpc_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bpc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(IOError):
            G.load_bpc(path)


# ------------------------------------------------------------ loader fuzzing

LOADERS = {".ply": G.load_ply, ".xyz": G.load_xyz, ".bpc": G.load_bpc}
SAVERS = {".ply": G.save_ply, ".xyz": G.save_xyz, ".bpc": G.save_bpc}
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# bytes that a text cloud is made of, so that fuzzed files get past the
# first checks more often than random bytes do
TEXT_BYTES = st.lists(st.sampled_from(
    [b"ply\n", b"end_header\n", b"element vertex ", b"format ascii 1.0\n",
     b"property float x\n", b"0", b"1", b"9", b"-", b"+", b".", b"e", b"nan",
     b"inf", b" ", b"\t", b"\n", b"\r", b"#", b"\x00", b"\xff", b"\xc3\xa9",
     b"\xe2\x80\xa8", b"99999999999999999999"]), max_size=40).map(b"".join)


def _loads_or_names_path(path):
    """The loader of path's suffix returns a PointCloud or raises an
    IOError naming path, never another exception."""
    try:
        cloud = LOADERS[path.suffix](path)
    except IOError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(cloud, G.PointCloud)


@FUZZ
@given(suffix=st.sampled_from(sorted(LOADERS)),
       data=st.one_of(st.binary(max_size=200), TEXT_BYTES))
def test_arbitrary_bytes_load_or_raise_io_error(tmp_path, suffix, data):
    path = tmp_path / f"fuzz{suffix}"
    path.write_bytes(data)
    _loads_or_names_path(path)


@FUZZ
@given(suffix=st.sampled_from(sorted(LOADERS)),
       n=st.integers(0, 5),
       flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                      max_size=4),
       cut=st.integers(0, 10 ** 6))
def test_edited_cloud_loads_or_raises_io_error(tmp_path, suffix, n, flips, cut):
    """A valid file with bytes flipped and its tail cut off either loads or
    raises IOError naming the file."""
    path = tmp_path / f"fuzz{suffix}"
    SAVERS[suffix](path, random_cloud(np.random.default_rng(n), n))
    blob = bytearray(path.read_bytes())
    for where, xor in flips:
        if blob:
            blob[where % len(blob)] ^= xor
    path.write_bytes(bytes(blob[:len(blob) - cut % (len(blob) + 1)]))
    _loads_or_names_path(path)
