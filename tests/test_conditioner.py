import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from buildiff import conditioner as C, tensor as T
from buildiff.conditioner import (SilhouetteImage, _decode_graph, ae_loss,
                                  augment, encode, init_ae_params, load_pgm,
                                  save_pgm, train_autoencoder)
from buildiff.datagen import DatasetManifest, build_dataset
from buildiff.optim import AdamState
from buildiff.pipeline import TrainConfig, run_training
from oracles import gather_rows_reference, plan_indices


# malformed binary PGMs, each with a pattern of its IOError message
MALFORMED_PGM = {
    "empty-dimensions": (b"P5\n\n255\n" + bytes(4), "no height"),
    "short-payload": (b"P5\n2 2\n255\n" + bytes(3), "3 bytes, 2x2 needs 4"),
    "maxval-0": (b"P5\n2 2\n0\n" + bytes(4), "maxval 0 is outside 1..255"),
    "maxval-256": (b"P5\n2 2\n256\n" + bytes(8), "maxval 256 is outside 1..255"),
    "pixel-above-maxval": (b"P5\n2 2\n7\n\x00\x07\x08\x00", "pixel 8 exceeds maxval 7"),
}


def checker(size=16):
    px = np.indices((size, size)).sum(axis=0) % 2
    return SilhouetteImage(px.astype(np.float64))


class TestSilhouetteImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SilhouetteImage(np.full((4, 4), 1.5))
        with pytest.raises(ValueError):
            SilhouetteImage(np.full((4, 4), -0.1))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            SilhouetteImage(np.zeros((4, 4, 3)))


class TestPgmRoundTrip:
    def test_binary_image_exact(self, tmp_path):
        img = checker()
        save_pgm(tmp_path / "a.pgm", img)
        back = load_pgm(tmp_path / "a.pgm")
        np.testing.assert_array_equal(back.pixels, img.pixels)

    def test_gray_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = SilhouetteImage(rng.random((8, 12)))
        save_pgm(tmp_path / "g.pgm", img)
        back = load_pgm(tmp_path / "g.pgm")
        assert back.pixels.shape == (8, 12)
        assert np.abs(back.pixels - img.pixels).max() <= 0.5 / 255 + 1e-12

    def test_rejects_non_pgm(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(IOError):
            load_pgm(tmp_path / "bad.pgm")

    def test_skips_comment_lines(self, tmp_path):
        (tmp_path / "c.pgm").write_bytes(
            b"P5\n# made by hand\n2 2\n# two comments\n# in a row\n255\n"
            b"\x00\xff\x33\x00")
        back = load_pgm(tmp_path / "c.pgm")
        np.testing.assert_array_equal(back.pixels,
                                      [[0.0, 1.0], [0x33 / 255, 0.0]])

    @pytest.mark.parametrize("blob,why", MALFORMED_PGM.values(),
                             ids=list(MALFORMED_PGM))
    def test_malformed_header_names_path(self, tmp_path, blob, why):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(IOError, match=why) as err:
            load_pgm(path)
        assert str(path) in str(err.value)


# ------------------------------------------------------------ PGM fuzzing

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# the pieces a PGM header is made of, so that fuzzed files get past the
# first checks more often than random bytes do
PGM_BYTES = st.lists(st.sampled_from(
    [b"P5", b"P2", b"\n", b" ", b"\t", b"#", b"# c\n", b"0", b"1", b"2",
     b"8", b"255", b"256", b"99999999999", b"\x00", b"\xff", b"\x07"]),
    max_size=40).map(b"".join)


def _loads_or_names_path(path):
    """load_pgm returns a silhouette with pixels in [0, 1] or raises an
    IOError or ValueError naming path, never another exception."""
    try:
        img = load_pgm(path)
    except (IOError, ValueError) as exc:
        assert str(path) in str(exc)
    else:
        assert img.pixels.ndim == 2 and img.pixels.size > 0
        assert 0.0 <= img.pixels.min() and img.pixels.max() <= 1.0


@FUZZ
@given(data=st.one_of(st.binary(max_size=200), PGM_BYTES))
def test_arbitrary_bytes_load_or_raise_naming_path(tmp_path, data):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    _loads_or_names_path(path)


@FUZZ
@given(seed=st.integers(0, 1000), h=st.integers(1, 6), w=st.integers(1, 6),
       flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                      max_size=4),
       cut=st.integers(0, 10 ** 6))
def test_edited_pgm_loads_or_raises_naming_path(tmp_path, seed, h, w, flips, cut):
    """A valid file with bytes flipped and its tail cut off either loads or
    raises an error naming the file."""
    path = tmp_path / "fuzz.pgm"
    save_pgm(path, SilhouetteImage(np.random.default_rng(seed).random((h, w))))
    blob = bytearray(path.read_bytes())
    for where, xor in flips:
        blob[where % len(blob)] ^= xor
    path.write_bytes(bytes(blob[:len(blob) - cut % (len(blob) + 1)]))
    _loads_or_names_path(path)


@pytest.mark.parametrize("field", ["width", "height", "maxval"])
def test_header_field_of_thousands_of_digits_names_path(tmp_path, field):
    """A field longer than Python turns into an int by default raises
    IOError naming the file, not int()'s digit-limit error."""
    fields = {"width": b"2", "height": b"2", "maxval": b"255"}
    fields[field] = b"1" * 5000
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n" + b" ".join(fields.values()) + b"\n" + bytes(4))
    with pytest.raises(IOError, match=f"PGM {field} has 5000 digits") as err:
        load_pgm(path)
    assert str(path) in str(err.value)


class TestAugment:
    def test_deterministic_per_seed(self):
        img = checker()
        a = augment(img, 5)
        b = augment(img, 5)
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_output_in_range(self):
        img = checker()
        for seed in range(50):
            out = augment(img, seed)
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_rotation_happens_about_half_the_time(self):
        img = SilhouetteImage(np.eye(8))  # asymmetric enough to detect rot90
        rotated = 0
        for seed in range(400):
            out = augment(img, seed)
            # jitter is a constant shift, so subtracting the median image
            # reveals whether the pattern was rotated
            plain = np.abs(out.pixels - img.pixels).sum()
            rot = np.abs(out.pixels - np.rot90(img.pixels)).sum()
            rotated += rot < plain
        assert 140 <= rotated <= 260

    def test_non_square_rotation_rejected(self):
        img = SilhouetteImage(np.zeros((4, 6)))
        with pytest.raises(ValueError):
            # scan seeds until the rotation branch fires
            for seed in range(100):
                augment(img, seed)


def reconstruct(params, img):
    """The auto-encoder's (H, W) reconstruction of img."""
    return _decode_graph(params, encode(params, img).reshape(1, -1), img.height)


class TestEmbedding:
    def test_flattens(self):
        z = encode(init_ae_params(d=16, img_size=16, seed=0), checker(16))
        assert z.shape == (16,) and z.dtype == np.float64

    def test_rejects_nan(self):
        params = init_ae_params(d=16, img_size=16, seed=0)
        params["enc.projb"][3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            encode(params, checker(16))


class TestEncodeDecode:
    def test_shapes(self):
        params = init_ae_params(d=16, img_size=16, seed=0)
        recon = reconstruct(params, checker(16))
        assert recon.shape == (16, 16)
        assert recon.min() >= 0.0 and recon.max() <= 1.0

    def test_encode_decode_record_nothing(self, recorded_ops):
        reconstruct(init_ae_params(d=16, img_size=16, seed=0), checker(16))
        assert recorded_ops() == 0

    def test_encode_deterministic(self):
        params = init_ae_params(d=16, img_size=16, seed=0)
        img = checker(16)
        np.testing.assert_array_equal(encode(params, img), encode(params, img))

    def test_wrong_size_rejected(self):
        params = init_ae_params(d=16, img_size=16, seed=0)
        with pytest.raises(ValueError):
            encode(params, checker(24))

    def test_img_size_must_be_multiple_of_eight(self):
        with pytest.raises(ValueError):
            init_ae_params(d=8, img_size=20, seed=0)


class TestAeLoss:
    def test_hand_example(self):
        with T.Tape():
            I = np.array([[0.0, 1.0]])
            I_hat = np.array([[0.5, 0.5]])
            z = np.array([[1.0, 2.0]])
            z_a = np.array([[1.0, 4.0]])
            # recon mse = (0.25+0.25)/2 = 0.25 ; embed mse = (0+4)/2 = 2
            assert ae_loss(I, I_hat, z, z_a).item() == pytest.approx(2.25)

    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(1)
        a = rng.random((3, 3))
        b = rng.random((1, 5))
        with T.Tape():
            assert ae_loss(a, a.copy(), b, b.copy()).item() == 0.0


class TestTraining:
    def make_images(self, n=6, size=16, seed=0):
        rng = np.random.default_rng(seed)
        imgs = []
        for _ in range(n):
            px = np.zeros((size, size))
            r0, c0 = rng.integers(2, 6, size=2)
            r1, c1 = rng.integers(9, 14, size=2)
            px[r0:r1, c0:c1] = 1.0
            imgs.append(SilhouetteImage(px))
        return imgs

    def loss_of(self, params, images):
        total = 0.0
        for img in images:
            total += np.mean((reconstruct(params, img) - img.pixels) ** 2)
        return total / len(images)

    def train(self, images, epochs, lr, d, seed, log_fn=None):
        """train_autoencoder driven for `epochs` epochs as run_training
        drives it: one permutation of the images per epoch."""
        params = init_ae_params(d, images[0].height, seed)
        state = AdamState(params, lr=lr)
        rng = np.random.default_rng(seed + 1)
        for epoch in range(epochs):
            order = rng.permutation(len(images))
            loss = train_autoencoder(params, state, [images[int(i)] for i in order], rng)
            if log_fn is not None:
                log_fn(epoch, loss)
        return params

    def test_loss_decreases(self):
        images = self.make_images()
        init = init_ae_params(d=8, img_size=16, seed=0)
        before = self.loss_of(init, images)
        params = self.train(images, epochs=8, lr=0.002, d=8, seed=0)
        after = self.loss_of(params, images)
        assert after < before * 0.8

    def test_deterministic(self):
        images = self.make_images()
        a = self.train(images, epochs=2, lr=0.001, d=8, seed=3)
        b = self.train(images, epochs=2, lr=0.001, d=8, seed=3)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    @pytest.mark.parametrize("size", [16, 32])
    def test_two_epochs_bitwise_equal_to_reference_gather(self, size, monkeypatch):
        """Training through the gather plans gives bit for bit the
        parameters of training through the gather as it stood before
        plans (tests/oracles.py)."""
        images = self.make_images(n=3, size=size, seed=size)
        planned = self.train(images, epochs=2, lr=0.002, d=8, seed=1)
        calls = []

        def reference(a, rows):
            calls.append(rows)
            return gather_rows_reference(a, plan_indices(rows))

        monkeypatch.setattr(T, "gather_rows", reference)
        reference_params = self.train(images, epochs=2, lr=0.002, d=8, seed=1)
        # 3 images, 2 epochs, 4 + 4 encoder and 6 decoder gathers each
        assert len(calls) == 3 * 2 * 14
        assert planned.keys() == reference_params.keys()
        for k in planned:
            assert planned[k].tobytes() == reference_params[k].tobytes(), k

    def test_each_gather_planned_once_per_shape(self):
        """A 32 px encode and decode use 7 conv and 3 upsample plans; a
        second pass builds none, and each plan builds its bins once."""
        C._conv_plan.cache_clear()
        C._upsample_plan.cache_clear()
        params = init_ae_params(8, 32, seed=0)
        img = self.make_images(n=1, size=32)[0]
        for _ in range(2):
            with T.Tape() as tape:
                z = C._encode_graph(params, img.pixels)
                loss = ae_loss(img.pixels, _decode_graph(params, z, 32), z, z)
            tape.backward(loss, list(params.values()))
        conv, up = C._conv_plan.cache_info(), C._upsample_plan.cache_info()
        assert (conv.misses, conv.hits) == (7, 7)
        assert (up.misses, up.hits) == (3, 3)
        bins = C._conv_plan(32, 32, 1, 1).bins(8)
        assert C._conv_plan(32, 32, 1, 1).bins(8) is bins

    def test_empty_dataset_rejected(self, tmp_path):
        """A dataset with no training entries is refused before anything is
        trained, with the manifest's path."""
        build_dataset(tmp_path / "ds", n_train=1, n_test=1, n_points=32,
                      resolution=16, seed=0)
        manifest = DatasetManifest.load(tmp_path / "ds" / "manifest.json")
        manifest.entries = [e for e in manifest.entries if e["split"] == "test"]
        manifest.save(tmp_path / "ds" / "manifest.json")
        with pytest.raises(ValueError, match=r"manifest\.json: no 'train' entries"):
            run_training(tmp_path / "ds", TrainConfig(d=8, epochs_ae=1),
                         "autoencoder", tmp_path / "ck")
        assert not (tmp_path / "ck" / "autoencoder.bdif").exists()

    def test_training_log_callback(self, monkeypatch):
        """One call per epoch, with the epoch's mean loss over its images;
        each image takes one Adam step."""
        images = self.make_images(n=3)
        rows = []
        params = self.train(images, epochs=2, lr=0.001, d=8, seed=0,
                            log_fn=lambda e, l: rows.append((e, l)))
        assert [e for e, _ in rows] == [0, 1]
        assert all(np.isfinite(l) for _, l in rows)
        losses = []

        def recorded(*args):
            loss = ae_loss(*args)
            losses.append(loss.item())
            return loss
        monkeypatch.setattr(C, "ae_loss", recorded)
        state = AdamState(params, lr=0.001)
        mean = train_autoencoder(params, state, images, np.random.default_rng(5))
        assert len(losses) == 3 and state.step_count == 3
        assert mean == sum(losses) / 3

    def test_non_finite_loss_raises_before_adam(self):
        images = self.make_images(n=2)
        params = init_ae_params(d=8, img_size=16, seed=0)
        params["dec.linb"][:] = np.nan
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState(params, lr=0.001)
        with pytest.raises(FloatingPointError, match="non-finite training loss"):
            train_autoencoder(params, state, images, np.random.default_rng(0))
        assert state.step_count == 0
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])
