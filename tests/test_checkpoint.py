import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from buildiff import checkpoint
from buildiff.checkpoint import (CheckpointError, check_records, load_params,
                                 save_params)


def small_params():
    rng = np.random.default_rng(0)
    return {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=3),
            "opt.t": np.array([4.0]), "opt.step": np.array(4.0)}


def test_round_trip(tmp_path):
    path = tmp_path / "p.bdif"
    params = small_params()
    save_params(path, params)
    back = load_params(path)
    assert list(back) == list(params)
    for name, arr in params.items():
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)


def test_truncation_at_every_offset_names_path_and_offset(tmp_path):
    full = tmp_path / "full.bdif"
    save_params(full, small_params())
    blob = full.read_bytes()
    cut_path = tmp_path / "cut.bdif"
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError) as exc:
            load_params(cut_path)
        msg = str(exc.value)
        assert str(cut_path) in msg and f"truncated at byte offset {cut}:" in msg


def test_bad_name_bytes_name_path_and_offset(tmp_path):
    path = tmp_path / "p.bdif"
    save_params(path, {"w": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[14] = 0xFF  # first byte of the first name, after magic, header, length
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"p\.bdif: parameter name at byte offset 12"):
        load_params(path)


@pytest.mark.parametrize("edit,want", [
    (lambda b: b.pop("b"), "p.bdif: no record 'b'; the toy stage needs one of shape (3,)"),
    (lambda b: b.update(w=np.zeros((3, 2))),
     "p.bdif: record 'w' has shape (3, 2); the toy stage needs (2, 3)"),
    (lambda b: b.update(x=np.zeros(4)),
     "p.bdif: the toy stage has no record 'x' (shape (4,))"),
], ids=["missing", "misshapen", "extra"])
def test_check_records_names_path_record_and_shapes(edit, want):
    blob = small_params()
    shapes = {k: v.shape for k, v in blob.items()}
    check_records("p.bdif", blob, shapes, "the toy stage")
    edit(blob)
    with pytest.raises(CheckpointError) as exc:
        check_records("p.bdif", blob, shapes, "the toy stage")
    assert str(exc.value) == want


class _FailingFile:
    """A file whose writes raise once `budget` bytes have been written."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            raise OSError("no space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("budget", [0, 3, 40])
def test_interrupted_save_leaves_old_file(tmp_path, monkeypatch, budget):
    """A write that raises part-way through leaves the previous file byte
    for byte and no temp file; the error reaches the caller."""
    path = tmp_path / "p.bdif"
    save_params(path, small_params())
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open",
                        lambda p, mode: _FailingFile(open(p, mode), budget),
                        raising=False)
    with pytest.raises(OSError, match="no space left"):
        save_params(path, {"w": np.ones((5, 5))})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.bdif"]


def test_save_replaces_in_one_step(tmp_path):
    path = tmp_path / "p.bdif"
    save_params(path, {"w": np.zeros(2)})
    save_params(path, small_params())
    assert list(load_params(path)) == list(small_params())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.bdif"]



@pytest.mark.parametrize("dims", [(1,) * 65, (0,) + (2 ** 32 - 1,) * 3],
                         ids=["rank-65", "empty-but-too-big"])
def test_shape_numpy_cannot_hold_names_path(tmp_path, dims):
    path = tmp_path / "p.bdif"
    payload = bytes(8 * int(np.prod(dims)))
    path.write_bytes(b"BDIF" + struct.pack("<IIH", 1, 1, 1) + b"w"
                     + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + payload)
    with pytest.raises(CheckpointError, match=r"p\.bdif: shape .* of 'w' at byte offset 12"):
        load_params(path)


def _loads_or_names_path(path):
    try:
        assert isinstance(load_params(path), dict)
    except CheckpointError as exc:
        assert str(path) in str(exc)


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.binary(max_size=200))
def test_arbitrary_bytes_load_or_raise_checkpoint_error(tmp_path, data):
    path = tmp_path / "fuzz.bdif"
    path.write_bytes(data)
    _loads_or_names_path(path)


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                      max_size=4),
       cut=st.integers(0, 10 ** 6))
def test_edited_checkpoint_loads_or_raises_checkpoint_error(tmp_path, flips, cut):
    """A valid file with bytes flipped and its tail cut off either loads or
    raises CheckpointError naming the file, never another error."""
    path = tmp_path / "fuzz.bdif"
    save_params(path, small_params())
    blob = bytearray(path.read_bytes())
    for where, xor in flips:
        blob[where % len(blob)] ^= xor
    path.write_bytes(bytes(blob[:len(blob) - cut % (len(blob) + 1)]))
    _loads_or_names_path(path)
