import numpy as np
import pytest

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
