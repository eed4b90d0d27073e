"""The one heap setting, tensor.keep_heap_warm: who calls it and what it
asks of libc."""

import types

import numpy as np
import pytest

from buildiff import cli, tensor as T
from buildiff.datagen import build_dataset
from buildiff.diffusion import sample_base, sample_upsampled
from buildiff.geometry import PointCloud, save_ply
from buildiff.pipeline import TrainConfig, run_training
from buildiff.schedule import linear_beta_schedule

SCH = linear_beta_schedule(4)


def zero_model(K):
    return lambda xt, t, z_I: np.zeros((xt.shape[0] - K, 3))


def train_ae(tmp_path):
    data = tmp_path / "data"
    build_dataset(data, n_train=2, n_test=1, n_points=32, resolution=16, seed=0)
    cfg = TrainConfig(T=4, T_upsampler=4, K=4, N=8, d=8, epochs_ae=0)
    run_training(data, cfg, "autoencoder", tmp_path / "ck")


def export(tmp_path):
    src = tmp_path / "a.ply"
    save_ply(src, PointCloud(np.eye(3)))
    assert cli.main(["export", "--input", str(src),
                     "--out", str(tmp_path / "a.xyz")]) == 0


ENTRY_POINTS = {
    "run_training": train_ae,
    "sample_base": lambda tmp_path: sample_base(zero_model(0), None, 8, 0.0,
                                                0, SCH),
    "sample_upsampled": lambda tmp_path: sample_upsampled(
        zero_model(4), None, PointCloud(np.eye(4, 3)), 8, 0.0, 0, SCH),
    "cli.main": export,  # a command that neither trains nor samples
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_keeps_the_heap_warm(entry, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(T, "keep_heap_warm", lambda: calls.append(1))
    ENTRY_POINTS[entry](tmp_path)
    assert calls


def fake_libc(monkeypatch, **symbols):
    """ctypes.CDLL(None), as keep_heap_warm sees it, with only `symbols`."""
    monkeypatch.setattr(T.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(**symbols))


def test_sets_both_thresholds_and_can_repeat(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    fake_libc(monkeypatch, mallopt=mallopt)
    T.keep_heap_warm()
    T.keep_heap_warm()
    assert calls == [(T.M_MMAP_THRESHOLD, 32 << 20),
                     (T.M_TRIM_THRESHOLD, 64 << 20)] * 2


def test_silent_no_op_without_mallopt(monkeypatch, capsys):
    fake_libc(monkeypatch)
    assert T.keep_heap_warm() is None
    assert capsys.readouterr() == ("", "")
