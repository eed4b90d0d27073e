"""Smoke tests for the runnable scripts: each starts in a fresh interpreter
and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import buildiff
from buildiff.datagen import build_dataset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(buildiff.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    build_dataset(root, n_train=2, n_test=1, n_points=64, resolution=16, seed=0)
    return root


def test_inspect_dataset(tiny_dataset):
    out = run_script("inspect_dataset.py", "--dataset", str(tiny_dataset),
                     "--show", "1")
    assert out.returncode == 0, out.stderr
    assert "entries: 3" in out.stdout


def test_run_toy_pipeline_help():
    out = run_script("run_toy_pipeline.py", "--help")
    assert out.returncode == 0, out.stderr
    assert "usage" in out.stdout


def test_tiny_cli_run_is_reproducible(tmp_path):
    """Two runs write the same files, byte for byte, so the outputs of two
    checkouts can be compared with diff -r."""
    trees = []
    for name in ("a", "b"):
        out = run_script("tiny_cli_run.py", "--out", str(tmp_path / name))
        assert out.returncode == 0, out.stderr
        root = tmp_path / name
        trees.append({str(p.relative_to(root)): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    for path in ("ckpt/autoencoder.bdif", "ckpt/base.bdif", "ckpt/upsampler.bdif",
                 "sample.ply", "sample_high_res.ply",
                 "trace/trace_base_00000.ply", "trace/trace_upsampler_00000.ply",
                 "sample_high_res.bpc", "sample_high_res.xyz", "report.jsonl"):
        assert path in trees[0], path
    # one file of training state per stage, its config and its step log; no
    # RNG sidecar, temp file or lock is left behind
    assert {p for p in trees[0] if p.startswith("ckpt/")} == {
        "ckpt/autoencoder.bdif", "ckpt/autoencoder.config",
        "ckpt/autoencoder.log.jsonl", "ckpt/base.bdif", "ckpt/base.config", "ckpt/base.log.jsonl",
        "ckpt/upsampler.bdif", "ckpt/upsampler.config",
        "ckpt/upsampler.log.jsonl"}
