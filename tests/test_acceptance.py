"""Acceptance suite: twelve numbered criteria, one test each.

Every test emits a single `criterion NN: PASS|FAIL — description` line that
bypasses pytest capture, so the verdict list is always visible. The slowest
criterion (the toy end-to-end run, #10) trains the autoencoder and base
diffusion stage from scratch; the whole suite is budgeted well under the
30-minute limit on one CPU core.
"""

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from buildiff import tensor as T
from buildiff.checkpoint import load_params
from buildiff.cli import main as cli_main
from buildiff.conditioner import encode, load_pgm
from buildiff.datagen import DatasetManifest, build_dataset, roof_oracle
from buildiff.denoiser import (DenoiserConfig, denoise_graph,
                               init_denoiser_params, make_model)
from buildiff.diffusion import (ancestral_step, forward_noise, guided_epsilon,
                                reconstruct_x0, sample_base, sample_upsampled)
from buildiff.geometry import PointCloud, normalize_unit_cube
from buildiff.metrics import chamfer, emd, fscore
from buildiff.pipeline import (regularization_loss, run_training, toy_config,
                               train_step, TrainConfig)
from buildiff.optim import AdamState
from buildiff.schedule import lambda_weight, linear_beta_schedule
from oracles import finite_diff_grad


VERDICT_LINES: list[str] = []  # printed by the terminal-summary hook in conftest


def verdict(num: int, ok: bool, desc: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {desc}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# --------------------------------------------------------------- criterion 1

def test_criterion_01_schedule_identity():
    start = time.time()
    sch = linear_beta_schedule(1000, 0.0001, 0.02)
    v = 0.0
    worst = 0.0
    for t in range(1, 1001):
        v = sch.alpha(t) * v + sch.betas[t - 1]
        worst = max(worst, abs(v - (1.0 - sch.alpha_bar(t))))
    elapsed = time.time() - start
    verdict(1, worst < 1e-12 and elapsed < 1.0,
            f"variance recursion equals 1-alpha_bar within 1e-12 "
            f"(worst {worst:.2e}, {elapsed:.2f}s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_forward_reconstruct_inversion():
    start = time.time()
    sch = linear_beta_schedule(1000)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x0 = rng.normal(size=(4, 3))
        eps = rng.normal(size=(4, 3))
        t = int(rng.integers(1, 1001))
        back = reconstruct_x0(forward_noise(x0, t, eps, sch), t, eps, sch)
        worst = max(worst, float(np.abs(back - x0).max()))
    elapsed = time.time() - start
    verdict(2, worst < 1e-10 and elapsed < 5.0,
            f"reconstruct inverts forward noising within 1e-10 "
            f"(worst {worst:.2e}, {elapsed:.2f}s)")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_guidance_algebra():
    sch = linear_beta_schedule(50)
    params = init_denoiser_params(DenoiserConfig(d=8, w1=6, w2=10, wd=12), seed=0)
    rng0 = np.random.default_rng(77)
    params["dec.out_w"][...] = rng0.normal(size=params["dec.out_w"].shape) * 0.05
    model = make_model(params)
    z_I = rng0.normal(size=8)

    # reference: conditional-only ancestral loop sharing the RNG stream
    rng = np.random.default_rng(11)
    x = rng.standard_normal((16, 3))
    for t in range(sch.T, 0, -1):
        eps = model(x, t, z_I)
        z = rng.standard_normal((16, 3)) if t > 1 else None
        x = ancestral_step(x, t, eps, z, sch)

    cloud = sample_base(model, z_I, 16, 0.0, seed=11, schedule=sch)
    bit_identical = np.array_equal(cloud.points, x)

    # spot-check of the guided combination at gamma = 4
    c = np.random.default_rng(1).normal(size=(5, 3))
    u = np.random.default_rng(2).normal(size=(5, 3))
    exact = np.array_equal(guided_epsilon(c, u, 4.0), 5.0 * c - 4.0 * u)

    verdict(3, bit_identical and exact,
            "gamma=0 sampling bit-identical to conditional-only loop; "
            "(1+4)e_c - 4e_u exact")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_analytic_denoiser_convergence():
    start = time.time()
    sch = linear_beta_schedule(1000)
    x0 = np.array([0.3, -0.5, 0.7])

    def model(xt, t, z_I):
        ab = sch.alpha_bar(t)
        return (xt - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab)

    # 1000 points = 1000 independent chains under this per-point model
    cloud = sample_base(model, None, 1000, 0.0, seed=0, schedule=sch)
    err = cloud.points - x0
    mean_err = float(np.abs(err.mean(axis=0)).max())
    std_err = float(err.std(axis=0).max())
    elapsed = time.time() - start
    verdict(4, mean_err < 0.05 and std_err < 0.05 and elapsed < 120.0,
            f"point-mass chains: mean err {mean_err:.4f}, std {std_err:.4f} "
            f"({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_gaussian_target_moments():
    start = time.time()
    sch = linear_beta_schedule(1000)
    mu = np.array([0.2, -0.1, 0.4])
    s2 = 0.25  # target variance per coordinate

    def model(xt, t, z_I):
        ab = sch.alpha_bar(t)
        var_t = ab * s2 + (1.0 - ab)
        x0_mean = mu + (np.sqrt(ab) * s2 / var_t) * (xt - np.sqrt(ab) * mu)
        return (xt - np.sqrt(ab) * x0_mean) / np.sqrt(1.0 - ab)

    cloud = sample_base(model, None, 10_000, 0.0, seed=2, schedule=sch)
    pts = cloud.points
    sigma = np.sqrt(s2)
    mean_err = float(np.abs(pts.mean(axis=0) - mu).max())
    var_err = float(np.abs(pts.var(axis=0) - s2).max()) / s2
    elapsed = time.time() - start
    ok = mean_err < 0.02 * sigma and var_err < 0.10 and elapsed < 300.0
    verdict(5, ok,
            f"Gaussian target: mean err {mean_err:.4f} (<{0.02 * sigma:.3f}), "
            f"var err {var_err * 100:.1f}% (<10%) ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_gradient_correctness():
    sch = linear_beta_schedule(100)
    params = init_denoiser_params(DenoiserConfig(d=8, w1=6, w2=10, wd=12), seed=0)
    rng = np.random.default_rng(3)
    params["dec.out_w"][...] = rng.normal(size=params["dec.out_w"].shape) * 0.05
    x0 = rng.normal(size=(8, 3)) * 0.5
    eps = rng.normal(size=(8, 3))
    z = rng.normal(size=8)
    t, rho = 10, 0.001
    xt = forward_noise(x0, t, eps, sch)
    names = sorted(params)

    def loss_value(values):
        p = dict(zip(names, values))
        with T.Tape():
            eps_hat = denoise_graph(p, xt, t, z)
            L_eps = T.mse(eps, eps_hat)
            x0_hat = reconstruct_x0(xt, t, eps_hat, sch)
            L_reg = regularization_loss(x0, x0_hat, t, sch)
            return T.add(L_eps, T.scale(L_reg, rho)).item()

    with T.Tape() as tape:
        eps_hat = denoise_graph(params, xt, t, z)
        L_eps = T.mse(eps, eps_hat)
        x0_hat = reconstruct_x0(xt, t, eps_hat, sch)
        L_reg = regularization_loss(x0, x0_hat, t, sch)
        ad = tape.backward(T.add(L_eps, T.scale(L_reg, rho)),
                           [params[n] for n in names])

    fd = finite_diff_grad(loss_value, [params[n] for n in names], 1e-6)
    gmax = max(np.abs(g).max() for g in fd)
    rel = 0.0
    for got, g in zip(ad, fd):
        rel = max(rel, float(np.abs(got - g).max() / gmax))
    verdict(6, rel < 1e-6,
            f"full objective gradient vs central differences: rel err {rel:.2e}")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(4)

    def brute_chamfer(a, b):
        d = np.sum((a[:, None] - b[None]) ** 2, axis=2)
        return d.min(axis=1).mean() + d.min(axis=0).mean()

    cd_ok = True
    for _ in range(30):
        n, m = rng.integers(1, 17, size=2)
        a, b = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        got = chamfer(PointCloud(a), PointCloud(b))
        cd_ok &= abs(got - brute_chamfer(a, b)) < 1e-12

    emd_ok = True
    for _ in range(15):
        n = int(rng.integers(2, 9))
        a, b = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        d = np.sqrt(np.sum((a[:, None] - b[None]) ** 2, axis=2))
        best = min(d[np.arange(n), list(p)].mean()
                   for p in itertools.permutations(range(n)))
        got, _ = emd(PointCloud(a), PointCloud(b), mode="exact")
        emd_ok &= abs(got - best) < 1e-10

    f1_ok = True
    for _ in range(15):
        n, m = rng.integers(2, 30, size=2)
        a, b = rng.normal(size=(n, 3)) * 0.05, rng.normal(size=(m, 3)) * 0.05
        tau = 0.001
        da = np.sum((a[:, None] - b[None]) ** 2, axis=2)
        prec = 100.0 * (da.min(axis=1) <= tau).mean()
        rec = 100.0 * (da.min(axis=0) <= tau).mean()
        want = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        f1_ok &= abs(fscore(PointCloud(a), PointCloud(b), tau) - want) < 1e-12

    a = rng.normal(size=(256, 3))
    b = rng.normal(size=(256, 3))
    exact, _ = emd(PointCloud(a), PointCloud(b), mode="exact")
    approx, _ = emd(PointCloud(a), PointCloud(b), mode="approx")
    approx_ok = exact <= approx <= exact * 1.02

    verdict(7, cd_ok and emd_ok and f1_ok and approx_ok,
            f"CD/EMD/F1 match brute-force oracles; approx EMD within "
            f"{(approx / exact - 1) * 100:.3f}% of exact at n=256")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_lambda_table():
    table = {1: 1.0, 2: 0.75, 250: 0.75, 251: 0.5, 500: 0.5,
             501: 0.25, 750: 0.25, 751: 0.0, 1000: 0.0}
    ok = all(lambda_weight(t, 1000) == v for t, v in table.items())
    verdict(8, ok, "lambda(t) table for T=1000 matches exactly")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_upsampler_exactness():
    sch = linear_beta_schedule(50)
    params = init_denoiser_params(DenoiserConfig(d=8, w1=6, w2=10, wd=12), seed=0)
    rng = np.random.default_rng(5)
    params["dec.out_w"][...] = rng.normal(size=params["dec.out_w"].shape) * 0.05
    lowres = PointCloud(rng.normal(size=(32, 3)))
    out = sample_upsampled(make_model(params, K=32), rng.normal(size=8), lowres,
                           128, 4.0, seed=6, schedule=sch)
    ok = np.array_equal(out.points[:32], lowres.points)
    verdict(9, ok, "upsampled cloud's first K points equal the low-res input bitwise")


# -------------------------------------------------------------- criterion 10

@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_e2e")
    start = time.time()
    cfg = toy_config()
    build_dataset(root / "data", n_train=200, n_test=50, n_points=cfg.N, seed=0)
    run_training(root / "data", cfg, "autoencoder", root / "ckpt")
    run_training(root / "data", cfg, "base", root / "ckpt")
    return root, cfg, start


def _roof_match_rate(model, ae, manifest, data_dir, cfg, gamma, schedule):
    tests = [e for e in manifest.entries if e["split"] == "test"]
    hits = 0
    for i, e in enumerate(tests):
        z = encode(ae, load_pgm(data_dir / e["silhouette"]))
        cloud = sample_base(model, z, cfg.K, gamma, seed=3000 + i,
                            schedule=schedule)
        norm = normalize_unit_cube(cloud)
        hits += roof_oracle(norm) == e["spec"]["roof_type"]
    return hits / len(tests)


def test_criterion_10_toy_end_to_end(toy_run):
    root, cfg, start = toy_run
    ae = load_params(root / "ckpt/autoencoder.bdif")
    blob = load_params(root / "ckpt/base.bdif")
    trained = make_model({k: v for k, v in blob.items()
                          if not k.startswith("opt.")})
    sch = linear_beta_schedule(cfg.T, cfg.beta_1, cfg.beta_T, cfg.sigma_mode)
    manifest = DatasetManifest.load(root / "data/manifest.json")

    rate = _roof_match_rate(trained, ae, manifest, root / "data", cfg,
                            4.0, sch)

    untrained = make_model(init_denoiser_params(DenoiserConfig(d=cfg.d), seed=1))
    floor = _roof_match_rate(untrained, ae, manifest, root / "data", cfg,
                             4.0, sch)

    elapsed = time.time() - start
    ok = rate >= 0.80 and 0.3 <= floor <= 0.7 and elapsed < 1800.0
    verdict(10, ok,
            f"toy end-to-end: trained match {rate * 100:.0f}% (>=80%), "
            f"untrained floor {floor * 100:.0f}% (~50%), {elapsed / 60:.1f} min")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_drop_frequency():
    sch = linear_beta_schedule(20)
    params = init_denoiser_params(DenoiserConfig(d=8, w1=6, w2=10, wd=12), seed=0)
    state = AdamState(params, lr=1e-6)
    rng = np.random.default_rng(7)
    cfg = TrainConfig(d=8, drop_prob=0.1)
    embs = [rng.normal(size=8) for _ in range(8)]
    x0s = [rng.normal(size=(4, 3)) for _ in range(8)]
    dropped = total = 0
    while total < 10_000:
        batch = [(x0s[j], x0s[j][:0], embs[j]) for j in range(8)]
        log = train_step(params, state, batch, cfg, sch, rng)
        dropped += sum(log.dropped)
        total += len(log.dropped)
    freq = dropped / total
    verdict(11, abs(freq - 0.10) <= 0.01,
            f"classifier-free drop frequency {freq:.4f} over {total} samples")


# -------------------------------------------------------------- criterion 12

def test_criterion_12_cli_determinism(tmp_path):
    tiny = ["--set", "T=10", "--set", "T_upsampler=8", "--set", "K=16",
            "--set", "N=32", "--set", "d=8", "--set", "epochs_ae=1",
            "--set", "epochs_base=1", "--set", "epochs_upsampler=1",
            "--set", "batch_size=2", "--set", "checkpoint_interval=1"]

    def tree(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    results = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        ds = base / "ds"
        ck = base / "ck"
        assert cli_main(["gen-data", "--out", str(ds), "--n-train", "4",
                         "--n-test", "2", "--n-points", "96",
                         "--resolution", "16", "--seed", "0"]) == 0
        for cmd in ("train-ae", "train-base", "train-upsampler"):
            assert cli_main([cmd, "--dataset", str(ds), "--out", str(ck),
                             "--seed", "0"] + tiny) == 0
        img = sorted((ds / "silhouettes").glob("*.pgm"))[0]
        assert cli_main(["sample", "--checkpoints", str(ck), "--image",
                         str(img), "--out", str(base / "sample.ply"),
                         "--seed", "9", "--high-res"]) == 0
        assert cli_main(["export", "--input", str(base / "sample.ply"),
                         "--out", str(base / "sample.bpc")]) == 0
        pred = base / "pred"
        pred.mkdir()
        (pred / "s.ply").write_bytes((base / "sample.ply").read_bytes())
        ref = base / "ref"
        ref.mkdir()
        from buildiff.geometry import load_bpc, save_bpc
        save_bpc(ref / "s.bpc", load_bpc(ds / "clouds" / "b00000.bpc"))
        assert cli_main(["eval", "--pred", str(pred), "--ref", str(ref),
                         "--out", str(base / "report.jsonl"), "--seed", "0"]) == 0
        snapshot = tree(base)
        # paths inside the report differ per run dir; reports are pure JSON of
        # metric values and ids, so they are comparable as-is
        results.append(snapshot)

    ok = results[0] == results[1]
    verdict(12, ok, "all CLI commands byte-identical across two seeded runs")
