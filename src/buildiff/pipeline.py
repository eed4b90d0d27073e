"""The one training loop for the three stages (auto-encoder, base
diffusion, upsampler diffusion), the diffusion training step and its
footprint regularization loss, experiment configuration, and resumable
checkpointing."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import (CheckpointError, check_records, load_params, replaced,
                         save_params)
from .conditioner import (SilhouetteImage, ae_shapes, check_silhouette_size,
                          encode, init_ae_params, load_pgm, train_autoencoder)
from .denoiser import (DenoiserConfig, denoise_graph, denoiser_shapes,
                       init_denoiser_params)
from .diffusion import forward_noise, reconstruct_x0
from .datagen import DatasetManifest
from .geometry import (PointCloud, farthest_point_sample, load_bpc,
                       nearest_indices)
from .optim import AdamState, adam_step
from .schedule import (SIGMA_MODES, NoiseSchedule, lambda_weight,
                       linear_beta_schedule)

T_MAX = 100_000  # the most steps a stage's noise schedule may have
D_MAX = 1024     # the widest condition and time embedding d
N_MAX = 65_536   # the most points an upsampled cloud may have


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings, checked when built: a bad value raises ValueError
    naming its key. The checks build no array. Each size is bounded so
    that the arrays it sets fit in memory:
    - T and T_upsampler by T_MAX, 100 times the paper's T, for a stage's
      noise schedule;
    - d by D_MAX, 8 times the paper's d: the denoiser's (2d, d) fuse
      weight then takes 16 MiB, and Adam keeps two more of each weight;
    - N by N_MAX, 16 times the paper's N: one (N, 128) point-feature
      array of the upsampler then takes 64 MiB, and a training sample
      keeps several; K by K < N.
    1 - beta_1 must round below 1.0 in float64 (beta_1 above about
    5.6e-17): otherwise alpha_bar(1) is 1.0 and every sampling step at
    t = 1 divides 0 by 0."""

    T: int = 1000
    T_upsampler: int = 500
    beta_1: float = 0.0001
    beta_T: float = 0.02
    K: int = 1024
    N: int = 4096
    d: int = 128
    rho: float = 0.001
    drop_prob: float = 0.1
    lr: float = 0.0002
    epochs_ae: int = 30
    epochs_base: int = 700
    epochs_upsampler: int = 200
    batch_size: int = 8
    seed: int = 0
    sigma_mode: str = "large"
    checkpoint_interval: int = 10  # epochs

    def __post_init__(self):
        for ok, rule in (
                (2 <= self.T <= T_MAX, f"2 <= T <= {T_MAX}, got {self.T}"),
                (2 <= self.T_upsampler <= T_MAX,
                 f"2 <= T_upsampler <= {T_MAX}, got {self.T_upsampler}"),
                (0 < self.beta_1 < self.beta_T < 1,
                 f"0 < beta_1 < beta_T < 1, got {self.beta_1}, {self.beta_T}"),
                (1.0 - self.beta_1 < 1.0,
                 f"1 - beta_1 < 1 in float64, got beta_1={self.beta_1}"),
                (self.sigma_mode in SIGMA_MODES,
                 f"sigma_mode in {SIGMA_MODES}, got {self.sigma_mode!r}"),
                (1 <= self.K < self.N, f"1 <= K < N, got K={self.K}, N={self.N}"),
                (self.N <= N_MAX, f"N <= {N_MAX}, got N={self.N}"),
                (2 <= self.d <= D_MAX and self.d % 2 == 0,
                 f"an even d in 2..{D_MAX}, got {self.d}"),
                (self.batch_size >= 1, f"batch_size >= 1, got {self.batch_size}"),
                (self.checkpoint_interval >= 1,
                 f"checkpoint_interval >= 1, got {self.checkpoint_interval}"),
                (self.seed >= 0, f"seed >= 0, got {self.seed}"),
                (math.isfinite(self.lr) and self.lr > 0,
                 f"a finite lr > 0, got {self.lr}"),
                (0 <= self.drop_prob <= 1, f"0 <= drop_prob <= 1, got {self.drop_prob}"),
                (math.isfinite(self.rho) and self.rho >= 0,
                 f"a finite rho >= 0, got {self.rho}"),
                *((getattr(self, k) >= 0, f"{k} >= 0, got {getattr(self, k)}")
                  for k in ("epochs_ae", "epochs_base", "epochs_upsampler"))):
            if not ok:
                raise ValueError(f"need {rule}")

    def schedule(self, stage: str) -> NoiseSchedule:
        """The linear beta schedule of the 'base' or 'upsampler' stage."""
        T_stage = {"base": self.T, "upsampler": self.T_upsampler}[stage]
        return linear_beta_schedule(T_stage, self.beta_1, self.beta_T,
                                    self.sigma_mode)

    def with_lines(self, lines, source: str) -> "TrainConfig":
        """This config with `key=value` lines applied; blank lines and `#`
        comments are skipped. A bad key or value raises ValueError naming
        `source` and the key."""
        casts = {f.name: type(f.default) for f in dataclasses.fields(self)}
        changes = {}
        for line in lines:
            key, _, value = (part.strip() for part in line.partition("="))
            if not key or key.startswith("#"):
                continue
            if key not in casts:
                raise ValueError(f"{source}: unknown config key {key!r}")
            try:
                changes[key] = casts[key](value)
            except ValueError:
                raise ValueError(f"{source}: {key}={value!r} is not a valid "
                                 f"{casts[key].__name__}") from None
        try:
            return dataclasses.replace(self, **changes)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    def with_file(self, path) -> "TrainConfig":
        """This config with the lines of the file at path applied (see
        with_lines); bytes that are not UTF-8 raise ValueError naming path."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        return self.with_lines(text.splitlines(), str(path))

    def save(self, path) -> None:
        with replaced(path, "w") as fh:
            for f in dataclasses.fields(self):
                fh.write(f"{f.name}={getattr(self, f.name)}\n")

    @staticmethod
    def load(path) -> "TrainConfig":
        return TrainConfig().with_file(path)


def toy_config(seed: int = 0) -> TrainConfig:
    """Desk-scale settings used by the acceptance suite."""
    return TrainConfig(T=100, T_upsampler=50, K=256, N=1024, d=32,
                       epochs_ae=20, epochs_base=200, epochs_upsampler=30,
                       sigma_mode="posterior", seed=seed)


@dataclass
class StepLog:
    epoch: int
    step: int
    L_eps: float
    L_reg: float
    L_theta: float
    t_drawn: list[int]
    lambda_drawn: list[float]
    dropped: list[bool]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


def regularization_loss(x0: np.ndarray, x0_hat: np.ndarray, t: int,
                        schedule: NoiseSchedule) -> np.ndarray:
    """lambda(t) * Chamfer(proj(x0), proj(x0_hat)).

    Nearest-neighbour indices are taken as constants for the backward pass
    (the standard Chamfer subgradient). When lambda(t) is 0 the Chamfer
    computation is skipped entirely and a constant zero is returned.

    The k-d tree cannot rank infinite distances, so the two projected
    clouds must span a box whose squared diagonal is finite; a NaN, an
    infinity or a diverged coordinate such as 1e300 raises
    FloatingPointError("non-finite training loss") first.
    """
    if x0.shape != x0_hat.shape:
        raise ValueError(f"count mismatch: {x0.shape} vs {x0_hat.shape}")
    lam = lambda_weight(t, schedule.T)
    if lam == 0.0:
        return np.array(0.0)
    mask = np.ones_like(x0)
    mask[:, 2] = 0.0
    gt = x0 * mask
    proj_hat = T.mul(x0_hat, mask)
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.ptp(np.concatenate([proj_hat, gt]), axis=0)
        if not np.isfinite(span @ span):
            raise FloatingPointError("non-finite training loss")
    idx_hat_to_gt = nearest_indices(proj_hat, gt)
    idx_gt_to_hat = nearest_indices(gt, proj_hat)
    # mean squared point distance = 3 * elementwise MSE over (n,3)
    term1 = T.scale(T.mse(proj_hat, gt[idx_hat_to_gt]), 3.0)
    term2 = T.scale(T.mse(T.gather_rows(proj_hat, idx_gt_to_hat), gt), 3.0)
    return T.scale(T.add(term1, term2), lam)


@lru_cache(maxsize=None)
def _shift_plan(N: int, K: int) -> T.GatherPlan:
    """Rows 0..N-1 from an (N - K)-row array shifted down by K: padding in
    rows :K."""
    return T.GatherPlan(np.arange(N) - K, N - K)


def sample_losses(params, x0: np.ndarray, fixed: np.ndarray, t: int,
                  eps: np.ndarray, z_I: np.ndarray | None,
                  schedule: NoiseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """(L_eps, L_reg) of one training sample at step t with noise eps.

    The first K = len(fixed) rows of x_t are the clean `fixed` rows; the
    denoiser predicts the noise of rows K: only, and L_eps is its MSE
    against eps[K:]. The footprint term compares x0 with the clean fixed
    rows followed by rows K: as reconstructed from that prediction; it is
    built only when lambda(t) > 0."""
    N, K = x0.shape[0], fixed.shape[0]
    xt = forward_noise(x0, t, eps, schedule)
    xt[:K] = fixed
    eps_hat = denoise_graph(params, xt, t, z_I, K=K)
    L_eps = T.mse(eps[K:], eps_hat)
    if lambda_weight(t, schedule.T) == 0.0:
        return L_eps, np.array(0.0)
    x0_hat = reconstruct_x0(xt[K:], t, eps_hat, schedule)
    if K:
        # index -1 gathers a zero row: zeros in rows :K, then add `fixed`
        x0_hat = T.add(T.gather_rows(x0_hat, _shift_plan(N, K)),
                       np.concatenate([fixed, np.zeros((N - K, 3))]))
    return L_eps, regularization_loss(x0, x0_hat, t, schedule)


def train_step(params, state: AdamState,
               batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
               config: TrainConfig, schedule: NoiseSchedule,
               rng: np.random.Generator, epoch: int = 0,
               step: int = 0) -> StepLog:
    """One optimizer step over a batch of (x0 (N,3), fixed (K,3), embedding)
    triples, with per-sample classifier-free drop; see sample_losses. The
    upsampler passes its low-res cloud as `fixed`, the base stage a (0, 3)
    block such as x0[:0].

    The loss is the batch mean of L_eps + rho L_reg. All draws (t, eps,
    drop) are made first, in batch order; then each sample, last to first,
    is recorded on a tape of its own and walked backward at once from
    L_eps / B + (rho / B) L_reg, carrying the parameters' gradient sums
    from walk to walk. Only one sample's graph is alive at a time, and
    every gradient is bit for bit that of one tape over the whole batch
    walked in reverse. A non-finite loss raises before Adam moves."""
    if not batch:
        raise ValueError("empty batch")
    draws = []
    for x0, fixed, emb in batch:
        N, K = x0.shape[0], fixed.shape[0]
        if N <= K:
            raise ValueError(f"N={N} must exceed K={K}")
        t = int(rng.integers(1, schedule.T + 1))
        eps = rng.standard_normal(x0.shape)
        draws.append((t, eps, bool(rng.random() < config.drop_prob)))
    # the seeds a walk from the batch loss gives each sample's two losses
    inv = 1.0 / len(batch)
    rho_inv = config.rho * inv
    wrt = list(params.values())
    sums: dict[int, np.ndarray] = {}
    eps_terms, reg_terms = [None] * len(batch), [None] * len(batch)
    for b in reversed(range(len(batch))):
        (x0, fixed, emb), (t, eps, dropped) = batch[b], draws[b]
        with T.Tape() as tape:
            L_eps, L_reg = sample_losses(params, x0, fixed, t, eps,
                                         None if dropped else emb, schedule)
            seed = T.add(T.scale(L_eps, inv), T.scale(L_reg, rho_inv))
        grads = tape.backward(seed, wrt, sums)
        eps_terms[b], reg_terms[b] = L_eps, L_reg
    # summed in batch order, as the one-tape graph summed them
    L_eps = sum(eps_terms[1:], eps_terms[0]) * inv
    L_reg = sum(reg_terms[1:], reg_terms[0]) * inv
    loss = L_eps + L_reg * config.rho
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite training loss")
    adam_step(state, params, grads)
    return StepLog(epoch=epoch, step=step, L_eps=float(L_eps),
                   L_reg=float(L_reg), L_theta=float(loss),
                   t_drawn=[t for t, _, _ in draws],
                   lambda_drawn=[lambda_weight(t, schedule.T) for t, _, _ in draws],
                   dropped=[d for _, _, d in draws])


# ------------------------------------------------------------- stage runner


class StageDependencyError(RuntimeError):
    pass


STAGES = ("autoencoder", "base", "upsampler")


def trained_checkpoint(ckpt_dir, stage: str) -> Path:
    """`<stage>.bdif` in ckpt_dir, for a step that needs the stage trained;
    a missing file raises StageDependencyError."""
    path = Path(ckpt_dir) / f"{stage}.bdif"
    if not path.exists():
        raise StageDependencyError(f"no {stage!r} checkpoint at {path}; "
                                   f"train that stage first")
    return path


def _load_dataset(dataset_dir: Path, split: str) -> list[dict]:
    path = dataset_dir / "manifest.json"
    manifest = DatasetManifest.load(path)
    rows = []
    for e in manifest.entries:
        if e["split"] != split:
            continue
        rows.append({
            "id": e["id"],
            "cloud_path": dataset_dir / e["cloud"],
            "silhouette_path": dataset_dir / e["silhouette"],
        })
    if not rows:
        raise ValueError(f"{path}: no {split!r} entries")
    return rows


def _training_silhouettes(dataset_dir: Path) -> list[tuple[dict, SilhouetteImage]]:
    """The dataset's training rows, each with its silhouette. The
    silhouettes must be square, of one common side, and that side a
    multiple of 8 (see check_silhouette_size); any other raises ValueError
    naming the manifest and the silhouette."""
    manifest = dataset_dir / "manifest.json"
    out = []
    for row in _load_dataset(dataset_dir, "train"):
        path = row["silhouette_path"]
        img = load_pgm(path)
        check_silhouette_size(img, f"{manifest}: training silhouette {path}")
        if out and img.height != out[0][1].height:
            first, side = out[0][0]["silhouette_path"], out[0][1].height
            raise ValueError(f"{manifest}: training silhouette {path} is "
                             f"{img.height}x{img.width}, but {first} is "
                             f"{side}x{side}; the auto-encoder takes one side")
        out.append((row, img))
    return out


class _DirLock:
    """`.lock` in a checkpoint directory, holding its owner's pid; it is
    never taken from another run, even one that no longer runs."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise FileExistsError(f"{self.path}: checkpoint directory is "
                                  f"locked by {self._owner()}") from None
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return self

    def _owner(self) -> str:
        text = self.path.read_bytes().strip()
        if not text.isdigit() or int(text) == 0:
            return "a run that wrote no pid"
        pid = int(text)
        try:
            os.kill(pid, 0)  # signal 0: only asks whether pid exists
        except (ProcessLookupError, OverflowError):
            return (f"pid {pid}, which no longer runs; delete the lock file "
                    f"if no other run uses the directory")
        except PermissionError:  # runs, under another user
            pass
        return f"pid {pid}, which is still running"

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


def _training_blob(params, state: AdamState, epoch: int,
                   rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A training checkpoint's records: the parameters, then Adam's two
    moments of each, its step count, the epoch and `opt.rng`, the PCG64
    state of rng as ten 32-bit words (each exact in float64): `state` and
    `inc`, least significant word first, then `has_uint32` and `uinteger`."""
    blob = dict(params)
    for name in params:
        blob[f"opt.m.{name}"] = state.m[name]
        blob[f"opt.v.{name}"] = state.v[name]
    blob["opt.step"] = np.array(float(state.step_count))
    blob["opt.epoch"] = np.array(float(epoch))
    s = rng.bit_generator.state
    blob["opt.rng"] = np.array(
        [(s["state"][k] >> (32 * i)) & 0xFFFFFFFF
         for k in ("state", "inc") for i in range(4)]
        + [s["has_uint32"], s["uinteger"]], dtype=np.float64)
    return blob


def _rng_from_record(path: Path, words: np.ndarray) -> np.random.Generator:
    """The generator whose state `_training_blob` stored as `opt.rng`."""
    bad = ~((words >= 0) & (words < 2.0 ** 32) & (words == np.floor(words)))
    if bad.any():
        raise CheckpointError(f"{path}: record 'opt.rng' holds {words[bad][0]}, "
                              f"not a 32-bit word of a PCG64 state; cannot resume")
    w = [int(x) for x in words]
    state, inc = (sum(v << 32 * i for i, v in enumerate(w[at:at + 4])) for at in (0, 4))
    rng = np.random.default_rng()
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": w[8], "uinteger": w[9]}
    return rng


def model_params(blob: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A training checkpoint's model parameters: all but the "opt." records."""
    return {k: v for k, v in blob.items() if not k.startswith("opt.")}


def load_stage_params(ckpt_dir, stage: str, d: int,
                      img_size: int | None = None) -> dict[str, np.ndarray]:
    """The model records of `<stage>.bdif` in ckpt_dir (see
    trained_checkpoint), checked by check_records against the d-wide stage:
    for the auto-encoder, one of img_size-pixel square silhouettes."""
    path = trained_checkpoint(ckpt_dir, stage)
    params = model_params(load_params(path))
    if stage == "autoencoder":
        check_records(path, params, ae_shapes(d, img_size),
                      f"a d={d} auto-encoder of {img_size}x{img_size} images")
    else:
        check_records(path, params, denoiser_shapes(DenoiserConfig(d=d)),
                      f"the d={d} {stage} stage")
    return params


def _load_training_state(path: Path, fresh, lr: float, what: str):
    """The parameters, Adam state, epoch and RNG saved at path; its records
    must match those of the freshly initialised `fresh` (see
    check_records, which names `what`)."""
    blob = load_params(path)
    layout = _training_blob(fresh, AdamState(fresh, lr), 0,
                            np.random.default_rng(0))
    check_records(path, blob, {k: v.shape for k, v in layout.items()},
                  f"{what}'s training state")
    params = model_params(blob)
    state = AdamState(params, lr=lr)
    for name in params:
        state.m[name] = blob[f"opt.m.{name}"]
        state.v[name] = blob[f"opt.v.{name}"]
    state.step_count = int(blob["opt.step"].item())
    epoch = int(blob["opt.epoch"].item())
    return params, state, epoch, _rng_from_record(path, blob["opt.rng"])


def _log_before(path: Path, step: int) -> list[str]:
    """The lines of the step log at path whose step is below `step`; a line
    cut short by a kill, which comes after every checkpointed step, is
    dropped with the others."""
    if not path.exists():
        return []
    kept = []
    for line in path.read_bytes().splitlines(keepends=True):
        try:
            if json.loads(line)["step"] < step:
                kept.append(line.decode())
        except (ValueError, KeyError, TypeError):
            pass
    return kept


def _training_clouds(training, config: TrainConfig, ae_params,
                     n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(n cloud rows, embedding) per (row, silhouette) of training; the rows
    are drawn without replacement, seeded by config.seed and the id."""
    data = []
    for row, img in training:
        cloud = load_bpc(row["cloud_path"])
        if cloud.count < n:
            raise ValueError(f"{row['cloud_path']} has {cloud.count} points, "
                             f"fewer than the {n} the stage draws")
        sub_rng = np.random.default_rng(config.seed ^ zlib.crc32(row["id"].encode()))
        idx = sub_rng.choice(cloud.count, size=n, replace=False)
        emb = encode(ae_params, img)
        data.append((cloud.points[idx], emb))
    return data


def prepare_base_data(training, config: TrainConfig, ae_params):
    """train_step triples (x0 (K,3), no fixed rows, embedding)."""
    return [(x0, x0[:0], emb)
            for x0, emb in _training_clouds(training, config, ae_params, config.K)]


def prepare_upsampler_data(training, config: TrainConfig, ae_params):
    """train_step triples (x0 (N,3), its K-point FPS subset, embedding)."""
    return [(x0, farthest_point_sample(PointCloud(x0), config.K,
                                       seed=config.seed + 1).points, emb)
            for x0, emb in _training_clouds(training, config, ae_params, config.N)]


def run_training(dataset_dir, config: TrainConfig, stage: str, out_dir,
                 resume: bool = False, log_fn=None) -> Path:
    """Train one stage to completion; returns the checkpoint path.

    Every stage runs through this one epoch loop: one permutation of its
    data per epoch, cut into logged steps. It first keeps the heap warm
    (tensor.keep_heap_warm) and checks the training silhouettes
    (_training_silhouettes). Diffusion stages read the frozen auto-encoder
    (load_stage_params, at config.d and the silhouettes' side); the
    upsampler also needs the base checkpoint to exist. `<stage>.config` is
    written once, before the first step.
    Checkpoints are written every config.checkpoint_interval epochs, each
    in one commit point, and capture optimizer and RNG state for bitwise
    resumption. The step log `<stage>.log.jsonl` starts empty, or on
    resume with the lines of the checkpointed steps. A step's
    FloatingPointError is raised again naming the stage, epoch, step and
    the checkpoint this run left, if any.
    """
    T.keep_heap_warm()
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    training = _training_silhouettes(Path(dataset_dir))
    silhouettes = [img for _, img in training]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / f"{stage}.bdif"
    log_path = out_dir / f"{stage}.log.jsonl"

    with _DirLock(out_dir):
        # each stage's data, fresh parameters, epochs, data items per logged
        # step (a whole epoch for the auto-encoder, one Adam step per image),
        # seed offset, and a step returning its loss and its log line
        if stage == "autoencoder":
            data = silhouettes
            params = init_ae_params(config.d, data[0].height, config.seed)
            epochs, per_step, offset = config.epochs_ae, len(data), 1

            def step_fn(params, state, items, rng, epoch, step):
                loss = train_autoencoder(params, state, items, rng)
                return loss, json.dumps({"epoch": epoch, "step": step, "L_ae": loss})
        else:
            if stage == "upsampler":
                trained_checkpoint(out_dir, "base")  # pipeline order
            prepare, epochs, offset = {
                "base": (prepare_base_data, config.epochs_base, 10),
                "upsampler": (prepare_upsampler_data, config.epochs_upsampler, 20),
            }[stage]
            # the auto-encoder is freed once it has encoded the data
            data = prepare(training, config, load_stage_params(
                out_dir, "autoencoder", config.d, silhouettes[0].height))
            params = init_denoiser_params(DenoiserConfig(d=config.d), seed=config.seed)
            per_step, schedule = config.batch_size, config.schedule(stage)

            def step_fn(params, state, items, rng, epoch, step):
                log = train_step(params, state, items, config, schedule, rng,
                                 epoch=epoch, step=step)
                return log.L_theta, log.to_json()
        config.save(ckpt.with_suffix(".config"))
        if resume and ckpt.exists():
            params, state, start_epoch, rng = _load_training_state(
                ckpt, params, config.lr, f"the d={config.d} {stage} stage")
            saved = start_epoch
        else:
            state = AdamState(params, lr=config.lr)
            rng = np.random.default_rng(config.seed + offset)
            start_epoch, saved = 0, None

        # global: a resumed run continues the count
        step = start_epoch * -(-len(data) // per_step)
        kept = _log_before(log_path, step) if step else []
        with replaced(log_path, "w") as logfh:
            logfh.writelines(kept)
        with open(log_path, "a") as logfh:
            for epoch in range(start_epoch, epochs):
                order = rng.permutation(len(data))
                for s in range(0, len(order), per_step):
                    items = [data[int(i)] for i in order[s:s + per_step]]
                    try:
                        loss, line = step_fn(params, state, items, rng, epoch, step)
                    except FloatingPointError as exc:
                        left = "none" if saved is None else f"{ckpt} at epoch {saved}"
                        raise FloatingPointError(
                            f"{stage} stage, epoch {epoch}, step {step}: {exc}; "
                            f"checkpoint: {left}") from None
                    logfh.write(line + "\n")
                    if log_fn is not None:
                        log_fn(epoch, loss)
                    step += 1
                if (epoch + 1) % config.checkpoint_interval == 0 or epoch + 1 == epochs:
                    logfh.flush()  # a kill after the save keeps its steps' lines
                    save_params(ckpt, _training_blob(params, state, epoch + 1, rng))
                    saved = epoch + 1
        if not ckpt.exists():
            save_params(ckpt, _training_blob(params, state, epochs, rng))
    return ckpt
