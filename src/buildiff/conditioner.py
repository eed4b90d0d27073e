"""Silhouette auto-encoder producing the conditioning embedding.

Compact convolutional encoder (three stride-2 blocks plus one dilated
block) with a mirrored decoder. Trained with reconstruction MSE plus an
augmentation-consistency MSE between the embeddings of an image and its
augmented version. After training the encoder is frozen and only encode()
is used by the diffusion stages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import tensor as T
from .optim import AdamState, adam_step


@dataclass
class SilhouetteImage:
    pixels: np.ndarray  # (H, W) floats in [0, 1]

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"pixels must be 2D, got shape {px.shape}")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def save_pgm(path, img: SilhouetteImage) -> None:
    data = np.clip(np.rint(img.pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode())
        fh.write(data.tobytes())


# one header field: whitespace or "#" comment lines before it, then digits
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*\n)+([0-9]+)")


def load_pgm(path) -> SilhouetteImage:
    """Read a binary PGM (P5) with one byte per pixel. A malformed header
    or a short payload raises IOError naming the path."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise IOError(f"{path}: not a binary PGM")
    pos, fields = 2, []
    for name in ("width", "height", "maxval"):
        m = _PGM_FIELD.match(raw, pos)
        if m is None:
            raise IOError(f"{path}: PGM header has no {name}")
        if len(m.group(1)) > 9:  # far above any size or maxval that loads
            raise IOError(f"{path}: PGM {name} has {len(m.group(1))} digits")
        fields.append(int(m.group(1)))
        pos = m.end()
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise IOError(f"{path}: PGM size {w}x{h} is empty")
    if not 1 <= maxval <= 255:
        raise IOError(f"{path}: PGM maxval {maxval} is outside 1..255")
    if not raw[pos:pos + 1].isspace():
        raise IOError(f"{path}: PGM header does not end in whitespace after maxval")
    data = raw[pos + 1:pos + 1 + w * h]
    if len(data) < w * h:
        raise IOError(f"{path}: PGM payload has {len(data)} bytes, "
                      f"{w}x{h} needs {w * h}")
    pixels = np.frombuffer(data, np.uint8).reshape(h, w)
    if pixels.max() > maxval:
        raise IOError(f"{path}: PGM pixel {pixels.max()} exceeds maxval {maxval}")
    return SilhouetteImage(pixels / maxval)


def augment(img: SilhouetteImage, seed: int) -> SilhouetteImage:
    """90-degree rotation with probability 1/2 plus uniform intensity jitter
    in +-0.2, clamped back to [0, 1]."""
    rng = np.random.default_rng(seed)
    px = img.pixels
    if rng.random() < 0.5:
        if img.height != img.width:
            raise ValueError("rotation requires a square image")
        px = np.rot90(px)
    jitter = rng.uniform(-0.2, 0.2)
    return SilhouetteImage(np.clip(px + jitter, 0.0, 1.0))


# ------------------------------------------------------------ conv plumbing
#
# Feature maps are (H*W, C) arrays; convolution is an im2col gather (index
# -1 marks zero padding) followed by an affine map with a (9*Cin, Cout)
# kernel: dense where a leaky ReLU follows, linear for the output layer.
# The gathers' index sets depend on the shape alone, so each is planned
# once per process (see tensor.GatherPlan).


@lru_cache(maxsize=None)
def _conv_plan(h: int, w: int, stride: int, dilation: int) -> T.GatherPlan:
    rows = np.arange(0, h, stride)
    cols = np.arange(0, w, stride)
    idx = []
    for r in rows:
        for c in cols:
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr = r + dr * dilation
                    cc = c + dc * dilation
                    idx.append(rr * w + cc if 0 <= rr < h and 0 <= cc < w else -1)
    return T.GatherPlan(idx, h * w)


@lru_cache(maxsize=None)
def _upsample_plan(h: int, w: int) -> T.GatherPlan:
    out = np.empty((2 * h, 2 * w), dtype=np.int64)
    for r in range(2 * h):
        for c in range(2 * w):
            out[r, c] = (r // 2) * w + (c // 2)
    return T.GatherPlan(out.reshape(-1), h * w)


def _im2col(x: np.ndarray, h: int, w: int, stride: int = 1,
            dilation: int = 1) -> np.ndarray:
    """The (n_out, 9 Cin) patch rows of an (h*w, Cin) feature map."""
    cols = T.gather_rows(x, _conv_plan(h, w, stride, dilation))
    return T.reshape(cols, (cols.shape[0] // 9, 9 * x.shape[1]))


ENC_CHANNELS = (8, 16, 32)


def ae_shapes(d: int, img_size: int) -> dict[str, tuple[int, ...]]:
    """The shape of each auto-encoder parameter for img_size-pixel square
    images, in draw order; a conv weight is its (9 cin, cout) im2col
    matrix, a bias is 1-D."""
    if img_size % 8 != 0:
        raise ValueError(f"image size must be divisible by 8, got {img_size}")
    c1, c2, c3 = ENC_CHANNELS
    flat = (img_size // 8) ** 2 * c3
    return {
        "enc.c1": (9, c1), "enc.b1": (c1,),
        "enc.c2": (9 * c1, c2), "enc.b2": (c2,),
        "enc.c3": (9 * c2, c3), "enc.b3": (c3,),
        "enc.c4": (9 * c3, c3), "enc.b4": (c3,),   # dilated block
        "enc.proj": (flat, d), "enc.projb": (d,),
        "dec.lin": (d, flat), "dec.linb": (flat,),
        "dec.c1": (9 * c3, c2), "dec.b1": (c2,),
        "dec.c2": (9 * c2, c1), "dec.b2": (c1,),
        "dec.c3": (9 * c1, 1), "dec.b3": (1,),
    }


def check_silhouette_size(img: SilhouetteImage, where: str) -> None:
    """Raise ValueError naming `where` unless img is square with a side
    that is a multiple of 8, the only images the auto-encoder takes."""
    if img.height != img.width or img.height % 8:
        raise ValueError(f"{where} is {img.height}x{img.width}; the "
                         f"auto-encoder takes square images whose side is "
                         f"a multiple of 8")


def init_ae_params(d: int, img_size: int, seed: int) -> dict[str, np.ndarray]:
    """Uniform Kaiming weights at fan_in = their row count; zero biases."""
    rng = np.random.default_rng(seed)
    return {name: (rng.uniform(-1, 1, shape) * np.sqrt(6.0 / shape[0])
                   if len(shape) == 2 else np.zeros(shape))
            for name, shape in ae_shapes(d, img_size).items()}


def _encode_graph(params, pixels: np.ndarray) -> np.ndarray:
    h = w = pixels.shape[0]
    x = pixels.reshape(h * w, 1)
    x = T.dense(_im2col(x, h, w, stride=2), params["enc.c1"], params["enc.b1"])
    h //= 2; w //= 2
    x = T.dense(_im2col(x, h, w, stride=2), params["enc.c2"], params["enc.b2"])
    h //= 2; w //= 2
    x = T.dense(_im2col(x, h, w, stride=2), params["enc.c3"], params["enc.b3"])
    h //= 2; w //= 2
    x = T.dense(_im2col(x, h, w, dilation=2), params["enc.c4"], params["enc.b4"])
    flat = T.reshape(x, (1, h * w * x.shape[1]))
    return T.linear(flat, params["enc.proj"], params["enc.projb"])


def _decode_graph(params, z: np.ndarray, img_size: int) -> np.ndarray:
    c1, c2, c3 = ENC_CHANNELS
    h = w = img_size // 8
    x = T.reshape(T.dense(z, params["dec.lin"], params["dec.linb"]), (h * w, c3))
    x = T.gather_rows(x, _upsample_plan(h, w))
    h *= 2; w *= 2
    x = T.dense(_im2col(x, h, w), params["dec.c1"], params["dec.b1"])
    x = T.gather_rows(x, _upsample_plan(h, w))
    h *= 2; w *= 2
    x = T.dense(_im2col(x, h, w), params["dec.c2"], params["dec.b2"])
    x = T.gather_rows(x, _upsample_plan(h, w))
    h *= 2; w *= 2
    x = T.linear(_im2col(x, h, w), params["dec.c3"], params["dec.b3"])
    return T.sigmoid(T.reshape(x, (h, w)))


def encode(params: dict[str, np.ndarray], img: SilhouetteImage) -> np.ndarray:
    """The (d,) embedding of img; a non-finite one raises ValueError.
    Forward-only: buildiff calls it outside any Tape, so it keeps no graph."""
    size = 8 * int(round(np.sqrt(params["enc.proj"].shape[0] // ENC_CHANNELS[2])))
    if img.height != size or img.width != size:
        raise ValueError(f"expected {size}x{size} image, got {img.height}x{img.width}")
    z = _encode_graph(params, img.pixels).reshape(-1)
    if not np.all(np.isfinite(z)):
        raise ValueError("embedding contains non-finite values")
    return z


def ae_loss(I: np.ndarray, I_hat: np.ndarray, z_I: np.ndarray,
            z_I_a: np.ndarray) -> np.ndarray:
    """Reconstruction MSE plus embedding-consistency MSE."""
    return T.add(T.mse(I, I_hat), T.mse(z_I, z_I_a))


def train_autoencoder(params, state: AdamState, images: list[SilhouetteImage],
                      rng: np.random.Generator) -> float:
    """One epoch over images, in their order: one Adam step per image on
    ae_loss against an augmentation seeded by one rng.integers(2**31)
    draw. Returns the epoch's mean loss; a non-finite loss raises before
    Adam moves."""
    total = 0.0
    for img in images:
        aug = augment(img, int(rng.integers(2 ** 31)))
        with T.Tape() as tape:
            z = _encode_graph(params, img.pixels)
            recon = _decode_graph(params, z, img.height)
            z_a = _encode_graph(params, aug.pixels)
            loss = ae_loss(img.pixels, recon, z, z_a)
        if not np.isfinite(loss.item()):
            raise FloatingPointError("non-finite training loss")
        adam_step(state, params, tape.backward(loss, list(params.values())))
        total += loss.item()
    return total / len(images)
