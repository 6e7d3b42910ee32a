"""Dataset ingestion (IDX), label-split protocol, sampling, and test oracles.

Real MNIST/FashionMNIST files are parsed from the standard big-endian IDX
containers.  For offline work the module also ships a deterministic
synthetic digit corpus: per-class stroke skeletons rendered with seeded
affine and thickness jitter, which gives structured 28x28 images with the
same layout and label conventions as MNIST.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (N, pixels) float64 in [0, 1]
    labels: np.ndarray  # (N,) uint8
    name: str = "unnamed"
    split: str = "train"

    def __post_init__(self):
        if self.images.ndim != 2 or len(self.labels) != len(self.images):
            raise ValueError("images must be (N, pixels) with matching labels")

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, k: int) -> "Dataset":
        """First k images, deterministic (small-training-set protocol)."""
        if not (0 < k <= len(self)):
            raise ValueError(f"subset size {k} out of range 1..{len(self)}")
        return Dataset(self.images[:k], self.labels[:k], self.name, self.split)


def load_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    """Parse big-endian IDX image/label files into a [0,1]-scaled dataset."""
    with open(images_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise IdxFormatError(f"{images_path}: truncated IDX header")
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad magic, expected {IDX_IMAGES_MAGIC:#010x}, "
                f"found {magic:#010x}")
        raw = fh.read(n * rows * cols)
        if len(raw) != n * rows * cols:
            raise IdxFormatError(
                f"{images_path}: truncated payload, expected {n * rows * cols} "
                f"bytes, found {len(raw)}")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise IdxFormatError(f"{labels_path}: truncated IDX header")
        magic, n_labels = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad magic, expected {IDX_LABELS_MAGIC:#010x}, "
                f"found {magic:#010x}")
        raw = fh.read(n_labels)
        if len(raw) != n_labels:
            raise IdxFormatError(f"{labels_path}: truncated payload")
        labels = np.frombuffer(raw, dtype=np.uint8).copy()
    if n_labels != n:
        raise IdxFormatError(
            f"image count {n} does not match label count {n_labels}")
    return Dataset(images.astype(np.float64) / 255.0, labels, name=name)


def write_idx(images_path, labels_path, images_u8: np.ndarray,
              labels: np.ndarray) -> None:
    """Write IDX files (inverse of load_idx); images_u8 is (N, rows, cols)."""
    if images_u8.ndim != 3 or images_u8.dtype != np.uint8:
        raise ValueError("images must be uint8 with shape (N, rows, cols)")
    n, rows, cols = images_u8.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images_u8.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def seg_split(ds: Dataset) -> tuple[Dataset, Dataset]:
    """Label-restricted protocol: train on digits 0-4, test on 5-9."""
    if ds.labels.max(initial=0) > 9:
        raise ValueError("seg_split expects digit labels 0-9")
    lo = ds.labels <= 4
    train = Dataset(ds.images[lo], ds.labels[lo], ds.name + "-seg", "train")
    test = Dataset(ds.images[~lo], ds.labels[~lo], ds.name + "-seg", "test")
    return train, test


def train_val_split(ds: Dataset, val_size: int = 10000
                    ) -> tuple[Dataset, Dataset]:
    """Carve the last val_size images off as a validation split."""
    if not (0 < val_size < len(ds)):
        raise ValueError(f"val_size {val_size} out of range for {len(ds)} images")
    cut = len(ds) - val_size
    return (Dataset(ds.images[:cut], ds.labels[:cut], ds.name, "train"),
            Dataset(ds.images[cut:], ds.labels[cut:], ds.name, "validation"))


@dataclass
class SamplerState:
    """Seeded with-replacement mini-batch sampler."""

    rng: np.random.Generator
    batch_size: int
    draws: int = 0

    def sample(self, n: int) -> np.ndarray:
        if n <= 0:
            raise ValueError("cannot sample from an empty dataset")
        idx = self.rng.integers(0, n, size=self.batch_size)
        self.draws += self.batch_size
        return idx


# ---------------------------------------------------------------------------
# Linear test oracle
# ---------------------------------------------------------------------------

@dataclass
class LinearOracle:
    """D(z) = A z + b with L2 loss; closed-form flow and optimum.

    Loss convention is the squared norm |Az+b-y|^2, so the flow matrix is
    2 AᵀA and z(t) = Q (1 - exp(-2 lambda t)) Qᵀ z* from z(0)=0.
    """

    A: np.ndarray
    b: np.ndarray
    ys: np.ndarray          # (n_samples, output_dim)
    cond: float
    eigvals: np.ndarray = field(repr=False, default=None)
    eigvecs: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        gram = self.A.T @ self.A
        self.eigvals, self.eigvecs = np.linalg.eigh(gram)

    def z_star(self, y: np.ndarray) -> np.ndarray:
        return np.linalg.pinv(self.A) @ (y - self.b)

    def flow_z(self, t: float, y: np.ndarray) -> np.ndarray:
        """Exact gradient-flow solution at time t (zero initialization)."""
        zs = self.z_star(y)
        coeff = -np.expm1(-2.0 * self.eigvals * t)  # 1 - exp(-2 lam t)
        return self.eigvecs @ (coeff * (self.eigvecs.T @ zs))

    def loss(self, z: np.ndarray, y: np.ndarray) -> float:
        r = self.A @ z + self.b - y
        return float(r @ r)


def make_linear_oracle(latent_dim: int, output_dim: int, seed: int,
                       sv_range: tuple[float, float] = (0.5, 1.5),
                       n_samples: int = 4,
                       max_cond: float = 1e6) -> LinearOracle:
    """Random A with controlled singular values, plus samples and handles."""
    if latent_dim < 1 or output_dim < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    while True:
        k = min(latent_dim, output_dim)
        u, _ = np.linalg.qr(rng.normal(size=(output_dim, output_dim)))
        v, _ = np.linalg.qr(rng.normal(size=(latent_dim, latent_dim)))
        sv = rng.uniform(sv_range[0], sv_range[1], size=k)
        A = u[:, :k] @ np.diag(sv) @ v[:k, :]
        gram = A.T @ A
        ev = np.linalg.eigvalsh(gram)
        positive = ev[ev > 1e-12 * ev.max()]
        cond = float(positive.max() / positive.min())
        if cond <= max_cond:
            break
    b = rng.normal(size=output_dim)
    ys = rng.normal(size=(n_samples, output_dim))
    return LinearOracle(A=A, b=b, ys=ys, cond=cond)


# ---------------------------------------------------------------------------
# Synthetic digit corpus (offline stand-in with MNIST conventions)
# ---------------------------------------------------------------------------

def _circle(cx, cy, r, n=14, a0=0.0, a1=2 * np.pi):
    ang = np.linspace(a0, a1, n)
    return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)


# Polyline skeletons in a unit box, y growing downward.
_SKELETONS: dict[int, list[np.ndarray]] = {
    0: [_circle(0.5, 0.5, 0.32)],
    1: [np.array([[0.38, 0.28], [0.55, 0.12], [0.55, 0.88]])],
    2: [_circle(0.5, 0.3, 0.22, a0=np.pi, a1=2.35 * np.pi),
        np.array([[0.66, 0.45], [0.3, 0.85], [0.72, 0.85]])],
    3: [_circle(0.48, 0.3, 0.2, a0=-0.75 * np.pi, a1=0.6 * np.pi),
        _circle(0.48, 0.68, 0.22, a0=-0.5 * np.pi, a1=0.75 * np.pi)],
    4: [np.array([[0.62, 0.12], [0.28, 0.6], [0.78, 0.6]]),
        np.array([[0.62, 0.32], [0.62, 0.9]])],
    5: [np.array([[0.7, 0.14], [0.34, 0.14], [0.32, 0.48]]),
        _circle(0.5, 0.65, 0.21, a0=-0.6 * np.pi, a1=0.7 * np.pi)],
    6: [np.array([[0.62, 0.1], [0.38, 0.42], [0.32, 0.62]]),
        _circle(0.5, 0.66, 0.19)],
    7: [np.array([[0.28, 0.14], [0.74, 0.14], [0.42, 0.88]])],
    8: [_circle(0.5, 0.32, 0.18), _circle(0.5, 0.68, 0.21)],
    9: [_circle(0.52, 0.34, 0.19),
        np.array([[0.7, 0.36], [0.64, 0.88]])],
}


def _render(points: np.ndarray, sigma: float, grid: np.ndarray) -> np.ndarray:
    d2 = ((grid[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * sigma ** 2)).max(axis=1)


def _densify(poly: np.ndarray, step: float = 0.035) -> np.ndarray:
    out = []
    for p0, p1 in zip(poly[:-1], poly[1:]):
        seg = np.linalg.norm(p1 - p0)
        n = max(2, int(seg / step) + 1)
        frac = np.linspace(0.0, 1.0, n)[:, None]
        out.append(p0[None, :] * (1 - frac) + p1[None, :] * frac)
    return np.concatenate(out, axis=0)


_SYNTH_CACHE: dict[tuple, "Dataset"] = {}


def synth_digits(n: int, seed: int) -> Dataset:
    """Deterministic synthetic 28x28 digit images, labels uniform over 0-9.

    Per-sample variation: rotation, anisotropic scale, shear, translation,
    per-vertex skeleton jitter, stroke width, and intensity gain.
    Generation is memoized per (n, seed); the returned dataset is shared,
    so treat it as read-only (datasets are immutable by contract).
    """
    if n <= 0:
        raise ValueError("need n > 0 images")
    cached = _SYNTH_CACHE.get((n, seed))
    if cached is not None:
        return cached
    side = 28
    rng = np.random.default_rng(seed)
    xs = (np.arange(side) + 0.5) / side
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    images = np.empty((n, side * side))
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    for i in range(n):
        k = int(labels[i])
        ang = rng.uniform(-0.2, 0.2)
        sc = rng.uniform(0.78, 1.1, size=2)
        shear = rng.uniform(-0.18, 0.18)
        shift = rng.uniform(-0.06, 0.06, size=2)
        rot = np.array([[np.cos(ang), -np.sin(ang)],
                        [np.sin(ang), np.cos(ang)]])
        aff = rot @ np.array([[sc[0], shear * sc[0]], [0.0, sc[1]]])
        sigma = rng.uniform(0.026, 0.044)
        gain = rng.uniform(0.8, 1.0)
        img = np.zeros(side * side)
        for poly in _SKELETONS[k]:
            wobble = rng.normal(0.0, 0.022, size=poly.shape)
            pts = _densify(poly + wobble)
            pts = (pts - 0.5) @ aff.T + 0.5 + shift
            img = np.maximum(img, _render(pts, sigma, grid))
        images[i] = np.clip(img * gain, 0.0, 1.0)
    ds = Dataset(images, labels, name="synth")
    _SYNTH_CACHE[(n, seed)] = ds
    return ds
