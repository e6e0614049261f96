"""Spectrogram encoding: IQ snapshot -> log-magnitude grid -> 8-bit image.

The dB grid is normalized so the per-snapshot peak sits at 0 dB and everything
below -90 dB is clamped; quantization maps [-90, 0] linearly onto [0, 255].
Also owns the on-disk formats: GNSSIMG1 image files and the JSON corpus
manifest.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .siggen import IQSnapshot

DB_FLOOR = -90.0
IMAGE_MAGIC = b"GNSSIMG1"


@dataclass
class SpectrogramDb:
    """Log-magnitude spectrogram, freq bins x time frames, peak-normalized."""

    grid: np.ndarray  # float64, entries in [DB_FLOOR, 0]
    freq_axis_hz: np.ndarray
    time_axis_ms: np.ndarray


@dataclass
class SpectrogramImage:
    pixels: np.ndarray  # uint8, h x w
    label: Optional[int] = None

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError(f"pixels must be a non-empty 2-D grid, got {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")


def stft_magnitude(snapshot: IQSnapshot, window_len: int, hop: int) -> SpectrogramDb:
    """Hann-windowed, fft-shifted magnitude STFT in dB relative to the peak."""
    n = snapshot.num_samples
    if not (0 < hop <= window_len <= n):
        raise ValueError(
            f"need 0 < hop <= window_len <= samples, got hop={hop} "
            f"window={window_len} samples={n}"
        )
    frames = (n - window_len) // hop + 1
    window = np.hanning(window_len)
    x = snapshot.samples.astype(np.complex128)

    idx = np.arange(window_len)[None, :] + hop * np.arange(frames)[:, None]
    segments = x[idx] * window[None, :]
    spectra = np.fft.fftshift(np.fft.fft(segments, axis=1), axes=1)
    mag = np.abs(spectra).T  # freq_bins x frames

    peak = mag.max()
    if peak == 0.0:
        grid = np.full_like(mag, DB_FLOOR)
    else:
        with np.errstate(divide="ignore"):
            grid = 20.0 * np.log10(mag / peak)
        grid = np.maximum(grid, DB_FLOOR)

    freq_axis = np.fft.fftshift(np.fft.fftfreq(window_len, d=1.0 / snapshot.sample_rate_hz))
    frame_centers = (hop * np.arange(frames) + window_len / 2.0) / snapshot.sample_rate_hz
    return SpectrogramDb(grid, freq_axis, frame_centers * 1000.0)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def quantize(db: SpectrogramDb, label: Optional[int] = None) -> SpectrogramImage:
    """Map dB values in [-90, 0] to u8 pixels; -90 -> 0, 0 -> 255, half rounds up."""
    grid = db.grid
    if grid.min() < DB_FLOOR or grid.max() > 0.0:
        raise ValueError(
            f"dB grid outside [{DB_FLOOR}, 0]: min={grid.min()} max={grid.max()}"
        )
    pixels = _round_half_up(255.0 * (grid - DB_FLOOR) / -DB_FLOOR)
    return SpectrogramImage(np.clip(pixels, 0, 255).astype(np.uint8), label)


def resize(image: SpectrogramImage, h_out: int, w_out: int) -> SpectrogramImage:
    """Bilinear resize with half-pixel-centered sampling, round-half-up to u8."""
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"target dims must be positive, got {h_out}x{w_out}")
    h_in, w_in = image.pixels.shape
    if (h_in, w_in) == (h_out, w_out):
        return SpectrogramImage(image.pixels.copy(), image.label)

    src = image.pixels.astype(np.float64)

    def axis_coords(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        pos = np.clip(pos, 0.0, n_in - 1.0)
        lo = np.floor(pos).astype(np.intp)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, pos - lo

    y0, y1, fy = axis_coords(h_out, h_in)
    x0, x1, fx = axis_coords(w_out, w_in)
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    pixels = np.clip(_round_half_up(out), 0, 255).astype(np.uint8)
    return SpectrogramImage(pixels, image.label)


def encode_image(image: SpectrogramImage) -> bytes:
    """Serialize to the GNSSIMG1 byte layout: magic, u32 LE h, u32 LE w, pixels."""
    h, w = image.pixels.shape
    return IMAGE_MAGIC + struct.pack("<II", h, w) + image.pixels.tobytes(order="C")


def decode_image(data: bytes, label: Optional[int] = None) -> SpectrogramImage:
    """Parse GNSSIMG1 bytes; any malformed input raises ValueError."""
    if data[:8] != IMAGE_MAGIC:
        raise ValueError(f"bad magic {data[:8]!r}, expected {IMAGE_MAGIC!r}")
    if len(data) < 16:
        raise ValueError(f"truncated image header: {len(data)} bytes, expected at least 16")
    h, w = struct.unpack("<II", data[8:16])
    expected = 16 + h * w
    if len(data) != expected:
        raise ValueError(f"truncated image file: {len(data)} bytes, expected {expected}")
    pixels = np.frombuffer(data[16:], dtype=np.uint8).reshape(h, w).copy()
    return SpectrogramImage(pixels, label)


def write_image(image: SpectrogramImage, path: str | Path) -> None:
    Path(path).write_bytes(encode_image(image))


def read_image(path: str | Path, label: Optional[int] = None) -> SpectrogramImage:
    with open(path, "rb") as fh:
        return decode_image(fh.read(), label)


@dataclass
class CorpusRecord:
    """One manifest entry; `image` is populated when the corpus is loaded."""

    file: str
    label: int
    split: str
    seed: int
    jammer_params: dict = field(default_factory=dict)
    image: Optional[SpectrogramImage] = None

    def to_manifest(self) -> dict:
        return {
            "file": self.file,
            "label": self.label,
            "split": self.split,
            "seed": self.seed,
            "jammer_params": self.jammer_params,
        }


@dataclass
class LabeledCorpus:
    records: list[CorpusRecord]
    root: Optional[Path] = None

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def classes(self) -> list[int]:
        return sorted({r.label for r in self.records})

    def subset(self, split: Optional[str] = None, classes=None) -> "LabeledCorpus":
        keep = [
            r
            for r in self.records
            if (split is None or r.split == split)
            and (classes is None or r.label in classes)
        ]
        return LabeledCorpus(keep, self.root)


def save_manifest(corpus: LabeledCorpus, path: str | Path) -> None:
    entries = [r.to_manifest() for r in corpus.records]
    Path(path).write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def load_corpus(manifest_path: str | Path, load_images: bool = True) -> LabeledCorpus:
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    root_dir = str(root)  # os.path.join is far cheaper than Path / per file
    entries = json.loads(manifest_path.read_text())
    if not isinstance(entries, list):
        raise ValueError(f"{manifest_path}: corpus manifest must be a JSON list")
    records = []
    for i, e in enumerate(entries):
        if not (
            isinstance(e, dict)
            and isinstance(e.get("file"), str)
            and type(e.get("label")) is int  # JSON true/false are bool, not int
            and isinstance(e.get("split"), str)
            and type(e.get("seed")) is int
            and isinstance(e.get("jammer_params", {}), dict)
        ):
            raise ValueError(
                f"{manifest_path}: entry {i} must be an object with str 'file', int "
                "'label', str 'split', int 'seed' and an optional 'jammer_params' object"
            )
        rec = CorpusRecord(
            file=e["file"],
            label=e["label"],
            split=e["split"],
            seed=e["seed"],
            jammer_params=e.get("jammer_params", {}),
        )
        if load_images:
            rec.image = read_image(os.path.join(root_dir, rec.file), rec.label)
        records.append(rec)
    return LabeledCorpus(records, root)
