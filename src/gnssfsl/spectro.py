"""Spectrogram encoding: IQ snapshot -> log-magnitude grid -> 8-bit image.

The dB grid is normalized so the per-snapshot peak sits at 0 dB and everything
below -90 dB is clamped; quantization maps [-90, 0] linearly onto [0, 255].
Also owns the corpus's on-disk formats: one image block file holding every
record's pixels as an (n, h, w) u8 array, and the JSON manifest whose entry i
describes block row i. A loaded corpus's images are read-only views of rows
of the one block.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import jsondoc
from .siggen import IQSnapshot

DB_FLOOR = -90.0
BLOCK_MAGIC = b"GNSSBLK1"
BLOCK_FILE = "images.img"  # next to the corpus manifest
SPLITS = ("train", "val", "test")  # a manifest entry's 'split'
_BLOCK_HEADER = struct.Struct("<8sIII")  # magic, n, h, w


@dataclass
class SpectrogramImage:
    pixels: np.ndarray  # uint8, h x w

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError(f"pixels must be a non-empty 2-D grid, got {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


# Plans are keyed on geometry, and a process sees a handful of geometries
# (one per profile); the bound only stops a geometry sweep from growing them.
@functools.lru_cache(maxsize=8)
def _stft_plan(n: int, window_len: int, hop: int) -> tuple[np.ndarray, ...]:
    """Read-only (window, frame index, fftshift permutation) for one STFT
    geometry."""
    frames = (n - window_len) // hop + 1
    window = np.hanning(window_len)
    frame_index = np.arange(window_len)[None, :] + hop * np.arange(frames)[:, None]
    shift = np.fft.fftshift(np.arange(window_len))  # x[shift] == fftshift(x)
    return _read_only(window, frame_index, shift)


def stft_magnitude(snapshot: IQSnapshot, window_len: int, hop: int) -> np.ndarray:
    """Hann-windowed, fft-shifted magnitude STFT in dB relative to the peak:
    a float64 grid of freq bins x time frames, entries in [DB_FLOOR, 0]."""
    n = snapshot.num_samples
    if not (0 < hop <= window_len <= n):
        raise ValueError(
            f"need 0 < hop <= window_len <= samples, got hop={hop} "
            f"window={window_len} samples={n}"
        )
    window, frame_index, shift = _stft_plan(n, window_len, hop)
    x = snapshot.samples.astype(np.complex128)
    spectra = np.fft.fft(x[frame_index] * window, axis=1)
    grid = np.abs(spectra).T[shift]  # freq_bins x frames, C-ordered

    peak = grid.max()
    if peak == 0.0:
        grid.fill(DB_FLOOR)
    else:
        np.divide(grid, peak, out=grid)
        with np.errstate(divide="ignore"):
            np.log10(grid, out=grid)
        np.multiply(grid, 20.0, out=grid)
        np.maximum(grid, DB_FLOOR, out=grid)
    return grid


def _round_half_up(x: np.ndarray) -> np.ndarray:
    """floor(x + 0.5), in place."""
    x += 0.5
    return np.floor(x, out=x)


def quantize(grid: np.ndarray) -> SpectrogramImage:
    """Map dB values in [-90, 0] to u8 pixels; -90 -> 0, 0 -> 255, half rounds up."""
    if grid.min() < DB_FLOOR or grid.max() > 0.0:
        raise ValueError(
            f"dB grid outside [{DB_FLOOR}, 0]: min={grid.min()} max={grid.max()}"
        )
    pixels = grid - DB_FLOOR
    pixels *= 255.0
    pixels /= -DB_FLOOR
    _round_half_up(pixels)
    pixels.clip(0, 255, out=pixels)
    return SpectrogramImage(pixels.astype(np.uint8))


@functools.lru_cache(maxsize=16)
def _resize_taps(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only half-pixel-centered bilinear taps for one axis: the 2*n_out
    source indices [lo..., hi...] and the (2, n_out) weights [1 - frac, frac]."""
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    return _read_only(np.concatenate([lo, hi]), np.stack([1 - frac, frac]))


def resize(image: SpectrogramImage, h_out: int, w_out: int) -> SpectrogramImage:
    """Bilinear resize with half-pixel-centered sampling, round-half-up to u8."""
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"target dims must be positive, got {h_out}x{w_out}")
    h_in, w_in = image.pixels.shape
    if (h_in, w_in) == (h_out, w_out):
        return SpectrogramImage(image.pixels.copy())

    rows, wy = _resize_taps(h_out, h_in)
    cols, wx = _resize_taps(w_out, w_in)
    # corners[i, :, j, :] holds the pixels at rows (lo, hi)[i] and columns
    # (lo, hi)[j]: only what the filter reads is cast to float64.
    corners = image.pixels.take(rows, axis=0).take(cols, axis=1)
    corners = corners.reshape(2, h_out, 2, w_out).astype(np.float64)
    corners *= wx
    top_bot = corners[:, :, 0] + corners[:, :, 1]  # x-interpolated [top, bottom]
    top_bot *= wy[:, :, None]
    out = top_bot[0] + top_bot[1]
    _round_half_up(out).clip(0, 255, out=out)
    return SpectrogramImage(out.astype(np.uint8))


def write_image(block: np.ndarray, path: str | Path) -> None:
    """Write an (n, h, w) u8 image block: magic, u32-LE n, h, w, then the
    n*h*w pixels in row-major order."""
    with open(path, "wb") as fh:
        fh.write(_BLOCK_HEADER.pack(BLOCK_MAGIC, *block.shape))
        block.tofile(fh)


def decode_block(data: bytes) -> np.ndarray:
    """Parse image-block bytes into an (n, h, w) u8 view of `data`, read-only
    since bytes are immutable; any malformed input raises ValueError. Sizes
    are checked against the bytes given, so a forged header allocates nothing."""
    if data[:8] != BLOCK_MAGIC:
        raise ValueError(f"bad magic {data[:8]!r}, expected {BLOCK_MAGIC!r}")
    if len(data) < _BLOCK_HEADER.size:
        raise ValueError(
            f"truncated image block header: {len(data)} bytes, expected at least {_BLOCK_HEADER.size}"
        )
    _, n, h, w = _BLOCK_HEADER.unpack_from(data)
    if n * h * w == 0:
        raise ValueError(f"empty image block: {n}x{h}x{w}")
    payload = len(data) - _BLOCK_HEADER.size
    if payload != n * h * w:
        kind = "truncated" if payload < n * h * w else "over-long"
        raise ValueError(f"{kind} image block: {payload} pixel bytes, header claims {n}x{h}x{w}")
    return np.frombuffer(data, dtype=np.uint8, offset=_BLOCK_HEADER.size).reshape(n, h, w)


def read_image(path: str | Path) -> np.ndarray:
    """Read an image block file in one call; see decode_block."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return decode_block(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class CorpusRecord:
    """One manifest entry; `file` is the record's name, not a path. `image`
    is populated when the corpus is loaded."""

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
        return LabeledCorpus(keep)


def save_manifest(corpus: LabeledCorpus, path: str | Path) -> None:
    entries = [r.to_manifest() for r in corpus.records]
    Path(path).write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def load_corpus(manifest_path: str | Path) -> LabeledCorpus:
    """Validate every manifest entry, then read the image block next to the
    manifest in one call; record i holds a read-only view of row i."""
    manifest_path = Path(manifest_path)
    entries = jsondoc.parse(manifest_path.read_bytes(), f"{manifest_path}: corpus manifest", list)
    records = []
    for i, e in enumerate(entries):
        if not (
            isinstance(e, dict)
            and isinstance(e.get("file"), str)
            and type(e.get("label")) is int  # JSON true/false are bool, not int
            and e.get("split") in SPLITS
            and type(e.get("seed")) is int
            and isinstance(e.get("jammer_params", {}), dict)
        ):
            raise ValueError(
                f"{manifest_path}: entry {i} must be an object with str 'file', int 'label', "
                f"'split' one of {'/'.join(SPLITS)}, int 'seed' and an optional 'jammer_params' object"
            )
        records.append(
            CorpusRecord(e["file"], e["label"], e["split"], e["seed"], e.get("jammer_params", {}))
        )
    block_path = manifest_path.parent / BLOCK_FILE
    block = read_image(block_path)
    if len(block) != len(records):
        raise ValueError(
            f"{block_path}: image block has {len(block)} rows, "
            f"manifest has {len(records)} entries"
        )
    for rec, pixels in zip(records, block):
        rec.image = SpectrogramImage(pixels)
    return LabeledCorpus(records)
