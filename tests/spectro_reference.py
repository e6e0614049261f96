"""Reference spectrogram front end, kept as a bit-exactness oracle.

`ref_stft_magnitude`, `ref_quantize` and `ref_resize` are the straightforward
versions: every call builds its Hann window, frame index and axes, shifts the
complex spectrum with `np.fft.fftshift`, and casts the whole source image to
float64 before the bilinear gathers. `spectro.stft_magnitude`, `quantize` and
`resize` must return the same grids, axes and pixels (array_equal), not just
agree to rounding.
"""

import numpy as np

from gnssfsl.siggen import IQSnapshot
from gnssfsl.spectro import DB_FLOOR, SpectrogramDb, SpectrogramImage


def ref_stft_magnitude(snapshot: IQSnapshot, window_len: int, hop: int) -> SpectrogramDb:
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


def ref_quantize(db: SpectrogramDb) -> SpectrogramImage:
    grid = db.grid
    if grid.min() < DB_FLOOR or grid.max() > 0.0:
        raise ValueError(
            f"dB grid outside [{DB_FLOOR}, 0]: min={grid.min()} max={grid.max()}"
        )
    pixels = _round_half_up(255.0 * (grid - DB_FLOOR) / -DB_FLOOR)
    return SpectrogramImage(np.clip(pixels, 0, 255).astype(np.uint8))


def ref_resize(image: SpectrogramImage, h_out: int, w_out: int) -> SpectrogramImage:
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"target dims must be positive, got {h_out}x{w_out}")
    h_in, w_in = image.pixels.shape
    if (h_in, w_in) == (h_out, w_out):
        return SpectrogramImage(image.pixels.copy())

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
    return SpectrogramImage(pixels)
