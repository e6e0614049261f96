"""Deterministic complex-baseband signal synthesis for jammer and background classes.

Every generator is a pure function of its spec (including the seed): calling it
twice returns bit-identical sample arrays. Jammer waveforms are normalized to
unit average power so that JNR scaling in :func:`mix` is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, index: int) -> int:
    """Derive a per-record 64-bit seed from (master seed, record index).

    Uses the splitmix64 finalizer on master ^ (index+1)*golden, so record
    seeds are independent of generation order and of each other.
    """
    z = (int(master_seed) ^ (((int(index) + 1) * _GOLDEN) & _MASK64)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class JammerKind(enum.Enum):
    PULSED = "pulsed"
    OUT_OF_BAND_TONE = "out_of_band_tone"
    NOISE = "noise"
    TONE = "tone"
    CHIRP = "chirp"
    TWO_CHIRPS = "two_chirps"


class BackgroundLevel(enum.Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


# Linear noise power per background level; only the ordering low < medium < high
# carries meaning downstream.
BACKGROUND_POWER = {
    BackgroundLevel.LOW: 10.0 ** (-10 / 10),
    BackgroundLevel.MEDIUM: 1.0,
    BackgroundLevel.HIGH: 10.0 ** (+10 / 10),
}


@dataclass(frozen=True)
class IQSnapshot:
    """A short record of complex baseband samples."""

    samples: np.ndarray  # complex64
    sample_rate_hz: float
    duration_ms: float

    def __post_init__(self):
        expected = int(round(self.sample_rate_hz * self.duration_ms / 1000.0))
        if len(self.samples) != expected:
            raise ValueError(
                f"sample count {len(self.samples)} != rate*duration {expected}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("snapshot contains non-finite samples")

    @property
    def num_samples(self) -> int:
        return len(self.samples)

    def power(self) -> float:
        """Empirical mean power of the snapshot."""
        return float(np.mean(np.abs(self.samples.astype(np.complex128)) ** 2))


@dataclass(frozen=True)
class BackgroundSpec:
    intensity: BackgroundLevel
    seed: int = 0

    @property
    def noise_power(self) -> float:
        return BACKGROUND_POWER[self.intensity]


@dataclass(frozen=True)
class JammerSpec:
    kind: JammerKind
    jnr_db: float = 10.0
    tone_freq_hz: float = 0.0
    chirp_f0_hz: float = 0.0
    chirp_f1_hz: float = 0.0
    chirp_period_ms: float = 1.0
    # Second sweep, used by TWO_CHIRPS only.
    chirp2_f0_hz: float = 0.0
    chirp2_f1_hz: float = 0.0
    chirp2_period_ms: float = 1.0
    duty_cycle: float = 0.5
    pulse_period_ms: float = 1.0
    # Noise kind only: occupied bandwidth as a fraction of the sample rate and
    # its center offset. 1.0 fills the whole band.
    band_fraction: float = 1.0
    band_center_hz: float = 0.0
    seed: int = 0

    def validate(self, sample_rate_hz: float) -> None:
        if self.kind is JammerKind.PULSED:
            if not (0.0 < self.duty_cycle <= 1.0):
                raise ValueError(f"duty_cycle must be in (0, 1], got {self.duty_cycle}")
            if self.pulse_period_ms <= 0:
                raise ValueError("pulse_period_ms must be positive")
        if self.kind is JammerKind.NOISE and not (0.0 < self.band_fraction <= 1.0):
            raise ValueError(f"band_fraction must be in (0, 1], got {self.band_fraction}")
        if self.kind in (JammerKind.CHIRP, JammerKind.TWO_CHIRPS):
            if self.chirp_period_ms <= 0:
                raise ValueError("chirp_period_ms must be positive")
            if self.chirp_f0_hz == self.chirp_f1_hz:
                raise ValueError("chirp requires distinct start/stop frequencies")
        if self.kind is JammerKind.TWO_CHIRPS:
            if self.chirp2_period_ms <= 0:
                raise ValueError("chirp2_period_ms must be positive")
            if self.chirp2_f0_hz == self.chirp2_f1_hz:
                raise ValueError("second chirp requires distinct start/stop frequencies")
        if self.kind is JammerKind.OUT_OF_BAND_TONE:
            edge = sample_rate_hz / 4.0  # passband edge
            if not (edge < abs(self.tone_freq_hz) < sample_rate_hz / 2.0):
                raise ValueError(
                    f"out-of-band tone must satisfy {edge} < |f| < {sample_rate_hz / 2}, "
                    f"got {self.tone_freq_hz}"
                )


def _num_samples(duration_ms: float, sample_rate_hz: float) -> int:
    if duration_ms <= 0:
        raise ValueError(f"duration_ms must be positive, got {duration_ms}")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    return int(round(sample_rate_hz * duration_ms / 1000.0))


def gen_background(
    spec: BackgroundSpec, duration_ms: float, sample_rate_hz: float
) -> IQSnapshot:
    """Circularly-symmetric complex Gaussian noise at the level's power."""
    n = _num_samples(duration_ms, sample_rate_hz)
    rng = np.random.default_rng(spec.seed)
    sigma = np.sqrt(spec.noise_power / 2.0)
    samples = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return IQSnapshot(samples.astype(np.complex64), sample_rate_hz, duration_ms)


def _unit_power(x: np.ndarray) -> np.ndarray:
    p = np.mean(np.abs(x) ** 2)
    if p == 0:
        return x
    return x / np.sqrt(p)


def _chirp_phase(
    n: int, fs: float, f0: float, f1: float, period_ms: float
) -> np.ndarray:
    """Cumulative phase of a repeating linear sweep f0 -> f1, phase-continuous."""
    period_s = period_ms / 1000.0
    t = np.arange(n) / fs
    tau = np.mod(t, period_s)
    inst_freq = f0 + (f1 - f0) * tau / period_s
    return 2.0 * np.pi * np.cumsum(inst_freq) / fs


def gen_jammer(
    spec: JammerSpec, duration_ms: float, sample_rate_hz: float
) -> IQSnapshot:
    """Unit-average-power interference waveform of the requested kind."""
    spec.validate(sample_rate_hz)
    n = _num_samples(duration_ms, sample_rate_hz)
    rng = np.random.default_rng(spec.seed)
    t = np.arange(n) / sample_rate_hz

    if spec.kind in (JammerKind.TONE, JammerKind.OUT_OF_BAND_TONE):
        x = np.exp(2j * np.pi * spec.tone_freq_hz * t)
    elif spec.kind is JammerKind.NOISE:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if spec.band_fraction < 1.0:
            freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
            half_bw = spec.band_fraction * sample_rate_hz / 2.0
            mask = np.abs(freqs - spec.band_center_hz) <= half_bw
            x = np.fft.ifft(np.fft.fft(x) * mask)
    elif spec.kind is JammerKind.PULSED:
        # Constant-envelope white phase noise, gated by the duty cycle: the
        # on-state magnitude is uniform so on/off structure survives
        # thresholding exactly.
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
        carrier = np.exp(1j * phase)
        period = spec.pulse_period_ms / 1000.0
        gate = (np.mod(t, period) < spec.duty_cycle * period).astype(np.float64)
        x = carrier * gate
    elif spec.kind in (JammerKind.CHIRP, JammerKind.TWO_CHIRPS):
        phase = _chirp_phase(
            n, sample_rate_hz, spec.chirp_f0_hz, spec.chirp_f1_hz, spec.chirp_period_ms
        )
        x = np.exp(1j * phase)
        if spec.kind is JammerKind.TWO_CHIRPS:
            phase = _chirp_phase(
                n, sample_rate_hz, spec.chirp2_f0_hz, spec.chirp2_f1_hz, spec.chirp2_period_ms
            )
            x = x + np.exp(1j * phase)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown jammer kind {spec.kind}")

    x = _unit_power(x)
    return IQSnapshot(x.astype(np.complex64), sample_rate_hz, duration_ms)


def mix(background: IQSnapshot, jammer: IQSnapshot, jnr_db: float) -> IQSnapshot:
    """Add the jammer to the background at the requested jammer-to-noise ratio.

    The jammer is scaled so that its empirical power over the empirical
    background power equals 10^(jnr_db/10).
    """
    if background.num_samples != jammer.num_samples:
        raise ValueError(
            f"length mismatch: {background.num_samples} vs {jammer.num_samples}"
        )
    if background.sample_rate_hz != jammer.sample_rate_hz:
        raise ValueError(
            f"sample-rate mismatch: {background.sample_rate_hz} vs {jammer.sample_rate_hz}"
        )
    p_jam = jammer.power()
    if p_jam == 0:
        return IQSnapshot(
            background.samples.copy(), background.sample_rate_hz, background.duration_ms
        )
    p_bg = background.power()
    g = np.sqrt(10.0 ** (jnr_db / 10.0) * p_bg / p_jam)
    mixed = background.samples + np.float32(g) * jammer.samples
    return IQSnapshot(
        mixed.astype(np.complex64), background.sample_rate_hz, background.duration_ms
    )
