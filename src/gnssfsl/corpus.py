"""Synthetic corpus records: the class table, the desk profile and one labeled
spectrogram per (class, record seed).

A record is a pure function of its label, its seed and the profile, so any
process can synthesize any record. Writing a corpus to a run directory is the
gen-data stage's job (`cli.generate_corpus`).
"""

from __future__ import annotations

import numpy as np

from . import siggen, spectro

# Field-study class frequencies used to shape synthetic corpora.
CLASS_COUNTS_FULL = {
    0: 9980,
    1: 132974,
    2: 54620,
    3: 13,
    4: 28,
    5: 59,
    6: 9,
    7: 39,
    8: 79,
    9: 10,
    10: 16,
}
MIN_CLASS_COUNT = 8

PROFILES = {
    "desk": {
        "duration_ms": 2.0,
        "sample_rate_hz": 1_000_000.0,
        "window": 256,
        "hop": 64,
        "image_size": 32,
        "total": 2000,
    },
}

BACKGROUND_OF_CLASS = {
    0: siggen.BackgroundLevel.LOW,
    1: siggen.BackgroundLevel.MEDIUM,
    2: siggen.BackgroundLevel.HIGH,
}


def _jammer_spec(label: int, rng: np.random.Generator, fs: float, duration_ms: float, seed: int):
    """Class archetype parameters, jittered per record; frequencies are
    fractions of the sample rate, periods fractions of the duration."""
    kind = None
    kwargs = {}
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if label == 3:
        # Periods long enough that the off gaps span whole STFT frames.
        kind = siggen.JammerKind.PULSED
        kwargs = {
            "pulse_period_ms": duration_ms * rng.uniform(0.25, 0.35),
            "duty_cycle": rng.uniform(0.2, 0.35),
        }
    elif label == 4:
        kind = siggen.JammerKind.PULSED
        kwargs = {
            "pulse_period_ms": duration_ms * rng.uniform(0.08, 0.12),
            "duty_cycle": rng.uniform(0.55, 0.75),
        }
    elif label == 5:
        # Out-of-band energy reaches the ADC through the filter skirts, so the
        # effective JNR sits well below the in-band tone class.
        kind = siggen.JammerKind.OUT_OF_BAND_TONE
        kwargs = {"tone_freq_hz": sign * rng.uniform(0.30, 0.45) * fs}
    elif label == 6:
        kind = siggen.JammerKind.NOISE
        bf = rng.uniform(0.35, 0.6)
        center_max = max(0.02, 0.5 - bf / 2.0 - 0.02)
        kwargs = {
            "band_fraction": bf,
            "band_center_hz": rng.uniform(-center_max, center_max) * fs,
        }
    elif label == 7:
        kind = siggen.JammerKind.TONE
        kwargs = {"tone_freq_hz": sign * rng.uniform(0.05, 0.22) * fs}
    elif label == 8:
        kind = siggen.JammerKind.CHIRP
        kwargs = {
            "chirp_f0_hz": -rng.uniform(0.25, 0.35) * fs,
            "chirp_f1_hz": rng.uniform(0.25, 0.35) * fs,
            "chirp_period_ms": duration_ms * rng.uniform(0.15, 0.3),
        }
    elif label == 9:
        kind = siggen.JammerKind.TWO_CHIRPS
        kwargs = {
            "chirp_f0_hz": -rng.uniform(0.25, 0.35) * fs,
            "chirp_f1_hz": rng.uniform(0.25, 0.35) * fs,
            "chirp_period_ms": duration_ms * rng.uniform(0.15, 0.3),
            "chirp2_f0_hz": rng.uniform(0.15, 0.25) * fs,
            "chirp2_f1_hz": -rng.uniform(0.15, 0.25) * fs,
            "chirp2_period_ms": duration_ms * rng.uniform(0.3, 0.5),
        }
    elif label == 10:
        # One slow full-band sweep per snapshot, against class 8's fast
        # repeating sawtooth.
        kind = siggen.JammerKind.CHIRP
        kwargs = {
            "chirp_f0_hz": -rng.uniform(0.35, 0.45) * fs,
            "chirp_f1_hz": rng.uniform(0.35, 0.45) * fs,
            "chirp_period_ms": duration_ms * rng.uniform(0.9, 1.1),
        }
    else:
        raise ValueError(f"class {label} is not a jammer class")
    if label == 5:
        jnr_db = rng.uniform(0.0, 6.0)
    elif label == 6:
        jnr_db = rng.uniform(5.0, 15.0)
    else:
        jnr_db = rng.uniform(8.0, 20.0)
    return siggen.JammerSpec(kind=kind, jnr_db=jnr_db, seed=seed, **kwargs)


def class_counts(profile: str) -> dict:
    """The field-study class frequencies, scaled to the profile's corpus size."""
    total = PROFILES[profile]["total"]
    grand = sum(CLASS_COUNTS_FULL.values())
    return {
        c: max(MIN_CLASS_COUNT, round(total * n / grand))
        for c, n in CLASS_COUNTS_FULL.items()
    }


def synthesize_record(
    label: int, record_seed: int, profile: str = "desk"
) -> tuple[spectro.SpectrogramImage, dict]:
    """Generate one labeled spectrogram image, at the profile's capture
    settings and image size, plus its parameter snapshot."""
    prof = PROFILES[profile]
    duration_ms, sample_rate_hz = prof["duration_ms"], prof["sample_rate_hz"]
    bg_seed = siggen.derive_seed(record_seed, 0)
    if label in BACKGROUND_OF_CLASS:
        level = BACKGROUND_OF_CLASS[label]
        params = {"background": level.value}
        bg = siggen.gen_background(
            siggen.BackgroundSpec(level, seed=bg_seed), duration_ms, sample_rate_hz
        )
        snapshot = bg
    else:
        # Only jammer records draw from the record rng.
        rng = np.random.default_rng(record_seed)
        levels = list(siggen.BackgroundLevel)
        level = levels[rng.integers(len(levels))]
        jam_seed = siggen.derive_seed(record_seed, 1)
        spec = _jammer_spec(label, rng, sample_rate_hz, duration_ms, jam_seed)
        bg = siggen.gen_background(
            siggen.BackgroundSpec(level, seed=bg_seed), duration_ms, sample_rate_hz
        )
        jam = siggen.gen_jammer(spec, duration_ms, sample_rate_hz)
        snapshot = siggen.mix(bg, jam, spec.jnr_db)
        params = {
            "background": level.value,
            "kind": spec.kind.value,
            "jnr_db": round(spec.jnr_db, 6),
        }

    db = spectro.stft_magnitude(snapshot, prof["window"], prof["hop"])
    img = spectro.quantize(db)
    img = spectro.resize(img, prof["image_size"], prof["image_size"])
    return img, params
