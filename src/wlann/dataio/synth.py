"""Desk-scale synthetic respiratory corpus.

Three surrogate classes with clearly separable acoustics, emitted as
8 kHz PCM16 WAV files plus JSON annotations and a split manifest:

* normal  -- band-limited (40-850 Hz) noise,
* wheeze  -- a sustained tone with a random 400-800 Hz fundamental over
  a noise floor,
* crackle -- a noise floor plus a handful of exponentially decaying
  impulses.

Generation is single-threaded and fully determined by the seed, so two
runs with the same arguments produce byte-identical trees.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..dsp.butterworth import apply_filter, design_butterworth_bandpass
from ..errors import ValidationError
from .audio import AudioClip, write_wav
from .events import Label, RespiratoryEvent, write_annotations
from .splits import DatasetSplit, make_splits, write_manifest

SYNTHETIC_RATE_HZ = 8000
SYNTHETIC_LABELS = (Label.NORMAL, Label.WHEEZE, Label.FINE_CRACKLE)

# Silence margin around the event inside each recording, in milliseconds.
_MARGIN_MS = 100

_TRAIN_PATIENTS = [f"sp{i:02d}" for i in range(8)]
_INTER_PATIENTS = [f"sq{i:02d}" for i in range(4)]


def _bandlimited_noise(rng: np.random.Generator, n: int, amplitude: float) -> np.ndarray:
    # In place, in the order of the expression form, so the corpus bytes do not depend on it.
    bandpass = design_butterworth_bandpass(4, 40.0, 850.0, SYNTHETIC_RATE_HZ)
    noise = rng.standard_normal(n)
    noise /= 4.0 * noise.std() + 1e-12
    clip = AudioClip(np.clip(noise, -1, 1, out=noise), SYNTHETIC_RATE_HZ)
    filtered = apply_filter(bandpass, clip).samples
    peak = max(filtered.max(), -filtered.min()) + 1e-12  # max |x|, without an |x| array
    filtered *= amplitude / peak
    return filtered


def _synth_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return _bandlimited_noise(rng, n, amplitude=0.5)


def _synth_wheeze(rng: np.random.Generator, n: int) -> np.ndarray:
    """0.45 * envelope * sin(2*pi*f*t + phase) plus a noise floor, computed in two arrays."""
    fundamental = rng.uniform(400.0, 800.0)
    t = np.arange(n, dtype=np.float64)
    t /= SYNTHETIC_RATE_HZ
    # Slow amplitude modulation keeps the tone from being a pure sinusoid.
    envelope = t * (2 * np.pi * rng.uniform(1.0, 3.0))
    envelope += rng.uniform(0, 2 * np.pi)
    np.sin(envelope, out=envelope)
    envelope *= 0.25
    envelope += 0.75
    envelope *= 0.45
    tone = t
    tone *= 2 * np.pi * fundamental
    tone += rng.uniform(0, 2 * np.pi)
    envelope *= np.sin(tone, out=tone)
    envelope += _bandlimited_noise(rng, n, amplitude=0.05)
    return envelope


def _synth_crackle(rng: np.random.Generator, n: int) -> np.ndarray:
    signal = _bandlimited_noise(rng, n, amplitude=0.08)
    count = int(rng.integers(3, 11))
    tau = SYNTHETIC_RATE_HZ * 0.004  # 4 ms decay keeps bursts visible per frame
    length = int(8 * tau)
    decay = np.exp(-np.arange(length) / tau)
    positions = np.sort(rng.integers(0, max(1, n - length), size=count))
    for start in positions:
        polarity = 1.0 if rng.random() < 0.5 else -1.0
        amplitude = rng.uniform(0.5, 0.8)
        # low-pitched transient: inside the 40-850 Hz analysis band but
        # spectrally disjoint from the 400-800 Hz wheeze fundamentals
        burst = polarity * amplitude * decay * np.cos(
            2 * np.pi * rng.uniform(80.0, 300.0) * np.arange(length) / SYNTHETIC_RATE_HZ
        )
        signal[int(start) : int(start) + length] += burst[: n - int(start)]
    return np.clip(signal, -0.95, 0.95, out=signal)


_SYNTHESIZERS = {
    Label.NORMAL: _synth_normal,
    Label.WHEEZE: _synth_wheeze,
    Label.FINE_CRACKLE: _synth_crackle,
}


def generate_synthetic_corpus(
    n_per_class: int, seed: int, out_dir: str | Path
) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Write a synthetic corpus and return its (train, intra, inter) splits.

    Roughly 60/20/20 of each class go to train / intra-patient test /
    inter-patient test; inter-patient recordings use patient ids that
    never appear in training.
    """
    if n_per_class < 1:
        raise ValidationError(f"n_per_class must be >= 1, got {n_per_class}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    events: list[RespiratoryEvent] = []
    assignment: dict[str, str] = {}

    # Intra-patient test events must reuse patients that appear in training.
    n_train = sum(1 for i in range(n_per_class) if i / n_per_class < 0.6)
    train_pool = _TRAIN_PATIENTS[: max(1, min(len(_TRAIN_PATIENTS), n_train))]

    for label in SYNTHETIC_LABELS:
        for index in range(n_per_class):
            position = index / n_per_class
            if position < 0.6:
                split = "train"
                patient = train_pool[index % len(train_pool)]
            elif position < 0.8:
                split = "test_intra"
                patient = train_pool[index % len(train_pool)]
            else:
                split = "test_inter"
                patient = _INTER_PATIENTS[index % len(_INTER_PATIENTS)]
            recording_id = f"{patient}_{label.value.lower()}_{index:04d}"

            duration_ms = int(rng.uniform(900, 1400))
            event_samples = duration_ms * SYNTHETIC_RATE_HZ // 1000
            margin_samples = _MARGIN_MS * SYNTHETIC_RATE_HZ // 1000
            samples = np.zeros(event_samples + 2 * margin_samples)
            samples[margin_samples : margin_samples + event_samples] = _SYNTHESIZERS[label](
                rng, event_samples
            )
            clip = AudioClip(samples, SYNTHETIC_RATE_HZ)
            event = RespiratoryEvent(
                recording_id=recording_id,
                onset_ms=_MARGIN_MS,
                offset_ms=_MARGIN_MS + duration_ms,
                label=label,
                patient_id=patient,
            )
            write_wav(out_dir / f"{recording_id}.wav", clip)
            write_annotations(out_dir / f"{recording_id}.json", [event])
            events.append(event)
            assignment[recording_id] = split

    write_manifest(out_dir / "manifest.tsv", assignment)
    return make_splits(events, assignment)
