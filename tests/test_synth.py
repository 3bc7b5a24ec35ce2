"""Synthetic corpus: determinism, acoustics, and loader compatibility."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from wlann.dataio import Label, generate_synthetic_corpus, load_corpus_splits
from wlann.errors import ValidationError


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(root).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        generate_synthetic_corpus(4, seed=7, out_dir=tmp_path / "a")
        generate_synthetic_corpus(4, seed=7, out_dir=tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_tree_bytes_pinned(self, tmp_path):
        """The corpus bytes do not depend on how the synthesizers order their buffers: the
        digest of the tree the expression-form synthesizers wrote (NumPy 2.4, x86-64)."""
        generate_synthetic_corpus(2, seed=7, out_dir=tmp_path)
        assert tree_digest(tmp_path) == (
            "d0dabb5d76c1cd8685c780e5d284bfb25276c56952b86c7e115b2b95ea1a99f9")

    def test_different_seed_differs(self, tmp_path):
        generate_synthetic_corpus(4, seed=7, out_dir=tmp_path / "a")
        generate_synthetic_corpus(4, seed=8, out_dir=tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


class TestCorpusStructure:
    def test_rejects_zero_events_per_class(self, tmp_path):
        with pytest.raises(ValidationError, match="n_per_class"):
            generate_synthetic_corpus(0, seed=1, out_dir=tmp_path)

    def test_loader_round_trip_and_split_invariants(self, tiny_corpus):
        corpus, train, intra, inter = tiny_corpus
        assert len(train) + len(intra) + len(inter) == 18
        assert not (train.patient_ids() & inter.patient_ids())
        assert intra.patient_ids() <= train.patient_ids()
        labels = {e.label for e in corpus.events}
        assert labels == {Label.NORMAL, Label.WHEEZE, Label.FINE_CRACKLE}

    def test_every_event_fits_its_recording(self, tiny_corpus):
        corpus, *_ = tiny_corpus
        for event in corpus.events:
            clip = corpus.event_clip(event)
            assert len(clip) == (event.offset_ms - event.onset_ms) * 8000 // 1000


class TestAcoustics:
    def test_wheeze_spectrum_peaks_in_band(self, tiny_corpus):
        """Dominant DFT bin of every wheeze event lies in 400-800 Hz."""
        corpus, train, intra, inter = tiny_corpus
        wheezes = [e for s in (train, intra, inter) for e in s.events if e.label is Label.WHEEZE]
        assert wheezes
        for event in wheezes:
            clip = corpus.event_clip(event)
            magnitude = np.abs(np.fft.rfft(clip.samples))
            freqs = np.fft.rfftfreq(len(clip), 1.0 / clip.sample_rate_hz)
            peak = freqs[np.argmax(magnitude)]
            assert 400.0 <= peak <= 800.0, f"{event.recording_id} peaks at {peak:.0f} Hz"

    def test_normal_energy_confined_to_band(self, tiny_corpus):
        """Band-limited noise: negligible energy above 1.5 kHz."""
        corpus, train, *_ = tiny_corpus
        normals = [e for e in train.events if e.label is Label.NORMAL]
        for event in normals:
            clip = corpus.event_clip(event)
            power = np.abs(np.fft.rfft(clip.samples)) ** 2
            freqs = np.fft.rfftfreq(len(clip), 1.0 / clip.sample_rate_hz)
            high = power[freqs > 1500].sum()
            assert high < 0.01 * power.sum()

    def test_crackle_has_impulsive_peaks(self, tiny_corpus):
        """Crackles carry outlier samples far above their own RMS."""
        corpus, train, *_ = tiny_corpus
        crackles = [e for e in train.events if e.label is Label.FINE_CRACKLE]
        for event in crackles:
            samples = corpus.event_clip(event).samples
            rms = np.sqrt(np.mean(samples**2))
            assert np.max(np.abs(samples)) > 4.0 * rms

    def test_samples_within_full_scale(self, tiny_corpus):
        corpus, *_ = tiny_corpus
        for clip in corpus.clips.values():
            assert np.max(np.abs(clip.samples)) <= 1.0
