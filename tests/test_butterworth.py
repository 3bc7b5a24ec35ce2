"""Band-pass design and application, verified by transfer-function evaluation.

The oracle throughout is direct evaluation of each second-order section's
b(z)/a(z) on the unit circle via polynomial arithmetic, independent of any
filtering code, plus the analytic Butterworth band-pass magnitude.
`TestAgainstScipy` also holds the NumPy design and block-state filter to
`scipy.signal`'s `butter` and `sosfilt` within declared bounds.
"""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import wlann
from wlann.dataio import AudioClip
from wlann.dsp import apply_filter, design_butterworth_bandpass
from wlann.dsp.butterworth import BLOCK
from wlann.errors import ValidationError

FS = 16000
HIGH_ORDER_DESIGNS = [(6, 20.0, 850.0), (8, 40.0, 850.0)]


def transfer_gain(sos, freq_hz, fs_hz):
    """|H(e^{j w})| as the product of per-section polynomial ratios (test-local oracle)."""
    w = 2 * np.pi * freq_hz / fs_hz
    zinv = np.exp(-1j * w)
    gain = 1.0
    for section in sos:
        num = sum(bk * zinv**k for k, bk in enumerate(section[:3]))
        den = sum(ak * zinv**k for k, ak in enumerate(section[3:]))
        gain *= abs(num / den)
    return gain


def analytic_gain_db(order, low_hz, high_hz, freqs_hz, fs_hz):
    """Prewarped Butterworth band-pass: |H|^2 = 1 / (1 + x^(2n)) on the tan axis."""
    omega = np.tan(np.pi * freqs_hz / fs_hz)
    omega_l, omega_h = np.tan(np.pi * low_hz / fs_hz), np.tan(np.pi * high_hz / fs_hz)
    x = (omega**2 - omega_l * omega_h) / (omega * (omega_h - omega_l))
    return -10 * np.log10(1 + x ** (2 * order))


@pytest.fixture(scope="module")
def bandpass():
    return design_butterworth_bandpass(4, 40.0, 850.0, FS)


class TestDesign:
    def test_passband_center_is_flat(self, bandpass):
        gain = transfer_gain(bandpass.sos, 200.0, FS)
        assert abs(20 * np.log10(gain)) < 0.1

    def test_dc_is_fully_rejected(self, bandpass):
        # some section's numerator has an exact root at z=1; the evaluated ratio is noise-limited
        assert abs(np.prod(np.sum(bandpass.sos[:, :3], axis=1))) < 1e-14
        assert transfer_gain(bandpass.sos, 0.0, FS) < 1e-8

    @pytest.mark.parametrize("edge", [40.0, 850.0])
    def test_edges_at_minus_3db(self, bandpass, edge):
        gain_db = 20 * np.log10(transfer_gain(bandpass.sos, edge, FS))
        assert abs(gain_db - (-3.0102999566398116)) < 0.1

    def test_stopband_attenuation(self, bandpass):
        for freq in (5.0, 3000.0):
            gain_db = 20 * np.log10(transfer_gain(bandpass.sos, freq, FS))
            assert gain_db < -40.0

    def test_order4_prototype_gives_8_poles(self, bandpass):
        assert len(bandpass.poles()) == 8
        assert bandpass.sos.shape == (4, 6)

    def test_stability(self, bandpass):
        assert np.max(np.abs(bandpass.poles())) < 1.0

    def test_coefficients_are_real(self, bandpass):
        assert np.isrealobj(bandpass.sos)

    def test_matches_reference_design(self):
        """The analytic Butterworth magnitude, across the whole band, at orders 4, 6 and 8."""
        freqs = np.linspace(1.0, FS / 2 - 1.0, 801)
        for order in (4, 6, 8):
            designed = design_butterworth_bandpass(order, 40.0, 850.0, FS)
            expected = analytic_gain_db(order, 40.0, 850.0, freqs, FS)
            np.testing.assert_allclose(designed.gain_db(freqs), expected, rtol=0, atol=1e-6)

    def test_shared_sections_are_read_only(self, bandpass):
        """Every caller gets the same cached filter, so none may write to it."""
        assert design_butterworth_bandpass(4, 40.0, 850.0, FS) is bandpass
        with pytest.raises(ValueError, match="read-only"):
            bandpass.sos[0, 0] = 0.0

    def test_edge_at_nyquist_rejected(self):
        with pytest.raises(ValidationError):
            design_butterworth_bandpass(4, 40.0, 8000.0, FS)

    def test_inverted_edges_rejected(self):
        with pytest.raises(ValidationError):
            design_butterworth_bandpass(4, 850.0, 40.0, FS)


class TestHighOrderDesigns:
    """High orders and narrow low bands, which the expanded b(z)/a(z) form lost to rounding."""

    @pytest.mark.parametrize("order, low_hz, high_hz", HIGH_ORDER_DESIGNS)
    def test_stability(self, order, low_hz, high_hz):
        designed = design_butterworth_bandpass(order, low_hz, high_hz, FS)
        assert len(designed.poles()) == 2 * order
        assert np.max(np.abs(designed.poles())) < 1.0

    @pytest.mark.parametrize("order, low_hz, high_hz", HIGH_ORDER_DESIGNS)
    def test_edges_at_minus_3db(self, order, low_hz, high_hz):
        designed = design_butterworth_bandpass(order, low_hz, high_hz, FS)
        for edge in (low_hz, high_hz):
            gain_db = 20 * np.log10(transfer_gain(designed.sos, edge, FS))
            assert abs(gain_db - (-3.0102999566398116)) < 0.1

    def test_narrow_low_band_designs_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            designed = design_butterworth_bandpass(8, 1.0, 2.0, FS)
        assert np.max(np.abs(designed.poles())) < 1.0


class TestApplyFilter:
    def test_dc_input_decays_to_zero(self, bandpass):
        clip = AudioClip(np.full(FS, 0.5), FS)
        out = apply_filter(bandpass, clip)
        assert len(out) == len(clip)
        assert np.max(np.abs(out.samples[-1000:])) < 1e-6

    def test_5hz_tone_blocked(self, bandpass):
        t = np.arange(2 * FS) / FS
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 5.0 * t), FS)
        out = apply_filter(bandpass, clip)
        steady = out.samples[FS:]
        assert np.max(np.abs(steady)) < 0.01 * 0.5

    def test_passband_tone_passes(self, bandpass):
        t = np.arange(FS) / FS
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 200.0 * t), FS)
        out = apply_filter(bandpass, clip)
        steady = out.samples[FS // 2 :]
        assert np.max(np.abs(steady)) > 0.45

    def test_impulse_response_energy_matches_parseval(self, bandpass):
        """Time-domain energy equals the mean of |H|^2 over the circle."""
        n = 1 << 15
        impulse = np.zeros(n)
        impulse[0] = 1.0
        response = apply_filter(bandpass, AudioClip(impulse, FS)).samples
        time_energy = float(np.sum(response**2))
        freqs = np.arange(n) * FS / n  # full circle, uniform grid
        gains = np.array([transfer_gain(bandpass.sos, f, FS) for f in freqs[: n // 2]])
        # real filter: |H| symmetric, average over the full circle
        freq_energy = float(np.mean(np.concatenate([gains, gains[::-1]]) ** 2))
        assert abs(time_energy - freq_energy) < 0.01 * freq_energy

    def test_sample_rate_mismatch_rejected(self, bandpass):
        clip = AudioClip(np.zeros(100), 8000)
        with pytest.raises(ValidationError, match="designed for"):
            apply_filter(bandpass, clip)


def bound_signals(length, fs_hz):
    """Uniform noise, a tone in noise, an impulse and DC, `length` samples at `fs_hz`."""
    rng = np.random.default_rng(length)
    t = np.arange(length) / fs_hz
    impulse = np.zeros(length)
    impulse[0] = 1.0
    return {"noise": rng.uniform(-1.0, 1.0, length),
            "tone": np.clip(0.5 * np.sin(2 * np.pi * 300.0 * t)
                            + 0.1 * rng.standard_normal(length), -1.0, 1.0),
            "impulse": impulse,
            "dc": np.full(length, 0.5)}


class TestAgainstScipy:
    """The NumPy design and block-state filter against `scipy.signal.butter` and `sosfilt`.

    Declared bounds on max|apply_filter - sosfilt| / max|x|, over the lengths and signals below:
    ~10x the values measured on x86-64 (OpenBLAS, one thread). Against a long-double run of the
    same sections the block filter is the closer of the two: on 32000 samples of noise it is
    within 2e-15 at every design here, `sosfilt` within 2.2e-13. At 1-2 Hz `sosfilt`'s own
    rounding drifts on DC (4.5e-12 after 40000 samples, the block filter 1.3e-13), which sets
    that design's bound.
    """

    BOUND = {(4, 40.0, 850.0, 8000): 3e-13,  # measured 2.9e-14
             (4, 40.0, 850.0, FS): 6e-13,  # measured 6.3e-14
             (6, 20.0, 850.0, FS): 3e-12,  # HIGH_ORDER_DESIGNS; measured 3.1e-13
             (8, 40.0, 850.0, FS): 1.3e-12,  # HIGH_ORDER_DESIGNS; measured 1.3e-13
             (8, 1.0, 2.0, FS): 8e-10,  # measured 7.7e-11, on DC; 4.2e-13 on the other signals
             (1, 40.0, 850.0, FS): 3e-14}  # measured 3.3e-15

    @pytest.mark.parametrize("design", list(BOUND))
    def test_sections_match_butter(self, design):
        from scipy.signal import butter

        order, low_hz, high_hz, fs_hz = design
        expected = butter(order, (low_hz, high_hz), btype="bandpass", fs=fs_hz, output="sos")
        designed = design_butterworth_bandpass(*design)
        np.testing.assert_allclose(designed.sos, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1, 9600, 128000])
    @pytest.mark.parametrize("design", list(BOUND))
    def test_apply_filter_within_declared_bound(self, design, length):
        from scipy.signal import sosfilt

        designed = design_butterworth_bandpass(*design)
        for name, samples in bound_signals(length, design[3]).items():
            expected = np.clip(sosfilt(designed.sos.copy(), samples), -1.0, 1.0)
            got = apply_filter(designed, AudioClip(samples, design[3])).samples
            assert got.dtype == np.float64 and got.shape == samples.shape
            error = np.max(np.abs(got - expected)) / np.max(np.abs(samples))
            assert error <= self.BOUND[design], name


def test_no_wlann_process_loads_scipy_signal():
    """No `wlann` process loads `scipy.signal`: synthesis and the front end run without it at
    the standard rates and at 44101 Hz, a rate pair whose period is R = 16000 outputs."""
    script = textwrap.dedent("""
        import sys, tempfile
        import wlann
        import numpy as np
        from wlann.dataio import AudioClip, generate_synthetic_corpus
        from wlann.model import prepare_input
        from wlann.model.config import WlannConfig
        with tempfile.TemporaryDirectory() as root:
            generate_synthetic_corpus(1, seed=3, out_dir=root)
        rng = np.random.default_rng(0)
        for rate_hz in (8000, 16000, 44100, 44101, 48000):
            prepare_input(AudioClip(rng.uniform(-0.5, 0.5, 2 * rate_hz), rate_hz), WlannConfig())
        print("scipy.signal" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(wlann.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
