"""Band-pass design and application, verified by transfer-function evaluation.

The oracle throughout is direct evaluation of each second-order section's
b(z)/a(z) on the unit circle via polynomial arithmetic, independent of any
filtering code, plus the analytic Butterworth band-pass magnitude.
"""

import warnings

import numpy as np
import pytest

from wlann.dataio import AudioClip
from wlann.dsp import apply_filter, design_butterworth_bandpass
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
