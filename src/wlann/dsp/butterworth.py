"""Digital Butterworth band-pass, designed and run in NumPy.

The design follows `scipy.signal.butter`'s own steps: the analog prototype's
poles, band edges prewarped to land at -3 dB, the low-pass to band-pass and
bilinear transforms, then `zpk2sos`'s pole-zero pairing and section order, so
the second-order sections are `butter`'s. An order-4 prototype yields 8 poles
in 4 sections. Sections stay accurate at orders where the expanded b(z)/a(z)
polynomials lose their poles to rounding.

The filter runs the cascade as one state-space system over blocks of
`BLOCK` samples (a block-state realization, Burrus 1972). Each section is
realized in normal form, a complex pole pair s +- jw as the scaled rotation
[[s, w], [-w, s]] (a real pair as two first-order stages). Per block, the
output is T.x + O.s and the next state M.s + C.x, with T the block's
lower-triangular Toeplitz impulse response and M the one-sample transition
to the power `BLOCK`. The states at the block starts come from a doubling
scan over blocks (linear recurrences as scans, Martin & Cundy 2017) that
stops once the transition's power falls below float64 rounding. The matrices
are built in long double where the platform has one and rounded once; on
x86-64 the filter is then within 2e-15 of a long-double run of the
sections, closer than `sosfilt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..dataio.audio import AudioClip
from ..errors import ValidationError

BLOCK = 64  # samples per block of the block-state filter
_SCAN_FLOOR = 2.0**-64  # a transition power below this only adds terms under float64 rounding
_CHUNK_BLOCKS = 512  # blocks per state-term product: 256 KiB of scratch


@dataclass(frozen=True)
class BandpassFilter:
    """Second-order sections, rows [b0 b1 b2 a0 a1 a2], the design, and the block-state
    matrices the filter runs on (all read-only)."""

    sos: np.ndarray
    order: int
    low_hz: float
    high_hz: float
    sample_rate_hz: int
    block_response: np.ndarray  # T, (BLOCK, BLOCK): output from a block's input, zero state
    state_output: np.ndarray  # O, (BLOCK, states): output from the state at the block start
    state_input: np.ndarray  # C transposed, (BLOCK, states): end state from a block's input
    state_powers: tuple[np.ndarray, ...]  # M, M^2, M^4, ... while above the scan floor

    def gain_db(self, freqs_hz: np.ndarray | float) -> np.ndarray:
        freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
        zinv = np.exp(-2j * np.pi * freqs / self.sample_rate_hz)
        powers = np.stack([np.ones_like(zinv), zinv, zinv * zinv])
        response = np.prod((self.sos[:, :3] @ powers) / (self.sos[:, 3:] @ powers), axis=0)
        return 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))

    def poles(self) -> np.ndarray:
        # Denominators only: the numerators' roots are badly conditioned for narrow low bands
        # such as 1-2 Hz.
        return np.concatenate([np.roots(a) for a in self.sos[:, 3:]])


def _sections(order: int, low_hz: float, high_hz: float, fs_hz: int) -> np.ndarray:
    """`butter(order, (low_hz, high_hz), "bandpass", fs=fs_hz, output="sos")`, in its arithmetic.

    The analog prototype's poles, the edges prewarped for a bilinear transform at rate 2,
    `lp2bp_zpk` and `bilinear_zpk`, then `zpk2sos`'s "nearest" pairing. The band-pass has
    `order` zeros at z = 1 and `order` at z = -1. Sections fill from the last: each takes the
    remaining pole nearest the unit circle, its conjugate (or, for a real pole, the next real
    pole nearest the circle) and the two remaining zeros nearest it.
    """
    warped = 4.0 * np.tan(np.pi * (np.array([low_hz, high_hz]) / (fs_hz / 2.0)) / 2.0)
    bandwidth, center = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    prototype = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2.0) / (2 * order))
    scaled = prototype * bandwidth / 2
    shift = np.sqrt(scaled**2 - center**2)
    analog = np.concatenate((scaled + shift, scaled - shift))
    gain = bandwidth**order * np.real(4.0**order / np.prod(4.0 - analog))
    poles = (4.0 + analog) / (4.0 - analog)
    # `_cplxreal`'s order: one pole of each conjugate pair (the upper, averaged with its
    # conjugate), then the real poles, each group sorted by real part
    poles = poles[np.lexsort((np.abs(poles.imag), poles.real))]
    real = np.abs(poles.imag) <= 100 * np.finfo(float).eps * np.abs(poles)
    upper, lower = poles[~real & (poles.imag > 0)], poles[~real & (poles.imag < 0)]
    poles = np.concatenate(((upper + lower.conj()) / 2, poles[real].real))
    zeros = np.repeat([-1.0, 1.0], order)

    sos = np.zeros((order, 6))
    for index in range(order - 1, -1, -1):
        worst = np.argmin(np.abs(1 - np.abs(poles)))
        first = poles[worst]
        poles = np.delete(poles, worst)
        if first.imag == 0:
            real = np.flatnonzero(poles.imag == 0)
            worst = real[np.argmin(np.abs(1 - np.abs(poles[real])))]
            second = poles[worst]
            poles = np.delete(poles, worst)
        else:
            second = first.conj()
        pair = []
        for _ in range(2):
            nearest = np.argsort(np.abs(zeros - first))[0]
            pair.append(zeros[nearest])
            zeros = np.delete(zeros, nearest)
        sos[index] = np.concatenate((np.poly(pair), np.poly([first, second])))
    sos[0, :3] *= gain
    return sos


def _normal_form(section: np.ndarray):
    """(A, b, c, d) of one section, so that c (zI - A)^-1 b + d is its b(z)/a(z).

    A complex pole pair sigma +- j omega gives the scaled rotation [[sigma, omega], [-omega,
    sigma]]; a real pair p1, p2 gives two first-order stages in cascade, [[p1, 0], [1, p2]],
    which stays exact when the two poles meet. For poles near z = 1, c and the poles' offset
    from sigma cancel, so the caller passes the section in long double where the platform has
    one.
    """
    b0, b1, b2, _, a1, a2 = section
    c1, c2 = b1 - b0 * a1, b2 - b0 * a2  # the strictly proper part (c1 z + c2) / (z^2 + a1 z + a2)
    sigma = -a1 / 2
    gap = sigma * sigma - a2  # the poles are sigma +- sqrt(gap)
    if gap < 0:
        omega = np.sqrt(-gap)
        return [[sigma, omega], [-omega, sigma]], [1, 0], [c1, -(c2 + c1 * sigma) / omega], b0
    p1, p2 = sigma + np.sqrt(gap), sigma - np.sqrt(gap)
    return [[p1, 0], [1, p2]], [1, 0], [c1, c2 + c1 * p2], b0


def _block_state(sos: np.ndarray):
    """The cascade as one system, then its block matrices T, O, C^T and the scan's M powers,
    built in long double and rounded once to float64."""
    wide = np.longdouble
    states = 2 * len(sos)
    a, b, c, d = np.zeros((states, states), wide), np.zeros(states, wide), np.zeros(states, wide), 1
    for index, section in enumerate(sos.astype(wide)):  # c.s + d.x is the cascade so far
        own = slice(2 * index, 2 * index + 2)
        a_k, b_k, c_k, d_k = (np.asarray(m, wide) for m in _normal_form(section))
        a[own] = np.outer(b_k, c)
        a[own, own] = a_k
        b[own] = b_k * d
        c, d = c * d_k, d * d_k
        c[own] = c_k

    state_output = np.empty((BLOCK, states), wide)  # rows c A^n
    driven = np.empty((BLOCK, states), wide)  # rows A^n b
    state_output[0], driven[0] = c, b
    for n in range(1, BLOCK):
        state_output[n], driven[n] = state_output[n - 1] @ a, a @ driven[n - 1]
    impulse = np.concatenate(([d], driven[:-1] @ c))  # h[0] = d, h[n] = c A^(n-1) b
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    block_response = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0)

    transition, powers = np.linalg.matrix_power(a, BLOCK), []
    while np.max(np.abs(transition)) >= _SCAN_FLOOR:
        powers.append(transition.astype(np.float64))
        transition = transition @ transition
    return (block_response.astype(np.float64), state_output.astype(np.float64),
            driven[::-1].astype(np.float64), tuple(powers))


@lru_cache(maxsize=8)
def design_butterworth_bandpass(
    order: int, low_hz: float, high_hz: float, fs_hz: int
) -> BandpassFilter:
    """Design a band-pass filter from an order-`order` Butterworth prototype.

    Cached, because callers design the same filter once per clip; every
    caller shares the returned filter, so its arrays are read-only.
    """
    nyquist = fs_hz / 2.0
    if not (0.0 < low_hz < high_hz < nyquist):
        raise ValidationError(
            f"band edges must satisfy 0 < {low_hz} < {high_hz} < Nyquist ({nyquist})"
        )
    if order < 1:
        raise ValidationError(f"filter order must be >= 1, got {order}")

    sos = _sections(order, low_hz, high_hz, fs_hz)
    if not np.all(np.abs(np.concatenate([np.roots(a) for a in sos[:, 3:]])) < 1.0):
        raise ValidationError(
            f"designed filter is unstable for edges ({low_hz}, {high_hz}) at {fs_hz} Hz"
        )
    block_response, state_output, state_input, state_powers = _block_state(sos)
    for array in (sos, block_response, state_output, state_input, *state_powers):
        array.flags.writeable = False
    return BandpassFilter(sos, order, float(low_hz), float(high_hz), fs_hz,
                          block_response, state_output, state_input, state_powers)


def apply_filter(bandpass: BandpassFilter, clip: AudioClip) -> AudioClip:
    """Run the cascaded sections over the clip with zero initial state, block by block."""
    if clip.sample_rate_hz != bandpass.sample_rate_hz:
        raise ValidationError(
            f"filter designed for {bandpass.sample_rate_hz} Hz cannot run on a "
            f"{clip.sample_rate_hz} Hz clip"
        )
    samples = clip.samples
    full, tail = divmod(samples.size, BLOCK)
    head = full * BLOCK
    blocks = samples[:head].reshape(full, BLOCK)
    filtered = np.empty(samples.size)
    out = filtered[:head].reshape(full, BLOCK)
    np.matmul(blocks, bandpass.block_response.T, out=out)  # each block from zero state

    # Each block's end state from its own input, then the doubling scan: after the step by
    # M^span, row j holds the state after block j from the 2*span blocks ending there.
    ends = blocks @ bandpass.state_input
    span = 1
    for power in bandpass.state_powers:
        if span >= full:
            break
        ends[span:] += ends[:-span] @ power.T
        span *= 2
    # Block j starts from the state after block j - 1; its output adds O times that state.
    for start in range(1, full, _CHUNK_BLOCKS):
        stop = min(start + _CHUNK_BLOCKS, full)
        out[start:stop] += ends[start - 1:stop - 1] @ bandpass.state_output.T
    if tail:  # a last, partial block: the leading corner of T and rows of O
        last = filtered[head:]
        np.matmul(bandpass.block_response[:tail, :tail], samples[head:], out=last)
        if full:
            last += bandpass.state_output[:tail] @ ends[-1]
    return AudioClip(np.clip(filtered, -1.0, 1.0, out=filtered), clip.sample_rate_hz,
                     source=clip.source)
