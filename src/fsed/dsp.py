"""Waveform-to-PCEN frontend and speed perturbation.

All transforms are pure and deterministic: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.signal import get_window, resample_poly

from .errors import ConfigError, FormatError, ValidationError
from .ingest import AudioClip, RunConfig


@dataclass
class FrameFeatures:
    """[T frames x mel bands]: mel-band energies from `stft_mel`, PCEN
    outputs from `pcen`."""

    values: np.ndarray
    frame_period_s: float


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Band-limited (polyphase windowed-sinc) resampling."""
    if target_hz <= 0:
        raise ValidationError("target_hz must be positive")
    if target_hz == clip.sample_rate:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    ratio = Fraction(int(target_hz), int(clip.sample_rate))
    out = resample_poly(clip.samples, ratio.numerator, ratio.denominator)
    return AudioClip(out, target_hz)


def speed_perturb(clip: AudioClip, factor: float) -> tuple[AudioClip, float]:
    """Speed up/down by `factor`, shifting pitch and tempo together.

    Implemented by resampling the waveform by 1/factor and keeping the
    declared rate. Annotation times must be multiplied by the returned
    time_scale = 1/factor.
    """
    if factor <= 0:
        raise ValidationError("factor must be positive")
    if factor == 1.0:
        return AudioClip(clip.samples.copy(), clip.sample_rate), 1.0
    ratio = Fraction(factor).limit_denominator(100)
    out = resample_poly(clip.samples, ratio.denominator, ratio.numerator)
    return AudioClip(out, clip.sample_rate), 1.0 / factor


# ---------------------------------------------------------------------------
# Mel filterbank (Slaney scale, area-normalized triangles)
# ---------------------------------------------------------------------------

def _hz_to_mel(f):
    f = np.asarray(f, dtype=np.float64)
    mel = f / (200.0 / 3.0)
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0)
                   / (np.log(6.4) / 27.0), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * (200.0 / 3.0)
    return np.where(m >= 15.0, 1000.0 * np.exp((m - 15.0) * np.log(6.4) / 27.0), f)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int,
                   fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """[n_mels x (n_fft//2+1)] triangular filters, 2/bandwidth normalized."""
    if fmax is None:
        fmax = sample_rate / 2.0
    mel_pts = np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fft_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    lower = hz_pts[:-2][:, None]
    center = hz_pts[1:-1][:, None]
    upper = hz_pts[2:][:, None]
    up = (fft_freqs[None, :] - lower) / np.maximum(center - lower, 1e-12)
    down = (upper - fft_freqs[None, :]) / np.maximum(upper - center, 1e-12)
    weights = np.maximum(0.0, np.minimum(up, down))
    weights *= (2.0 / (upper - lower))
    return weights


def mel_band_centers_hz(n_mels: int, sample_rate: int, fmin: float = 0.0,
                        fmax: float | None = None) -> np.ndarray:
    if fmax is None:
        fmax = sample_rate / 2.0
    mel_pts = np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2)
    return _mel_to_hz(mel_pts)[1:-1]


def stft_mel(clip: AudioClip, cfg: RunConfig) -> FrameFeatures:
    """Power STFT (Hann, centered, reflect-padded) through the mel filterbank.

    T = 1 + len // hop frames.
    """
    n = len(clip.samples)
    if n == 0:
        raise ValidationError("empty clip")
    n_fft, hop = cfg.n_fft, cfg.hop
    pad = n_fft // 2
    x = np.pad(clip.samples, pad, mode="reflect") if n > 1 else np.pad(
        clip.samples, pad, mode="edge")
    window = get_window("hann", n_fft, fftbins=True)
    n_frames = 1 + n // hop
    starts = np.arange(n_frames) * hop
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[starts]
    spec = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2
    fb = mel_filterbank(cfg.mel_bands, n_fft, clip.sample_rate, cfg.fmin,
                        cfg.mel_fmax)
    empty = int(np.sum(~fb.any(axis=1)))
    if empty:
        raise ConfigError(f"{empty} of {cfg.mel_bands} mel bands cover no FFT bin "
                          f"(fmin {cfg.fmin:g}, fmax {cfg.mel_fmax:g} Hz, n_fft {n_fft})")
    mel = spec @ fb.T
    return FrameFeatures(values=mel, frame_period_s=hop / clip.sample_rate)


def pcen(mel: FrameFeatures, cfg: RunConfig) -> FrameFeatures:
    """Per-channel energy normalization.

    Smoother: M[0] = E[0], M[t] = (1-s) M[t-1] + s E[t].
    Output: (E / (eps + M)^alpha + delta)^r - delta^r, per band.
    """
    E = np.asarray(mel.values, dtype=np.float64)
    if np.any(E < 0):
        raise ValidationError("PCEN input must be non-negative")
    s, alpha = cfg.pcen_s, cfg.pcen_alpha
    delta, r, eps = cfg.pcen_delta, cfg.pcen_r, cfg.pcen_eps
    M = np.empty_like(E)
    if len(E):
        M[0] = E[0]
        for t in range(1, len(E)):
            M[t] = (1.0 - s) * M[t - 1] + s * E[t]
    out = (E / (eps + M) ** alpha + delta) ** r - delta**r
    return FrameFeatures(values=out, frame_period_s=mel.frame_period_s)


def extract_features(clip: AudioClip, cfg: RunConfig) -> FrameFeatures:
    """Full frontend: resample to cfg rate, STFT-mel, PCEN."""
    clip = resample(clip, cfg.sample_rate)
    return pcen(stft_mel(clip, cfg), cfg)


# ---------------------------------------------------------------------------
# Feature dump (binary f32 little-endian)
# ---------------------------------------------------------------------------

_FEATURE_MAGIC = b"PCEN"
_FEATURE_VERSION = 1


def write_features(path, feats: FrameFeatures) -> None:
    """16-byte header (magic, u32 version, u32 T, u32 bands) + f32 LE data."""
    t, bands = feats.values.shape
    with open(path, "wb") as fh:
        fh.write(_FEATURE_MAGIC)
        fh.write(struct.pack("<III", _FEATURE_VERSION, t, bands))
        fh.write(feats.values.astype("<f4").tobytes())
        fh.write(struct.pack("<d", feats.frame_period_s))


def read_features(path) -> FrameFeatures:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read feature dump: {exc}") from exc
    if raw[:4] != _FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header")
    version, t, bands = struct.unpack_from("<III", raw, 4)
    if version != _FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    # check the size the header implies before allocating anything for it
    if len(raw) != 16 + 4 * t * bands + 8:
        raise FormatError(f"{path}: {len(raw)} bytes, but a {t} x {bands} dump "
                          f"has {16 + 4 * t * bands + 8}")
    data = np.frombuffer(raw, dtype="<f4", count=t * bands, offset=16)
    (period,) = struct.unpack_from("<d", raw, 16 + 4 * t * bands)
    return FrameFeatures(values=data.reshape(t, bands).astype(np.float64),
                         frame_period_s=period)
