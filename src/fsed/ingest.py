"""Audio / annotation I/O, synthetic task generation, and run configuration.

Annotation CSVs follow the few-shot convention: header row with columns
Audiofilename, Starttime, Endtime, Q where Q is POS/NEG/UNK or a class name.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, GenerationError, TaskError, ValidationError


@dataclass
class AudioClip:
    """Mono waveform with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValidationError("sample_rate must be positive")
        if self.samples.ndim != 1:
            raise ValidationError("AudioClip is mono: samples must be 1-D")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("samples must be finite")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class AnnotationEvent:
    onset_s: float
    offset_s: float
    label: str

    def __post_init__(self):
        # also rejects NaN and infinite times
        if not (0.0 <= self.onset_s < self.offset_s < math.inf):
            raise ValidationError(
                f"bad event times: onset={self.onset_s} offset={self.offset_s}"
            )


@dataclass
class SupportTask:
    """One few-shot task: 5 annotated POS shots, derived NEG gaps, query region."""

    clip: AudioClip
    pos_events: list[AnnotationEvent]
    neg_intervals: list[AnnotationEvent]
    query_start_s: float


# the backbone's mel-axis pooling; mel_bands must be a multiple of it
MEL_REDUCTION = 16


@dataclass
class RunConfig:
    """Every tunable knob, with published defaults.

    Loaded from a flat key=value text file; unknown keys are rejected, missing
    keys keep defaults.
    """

    sample_rate: int = 22050
    n_fft: int = 1024
    hop: int = 256
    mel_bands: int = 128
    fmin: float = 0.0
    fmax: float = 0.0  # 0 means Nyquist
    win_frames: int = 431
    shift_frames: int = 86
    # PCEN constants
    pcen_s: float = 0.025
    pcen_alpha: float = 0.98
    pcen_delta: float = 2.0
    pcen_r: float = 0.5
    pcen_eps: float = 1e-6
    # optimization
    lr_pretrain: float = 1e-4
    lr_sed: float = 1e-3
    lr_sfbc: float = 1e-4
    step_size: int = 10
    gamma: float = 0.5
    iters: int = 100
    # TimeFilterAug
    aug_start_iter: int = 40
    aug_zones: int = 6
    aug_min_zone: int = 48
    aug_db_low: float = -6.0
    aug_db_high: float = 8.0
    # model
    channels: int = 128
    embed_dim: int = 128
    heads: int = 8
    ffn_dim: int = 2048
    use_transformer: bool = True
    multitask: bool = True
    use_aug: bool = True
    graft_mode: str = "pos_center"  # or "binary_row"
    # fine-tuning
    support_count: int = 32
    neg_quota_frac: float = 0.2
    pseudo_hi: float = 0.9
    pseudo_lo: float = 0.1
    pseudo_cycles: int = 3
    pseudo_iters: int = 20
    finetune_batch: int = 4
    # training plan
    kfold: int = 5
    seed: int = 0
    speed_perturb: bool = True
    max_steps_per_epoch: int = 0  # 0 = unlimited
    # event decoding / scoring
    threshold: float = 0.5
    min_dur_s: float = 0.06
    merge_gap_s: float = 0.1
    median_width: int = 5
    iou_min: float = 0.3

    def __post_init__(self):
        for key in ("heads", "hop", "n_fft", "sample_rate", "channels",
                    "embed_dim", "ffn_dim", "aug_min_zone", "support_count",
                    "finetune_batch", "step_size", "median_width"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"need {key} > 0")
        if self.mel_bands <= 0 or self.mel_bands % MEL_REDUCTION:
            raise ConfigError(f"need mel_bands a positive multiple of {MEL_REDUCTION}")
        if not (self.win_frames > self.shift_frames > 0):
            raise ConfigError("need win_frames > shift_frames > 0")
        if self.aug_db_low >= self.aug_db_high:
            raise ConfigError("need aug_db_low < aug_db_high")
        if self.embed_dim * 2 % self.heads != 0:
            raise ConfigError("transformer dim (2*embed_dim) must be divisible by heads")
        # written as not (in range), so that NaN is rejected too
        if not (0 < self.pcen_s <= 1):
            raise ConfigError("need 0 < pcen_s <= 1")
        for key in ("pcen_eps", "pcen_r"):
            if not (getattr(self, key) > 0):
                raise ConfigError(f"need {key} > 0")
        if not (self.pcen_delta >= 0):
            raise ConfigError("need pcen_delta >= 0")

    @property
    def frame_period_s(self) -> float:
        return self.hop / self.sample_rate

    @property
    def mel_fmax(self) -> float:
        return self.fmax if self.fmax > 0 else self.sample_rate / 2.0


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a flat key=value config file ('#' starts a comment)."""
    known = {f.name: f for f in fields(RunConfig)}
    kv, where = {}, {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            kv[key] = val
            where[key] = f"{path}:{lineno}"
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items()})
        where.update({k: f"override {k}" for k in overrides})
    coerced = {}
    for key, val in kv.items():
        typ = known[key].type
        try:
            if typ == "bool":
                coerced[key] = _BOOLS[val.lower()]
            elif typ == "int":
                coerced[key] = int(val)
            elif typ == "float":
                coerced[key] = float(val)
            else:
                coerced[key] = val
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{where[key]}: {key} needs a {typ}, got {val!r}"
                              ) from exc
    return RunConfig(**coerced)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def read_wav(path) -> AudioClip:
    """Read a PCM WAV file as a mono clip scaled to [-1, 1].

    Supports 8/16/24/32-bit integer and 32-bit float RIFF PCM. Multichannel
    audio is averaged to mono.
    """
    try:
        from scipy.io import wavfile

        rate, data = wavfile.read(str(path))
    # scipy's parser also fails with struct.error on a short header,
    # ZeroDivisionError on a zero block size and UnboundLocalError when the
    # data chunk is missing
    except (OSError, ValueError, struct.error, ZeroDivisionError,
            UnboundLocalError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data / 2.0**15
    elif data.dtype == np.int32:
        samples = data / 2.0**31
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FormatError(f"{path}: unsupported sample format {data.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioClip(samples=samples, sample_rate=int(rate))


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM WAV."""
    from scipy.io import wavfile

    scaled = np.clip(np.round(clip.samples * 2.0**15), -(2.0**15), 2.0**15 - 1)
    wavfile.write(str(path), clip.sample_rate, scaled.astype(np.int16))


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("Audiofilename", "Starttime", "Endtime", "Q")


def read_annotations(path) -> list[AnnotationEvent]:
    """Read POS/class rows from an annotation CSV.

    NEG and UNK rows are skipped (unlabeled for support construction); any
    other Q value is kept as the event's class label.
    """
    with _annotation_file(path) as fh:
        return parse_annotations(fh, name=str(path))


def parse_annotations(fh: io.TextIOBase, name="<csv>") -> list[AnnotationEvent]:
    return [event for _, event in _annotation_rows(fh, name)]


def read_annotations_by_file(path) -> dict[str, list[AnnotationEvent]]:
    """Like read_annotations, grouped by the Audiofilename column."""
    groups: dict[str, list[AnnotationEvent]] = {}
    with _annotation_file(path) as fh:
        for filename, event in _annotation_rows(fh, str(path)):
            groups.setdefault(filename, []).append(event)
    return groups


@contextlib.contextmanager
def _annotation_file(path):
    """The CSV opened for reading; unreadable bytes raise FormatError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: cannot read annotations: {exc}") from exc


def _annotation_rows(fh: io.TextIOBase, name: str):
    """(Audiofilename, event) for every row that is not NEG or UNK."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or any(
        c not in reader.fieldnames for c in _REQUIRED_COLUMNS
    ):
        raise FormatError(f"{name}: header must contain {', '.join(_REQUIRED_COLUMNS)}")
    for rownum, row in enumerate(reader, 2):
        if any(row[c] is None for c in _REQUIRED_COLUMNS):
            raise FormatError(f"{name}: row {rownum}: fewer columns than the header")
        q = row["Q"].strip()
        if q in ("NEG", "UNK"):
            continue
        try:
            event = AnnotationEvent(float(row["Starttime"]), float(row["Endtime"]), q)
        except ValueError as exc:
            raise FormatError(f"{name}: row {rownum}: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"{name}: row {rownum}: {exc}") from exc
        yield row["Audiofilename"], event


def make_support_task(clip: AudioClip, events: list[AnnotationEvent]) -> SupportTask:
    """Build a few-shot task from the first five POS events of a clip.

    NEG intervals are the maximal gaps between consecutive POS events within
    [0, query_start); the query region runs from the 5th POS offset to the
    clip end.
    """
    pos = sorted(events, key=lambda e: (e.onset_s, e.offset_s))
    if len(pos) < 5:
        raise TaskError(f"need >= 5 POS events, got {len(pos)}")
    shots = pos[:5]
    query_start = shots[4].offset_s
    neg = []
    prev_end = 0.0
    for ev in shots:
        if ev.onset_s > prev_end:
            neg.append(AnnotationEvent(prev_end, ev.onset_s, "NEG"))
        prev_end = max(prev_end, ev.offset_s)
    return SupportTask(clip=clip, pos_events=shots, neg_intervals=neg,
                       query_start_s=query_start)


# ---------------------------------------------------------------------------
# Synthetic task generation
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    """Parameters for the synthetic tone-burst / chirp corpus."""

    base_classes: list[str] = field(default_factory=lambda: ["c1", "c2", "c3", "c4"])
    novel_classes: list[str] = field(default_factory=lambda: ["n1", "n2"])
    base_duration_s: float = 60.0
    novel_duration_s: float = 90.0
    novel_pos_count: int = 12
    snr_db: float = 10.0
    sample_rate: int = 22050
    event_dur_range: tuple[float, float] = (0.25, 0.6)
    base_gap_range: tuple[float, float] = (0.8, 2.0)
    novel_gap_range: tuple[float, float] = (3.0, 5.5)


def _class_tone(rng, name: str, index: int, dur_s: float, sr: int) -> np.ndarray:
    """One event waveform: band-limited tone burst or linear chirp.

    Even class indices are steady tones, odd ones chirp up by 30%. Center
    frequencies are spread over 500..6000 Hz, distinct per class.
    """
    f0 = 500.0 * (6000.0 / 500.0) ** (index / 7.0)
    n = int(round(dur_s * sr))
    t = np.arange(n) / sr
    if index % 2 == 0:
        phase = 2 * np.pi * f0 * t
    else:
        k = 0.3 * f0 / dur_s
        phase = 2 * np.pi * (f0 * t + 0.5 * k * t * t)
    env = np.ones(n)
    ramp = max(1, int(0.02 * sr))
    env[:ramp] = np.linspace(0.0, 1.0, ramp)
    env[-ramp:] = np.linspace(1.0, 0.0, ramp)
    return np.sin(phase + rng.uniform(0, 2 * np.pi)) * env


def _pink_noise(rng, n: int) -> np.ndarray:
    """1/f-shaped noise at unit RMS."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.arange(len(spec), dtype=np.float64)
    freqs[0] = 1.0
    pink = np.fft.irfft(spec / np.sqrt(freqs), n=n)
    return pink / np.sqrt(np.mean(pink**2))


def _place_events(rng, duration_s, dur_range, gap_range, count=None):
    """Random non-overlapping (onset, offset) pairs covering the clip."""
    events = []
    t = rng.uniform(*gap_range)
    while True:
        dur = rng.uniform(*dur_range)
        if t + dur > duration_s - 0.5:
            break
        events.append((t, t + dur))
        if count is not None and len(events) == count:
            break
        t = t + dur + rng.uniform(*gap_range)
    if count is not None and len(events) < count:
        raise GenerationError(
            f"cannot place {count} events of {dur_range} s in {duration_s} s"
        )
    return events


def synth_task_set(spec: SynthSpec, seed: int, out_dir) -> dict:
    """Generate the on-disk synthetic corpus (WAV + CSV per file).

    Base-class files carry full class-name annotations; novel files carry
    POS rows only. Deterministic given (spec, seed). Returns a manifest of
    written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence([seed, 0xF5ED])
    all_classes = list(spec.base_classes) + list(spec.novel_classes)
    if len(set(all_classes)) != len(all_classes):
        raise GenerationError("class names must be distinct")
    manifest = {"base": [], "novel": [], "classes": list(spec.base_classes)}
    sr = spec.sample_rate

    def render(rng, duration_s, placed, tone_classes):
        n = int(round(duration_s * sr))
        sig = np.zeros(n)
        for (onset, offset), label in zip(placed, tone_classes):
            idx = all_classes.index(label)
            tone = _class_tone(rng, label, idx, offset - onset, sr)
            a = int(round(onset * sr))
            sig[a : a + len(tone)] += tone
        if np.isfinite(spec.snr_db):
            noise = _pink_noise(rng, n)
            event_rms = np.sqrt(np.mean(np.concatenate(
                [sig[int(a * sr) : int(b * sr)] ** 2 for a, b in placed])))
            sig = sig + noise * event_rms * 10.0 ** (-spec.snr_db / 20.0)
        peak = np.max(np.abs(sig))
        if peak > 0:
            sig = sig * (0.9 / peak)
        return sig

    def write(stem, sig, placed, labels):
        wav_path = out_dir / f"{stem}.wav"
        csv_path = out_dir / f"{stem}.csv"
        write_wav(wav_path, AudioClip(sig, sr))
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(_REQUIRED_COLUMNS)
            for (a, b), label in zip(placed, labels):
                w.writerow([f"{stem}.wav", f"{a:.6f}", f"{b:.6f}", label])
        return str(wav_path), str(csv_path)

    for i, cname in enumerate(spec.base_classes):
        rng = np.random.default_rng(root.spawn(1)[0])
        placed = _place_events(rng, spec.base_duration_s,
                               spec.event_dur_range, spec.base_gap_range)
        if not placed:
            raise GenerationError("no events fit in base clip")
        labels = [cname] * len(placed)
        sig = render(rng, spec.base_duration_s, placed, labels)
        manifest["base"].append(write(f"base_{cname}", sig, placed, labels))

    for cname in spec.novel_classes:
        rng = np.random.default_rng(root.spawn(1)[0])
        placed = _place_events(rng, spec.novel_duration_s, spec.event_dur_range,
                               spec.novel_gap_range, count=spec.novel_pos_count)
        sig = render(rng, spec.novel_duration_s, placed, [cname] * len(placed))
        manifest["novel"].append(
            write(f"novel_{cname}", sig, placed, ["POS"] * len(placed)))
    return manifest
