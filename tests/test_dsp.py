import numpy as np
import pytest

from fsed.dsp import (FrameFeatures, extract_features, mel_band_centers_hz,
                      mel_filterbank, pcen, read_features, resample,
                      speed_perturb, stft_mel, write_features)
from fsed.errors import FormatError, ValidationError
from fsed.ingest import AudioClip, RunConfig

CFG = RunConfig()


def tone(freq, dur_s, rate, amp=0.5):
    t = np.arange(int(dur_s * rate)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


class TestResample:
    def test_identity_rate(self):
        clip = tone(440, 0.2, 22050)
        out = resample(clip, 22050)
        assert np.array_equal(out.samples, clip.samples)
        assert out.samples is not clip.samples

    def test_tone_peak_preserved(self):
        out = resample(tone(1000, 1.0, 44100), 22050)
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(len(out.samples), 1 / 22050)
        peak_hz = freqs[np.argmax(spectrum)]
        bin_width = 22050 / len(out.samples)
        assert abs(peak_hz - 1000) <= bin_width

    def test_duration_preserved(self):
        out = resample(tone(440, 1.0, 44100), 22050)
        assert abs(len(out.samples) - 22050) <= 1

    def test_bad_rate(self):
        with pytest.raises(ValidationError):
            resample(tone(440, 0.1, 22050), 0)


class TestSpeedPerturb:
    def test_identity_factor(self):
        clip = tone(440, 0.3, 22050)
        out, scale = speed_perturb(clip, 1.0)
        assert scale == 1.0
        assert np.array_equal(out.samples, clip.samples)

    def test_faster_is_shorter(self):
        clip = tone(440, 1.1, 22050)
        out, scale = speed_perturb(clip, 1.1)
        assert out.sample_rate == 22050
        assert len(out.samples) == pytest.approx(22050, rel=0.01)
        assert scale == pytest.approx(1 / 1.1)

    def test_event_relabeling(self):
        _, scale = speed_perturb(tone(440, 4.0, 22050), 0.9)
        assert 2.0 * scale == pytest.approx(2.222, abs=1e-3)
        assert 3.0 * scale == pytest.approx(3.333, abs=1e-3)


class TestStftMel:
    def test_silence(self):
        mel = stft_mel(AudioClip(np.zeros(22050), 22050), CFG)
        assert np.all(mel.values == 0)

    def test_frame_count_one_second(self):
        mel = stft_mel(AudioClip(np.zeros(22050), 22050), CFG)
        assert mel.values.shape == (87, 128)  # 1 + 22050 // 256
        assert mel.values.shape[0] == 1 + 22050 // CFG.hop

    def test_frame_period(self):
        mel = stft_mel(AudioClip(np.zeros(4096), 22050), CFG)
        assert mel.frame_period_s == pytest.approx(256 / 22050)

    def test_tone_at_band_center_peaks_there(self):
        centers = mel_band_centers_hz(CFG.mel_bands, CFG.sample_rate)
        band = 64
        mel = stft_mel(tone(centers[band], 1.0, 22050), CFG)
        interior = mel.values[5:-5]
        peaks = np.argmax(interior, axis=1)
        assert np.all(np.abs(peaks - band) <= 1)

    def test_energy_linearity(self):
        clip = tone(700, 0.5, 22050)
        m1 = stft_mel(clip, CFG).values
        m2 = stft_mel(AudioClip(clip.samples * 2.0, 22050), CFG).values
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)

    def test_short_clip_padded(self):
        mel = stft_mel(tone(440, 0.01, 22050), CFG)  # < n_fft samples
        assert mel.values.shape[0] == 1 + 220 // 256

    def test_empty_clip(self):
        with pytest.raises(ValidationError):
            stft_mel(AudioClip(np.zeros(0), 22050), CFG)

    def test_filterbank_shape_and_support(self):
        fb = mel_filterbank(128, 1024, 22050)
        assert fb.shape == (128, 513)
        assert np.all(fb >= 0)
        # every filter has some mass, triangles overlap their neighbors
        assert np.all(fb.sum(axis=1) > 0)


class TestPcen:
    def test_zero_in_zero_out(self):
        out = pcen(FrameFeatures(np.zeros((10, 4)), 0.01), CFG)
        assert np.all(out.values == 0)

    def test_constant_one_instant_smoother(self):
        import dataclasses

        cfg = dataclasses.replace(CFG, pcen_s=1.0)
        out = pcen(FrameFeatures(np.ones((6, 3)), 0.01), cfg)
        expected = (1.0 / (1.0 + 1e-6) ** 0.98 + 2.0) ** 0.5 - 2.0**0.5
        assert expected == pytest.approx(0.31784, abs=1e-4)
        assert out.values == pytest.approx(expected, abs=1e-12)

    def test_matches_scalar_recursion_oracle(self):
        rng = np.random.default_rng(42)
        E = rng.uniform(0, 5, (10, 3))
        got = pcen(FrameFeatures(E, 0.01), CFG).values
        s, a = CFG.pcen_s, CFG.pcen_alpha
        d, r, eps = CFG.pcen_delta, CFG.pcen_r, CFG.pcen_eps
        for band in range(3):
            m = E[0, band]
            for t in range(10):
                if t > 0:
                    m = (1 - s) * m + s * E[t, band]
                want = (E[t, band] / (eps + m) ** a + d) ** r - d**r
                assert abs(got[t, band] - want) < 1e-10

    def test_scale_invariance_at_unit_alpha(self):
        import dataclasses

        cfg = dataclasses.replace(CFG, pcen_alpha=1.0, pcen_s=1.0)
        const = np.full((8, 2), 1000.0)  # large so eps=1e-6 is negligible
        a = pcen(FrameFeatures(const, 0.01), cfg).values
        b = pcen(FrameFeatures(10.0 * const, 0.01), cfg).values
        assert np.max(np.abs(a - b)) < 1e-9

    def test_negative_input_rejected(self):
        with pytest.raises(ValidationError):
            pcen(FrameFeatures(np.full((3, 2), -1.0), 0.01), CFG)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        E = rng.uniform(0, 2, (30, 128))
        a = pcen(FrameFeatures(E, 0.01), CFG).values
        b = pcen(FrameFeatures(E.copy(), 0.01), CFG).values
        assert np.array_equal(a, b)


class TestFeatureDump:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        feats = FrameFeatures(rng.uniform(0, 1, (17, 128)).astype(np.float32)
                              .astype(np.float64), 256 / 22050)
        path = tmp_path / "f.pcen"
        write_features(path, feats)
        back = read_features(path)
        assert np.array_equal(back.values, feats.values)
        assert back.frame_period_s == feats.frame_period_s

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcen"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError):
            read_features(path)

    def test_truncated(self, tmp_path):
        feats = FrameFeatures(np.ones((4, 8)), 0.01)
        path = tmp_path / "t.pcen"
        write_features(path, feats)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(FormatError):
            read_features(path)


    @pytest.mark.parametrize("keep", [-8, 10])  # no trailing period; short header
    def test_truncated_header_or_trailer(self, tmp_path, keep):
        path = tmp_path / "t.pcen"
        write_features(path, FrameFeatures(np.ones((4, 8)), 0.01))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError):
            read_features(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_features(tmp_path / "absent.pcen")

    @pytest.mark.parametrize("case", ["data_not_multiple_of_4", "huge_t"])
    def test_size_disagrees_with_header(self, tmp_path, case):
        path = tmp_path / "t.pcen"
        write_features(path, FrameFeatures(np.ones((4, 8)), 0.01))
        raw = bytearray(path.read_bytes())
        if case == "data_not_multiple_of_4":
            del raw[-10:]  # the period and two bytes of data
        else:
            raw[11] ^= 0x80  # high bit of T: a 64 GB data part
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="t.pcen"):
            read_features(path)


def test_extract_features_shape():
    feats = extract_features(tone(440, 1.0, 44100), CFG)
    assert feats.values.shape == (87, 128)
    assert np.all(np.isfinite(feats.values))
    assert np.all(feats.values >= 0)
