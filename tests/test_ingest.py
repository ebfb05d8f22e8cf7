import io

import numpy as np
import pytest

from fsed.errors import (ConfigError, FormatError, GenerationError, TaskError,
                         ValidationError)
from fsed.ingest import (AnnotationEvent, AudioClip, RunConfig, SynthSpec,
                         load_config, make_support_task, parse_annotations,
                         read_annotations, read_annotations_by_file, read_wav,
                         synth_task_set, write_wav)


class TestReadWav:
    def test_int16_scaling(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "a.wav"
        wavfile.write(path, 8000, np.array([16384, 0, -16384], dtype=np.int16))
        clip = read_wav(path)
        assert clip.sample_rate == 8000
        assert clip.samples == pytest.approx([0.5, 0.0, -0.5])

    def test_stereo_averaged_to_mono(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "st.wav"
        data = (np.array([[0.2, 0.4], [0.6, 0.8]]) * 2**15).astype(np.int16)
        wavfile.write(path, 8000, data)
        clip = read_wav(path)
        assert clip.samples == pytest.approx([0.3, 0.7], abs=1e-4)

    def test_float32_passthrough(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "f.wav"
        wavfile.write(path, 22050, np.array([0.25, -0.5], dtype=np.float32))
        assert read_wav(path).samples == pytest.approx([0.25, -0.5])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFgarbage-not-a-wav-file")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_truncated_riff_header(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(b"RIFF$\0\0\0WAVEfmt ")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_roundtrip_16bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(-2**15, 2**15, 1000)
        clip = AudioClip(raw / 2.0**15, 22050)
        path = tmp_path / "rt.wav"
        write_wav(path, clip)
        back = read_wav(path)
        assert np.array_equal(back.samples, clip.samples)


class TestAnnotations:
    HEADER = "Audiofilename,Starttime,Endtime,Q\n"

    def test_pos_row(self):
        events = parse_annotations(io.StringIO(self.HEADER + "a.wav,1.0,1.5,POS\n"))
        assert events == [AnnotationEvent(1.0, 1.5, "POS")]

    def test_empty_event_rejected(self):
        with pytest.raises(ValidationError, match="row 2"):
            parse_annotations(io.StringIO(self.HEADER + "a.wav,1.0,1.0,POS\n"))

    @pytest.mark.parametrize("row", ["a.wav,5.0,inf,POS", "a.wav,nan,1.0,POS"])
    def test_nonfinite_time_rejected(self, row):
        with pytest.raises(ValidationError, match="row 2"):
            parse_annotations(io.StringIO(self.HEADER + row + "\n"))

    def test_unk_rows_skipped(self):
        rows = [f"a.wav,{i},{i}.5,POS" for i in range(5)]
        rows += [f"a.wav,{i + 10},{i + 10}.5,UNK" for i in range(3)]
        events = parse_annotations(io.StringIO(self.HEADER + "\n".join(rows)))
        assert len(events) == 5

    def test_missing_column(self):
        with pytest.raises(FormatError):
            parse_annotations(io.StringIO("Audiofilename,Starttime\na,1\n"))

    @pytest.mark.parametrize("row", ["a.wav,1.0", "a.wav,1.0,2.0"])
    def test_short_row_rejected(self, row):
        with pytest.raises(FormatError, match="row 3"):
            parse_annotations(io.StringIO(self.HEADER + "a.wav,0.5,0.8,POS\n"
                                          + row + "\n"))

    def test_non_utf8_byte_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.HEADER.encode() + b"a.wav,1.0,1.5,P\xffS\n")
        for reader in (read_annotations, read_annotations_by_file):
            with pytest.raises(FormatError, match="bad.csv"):
                reader(path)

    def test_grouped_reader(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(self.HEADER + "a.wav,1,2,POS\nb.wav,3,4,POS\na.wav,5,6,POS\n")
        groups = read_annotations_by_file(path)
        assert sorted(groups) == ["a.wav", "b.wav"]
        assert len(groups["a.wav"]) == 2


class TestMakeSupportTask:
    def _clip(self, dur=20.0):
        return AudioClip(np.zeros(int(dur * 8000)), 8000)

    def test_gap_construction(self):
        events = [AnnotationEvent(o, o + 1, "POS") for o in (1, 3, 5, 7, 9)]
        task = make_support_task(self._clip(), events)
        assert task.query_start_s == 10
        gaps = [(n.onset_s, n.offset_s) for n in task.neg_intervals]
        assert gaps == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]

    def test_too_few_events(self):
        events = [AnnotationEvent(o, o + 1, "POS") for o in (1, 3, 5, 7)]
        with pytest.raises(TaskError):
            make_support_task(self._clip(), events)

    def test_abutting_events_no_zero_gap(self):
        events = [AnnotationEvent(float(o), float(o + 1), "POS")
                  for o in (1, 2, 3, 4, 5)]
        task = make_support_task(self._clip(), events)
        gaps = [(n.onset_s, n.offset_s) for n in task.neg_intervals]
        assert gaps == [(0, 1)]

    def test_neg_disjoint_from_pos_and_covering(self):
        rng = np.random.default_rng(3)
        onsets = np.cumsum(0.4 + rng.uniform(0.2, 1.5, 7))  # disjoint by design
        events = [AnnotationEvent(float(o), float(o) + 0.4, "POS") for o in onsets]
        task = make_support_task(self._clip(), events)
        segs = ([(n.onset_s, n.offset_s, "N") for n in task.neg_intervals]
                + [(p.onset_s, p.offset_s, "P") for p in task.pos_events])
        segs.sort()
        # pairwise disjoint and jointly covering [0, query_start]
        cursor = 0.0
        for a, b, _ in segs:
            assert a == pytest.approx(cursor, abs=1e-9)
            cursor = b
        assert cursor == pytest.approx(task.query_start_s)


class TestConfig:
    def test_defaults_match_published_values(self):
        cfg = RunConfig()
        assert (cfg.sample_rate, cfg.n_fft, cfg.hop, cfg.mel_bands) == \
            (22050, 1024, 256, 128)
        assert (cfg.win_frames, cfg.shift_frames) == (431, 86)
        assert cfg.lr_pretrain == 1e-4 and cfg.lr_sed == 1e-3
        assert cfg.gamma == 0.5 and cfg.step_size == 10 and cfg.iters == 100
        assert cfg.aug_start_iter == 40 and cfg.aug_zones == 6
        assert cfg.aug_min_zone == 48
        assert (cfg.aug_db_low, cfg.aug_db_high) == (-6.0, 8.0)

    def test_load_partial_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nhop = 128\nchannels=16\nmultitask = false\n")
        cfg = load_config(path)
        assert cfg.hop == 128 and cfg.channels == 16 and cfg.multitask is False
        assert cfg.n_fft == 1024  # untouched default

    @pytest.mark.parametrize("key", ["channels", "embed_dim", "ffn_dim"])
    def test_zero_model_size_rejected(self, key):
        # a corrupt checkpoint can carry these; 0 channels divided by zero
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: 0})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(Exception):
            load_config(path)


class TestSynthTaskSet:
    def test_deterministic_bytes(self, tmp_path):
        spec = SynthSpec(base_duration_s=8.0, novel_duration_s=20.0,
                         novel_pos_count=3, novel_gap_range=(1.0, 2.0))
        m1 = synth_task_set(spec, 11, tmp_path / "a")
        m2 = synth_task_set(spec, 11, tmp_path / "b")
        for (w1, c1), (w2, c2) in zip(m1["base"] + m1["novel"],
                                      m2["base"] + m2["novel"]):
            assert open(w1, "rb").read() == open(w2, "rb").read()
            assert open(c1).read() == open(c2).read()

    def test_base_files_annotated(self, tmp_path):
        spec = SynthSpec(base_duration_s=10.0, novel_duration_s=20.0,
                         novel_pos_count=3, novel_gap_range=(1.0, 2.0))
        manifest = synth_task_set(spec, 5, tmp_path)
        assert len(manifest["base"]) == 4
        for i, (wav, csv_path) in enumerate(manifest["base"]):
            events = read_annotations(csv_path)
            assert len(events) >= 1
            assert {e.label for e in events} == {spec.base_classes[i]}

    def test_infinite_snr_silence_in_gaps(self, tmp_path):
        spec = SynthSpec(base_classes=["c1"], novel_classes=["n1"],
                         base_duration_s=10.0, novel_duration_s=20.0,
                         novel_pos_count=3, novel_gap_range=(1.0, 2.0),
                         snr_db=np.inf)
        manifest = synth_task_set(spec, 5, tmp_path)
        wav, csv_path = manifest["base"][0]
        clip = read_wav(wav)
        events = read_annotations(csv_path)
        sr = clip.sample_rate
        ev = events[0]
        seg = clip.samples[int(ev.onset_s * sr):int(ev.offset_s * sr)]
        assert np.sqrt(np.mean(seg**2)) > 0
        gap = clip.samples[: int((events[0].onset_s - 0.01) * sr)]
        assert np.sqrt(np.mean(gap**2)) == 0

    def test_density_infeasible(self, tmp_path):
        spec = SynthSpec(novel_duration_s=5.0, novel_pos_count=50)
        with pytest.raises(GenerationError):
            synth_task_set(spec, 1, tmp_path)
