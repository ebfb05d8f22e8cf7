import json

import numpy as np
import pytest

from fsed.autodiff import load_checkpoint
from fsed.cli import build_parser, main
from fsed.dsp import read_features
from fsed.ingest import (AudioClip, SynthSpec, load_config,
                         read_annotations_by_file, synth_task_set, write_wav)
from fsed.model import ModelParams


class TestParser:
    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])  # --out required
        assert exc.value.code == 2

    def test_seed_accepted_before_and_after_subcommand(self):
        args = build_parser().parse_args(["--seed", "5", "bench", "--out", "x"])
        assert args.seed == 5
        args = build_parser().parse_args(["bench", "--out", "x", "--seed", "7"])
        assert args.seed == 7

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("synth-data", "features", "pretrain", "finetune",
                    "detect", "evaluate", "gradcheck", "bench"):
            assert cmd in text


class TestFeaturesCommand:
    def test_writes_readable_dump(self, tmp_path):
        rng = np.random.default_rng(0)
        wav = tmp_path / "a.wav"
        write_wav(wav, AudioClip(0.1 * rng.standard_normal(22050), 22050))
        out = tmp_path / "a.pcen"
        assert main(["features", str(wav), "-o", str(out)]) == 0
        feats = read_features(out)
        assert feats.values.shape == (87, 128)

    def test_missing_wav_exits_one(self, tmp_path):
        code = main(["features", str(tmp_path / "nope.wav"),
                     "-o", str(tmp_path / "x")])
        assert code == 1


class TestEvaluateCommand:
    HEADER = "Audiofilename,Starttime,Endtime,Q\n"

    def test_scores_csv_pair(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        ref = tmp_path / "ref.csv"
        pred.write_text(self.HEADER + "a.wav,1.0,2.0,POS\na.wav,5.0,6.0,POS\n")
        ref.write_text(self.HEADER + "a.wav,1.1,2.1,POS\na.wav,8.0,9.0,POS\n")
        assert main(["evaluate", "--pred", str(pred), "--ref", str(ref)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 1)
        assert "a.wav" in report["per_clip"]

    def test_iou_flag_tightens_matching(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        ref = tmp_path / "ref.csv"
        pred.write_text(self.HEADER + "a.wav,0.0,1.0,POS\n")
        ref.write_text(self.HEADER + "a.wav,0.5,1.5,POS\n")
        main(["evaluate", "--pred", str(pred), "--ref", str(ref)])
        assert json.loads(capsys.readouterr().out)["tp"] == 1
        main(["evaluate", "--pred", str(pred), "--ref", str(ref),
              "--iou", "0.5"])
        assert json.loads(capsys.readouterr().out)["tp"] == 0

    def test_bad_time_exits_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        ref = tmp_path / "ref.csv"
        pred.write_text(self.HEADER + "a.wav,abc,2.0,POS\n")
        ref.write_text(self.HEADER + "a.wav,1.0,2.0,POS\n")
        assert main(["evaluate", "--pred", str(pred), "--ref", str(ref)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("error [") for line in err) == 1

    def test_short_row_exits_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        ref = tmp_path / "ref.csv"
        pred.write_text(self.HEADER + "a.wav,1.0,2.0,POS\n")
        ref.write_text(self.HEADER + "a.wav,1.0\n")
        assert main(["evaluate", "--pred", str(pred), "--ref", str(ref)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("error [") for line in err) == 1


class TestFinetuneDetect:
    TINY = ("channels = 4\nembed_dim = 4\nheads = 2\nffn_dim = 8\n"
            "mel_bands = 16\nwin_frames = 32\nshift_frames = 8\niters = 2\n"
            "aug_start_iter = 1\nsupport_count = 2\nfinetune_batch = 1\n"
            "pseudo_cycles = 1\npseudo_iters = 1\n")

    def test_task_checkpoint_drives_detect(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(self.TINY)
        pre = tmp_path / "pre.ckpt"
        ModelParams(load_config(cfg_path), n_classes=3, seed=0).save(pre)
        spec = SynthSpec(base_classes=[], novel_classes=["n1"],
                         novel_duration_s=8.0, novel_pos_count=7,
                         event_dur_range=(0.25, 0.4), novel_gap_range=(0.4, 0.7))
        wav, _ = synth_task_set(spec, 3, tmp_path / "data")["novel"][0]
        task_ckpt = tmp_path / "task.ckpt"
        pred = tmp_path / "pred.csv"
        assert main(["--config", str(cfg_path), "finetune", "--ckpt", str(pre),
                     "--task", wav, "--out", str(task_ckpt)]) == 0
        assert main(["--config", str(cfg_path), "detect", "--task-ckpt",
                     str(task_ckpt), "--task", wav, "--out", str(pred)]) == 0
        assert pred.read_text().startswith("Audiofilename,Starttime,Endtime,Q\n")
        assert set(read_annotations_by_file(pred)) <= {"novel_n1.wav"}
        arrays, hyper = load_checkpoint(task_ckpt)
        assert hyper["multitask"] and hyper["use_transformer"]
        assert arrays["sfbc_center"].shape == (4,)


    def test_task_checkpoint_frames_without_config(self, tmp_path):
        # win_frames = 32 with the default shift_frames = 86 is invalid, so
        # detect must take shift_frames from the checkpoint
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(self.TINY)
        pre = tmp_path / "pre.ckpt"
        ModelParams(load_config(cfg_path), n_classes=3, seed=0).save(pre)
        spec = SynthSpec(base_classes=[], novel_classes=["n1"],
                         novel_duration_s=8.0, novel_pos_count=7,
                         event_dur_range=(0.25, 0.4), novel_gap_range=(0.4, 0.7))
        wav, _ = synth_task_set(spec, 4, tmp_path / "data")["novel"][0]
        task_ckpt = tmp_path / "task.ckpt"
        assert main(["--config", str(cfg_path), "finetune", "--ckpt", str(pre),
                     "--task", wav, "--out", str(task_ckpt)]) == 0
        assert main(["detect", "--task-ckpt", str(task_ckpt), "--task", wav,
                     "--out", str(tmp_path / "pred.csv")]) == 0


class TestConfigPlumbing:
    def test_config_file_respected(self, tmp_path):
        rng = np.random.default_rng(1)
        wav = tmp_path / "a.wav"
        write_wav(wav, AudioClip(0.1 * rng.standard_normal(44100), 22050))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hop = 512\n")
        out = tmp_path / "a.pcen"
        assert main(["--config", str(cfg), "features", str(wav),
                     "-o", str(out)]) == 0
        assert read_features(out).values.shape == (1 + 44100 // 512, 128)

    def test_bad_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option = 3\n")
        assert main(["--config", str(cfg), "gradcheck"]) == 1

    @pytest.mark.parametrize("text", ["win_frames = abc\n", "lr_sed = fast\n",
                                      "multitask = ture\n"])
    def test_bad_config_value_exits_one(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n" + text)
        assert main(["--config", str(cfg), "gradcheck"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error [ConfigError]: {cfg}:2:")

    @pytest.mark.parametrize("key", ["heads", "hop", "n_fft", "aug_min_zone",
                                     "support_count", "finetune_batch",
                                     "step_size", "median_width"])
    def test_zero_value_exits_one(self, tmp_path, capsys, key):
        wav = tmp_path / "a.wav"
        write_wav(wav, AudioClip(np.zeros(4410), 22050))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0\n")
        assert main(["--config", str(cfg), "features", str(wav),
                     "-o", str(tmp_path / "a.pcen")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [ConfigError]")

    @pytest.mark.parametrize("key,value,command", [
        ("mel_bands", 24, "features"), ("mel_bands", 0, "features"),
        ("sample_rate", 0, "synth-data"), ("fmin", 20000, "features"),
        ("n_fft", 3, "features"), ("fmax", 30000, "features"),
        ("pcen_s", 2, "features"), ("pcen_s", "nan", "features"),
        ("pcen_delta", -5, "features"), ("pcen_eps", 0, "features"),
        ("pcen_r", -1, "features")])
    def test_unusable_value_exits_one(self, tmp_path, capsys, key, value, command):
        wav = tmp_path / "a.wav"
        write_wav(wav, AudioClip(np.zeros(4410), 22050))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args = ([str(wav), "-o", str(tmp_path / "a.pcen")] if command == "features"
                else ["--out", str(tmp_path / "data")])
        assert main(["--config", str(cfg), command, *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [ConfigError]")

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "none.cfg"), "gradcheck"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [ConfigError]")


class TestErrorExits:
    """Each command reports a failure as exit 1 and one `error [` line; an
    exception escaping `main` (a traceback) fails the test."""

    @staticmethod
    def _run_fails(capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("error [") for line in err) == 1

    def test_synth_data_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        self._run_fails(capsys, ["synth-data", "--out", str(out)])

    def test_pretrain_without_wavs(self, tmp_path, capsys):
        self._run_fails(capsys, ["pretrain", "--data", str(tmp_path),
                                 "--out", str(tmp_path / "ckpts")])

    def test_finetune_missing_checkpoint(self, tmp_path, capsys):
        self._run_fails(capsys, ["finetune", "--ckpt", str(tmp_path / "none.ckpt"),
                                 "--task", str(tmp_path / "t.wav"),
                                 "--out", str(tmp_path / "task.ckpt")])

    def test_detect_truncated_task_checkpoint(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TestFinetuneDetect.TINY)
        ckpt = tmp_path / "task.ckpt"
        ModelParams(load_config(cfg_path), n_classes=3, seed=0).save(ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        self._run_fails(capsys, ["detect", "--task-ckpt", str(ckpt),
                                 "--task", str(tmp_path / "t.wav"),
                                 "--out", str(tmp_path / "pred.csv")])
