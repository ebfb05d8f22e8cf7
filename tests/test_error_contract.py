"""Error contract of the file readers: a corrupted input raises an FsedError.

Each case starts from a valid file, truncates it or flips one to three of
its bits, and reads it back. Any exception but an FsedError fails the test.
The examples are derandomized, so every run checks the same inputs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fsed.fewshot as fs
import fsed.model as M
from fsed.dsp import FrameFeatures, read_features, write_features
from fsed.errors import FsedError
from fsed.ingest import (AudioClip, RunConfig, load_config, read_annotations,
                         read_annotations_by_file, read_wav, write_wav)

TINY = dataclasses.replace(RunConfig(), channels=4, embed_dim=4, heads=2,
                           ffn_dim=8, mel_bands=16, win_frames=32,
                           shift_frames=8)


def _wav(path):
    rng = np.random.default_rng(0)
    write_wav(path, AudioClip(0.1 * rng.standard_normal(64), 8000))
    return read_wav


def _csv(path):
    path.write_text("Audiofilename,Starttime,Endtime,Q\n"
                    "a.wav,0.500000,0.800000,POS\n"
                    "a.wav,1.000000,1.250000,NEG\n"
                    "b.wav,2.000000,2.600000,c1\n", encoding="utf-8")
    return lambda p: (read_annotations(p), read_annotations_by_file(p))


def _config(path):
    path.write_text("# tiny model\nchannels = 4\nmel_bands = 32\n"
                    "sample_rate = 16000\nlr_sed = 0.001\nmultitask = yes\n")
    return load_config


def _checkpoint(path):
    tm = fs.TaskModel(model=M.ModelParams(TINY, n_classes=3, seed=1),
                      sfbc_center=np.ones(TINY.embed_dim), cfg=TINY)
    tm.save(path)
    return lambda p: fs.TaskModel.load(p, TINY)


def _feature_dump(path):
    values = np.random.default_rng(0).uniform(0, 1, (5, 16))
    write_features(path, FrameFeatures(values, 256 / 22050))
    return read_features


FORMATS = {"wav": _wav, "csv": _csv, "config": _config,
           "checkpoint": _checkpoint, "feature_dump": _feature_dump}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for i, bit in flips:
        out[i % len(out)] ^= 1 << bit
    return bytes(out)


# one strategy for every format: truncate at a drawn byte, or flip drawn bits
# at offsets taken modulo the file's length
MUTATIONS = (st.tuples(st.just("truncate"), st.integers(0, 2**16))
             | st.tuples(st.just("flip"), st.lists(
                 st.tuples(st.integers(0, 2**16), st.integers(0, 7)),
                 min_size=1, max_size=3)))


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mutation=MUTATIONS)
def test_only_fsed_errors_escape(workdir, fmt, mutation):
    valid = workdir / f"valid.{fmt}"
    reader = FORMATS[fmt](valid)
    data = valid.read_bytes()
    kind, arg = mutation
    bad = workdir / f"bad.{fmt}"
    bad.write_bytes(data[:arg % len(data)] if kind == "truncate"
                    else _flip(data, arg))
    try:
        reader(bad)
    except FsedError:
        pass


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_unmutated_file_reads(workdir, fmt):
    path = workdir / f"clean.{fmt}"
    FORMATS[fmt](path)(path)
