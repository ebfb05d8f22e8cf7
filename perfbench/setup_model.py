"""Set-up pretraining for the adaptation workloads, in its own process.

Usage: python3 perfbench/setup_model.py MANIFEST_JSON SEED OUT_CKPT

run.py starts it so that pretraining's peak memory is not counted in the
measured process's peak_rss_mb. It inherits run.py's BLAS thread setting.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    manifest_path, seed, out = sys.argv[1:4]
    workloads.pretrain_for_setup(Path(manifest_path), int(seed), Path(out))
