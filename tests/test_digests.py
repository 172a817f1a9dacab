"""Output bytes pinned per environment.

Each shipped config runs through the CLI at 100 samples and one worker, with
one BLAS thread and --plot, and the SHA-256 of its results.json, series.csv
and, for a kind with a plot, plot.svg must equal the digests recorded for
this environment.  The bytes are fixed only by the environment (README,
"Reproducibility contract"), so the table is keyed by it: numpy's version,
the BLAS, LAPACK and SIMD dispatch that run_meta.json records, Python's
version and the C library.  An environment with no entry skips, naming its
key.

A change that moves output bytes on purpose records the new digests here;
`PYTHONPATH=src python tests/test_digests.py` prints this environment's
entry.
"""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from fmlab.runner import _numpy_build

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
FILES = ("results.json", "series.csv", "plot.svg")  # no plot.svg for inequalities

DIGESTS = {
    ("numpy 2.4.6 | "
     "blas scipy-openblas 0.3.31.188.0 | "
     "lapack scipy-openblas 0.3.31.188.0 | "
     "simd X86_V3,X86_V4,AVX512_ICL,AVX512_SPR | "
     "python 3.11.7 | "
     "libc glibc 2.36"): {
        "correlator_chain": [
            "d98e3a73338cacdeb9a1260593cfa60b74a79b877140662671b7058753954340",
            "e95f6e634ef8f3fdc8a76be2e68c8987e8ae2dcc78fbc3c60e4b0e7d26d1aeb3",
            "2696397156a61090cc704eed6bffb10416944cdfd79f0989052835287d6b616b"],
        "decay_alloy_2d": [
            "5d216eeb4dbd22957185e1b0e6859afa55ee95808d6549dbfeaf33beaf261868",
            "23325f092e4c62a2bd18c6643c1117914db61ce86f462126cf20316eab0581a0",
            "0a08aa1ffc73cb1232b35a0a9ceee6c252a38dfade43207dcb3af4094ecbb85e"],
        "decay_chain": [
            "28a786f40704c92697ae3512b00d249d0087f112441c4e875a9a508ddff29a24",
            "4d44cb386ba112f3e83d24959530c6c79d5aac201fe8cd3b7918dc43a5708d19",
            "18445e837da9eb43fcfa172bcd867d0d15be9b4d8811ccf6b18f33971b9d97de"],
        "dynamical_box": [
            "8b0eaa9480526fd76fdff5eb77d205a98cb0184761b8fc6eec93c23ceceb1b9e",
            "8368a891663ec6407ff38c78c03c481ed94d8e3b6c60ac488f570ca6e3d18967",
            "bf7eadf9014f5a6fea2ebe105b3fdfbb98d1291f94b9eff67f14a0e49a6b8d81"],
        "ids_alloy_2d": [
            "ef4e64de0a2b36396d4f5bfa33fd9491d4d9c20c221eaa7cef9692e7638dba31",
            "79ed69832b0b8eeb855b165fda3a76013254d246d5307768ccb413ab4fe47a02",
            "272f4a7bbc3b297c2a52199f733f522b32a51b9dd1ac502f80d6e8c0e2956bde"],
        "inequalities_battery": [
            "326031ccc97fcbabc7dc98397bea18b9a600b8dddfff942deb67c4bd3e4246ae",
            "e71aeeecbbb114198950174bacadfee55abe57de35025fe46b02e2ca87a28129"],
        "wegner_spencer": [
            "5a6f1e55c0dcafce53fdea6b4d1226f967ac41e27c4c38a8eaf6c6f0325888a9",
            "f7e10b80c5a449ea945ec08127cae84be93faf06fd7322386bb4d71172b5abfb",
            "bb385730e7fc6da5818ab6a355f1ca8136ee69e3fa2718f529db048c8977d570"],
    },
}


def environment_key() -> str:
    build = _numpy_build()
    return " | ".join([
        f"numpy {np.__version__}",
        f"blas {build.get('blas')}",
        f"lapack {build.get('lapack')}",
        "simd " + ",".join(build["simd"]),
        f"python {platform.python_version()}",
        "libc " + " ".join(platform.libc_ver()),
    ])


def run_digests(cfg: pathlib.Path, out: pathlib.Path) -> list:
    """SHA-256 of each of FILES that cfg's CLI run at 100 samples, 1 worker, 1 BLAS
    thread and --plot writes."""
    kind = json.loads(cfg.read_text())["kind"]
    src = str(ROOT / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "fmlab.cli", kind, "--config", str(cfg),
                    "--samples", "100", "--workers", "1", "--plot", "--out", str(out)],
                   check=True, capture_output=True, env=env, cwd=ROOT)
    return [hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in FILES if (out / name).exists()]


@pytest.mark.parametrize("cfg", CONFIGS, ids=[cfg.stem for cfg in CONFIGS])
def test_shipped_config_outputs_match_the_recorded_digests(cfg, tmp_path):
    key = environment_key()
    if key not in DIGESTS:
        pytest.skip(f"no output digests recorded for environment {key!r}")
    assert run_digests(cfg, tmp_path / "run") == DIGESTS[key][cfg.stem]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entry = {cfg.stem: run_digests(cfg, pathlib.Path(tmp) / cfg.stem) for cfg in CONFIGS}
    print(json.dumps({environment_key(): entry}, indent=4))
