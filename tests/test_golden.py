"""Golden runs: the sample config's ledger head hash and non-timing metrics, pinned.

`configs/synthetic_scei.cfg` at 5 rounds must give these exact values under
each scheme. A change to the model, the round loop or the ledger that keeps
the protocol's output leaves them green. A change that alters them on purpose
updates them here and says why in CHANGES.md.
"""

import ctypes
import glob
import hashlib
import os

import numpy
import pytest

from scei.harness import build_config, parse_config_file, run_experiment

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synthetic_scei.cfg")
ROUNDS = 5

HEAD_HASH = "b72dd6053ccef8473637dbd1e4fe96ea1122555c490b71e6a7fd561f5bc9b976"
RECORDS = 117
# SHA-256 of the CSV's round,node_id,accuracy,alpha,flagged,expelled columns,
# header included, one LF-terminated line per row
METRICS_DIGEST = "c412da65df7f4c48a61f4ddc0f4d79b8ca39f479c6bd27148648cc3424f45387"

# scheme -> (extra config keys, head hash, record count, metrics digest)
GOLDEN = {
    "scei": ({}, HEAD_HASH, RECORDS, METRICS_DIGEST),
    "fedavg": (
        {},
        "3edcd08d06451a83cc5d623e15a91f9bc18da19e4361a0b86d10b64baba472c1",
        57,
        "93ebb38c7e1ac1b05bba0e6202f342ade21e1d5b5f8f150a19c87c2deb7432bb",
    ),
    "local": (
        {},
        "aa084be8baf5700b042b904d41a128e90f8c5c51be83d2c0e105807e18f9dff6",
        52,
        "e990fb9be45c7a3a75f73cc8ae9947ef73855eec2d12daf30d256f86506488ca",
    ),
    "fixed_alpha": (
        {"fixed_alpha": "0.75"},
        "621ea446d40285e016935c9c00a1d88a210c85b294e8d7113529f8024d5e8fc0",
        57,
        "785dcd2bd5aa1560fb32aacd467e7513a66ca841af8e299779462a5ac14e5270",
    ),
}

NON_TIMING_COLUMNS = 6


def non_timing_digest(csv_path) -> str:
    digest = hashlib.sha256()
    with open(csv_path, newline="") as f:
        for line in f:
            digest.update((",".join(line.rstrip("\n").split(",")[:NON_TIMING_COLUMNS]) + "\n").encode())
    return digest.hexdigest()


def machine() -> str:
    """The machine the head hashes depend on: numpy's version, the bundled
    OpenBLAS's core name and config, and the numpy dispatch targets this CPU
    enables. The record count and CSV digest held on every pair measured."""
    from numpy._core import _multiarray_umath as umath

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_-*.so"))
    blas = f"no single bundled scipy-openblas library: {libs}"
    if len(libs) == 1:
        lib = ctypes.CDLL(libs[0])
        getters = [getattr(lib, f"scipy_openblas_get_{name}64_") for name in ("corename", "config")]
        for getter in getters:
            getter.restype = ctypes.c_char_p
        blas = "OpenBLAS core {}, config {}".format(*(getter().decode() for getter in getters))
    targets = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return f"numpy {numpy.__version__}; {blas}; numpy dispatch targets enabled: {', '.join(targets) or 'none'}"


def check_golden(scheme, tmp_path):
    extra, head_hash, records, metrics_digest = GOLDEN[scheme]
    raw = dict(parse_config_file(CONFIG), scheme=scheme, **extra)
    cfg = build_config(raw, rounds=ROUNDS, out=str(tmp_path / "m.csv"))
    result = run_experiment(cfg)
    assert len(result.ledger) == records
    assert non_timing_digest(tmp_path / "m.csv") == metrics_digest
    # the head is pinned on one machine's kernels (README, Known limitations)
    assert result.ledger.head_hash.hex() == head_hash, f"head hash differs on {machine()}"


def test_sample_config_matches_golden_values(tmp_path):
    check_golden("scei", tmp_path)


@pytest.mark.parametrize("scheme", ["fedavg", "local", "fixed_alpha"])
def test_baseline_schemes_match_golden_values(tmp_path, scheme):
    check_golden(scheme, tmp_path)


@pytest.mark.parametrize("cpus", ["one", "two", "unknown"])
def test_golden_values_hold_on_any_cpu_count(cpus, tmp_path, monkeypatch):
    """One usable CPU forks no trainer process, two fork one, and a platform
    that cannot say which CPUs a process may use forks none: the same pins."""
    if cpus == "unknown":
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        own = min(os.sched_getaffinity(0))
        usable = {"one": {own}, "two": {own, own + 1}}[cpus]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable)
    check_golden("scei", tmp_path)
