"""Golden run: the sample config's ledger head hash and non-timing metrics, pinned.

`configs/synthetic_scei.cfg` at 5 rounds must give these exact values. A
change to the model, the round loop or the ledger that keeps the protocol's
output leaves them green. A change that alters them on purpose updates them
here and says why in CHANGES.md.
"""

import hashlib
import os

from scei.harness import build_config, parse_config_file, run_experiment

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synthetic_scei.cfg")
ROUNDS = 5

HEAD_HASH = "b72dd6053ccef8473637dbd1e4fe96ea1122555c490b71e6a7fd561f5bc9b976"
RECORDS = 117
# SHA-256 of the CSV's round,node_id,accuracy,alpha,flagged,expelled columns,
# header included, one LF-terminated line per row
METRICS_DIGEST = "c412da65df7f4c48a61f4ddc0f4d79b8ca39f479c6bd27148648cc3424f45387"

NON_TIMING_COLUMNS = 6


def non_timing_digest(csv_path) -> str:
    digest = hashlib.sha256()
    with open(csv_path, newline="") as f:
        for line in f:
            digest.update((",".join(line.rstrip("\n").split(",")[:NON_TIMING_COLUMNS]) + "\n").encode())
    return digest.hexdigest()


def test_sample_config_matches_golden_values(tmp_path):
    cfg = build_config(parse_config_file(CONFIG), rounds=ROUNDS, out=str(tmp_path / "m.csv"))
    result = run_experiment(cfg)
    assert len(result.ledger) == RECORDS
    assert result.ledger.head_hash.hex() == HEAD_HASH
    assert non_timing_digest(tmp_path / "m.csv") == METRICS_DIGEST
