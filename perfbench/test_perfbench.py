"""Tests of the benchmark itself, on tiny runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import struct
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from scei import harness, ledger  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "synthetic_per_class": "60",
    "synthetic_input_dim": "5",
    "samples_per_node": "20",
    "hidden": "4,4",
    "local_epochs": "1",
    "learning_rate": "0.05",
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 12-round run of the benchmark's protocol on a tiny model, and its dump."""
    out = tmp_path_factory.mktemp("tiny")
    cfg = harness.build_config(
        dict(workloads.PROTOCOL, **TINY),
        seed=5,
        out=str(out / "tiny.csv"),
        ledger_out=str(out / "tiny.ledger"),
    )
    result = harness.run_experiment(cfg)
    with open(cfg.ledger_path, "rb") as f:
        return cfg, result, f.read()


def test_own_reader_agrees_with_the_program(tiny):
    cfg, result, blob = tiny
    dump = checks.read_dump(blob)
    assert dump.first_bad is None
    assert dump.head_hash == result.ledger.head_hash
    assert len(dump.frames) == len(result.ledger)
    assert len(checks.frame_offsets(blob)) == len(result.ledger)
    checks.check_protocol(dump, cfg.rounds, workloads.GRID_ALPHAS, workloads.ATTACKERS, 5)
    checks.check_csv(cfg.output_path, result.metrics)


def test_own_reader_catches_a_flipped_byte(tiny):
    _, _, blob = tiny
    offsets = checks.frame_offsets(blob)
    rng = np.random.default_rng(3)
    for at in [0, 3, 4, len(blob) - 1, *rng.integers(len(blob), size=40)]:
        edited = bytearray(blob)
        edited[at] ^= 0x5A
        frame = checks.frame_of(offsets, int(at))
        bad = checks.read_dump(bytes(edited)).first_bad
        assert bad in (frame, frame + 1)
        assert bad == ledger.verify_dump_bytes(bytes(edited))


def test_protocol_check_catches_a_rehashed_forgery(tiny):
    """A dump whose alpha decision was changed and whose chain was re-hashed
    verifies, but its decision no longer follows from its accuracy lists."""
    _, _, blob = tiny
    forged = ledger.Ledger()
    for rec in ledger.Ledger.from_bytes(blob).records[1:]:
        payload = rec.payload
        if rec.kind is ledger.RecordKind.ALPHA_DECISION and rec.round_no == 1:
            alpha, index = struct.unpack("<dQ", payload)
            payload = struct.pack("<dQ", workloads.GRID_ALPHAS[(index + 1) % 7], (index + 1) % 7)
        forged.append(rec.round_no, rec.kind, rec.node_id, payload)
    dump = checks.read_dump(forged.to_bytes())
    assert dump.first_bad is None
    with pytest.raises(checks.CheckFailed, match="round 1: recorded alpha"):
        checks.check_protocol(dump, 12, workloads.GRID_ALPHAS, workloads.ATTACKERS, 5)


def test_traced_run_records_spans_and_restores_the_program(tiny, tmp_path):
    cfg, _, _ = tiny
    before = tracing.bindings()
    tracer = tracing.Tracer()
    with tracer:
        result = harness.run_experiment(cfg)
        tracer.note_result(result.ledger, os.path.getsize(cfg.ledger_path))
        ledger.verify_dump_bytes(result.ledger.to_bytes())
    assert tracing.same_bindings(before, tracing.bindings())

    stats = tracer.stats()
    assert stats["harness.run_experiment.calls"] == 1
    assert stats["model.loss_and_grad.calls"] > 0
    assert stats["ledger.Ledger.append.calls"] == len(result.ledger) - 1
    assert stats["ledger.records"] == len(result.ledger)
    # the ledger holds its payloads, one 32-byte hash per record and the genesis prev hash
    hashes_mb = 32 * (len(result.ledger) + 1) / tracing.MB
    assert stats["ledger.held_payload_mb"] == pytest.approx(stats["ledger.append_mb"] + hashes_mb)
    for span in tracing.SPAN_NAMES:
        if span != "ledger.Ledger.read_dump" and span != "ledger.Ledger.verify_chain":
            assert stats[f"{span}.calls"] > 0, span

    tracer.write(tmp_path / "trace.jsonl")
    spans = [json.loads(line) for line in open(tmp_path / "trace.jsonl")]
    names = {s["id"]: s["name"] for s in spans}
    for s in spans:
        if s["name"] == "model.loss_and_grad":
            assert names[s["parent"]] == "model.sgd_train"
        if s["parent"] == -1:
            assert s["name"] in ("harness.run_experiment", "ledger.Ledger.to_bytes", "ledger.verify_dump_bytes")


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_names()
    sums = {"rounds": 1, "experiment_s": 1.0, "verify_bytes": 1, "verify_s": 1.0, "load_bytes": 1, "load_s": 1.0}
    tally = dict(sums, accuracies=[1.0], samples=[sums])
    printed = run.end_to_end("synth_mlp_attacked", [{"setup_s": 1.0}], {"tally": tally, "peak_rss_mb": 1.0})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in printed.items()}
