"""The three workloads: their inputs, their set-up and one round of their operations.

An operation is one experiment, one verify pass or one load pass (of an intact
dump or of a copy with one byte edited). Every round of a workload attempts
the same operations, and each operation either passes all of its checks or
counts as failed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from scei import contract, data, harness, ledger

import checks

WORKLOADS = ("synth_mlp_attacked", "wide_mlp_ledger", "ledger_audit")
SHAPE_OF = {"synth_mlp_attacked": "synth", "wide_mlp_ledger": "wide"}

ATTACKERS = (1, 2)
GRID = (0.5, 0.8, 0.05)
GRID_ALPHAS = tuple(0.5 + 0.05 * i for i in range(7))  # worked out here, not by the program

# The protocol is the same on both shapes. It runs 12 rounds because the
# fences widen with the round: with 10 rounds or fewer the attackers pass the
# fence at round 5 and are never expelled.
PROTOCOL = {
    "scheme": "scei",
    "dataset": "synthetic",
    "synthetic_classes": "10",
    "synthetic_separation": "4.0",
    "nodes": "10",
    "labels_per_node": "4",
    "rounds": "12",
    "batch_size": "10",
    "grid_start": str(GRID[0]),
    "grid_end": str(GRID[1]),
    "grid_step": str(GRID[2]),
    "policy": "max_mean",
    "attacks": ", ".join(f"{n}:noise:10.0:1" for n in ATTACKERS),
}

SHAPES = {
    # the acceptance-test shape: 6,154 parameters, 49 KB weight records
    "synth": {
        "synthetic_per_class": "1500",
        "synthetic_input_dim": "20",
        "samples_per_node": "600",
        "hidden": "64,64",
        "local_epochs": "5",
        "learning_rate": "0.01",
    },
    # MNIST-sized: 199,210 parameters, 1.59 MB weight records, light training
    "wide": {
        "synthetic_per_class": "500",
        "synthetic_input_dim": "784",
        "samples_per_node": "200",
        "hidden": "200,200",
        "local_epochs": "1",
        "learning_rate": "0.03",
    },
}

# verify and load passes per round and dump: the 6 MB dump of the small shape
# needs several to give a reading well above timer noise
PASSES = {"synth_mlp_attacked": 8, "wide_mlp_ledger": 1, "ledger_audit": 2}

# ledger_audit checks this many single-byte-edited copies of each dump per round
EDITS_PER_DUMP = 1
_EDIT_TAG = 7

MANIFEST = "audit.json"


def program_seed(seed: int) -> int:
    return seed % 2**32


def config(shape: str, seed: int, run_dir: str):
    return harness.build_config(
        dict(PROTOCOL, **SHAPES[shape]),
        seed=program_seed(seed),
        out=os.path.join(run_dir, f"{shape}.csv"),
        ledger_out=os.path.join(run_dir, f"{shape}.ledger"),
    )


SUMS = ("rounds", "experiment_s", "verify_bytes", "verify_s", "load_bytes", "load_s")


@dataclass
class Tally:
    """Operations attempted and failed, and the sums the end-to-end rates come from."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    experiment_s: float = 0.0
    verify_bytes: int = 0
    verify_s: float = 0.0
    load_bytes: int = 0
    load_s: float = 0.0
    accuracies: list = field(default_factory=list)
    identity: dict = field(default_factory=dict)  # shape -> [head hash hex, final accuracy]
    chain: dict = field(default_factory=dict)  # shape -> (head hash, records) of the latest run
    samples: list = field(default_factory=list)  # the sums each round added, one dict per round

    def mark(self) -> None:
        """Close a round: record what it added to each sum."""
        self.samples.append({k: getattr(self, k) - sum(s[k] for s in self.samples) for k in SUMS})

    def run(self, what: str, operation) -> None:
        """Run one operation; an exception or a failed check counts it failed."""
        self.attempted += 1
        try:
            operation()
        except Exception as exc:  # reported, counted, and the run goes on
            self.failed += 1
            print(f"perfbench: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr, flush=True)


@dataclass
class AuditDump:
    shape: str
    path: str
    head: bytes
    records: int
    edits: list = field(default_factory=list)  # (byte offset, xor mask, record index)


@dataclass
class Inputs:
    cfg: object = None  # the experiment workloads' config
    majority: list = field(default_factory=list)  # per node: share of its commonest test label
    dumps: list = field(default_factory=list)  # ledger_audit's dumps


def prepare(workload: str, seed: int, run_dir: str, tally: Tally, tracer=None) -> Inputs:
    """The set-up `setup_s` measures: config and generated inputs; for
    ledger_audit, the real runs that write its dumps."""
    if workload == "ledger_audit":
        dumps = []
        for shape in ("synth", "wide"):
            cfg = config(shape, seed, run_dir)
            tally.run(f"{shape} experiment", lambda: run_and_check(shape, cfg, tally, tracer))
            dumps.append({"shape": shape, "path": cfg.ledger_path})
        for d in dumps:
            head, records = tally.chain.get(d["shape"], (b"", 0))
            d.update(head=head.hex(), records=records)
        with open(os.path.join(run_dir, MANIFEST), "w") as f:
            json.dump(dumps, f)
        return Inputs()
    cfg = config(SHAPE_OF[workload], seed, run_dir)
    src = cfg.dataset
    ds = data.generate_synthetic(src.num_classes, src.per_class, src.input_dim, src.separation, cfg.seed)
    splits = data.partition_non_iid(ds, cfg.partition)
    return Inputs(cfg=cfg, majority=[checks.majority_share(s.test.labels) for s in splits])


def audit_inputs(seed: int, run_dir: str) -> Inputs:
    """ledger_audit's dumps as its set-up left them, with seeded byte edits."""
    rng = np.random.default_rng([program_seed(seed), _EDIT_TAG])
    with open(os.path.join(run_dir, MANIFEST)) as f:
        manifest = json.load(f)
    dumps = []
    for d in manifest:
        with open(d["path"], "rb") as f:
            offsets = checks.frame_offsets(f.read())
        size = os.path.getsize(d["path"])
        edits = []
        for _ in range(EDITS_PER_DUMP):
            at = int(rng.integers(size))
            edits.append((at, int(rng.integers(1, 256)), checks.frame_of(offsets, at)))
        dumps.append(AuditDump(d["shape"], d["path"], bytes.fromhex(d["head"]), d["records"], edits))
    return Inputs(dumps=dumps)


def run_and_check(shape: str, cfg, tally: Tally, tracer=None, majority=None) -> None:
    """One experiment through the public API, then every check of its outputs."""
    for path in (cfg.ledger_path, cfg.output_path):
        if os.path.exists(path):
            os.remove(path)
    tally.chain.pop(shape, None)
    start = time.perf_counter()
    result = harness.run_experiment(cfg)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.note_result(result.ledger, os.path.getsize(cfg.ledger_path))
    head, length, metrics = result.ledger.head_hash, len(result.ledger), result.metrics
    del result  # the checks below hold a dump as large as its ledger
    tally.chain[shape] = (head, length)

    last = [m for m in metrics if m.round_no == cfg.rounds]
    final_accuracy = sum(m.accuracy for m in last) / len(last)
    with open(cfg.ledger_path, "rb") as f:
        dump = checks.read_dump(f.read())
    checks.require(dump.head_hash == head, "own reader's head hash differs from Ledger.head_hash")
    checks.require(len(dump.frames) == length, f"own reader found {len(dump.frames)} frames, the ledger has {length}")
    checks.check_protocol(dump, cfg.rounds, GRID_ALPHAS, ATTACKERS, contract.EXPULSION_STREAK)
    del dump
    checks.check_csv(cfg.output_path, metrics)
    if majority is not None:
        for m in last:
            checks.require(
                m.accuracy > majority[m.node_id],
                f"node {m.node_id}: final accuracy {m.accuracy} does not beat its commonest label's share {majority[m.node_id]}",
            )
    identity = [head.hex(), final_accuracy]
    first = tally.identity.setdefault(shape, identity)
    checks.require(first == identity, f"a repeat gave {identity}, the first run {first}")
    tally.rounds += cfg.rounds
    tally.experiment_s += elapsed
    tally.accuracies.append(final_accuracy)


def verify_pass(path: str, tally: Tally) -> None:
    with open(path, "rb") as f:
        blob = f.read()
    start = time.perf_counter()
    bad = ledger.verify_dump_bytes(blob)
    elapsed = time.perf_counter() - start
    checks.require(bad is None, f"intact dump {path} reported bad at record {bad}")
    tally.verify_bytes += len(blob)
    tally.verify_s += elapsed


def load_pass(path: str, head: bytes, records: int, tally: Tally) -> None:
    start = time.perf_counter()
    book = ledger.Ledger.read_dump(path)
    bad = book.verify_chain()
    elapsed = time.perf_counter() - start
    checks.require(bad is None, f"intact dump {path} loads with record {bad} bad")
    checks.require(book.head_hash == head and len(book) == records, f"dump {path} loads to another chain")
    tally.load_bytes += os.path.getsize(path)
    tally.load_s += elapsed


def edited_pass(path: str, at: int, xor: int, frame: int) -> None:
    """A copy with one byte changed is reported at that byte's record or the next,
    by verify_dump_bytes and by from_bytes plus verify_chain (or refused by it)."""
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[at] ^= xor
    bad = ledger.verify_dump_bytes(blob)
    checks.require(bad in (frame, frame + 1), f"byte {at} (record {frame}) edited: verify reports {bad}")
    try:
        bad = ledger.Ledger.from_bytes(blob).verify_chain()
    except ledger.LedgerFormatError:
        return
    checks.require(bad in (frame, frame + 1), f"byte {at} (record {frame}) edited: load reports {bad}")


def play_round(workload: str, inputs: Inputs, tally: Tally, tracer=None) -> None:
    if workload == "ledger_audit":
        for d in inputs.dumps:
            for _ in range(PASSES[workload]):
                tally.run(f"{d.shape} verify pass", lambda: verify_pass(d.path, tally))
            for _ in range(PASSES[workload]):
                tally.run(f"{d.shape} load pass", lambda: load_pass(d.path, d.head, d.records, tally))
            for at, xor, frame in d.edits:
                tally.run(f"{d.shape} edited copy", lambda: edited_pass(d.path, at, xor, frame))
        return
    shape, cfg = SHAPE_OF[workload], inputs.cfg
    tally.run("experiment", lambda: run_and_check(shape, cfg, tally, tracer, inputs.majority))
    head, records = tally.chain.get(shape, (b"", 0))
    for _ in range(PASSES[workload]):
        tally.run("verify pass", lambda: verify_pass(cfg.ledger_path, tally))
    for _ in range(PASSES[workload]):
        tally.run("load pass", lambda: load_pass(cfg.ledger_path, head, records, tally))

