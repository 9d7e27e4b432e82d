"""Checks made apart from the program: a dump reader of its own and protocol rules.

Nothing here imports `scei`. The dump reader follows the format the README
documents (frames of `u32 length || record`, each record its SHA-256 hash
input followed by the hash) and re-hashes the chain with `hashlib`. The
protocol checks re-derive, from the records alone, what the coordinator must
have decided each round.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

HASH_LEN = 32
HEADER = struct.Struct("<QQBBQQ")  # index, round, kind, flag, node_id, paylen
FRAME_LEN = struct.Struct("<I")

GENESIS, LOCAL_WEIGHTS, GLOBAL_WEIGHTS, ACCURACY_LIST, ALPHA_DECISION, SUSPICION_SET, EXPULSION = range(7)


class CheckFailed(AssertionError):
    """An output of the program breaks a rule the benchmark checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Frame:
    index: int
    round_no: int
    kind: int
    node_id: int | None
    payload: memoryview
    digest: bytes


@dataclass(frozen=True)
class Dump:
    frames: tuple
    first_bad: int | None  # first frame that breaks the chain, None if intact

    @property
    def head_hash(self) -> bytes:
        return self.frames[-1].digest


def read_dump(blob) -> Dump:
    """Parse and re-hash a dump; stops at the first frame that breaks the chain."""
    view = memoryview(blob)
    frames = []
    offset = 0
    prev = b"\x00" * HASH_LEN
    while offset < len(view):
        bad = len(frames)
        if offset + FRAME_LEN.size > len(view):
            return Dump(tuple(frames), bad)
        (length,) = FRAME_LEN.unpack_from(view, offset)
        body = view[offset + FRAME_LEN.size : offset + FRAME_LEN.size + length]
        if len(body) != length or length < HEADER.size + 2 * HASH_LEN:
            return Dump(tuple(frames), bad)
        index, round_no, kind, flag, node_id, paylen = HEADER.unpack_from(body, 0)
        if (
            paylen != length - HEADER.size - 2 * HASH_LEN
            or index != bad
            or not 0 <= kind <= EXPULSION
            or (kind == GENESIS) != (index == 0)
            or flag not in (0, 1)
            or (flag == 0 and node_id != 0)
            or bytes(body[length - 2 * HASH_LEN : length - HASH_LEN]) != prev
        ):
            return Dump(tuple(frames), bad)
        digest = bytes(body[length - HASH_LEN :])
        if hashlib.sha256(body[: length - HASH_LEN]).digest() != digest:
            return Dump(tuple(frames), bad)
        frames.append(
            Frame(
                index=index,
                round_no=round_no,
                kind=kind,
                node_id=node_id if flag else None,
                payload=body[HEADER.size : HEADER.size + paylen],
                digest=digest,
            )
        )
        prev = digest
        offset += FRAME_LEN.size + length
    return Dump(tuple(frames), None if frames else 0)


def frame_offsets(blob) -> list:
    """Offset of every frame's length prefix, read from the lengths alone."""
    offsets = []
    offset = 0
    while offset + FRAME_LEN.size <= len(blob):
        offsets.append(offset)
        offset += FRAME_LEN.size + FRAME_LEN.unpack_from(blob, offset)[0]
    return offsets


def frame_of(offsets, byte_offset: int) -> int:
    """Index of the frame whose bytes (length prefix included) hold byte_offset."""
    return int(np.searchsorted(np.asarray(offsets), byte_offset, side="right")) - 1


def _u64s(payload: memoryview) -> tuple:
    (count,) = struct.unpack_from("<Q", payload, 0)
    require(len(payload) == 8 + 8 * count, "u64 list payload length mismatch")
    return struct.unpack_from(f"<{count}Q", payload, 8)


def _vector(payload: memoryview) -> np.ndarray:
    (count,) = struct.unpack_from("<Q", payload, 0)
    require(len(payload) == 8 + 8 * count, "parameter payload length mismatch")
    return np.frombuffer(payload, dtype="<f8", count=count, offset=8)


def _pairs(payload: memoryview) -> tuple:
    (count,) = struct.unpack_from("<Q", payload, 0)
    require(len(payload) == 8 + 16 * count, "accuracy payload length mismatch")
    flat = struct.unpack_from(f"<{2 * count}d", payload, 8)
    return flat[0::2], flat[1::2]


def check_protocol(dump: Dump, rounds: int, grid: tuple, attackers: tuple, streak: int) -> None:
    """Re-derive each round's decisions from its recorded inputs.

    - the round's global weights are the plain mean of the uploads of the
      nodes its suspicion set leaves out;
    - its alpha is the grid alpha whose column of recorded accuracies has the
      highest mean, summed in ascending node order as the README documents,
      ties going to the smallest alpha;
    - a node is expelled in exactly the rounds that end `streak` rounds in a
      row of flags, and an expelled node uploads nothing afterwards;
    - the attackers are flagged in every round up to `streak`, so they are
      expelled at round `streak`.
    """
    require(dump.first_bad is None, f"own reader: chain breaks at record {dump.first_bad}")
    by_round = {}
    for fr in dump.frames:
        by_round.setdefault(fr.round_no, []).append(fr)
    require(sorted(by_round) == list(range(rounds + 1)), f"rounds recorded: {sorted(by_round)}")
    require(
        [fr.kind for fr in by_round[0]] == [GENESIS, GLOBAL_WEIGHTS],
        "round 0 must hold the genesis record and the initial global weights",
    )

    flags = {}
    expelled = set()
    for round_no in range(1, rounds + 1):
        records = by_round[round_no]

        def of(kind):
            return [fr for fr in records if fr.kind == kind]

        uploads = {fr.node_id: _vector(fr.payload) for fr in of(LOCAL_WEIGHTS)}
        require(not set(uploads) & expelled, f"round {round_no}: an expelled node uploaded")
        (suspicion,) = of(SUSPICION_SET)
        flagged = set(_u64s(suspicion.payload))
        flags[round_no] = flagged
        (global_rec,) = of(GLOBAL_WEIGHTS)
        kept = np.stack([uploads[n] for n in sorted(uploads) if n not in flagged])
        expected = kept.mean(axis=0)
        scale = max(1.0, float(np.abs(kept).max()))
        error = float(np.abs(_vector(global_rec.payload) - expected).max())
        require(error <= 1e-9 * scale, f"round {round_no}: global weights are {error:.3g} off the plain mean")

        rows = [_pairs(fr.payload) for fr in sorted(of(ACCURACY_LIST), key=lambda fr: fr.node_id)]
        require(bool(rows), f"round {round_no}: no accuracy lists recorded")
        for alphas, _ in rows:
            require(
                len(alphas) == len(grid) and all(abs(a - g) <= 1e-12 for a, g in zip(alphas, grid)),
                f"round {round_no}: scored alphas {alphas}, grid {grid}",
            )
        means = []
        for column in range(len(grid)):
            total = 0.0
            for _, accuracies in rows:
                total += accuracies[column]
            means.append(total / len(rows))
        best = means.index(max(means))
        (decision,) = of(ALPHA_DECISION)
        alpha, index = struct.unpack("<dQ", decision.payload)
        require(
            index == best and alpha == rows[0][0][best],
            f"round {round_no}: recorded alpha {alpha} (index {index}), column means pick {rows[0][0][best]} (index {best})",
        )

        window = range(round_no - streak + 1, round_no + 1)
        due = {n for n in flagged if round_no >= streak and all(n in flags[r] for r in window)}
        now = {fr.node_id for fr in of(EXPULSION)}
        require(now == due, f"round {round_no}: expelled {sorted(now)}, the {streak}-round rule expels {sorted(due)}")
        expelled |= now
        if round_no <= streak:
            require(set(attackers) <= flagged, f"round {round_no}: attackers {attackers} not all flagged: {sorted(flagged)}")


def check_csv(path, metrics) -> None:
    """The written CSV parses back to the returned metrics rows."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    require(len(rows) == len(metrics), f"CSV has {len(rows)} rows for {len(metrics)} metrics")
    for row, m in zip(rows, metrics):
        same = (
            int(row["round"]) == m.round_no
            and int(row["node_id"]) == m.node_id
            and row["flagged"] == ("true" if m.flagged else "false")
            and row["expelled"] == ("true" if m.expelled else "false")
            and all(
                abs(float(row[column]) - getattr(m, field)) <= 5e-7
                for column, field in (
                    ("accuracy", "accuracy"),
                    ("alpha", "alpha"),
                    ("train_s", "train_s"),
                    ("negotiate_s", "negotiate_s"),
                    ("ledger_s", "ledger_s"),
                )
            )
        )
        require(same, f"CSV row {row} does not match {m}")


def majority_share(labels) -> float:
    """Accuracy of always guessing the most frequent label."""
    counts = np.bincount(np.asarray(labels))
    return float(counts.max()) / float(counts.sum())
