"""Append-only, hash-chained, typed record store.

Every protocol artifact (uploaded weights, global weights, accuracy lists,
alpha decisions, suspicion sets, expulsions) is committed here and read back,
and any byte-level tampering is detectable.

Hash-input byte layout (all integers little-endian):

    index   u64
    round   u64
    kind    u8      (RecordKind value)
    flag    u8      (1 if node_id present, else 0)
    node_id u64     (0 when absent)
    paylen  u64     (payload byte count)
    payload bytes
    prev    32 bytes (previous record's hash; zeros for the genesis record)

record hash = SHA-256 over exactly those bytes. A serialized record is the
hash input followed by the 32-byte hash; a dump file is a sequence of
`u32 length (little-endian) || record bytes` frames. Dumps are therefore
independently verifiable by any reader that follows this layout.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

HASH_LEN = 32
GENESIS_PREV_HASH = b"\x00" * HASH_LEN

_HEADER = struct.Struct("<QQBBQQ")
_FIXED_OVERHEAD = _HEADER.size + 2 * HASH_LEN  # header + prev_hash + hash


class LedgerFormatError(ValueError):
    """Serialized ledger bytes violate the documented layout."""


class RecordKind(enum.Enum):
    GENESIS = 0
    LOCAL_WEIGHTS = 1
    GLOBAL_WEIGHTS = 2
    ACCURACY_LIST = 3
    ALPHA_DECISION = 4
    SUSPICION_SET = 5
    EXPULSION = 6


@dataclass(frozen=True)
class LedgerRecord:
    index: int
    round_no: int
    kind: RecordKind
    node_id: int | None
    payload: bytes
    prev_hash: bytes
    hash: bytes


def _pack_header(index, round_no, kind, node_id, paylen) -> bytes:
    return _HEADER.pack(
        index,
        round_no,
        kind.value,
        0 if node_id is None else 1,
        0 if node_id is None else node_id,
        paylen,
    )


def hash_input(index, round_no, kind, node_id, payload, prev_hash) -> bytes:
    return _pack_header(index, round_no, kind, node_id, len(payload)) + payload + prev_hash


def compute_hash(index, round_no, kind, node_id, payload, prev_hash) -> bytes:
    """SHA-256 of hash_input(...), fed in pieces so the payload is not copied."""
    digest = hashlib.sha256(_pack_header(index, round_no, kind, node_id, len(payload)))
    digest.update(payload)
    digest.update(prev_hash)
    return digest.digest()


def record_to_bytes(record: LedgerRecord) -> bytes:
    return (
        hash_input(
            record.index,
            record.round_no,
            record.kind,
            record.node_id,
            record.payload,
            record.prev_hash,
        )
        + record.hash
    )


def record_from_bytes(buf: bytes) -> LedgerRecord:
    """Parse one record; its payload and hashes are bytes copied out of buf."""
    return _parse_record(memoryview(buf), owned=True)


def _parse_record(buf: memoryview, owned: bool) -> LedgerRecord:
    """Parse one record; unless owned, its payload and hashes are views into buf."""
    if len(buf) < _FIXED_OVERHEAD:
        raise LedgerFormatError(f"record too short ({len(buf)} bytes)")
    index, round_no, kind_code, flag, node_id, paylen = _HEADER.unpack_from(buf, 0)
    if paylen != len(buf) - _FIXED_OVERHEAD:
        raise LedgerFormatError(
            f"payload length field {paylen} does not match record size {len(buf)}"
        )
    try:
        kind = RecordKind(kind_code)
    except ValueError as exc:
        raise LedgerFormatError(f"unknown record kind {kind_code}") from exc
    if flag not in (0, 1):
        raise LedgerFormatError(f"bad node-id flag {flag}")
    if flag == 0 and node_id != 0:
        # only canonical encodings round-trip, so every byte stays hash-covered
        raise LedgerFormatError("node id bytes must be zero when the flag is unset")
    payload = buf[_HEADER.size : _HEADER.size + paylen]
    prev_hash = buf[_HEADER.size + paylen : _HEADER.size + paylen + HASH_LEN]
    stored_hash = buf[_HEADER.size + paylen + HASH_LEN :]
    if owned:
        payload, prev_hash, stored_hash = bytes(payload), bytes(prev_hash), bytes(stored_hash)
    return LedgerRecord(
        index=index,
        round_no=round_no,
        kind=kind,
        node_id=node_id if flag else None,
        payload=payload,
        prev_hash=prev_hash,
        hash=stored_hash,
    )


def _first_bad_index(records) -> int | None:
    """First index whose record fails hash recomputation, linkage, or structure."""
    if not records:
        return 0
    for i, rec in enumerate(records):
        if rec.index != i:
            return i
        if i == 0:
            if rec.kind is not RecordKind.GENESIS or rec.prev_hash != GENESIS_PREV_HASH:
                return i
        else:
            if rec.kind is RecordKind.GENESIS:
                return i
            if rec.prev_hash != records[i - 1].hash:
                return i
        recomputed = compute_hash(
            rec.index, rec.round_no, rec.kind, rec.node_id, rec.payload, rec.prev_hash
        )
        if recomputed != rec.hash:
            return i
    return None


class Ledger:
    """Sequence of hash-chained records with a single deterministic append point."""

    def __init__(self):
        genesis_hash = compute_hash(0, 0, RecordKind.GENESIS, None, b"", GENESIS_PREV_HASH)
        self.records = [
            LedgerRecord(0, 0, RecordKind.GENESIS, None, b"", GENESIS_PREV_HASH, genesis_hash)
        ]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def head_hash(self) -> bytes:
        return self.records[-1].hash

    def append(self, round_no: int, kind: RecordKind, node_id, payload: bytes) -> LedgerRecord:
        if kind is RecordKind.GENESIS:
            raise ValueError("genesis records exist only at index 0")
        index = len(self.records)
        prev_hash = self.records[-1].hash
        digest = compute_hash(index, round_no, kind, node_id, payload, prev_hash)
        record = LedgerRecord(index, round_no, kind, node_id, bytes(payload), prev_hash, digest)
        self.records.append(record)
        return record

    def verify_chain(self) -> int | None:
        """None when the chain is intact, else the first bad record index."""
        return _first_bad_index(self.records)

    def query_round(self, round_no: int, kind: RecordKind) -> list:
        return [r for r in self.records if r.round_no == round_no and r.kind is kind]

    def _frame_parts(self):
        """Every dump frame as its pieces: u32 length, header, payload, prev hash, hash."""
        for rec in self.records:
            paylen = len(rec.payload)
            yield struct.pack("<I", _FIXED_OVERHEAD + paylen)
            yield _pack_header(rec.index, rec.round_no, rec.kind, rec.node_id, paylen)
            yield rec.payload
            yield rec.prev_hash
            yield rec.hash

    def to_bytes(self) -> bytes:
        return b"".join(self._frame_parts())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Ledger":
        view = memoryview(blob)
        records = []
        offset = 0
        while offset < len(blob):
            if offset + 4 > len(blob):
                raise LedgerFormatError("truncated frame length")
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            if offset + length > len(blob):
                raise LedgerFormatError("truncated record frame")
            records.append(_parse_record(view[offset : offset + length], owned=True))
            offset += length
        if not records:
            raise LedgerFormatError("empty dump")
        ledger = cls.__new__(cls)
        ledger.records = records
        return ledger

    def write_dump(self, path) -> None:
        """Write the dump piece by piece; the file equals to_bytes() without a copy in memory."""
        with open(path, "wb") as f:
            f.writelines(self._frame_parts())

    @classmethod
    def read_dump(cls, path) -> "Ledger":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


def verify_dump_bytes(blob: bytes) -> int | None:
    """Verify a serialized ledger, tolerating malformed frames.

    A frame that cannot be parsed marks its own index bad; otherwise the usual
    hash/linkage checks apply. Returns None when everything is intact.
    """
    # the records only live for this check, so they stay views into blob
    view = memoryview(blob)
    records = []
    offset = 0
    index = 0
    while offset < len(blob):
        if offset + 4 > len(blob):
            return index
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            return index
        try:
            records.append(_parse_record(view[offset : offset + length], owned=False))
        except LedgerFormatError:
            return index
        offset += length
        index += 1
    return _first_bad_index(records)


# --- payload codecs -----------------------------------------------------------
#
# Parameter vectors are little-endian float64 with a u64 length prefix, so
# ledger hashes are bit-identical across runs and platforms.


def encode_params(values: np.ndarray) -> bytes:
    vec = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if vec.ndim != 1:
        raise ValueError("parameter payloads must be 1-D")
    return struct.pack("<Q", vec.size) + vec.astype("<f8").tobytes()


def decode_params(payload: bytes) -> np.ndarray:
    if len(payload) < 8:
        raise LedgerFormatError("parameter payload too short")
    (count,) = struct.unpack_from("<Q", payload, 0)
    if len(payload) != 8 + 8 * count:
        raise LedgerFormatError("parameter payload length mismatch")
    return np.frombuffer(payload, dtype="<f8", count=count, offset=8).astype(np.float64)


def encode_accuracy_list(alphas, accuracies) -> bytes:
    alphas = [float(a) for a in alphas]
    accuracies = [float(a) for a in accuracies]
    if len(alphas) != len(accuracies):
        raise ValueError("alphas and accuracies must pair up")
    body = struct.pack("<Q", len(alphas))
    for alpha, acc in zip(alphas, accuracies):
        body += struct.pack("<dd", alpha, acc)
    return body


def decode_accuracy_list(payload: bytes):
    if len(payload) < 8:
        raise LedgerFormatError("accuracy payload too short")
    (count,) = struct.unpack_from("<Q", payload, 0)
    if len(payload) != 8 + 16 * count:
        raise LedgerFormatError("accuracy payload length mismatch")
    alphas = []
    accuracies = []
    for i in range(count):
        alpha, acc = struct.unpack_from("<dd", payload, 8 + 16 * i)
        alphas.append(alpha)
        accuracies.append(acc)
    return tuple(alphas), tuple(accuracies)


def encode_alpha_decision(alpha: float, grid_index: int) -> bytes:
    return struct.pack("<dQ", alpha, grid_index)


def decode_alpha_decision(payload: bytes):
    if len(payload) != 16:
        raise LedgerFormatError("alpha decision payload must be 16 bytes")
    alpha, grid_index = struct.unpack("<dQ", payload)
    return alpha, grid_index


def encode_node_set(node_ids) -> bytes:
    ids = sorted(int(n) for n in node_ids)
    return struct.pack("<Q", len(ids)) + b"".join(struct.pack("<Q", n) for n in ids)


def decode_node_set(payload: bytes):
    if len(payload) < 8:
        raise LedgerFormatError("node set payload too short")
    (count,) = struct.unpack_from("<Q", payload, 0)
    if len(payload) != 8 + 8 * count:
        raise LedgerFormatError("node set payload length mismatch")
    return tuple(
        struct.unpack_from("<Q", payload, 8 + 8 * i)[0] for i in range(count)
    )
