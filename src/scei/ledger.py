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

import contextlib
import enum
import hashlib
import numbers
import os
import queue
import struct
import threading
from dataclasses import dataclass

import numpy as np

HASH_LEN = 32
GENESIS_PREV_HASH = b"\x00" * HASH_LEN

_HEADER = struct.Struct("<QQBBQQ")
_FIXED_OVERHEAD = _HEADER.size + 2 * HASH_LEN  # header + prev_hash + hash


class LedgerFormatError(ValueError):
    """Serialized ledger bytes violate the documented layout or do not chain.
    index is the first bad record's index when a load refuses a dump, the one
    verify_dump_bytes gives for the same bytes, and None otherwise."""

    def __init__(self, message, index=None):
        super().__init__(message if index is None else f"record {index}: {message}")
        self.index = index


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
    """One record as the chain holds it. The hashes are 32-byte bytes; the
    payload is bytes when appended and, when loaded from a dump, a read-only
    memoryview into the one copy of that dump."""

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


def compute_hash(index, round_no, kind, node_id, payload, prev_hash) -> bytes:
    """SHA-256 of the hash input (header, payload, prev hash), fed in pieces so
    the payload is not copied."""
    digest = hashlib.sha256(_pack_header(index, round_no, kind, node_id, len(payload)))
    digest.update(payload)
    digest.update(prev_hash)
    return digest.digest()


def _parse_record(body) -> LedgerRecord:
    """The record serialized in body, a memoryview; its payload is a slice of body."""
    length = len(body)
    if length < _FIXED_OVERHEAD:
        raise LedgerFormatError(f"record too short ({length} bytes)")
    index, round_no, kind_code, flag, node_id, paylen = _HEADER.unpack_from(body)
    if paylen != length - _FIXED_OVERHEAD:
        raise LedgerFormatError(
            f"payload length field {paylen} does not match record size {length}"
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
    end = _HEADER.size + paylen
    return LedgerRecord(
        index=index,
        round_no=round_no,
        kind=kind,
        node_id=node_id if flag else None,
        payload=body[_HEADER.size : end],
        prev_hash=bytes(body[end : end + HASH_LEN]),
        hash=bytes(body[end + HASH_LEN :]),
    )


def _walk(view, offset=0, partial=False):
    """Each record of the dump in view, a memoryview, parsed in place from
    offset on; returns the offset where the walk stopped.

    This is the one frame walker: loads, buffer checks and file checks all go
    through it. Raises LedgerFormatError at the first truncated or malformed
    frame, except that with partial a frame running past the end of view ends
    the walk, as the rest of the dump has yet to arrive.
    """
    size = len(view)
    while offset < size:
        if offset + 4 > size:
            if partial:
                break
            raise LedgerFormatError("truncated frame length")
        (length,) = struct.unpack_from("<I", view, offset)
        if offset + 4 + length > size:
            if partial:
                break
            raise LedgerFormatError("truncated record frame")
        yield _parse_record(view[offset + 4 : offset + 4 + length])
        offset += 4 + length
    return offset


# A dump file is read in chunks of this size, and the whole frames each chunk
# completes go to the hashing workers before the next read. On a 2-vCPU box,
# read_dump plus verify_chain of a 6 MB dump of 49 KB records ran at about
# 965, 860 and 870 MB/s with 256 KB, 4 MB and 16 MB chunks, and of a 190 MB
# dump of 1.6 MB records at 1,535, 1,455 and 1,480 MB/s.
_READ_CHUNK = 256 * 1024


class _DumpBuffer(np.ndarray):
    """A loaded dump's bytes, hashable by identity: a memoryview hashes only
    when what it views does, and then by content, so loaded records hash as
    records holding bytes do."""

    __hash__ = object.__hash__


def _read_records(f):
    """Each record of the open dump file f, parsed as soon as the chunk that
    completes its frame is in. The file is read once into one uninitialised
    buffer of its size, read-only once the file is in, and every payload is a
    read-only view into it; the walk raises as _walk does for the bytes read."""
    buf = np.empty(os.fstat(f.fileno()).st_size, np.uint8).view(_DumpBuffer)
    into, view = memoryview(buf), memoryview(buf).toreadonly()
    filled = offset = 0
    while filled < len(buf):
        got = f.readinto(into[filled : filled + _READ_CHUNK])
        if not got:  # the file shrank since it was opened
            break
        filled += got
        offset = yield from _walk(view[:filled], offset, partial=True)
    buf.flags.writeable = False
    yield from _walk(view[:filled], offset)


def _file_frames(f):
    """Each frame of an open dump file, read into a buffer of its own: the u32
    length, then that many record bytes or as many as the file has left, so a
    bogus length never sizes a buffer past the file."""
    left = os.fstat(f.fileno()).st_size
    while left > 0:
        prefix = f.read(4)
        if len(prefix) < 4:
            yield memoryview(prefix)  # the walker finds the length truncated
            return
        frame = memoryview(bytearray(4 + min(struct.unpack("<I", prefix)[0], left - 4)))
        frame[:4] = prefix
        got = 4 + f.readinto(frame[4:])
        left -= len(frame)
        yield frame[:got]


def _hash_matches(rec) -> bool:
    return compute_hash(rec.index, rec.round_no, rec.kind, rec.node_id, rec.payload, rec.prev_hash) == rec.hash


def _hashing_threads() -> int:
    """Worker threads a pool starts beside the calling thread: one per usable
    CPU but one, or none where the platform cannot say which CPUs are usable."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return 0 if getaffinity is None else len(getaffinity(0)) - 1


def _hash_apart(records, threads):
    """(held, hashed, error): the records walked, in order; position -> whether
    the record there hashes to its stored hash; and the LedgerFormatError that
    ended the walk, or None.

    threads worker threads start with the walk. The calling thread walks the
    records and queues the position of each one as soon as it is walked, and
    the workers take positions from that queue while the walk goes on; the
    caller hashes what is still queued once the walk ends, or drops it
    unhashed when the walk raised, and the workers stop before this returns
    or raises. So every position has an entry unless the walk raised.
    """
    held, hashed, error = [], {}, None
    todo, workers = queue.SimpleQueue(), []

    # the queue hands each position to exactly one getter, and a dict store is
    # one step under the interpreter lock, so every position is hashed once
    def hash_each(get):
        for i in iter(get, None):
            hashed[i] = _hash_matches(held[i])

    try:
        for _ in range(threads):
            thread = threading.Thread(target=hash_each, args=(todo.get,))
            thread.start()
            workers.append(thread)
        for rec in records:
            held.append(rec)
            todo.put(len(held) - 1)
        with contextlib.suppress(queue.Empty):
            hash_each(todo.get_nowait)
    except LedgerFormatError as exc:
        error = exc
    finally:
        # a walk that raised keeps no result: what it queued goes unhashed
        with contextlib.suppress(queue.Empty):
            for _ in iter(todo.get_nowait, None):
                pass
        for _ in workers:
            todo.put(None)
        for thread in workers:
            thread.join()
    return held, hashed, error


def _first_fault(records, hashed=None):
    """(index, why) of a chain's first bad record, or (record count, None)
    when every record passes. Records are checked as the iterable yields
    them, holding only the previous hash; a walker that raises
    LedgerFormatError marks its own index bad, and an empty chain is bad at 0.
    hashed maps a position to whether that record hashes to its stored hash,
    as _hash_apart found; a record without an entry is hashed in place."""
    hashed = hashed or {}
    prev, count = GENESIS_PREV_HASH, 0
    try:
        for rec in records:
            if rec.index != count:
                return count, f"index field reads {rec.index}"
            if (rec.kind is RecordKind.GENESIS) != (count == 0):
                return count, f"a {rec.kind.name} record cannot stand at index {count}"
            if rec.prev_hash != prev:
                return count, "previous-hash field does not link to the record before"
            if not (hashed[count] if count in hashed else _hash_matches(rec)):
                return count, "hash does not match the record's bytes"
            prev, count = rec.hash, count + 1
    except LedgerFormatError as exc:
        return count, str(exc)
    return count, (None if count else "empty dump")


def _check(records):
    """(records walked, first bad index or None, why) of a dump's records,
    hashed on the pool as they are walked, then checked in order as a
    record-by-record check would: a bad record beats a later malformed frame."""
    held, hashed, error = _hash_apart(records, _hashing_threads())
    count, why = _first_fault(held, hashed)
    if error is not None and count == len(held):
        why = str(error)
    return held, (count if why else None), why


def _check_id(name, value) -> None:
    if not (isinstance(value, numbers.Integral) and 0 <= value < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")


def _check_kind(kind) -> None:
    if not isinstance(kind, RecordKind):
        raise TypeError(f"kind must be a RecordKind, got {type(kind).__name__}")


class Ledger:
    """Sequence of hash-chained records with a single deterministic append
    point: records enter only through append and the two loaders, which
    refuse a chain that does not verify."""

    def __init__(self):
        genesis_hash = compute_hash(0, 0, RecordKind.GENESIS, None, b"", GENESIS_PREV_HASH)
        self._records = [
            LedgerRecord(0, 0, RecordKind.GENESIS, None, b"", GENESIS_PREV_HASH, genesis_hash)
        ]

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple:
        return tuple(self._records)

    @property
    def head_hash(self) -> bytes:
        return self._records[-1].hash

    def append(self, round_no: int, kind: RecordKind, node_id, payload: bytes) -> LedgerRecord:
        """Chain a record after the head. Every argument is checked before
        anything is appended, and the payload is hashed as the bytes kept."""
        _check_id("round_no", round_no)
        if node_id is not None:
            _check_id("node_id", node_id)
        _check_kind(kind)
        if kind is RecordKind.GENESIS:
            raise ValueError("genesis records exist only at index 0")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError(f"payload must be bytes, bytearray or memoryview, got {type(payload).__name__}")
        payload = bytes(payload)
        index = len(self._records)
        prev_hash = self._records[-1].hash
        digest = compute_hash(index, round_no, kind, node_id, payload, prev_hash)
        record = LedgerRecord(index, round_no, kind, node_id, payload, prev_hash, digest)
        self._records.append(record)
        return record

    def verify_chain(self) -> None:
        """None for every Ledger, since appends keep the chain intact and the
        loaders refuse a bad one. Kept only because the benchmark's load passes
        call it and its tracer wraps it; ROADMAP item 3's benchmark change removes it."""
        return None

    def query_round(self, round_no: int, kind: RecordKind) -> list:
        return [r for r in self._records if r.round_no == round_no and r.kind is kind]

    def put(self, round_no: int, kind: RecordKind, node_id, value) -> LedgerRecord:
        """Append value, encoded in the payload layout of its kind."""
        _check_kind(kind)
        if kind is RecordKind.GENESIS:
            raise ValueError("genesis records exist only at index 0")
        return self.append(round_no, kind, node_id, _PAYLOADS[kind][0](value))

    def read(self, round_no: int, kind: RecordKind) -> list:
        """(node id, decoded value) of each record of that round and kind, in ledger order."""
        _check_kind(kind)
        if kind is RecordKind.GENESIS:
            raise ValueError("the genesis record has no put/read payload layout yet")
        return [(rec.node_id, _PAYLOADS[kind][1](rec.payload)) for rec in self.query_round(round_no, kind)]

    def _frame_parts(self):
        """Every dump frame as its pieces: u32 length, header, payload, prev hash, hash."""
        for rec in self._records:
            paylen = len(rec.payload)
            yield struct.pack("<I", _FIXED_OVERHEAD + paylen)
            yield _pack_header(rec.index, rec.round_no, rec.kind, rec.node_id, paylen)
            yield rec.payload
            yield rec.prev_hash
            yield rec.hash

    def to_bytes(self) -> bytes:
        return b"".join(self._frame_parts())

    @classmethod
    def from_bytes(cls, blob) -> "Ledger":
        """Load a dump from a buffer into one read-only copy of it (blob itself
        when it is bytes): every payload is a view into that copy, every hash
        is bytes, and later writes to blob do not reach the records.

        Every record is hashed as the dump is walked, and a dump that does not
        verify raises LedgerFormatError carrying its first bad index."""
        return cls._load(_walk(memoryview(bytes(blob))))

    @classmethod
    def _load(cls, records) -> "Ledger":
        held, bad, why = _check(records)
        if bad is not None:
            raise LedgerFormatError(why, bad)
        ledger = cls.__new__(cls)
        ledger._records = held
        return ledger

    def write_dump(self, path) -> None:
        """Write the dump piece by piece; the file equals to_bytes() without a copy in memory."""
        with open(path, "wb") as f:
            f.writelines(self._frame_parts())

    @classmethod
    def read_dump(cls, path) -> "Ledger":
        """Load a dump file as from_bytes loads a buffer, queueing each record
        for the hashing threads as soon as the chunk holding the end of its
        frame has been read: the file is read once, and the records view that
        one read-only copy of it. A dump from_bytes refuses is refused alike."""
        with open(path, "rb", buffering=0) as f:
            return cls._load(_read_records(f))


def verify_dump_bytes(blob: bytes) -> int | None:
    """First bad record index of a serialized ledger, None when it is intact:
    the index a load of blob refuses it with. The records only live for this
    check, so their payloads stay views into blob."""
    return _check(_walk(memoryview(blob)))[1]


def verify_dump_file(path):
    """(first bad record index or None, record count) of a dump file.

    The file is checked in one pass that holds one frame at a time, hashing
    each record as it is read, and it gives the index verify_dump_bytes gives
    for the file's bytes. It starts no worker threads: reading ahead for them
    would hold a record per worker in fresh memory.
    """
    with open(path, "rb") as f:
        count, why = _first_fault(rec for frame in _file_frames(f) for rec in _walk(frame))
    return (count if why else None), count


# --- payload codecs -----------------------------------------------------------
#
# Parameter vectors are little-endian float64 with a u64 length prefix, so
# ledger hashes are bit-identical across runs and platforms.


def encode_params(values: np.ndarray) -> bytes:
    """The u64 count, then the values as little-endian f64; the values are copied once."""
    vec = np.ascontiguousarray(values, dtype="<f8")
    if vec.ndim != 1:
        raise ValueError("parameter payloads must be 1-D")
    return b"".join((struct.pack("<Q", vec.size), memoryview(vec).cast("B")))


def _count(payload, item_size: int, what: str) -> int:
    """The u64 count that prefixes payload, checked against the payload's length."""
    if len(payload) < 8:
        raise LedgerFormatError(f"{what} payload too short")
    (count,) = struct.unpack_from("<Q", payload, 0)
    if len(payload) != 8 + item_size * count:
        raise LedgerFormatError(f"{what} payload length mismatch")
    return count


def decode_params(payload: bytes) -> np.ndarray:
    """The values as a read-only little-endian f64 view of payload.

    Ledger payloads are immutable (bytes on append, read-only views of one
    read-only copy of the dump on load), so no copy is made; a writable buffer such as a
    bytearray is copied, so the vector never changes under its caller.
    """
    count = _count(payload, 8, "parameter")
    values = np.frombuffer(payload, dtype="<f8", count=count, offset=8)
    return values.copy() if values.flags.writeable else values


def encode_accuracy_list(alphas, accuracies) -> bytes:
    """The u64 count, then (alpha f64, accuracy f64) pairs in grid order."""
    alphas = [float(a) for a in alphas]
    accuracies = [float(a) for a in accuracies]
    if len(alphas) != len(accuracies):
        raise ValueError("alphas and accuracies must pair up")
    pairs = [x for pair in zip(alphas, accuracies) for x in pair]
    return struct.pack(f"<Q{len(pairs)}d", len(alphas), *pairs)


def decode_accuracy_list(payload: bytes):
    count = _count(payload, 16, "accuracy")
    pairs = struct.unpack(f"<Q{2 * count}d", payload)[1:]
    return pairs[0::2], pairs[1::2]


def encode_alpha_decision(alpha: float, grid_index: int) -> bytes:
    return struct.pack("<dQ", alpha, grid_index)


def decode_alpha_decision(payload: bytes):
    if len(payload) != 16:
        raise LedgerFormatError("alpha decision payload must be 16 bytes")
    alpha, grid_index = struct.unpack("<dQ", payload)
    return alpha, grid_index


def encode_node_set(node_ids) -> bytes:
    """The u64 count, then the ids ascending as u64."""
    ids = sorted(int(n) for n in node_ids)
    return struct.pack(f"<Q{len(ids)}Q", len(ids), *ids)


def decode_node_set(payload: bytes):
    """The ids, which must be strictly ascending: a set has one encoding."""
    count = _count(payload, 8, "node set")
    ids = struct.unpack(f"<Q{count}Q", payload)[1:]
    for prev, node_id in zip(ids, ids[1:]):
        if node_id <= prev:
            raise LedgerFormatError(f"node set ids not strictly ascending: {node_id} after {prev}")
    return ids


def _decode_empty(payload: bytes) -> None:
    if len(payload):
        raise LedgerFormatError(f"expulsion payload must be empty, got {len(payload)} bytes")


# kind -> (encode, decode) of the values that Ledger.put and Ledger.read carry.
# Each codec is looked up by name when called, so one rebound on this module
# (a tracer wraps encode_params and decode_params) is the one used.
_PAYLOADS = {
    RecordKind.LOCAL_WEIGHTS: (lambda weights: encode_params(weights), lambda p: decode_params(p)),
    RecordKind.GLOBAL_WEIGHTS: (lambda weights: encode_params(weights), lambda p: decode_params(p)),
    RecordKind.ACCURACY_LIST: (lambda pairs: encode_accuracy_list(*pairs), lambda p: decode_accuracy_list(p)),
    RecordKind.ALPHA_DECISION: (lambda choice: encode_alpha_decision(*choice), lambda p: decode_alpha_decision(p)),
    RecordKind.SUSPICION_SET: (lambda ids: encode_node_set(ids), lambda p: decode_node_set(p)),
    RecordKind.EXPULSION: (lambda _: b"", _decode_empty),
}
