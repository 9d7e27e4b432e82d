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

import collections
import enum
import hashlib
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

# Records with a payload this large are hashed on the chain check's worker
# threads. A worker hashing a smaller one would spend much of its time waiting
# for the interpreter lock while the walk runs, so those are hashed in place.
_POOLED_MIN_PAYLOAD = 256 * 1024
# Records the chain check may hand its workers ahead of the oldest unchecked
# one, per worker: with two, a worker whose CPU is busy with other work holds
# back only its own records while the other workers keep hashing.
_AHEAD_PER_WORKER = 2


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


def compute_hash(index, round_no, kind, node_id, payload, prev_hash) -> bytes:
    """SHA-256 of the hash input (header, payload, prev hash), fed in pieces so
    the payload is not copied."""
    digest = hashlib.sha256(_pack_header(index, round_no, kind, node_id, len(payload)))
    digest.update(payload)
    digest.update(prev_hash)
    return digest.digest()


def _parse_record(read, length: int) -> LedgerRecord:
    """Parse the `length`-byte record that read(n) hands over field by field.

    read(n) must return the next n bytes; the record keeps what it returns.
    """
    if length < _FIXED_OVERHEAD:
        raise LedgerFormatError(f"record too short ({length} bytes)")
    index, round_no, kind_code, flag, node_id, paylen = _HEADER.unpack(read(_HEADER.size))
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
    payload = read(paylen)
    prev_hash = read(HASH_LEN)
    stored_hash = read(HASH_LEN)
    return LedgerRecord(
        index=index,
        round_no=round_no,
        kind=kind,
        node_id=node_id if flag else None,
        payload=payload,
        prev_hash=prev_hash,
        hash=stored_hash,
    )


def _walk(read, size: int):
    """Each record of a `size`-byte dump whose bytes read(n) hands over in order.

    This is the one frame walker: blobs and files both go through it.
    Raises LedgerFormatError at the first truncated or malformed frame.
    """
    offset = 0
    while offset < size:
        if offset + 4 > size:
            raise LedgerFormatError("truncated frame length")
        (length,) = struct.unpack("<I", read(4))
        offset += 4
        if offset + length > size:
            raise LedgerFormatError("truncated record frame")
        offset += length
        yield _parse_record(read, length)


def _blob_reader(blob, owned: bool):
    """(read, size) over a bytes-like blob; read(n) returns copies of its pieces,
    or views into it unless owned."""
    view = memoryview(blob)
    offset = 0

    def read(n):
        nonlocal offset
        piece = view[offset : offset + n]
        offset += n
        return bytes(piece) if owned else piece

    return read, len(view)


def _file_reader(f):
    """(read, size) over an open binary file; read(n) returns the bytes it reads,
    and a file that ends early is a truncated frame."""

    def read(n):
        piece = f.read(n)
        if len(piece) != n:
            raise LedgerFormatError("truncated record frame")
        return piece

    return read, os.fstat(f.fileno()).st_size


def _hash_matches(rec) -> bool:
    return compute_hash(rec.index, rec.round_no, rec.kind, rec.node_id, rec.payload, rec.prev_hash) == rec.hash


def _usable_cpus():
    """The CPUs this process may run on, or () where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return () if getaffinity is None else frozenset(getaffinity(0))


class _Hashers:
    """Worker threads, one per CPU in cpus and pinned to it where the system
    lets it (a worker it will not pin runs unpinned), that hash the records
    put in and hand back whether each matches its stored hash."""

    def __init__(self, cpus):
        self._inbox, self._outbox = queue.SimpleQueue(), queue.SimpleQueue()
        self._done = {}  # index -> result, handed back ahead of an older index
        self._threads = [threading.Thread(target=self._serve, args=(cpu,)) for cpu in sorted(cpus)]
        for thread in self._threads:
            thread.start()

    def _serve(self, cpu):
        try:
            os.sched_setaffinity(threading.get_native_id(), {cpu})
        except OSError:
            pass
        for index, rec in iter(self._inbox.get, None):
            try:
                result = _hash_matches(rec)
            except Exception as exc:  # raised again on the walking thread
                result = exc
            self._outbox.put((index, result))

    def put(self, index, rec) -> None:
        self._inbox.put((index, rec))

    def matches(self, index) -> bool:
        """Whether record index hashes to its stored hash; waits for it."""
        while index not in self._done:
            done, result = self._outbox.get()
            self._done[done] = result
        result = self._done.pop(index)
        if isinstance(result, Exception):
            raise result
        return result

    def stop(self) -> None:
        for _ in self._threads:
            self._inbox.put(None)
        for thread in self._threads:
            thread.join()


def _first_bad_index(records, cpus=()):
    """(first bad index or None, how many records passed) for a chain, in one pass.

    Records are checked as the iterable yields them, holding only the previous
    hash; a bad record is one that is malformed, misplaced, mislinked or
    wrongly hashed, and a walker that raises LedgerFormatError marks its own
    index bad. An empty chain is bad at 0.

    With two or more cpus, a record whose payload reaches _POOLED_MIN_PAYLOAD
    is hashed on worker threads, one per CPU, started when the first such
    record arrives; at most _AHEAD_PER_WORKER such records per worker are
    pulled ahead of the last hash checked. Smaller records, and every record
    when cpus holds fewer than two, are hashed in place. Index, placement and
    link checks stay on the calling thread in record order and the workers'
    results are taken back in index order, so the result is the in-place one.
    """
    prev, count, bad = GENESIS_PREV_HASH, 0, None
    hashers, ahead = None, collections.deque()  # indices handed to the hashers, oldest first
    try:
        try:
            for rec in records:
                linked = (
                    rec.index == count
                    and (rec.kind is RecordKind.GENESIS) == (count == 0)
                    and rec.prev_hash == prev
                )
                if linked and len(cpus) > 1 and len(rec.payload) >= _POOLED_MIN_PAYLOAD:
                    if hashers is None:
                        hashers = _Hashers(cpus)
                    if len(ahead) == _AHEAD_PER_WORKER * len(cpus):
                        index = ahead.popleft()
                        if not hashers.matches(index):
                            return index, index
                    hashers.put(count, rec)
                    ahead.append(count)
                elif not (linked and _hash_matches(rec)):
                    bad = count
                    break
                prev, count = rec.hash, count + 1
        except LedgerFormatError:
            bad = count
        # every record still ahead precedes the one the walk stopped at
        for index in ahead:
            if not hashers.matches(index):
                return index, index
    finally:
        if hashers is not None:
            hashers.stop()
    if bad is not None:
        return bad, bad
    return (None if count else 0), count


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
        """None when the chain is intact, else the first bad record index.

        Records of 256 KiB of payload or more are hashed on worker threads,
        one per usable CPU; the index is the one a record-by-record check
        gives.
        """
        return _first_bad_index(self.records, _usable_cpus())[0]

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
    def _loaded(cls, records) -> "Ledger":
        """A ledger of the walked records, unverified."""
        records = list(records)
        if not records:
            raise LedgerFormatError("empty dump")
        ledger = cls.__new__(cls)
        ledger.records = records
        return ledger

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Ledger":
        """Load a dump from a buffer; every field is bytes copied out of blob."""
        return cls._loaded(_walk(*_blob_reader(blob, owned=True)))

    def write_dump(self, path) -> None:
        """Write the dump piece by piece; the file equals to_bytes() without a copy in memory."""
        with open(path, "wb") as f:
            f.writelines(self._frame_parts())

    @classmethod
    def read_dump(cls, path) -> "Ledger":
        """Load a dump file, reading each field straight into the record that keeps it.

        The file is never held whole, so loading takes one copy of the dump.
        """
        with open(path, "rb") as f:
            return cls._loaded(_walk(*_file_reader(f)))


def verify_dump_bytes(blob: bytes) -> int | None:
    """First bad record index of a serialized ledger, None when it is intact.

    A frame that cannot be parsed marks its own index bad, unless an earlier
    record already failed; the records only live for this check, so they stay
    views into blob. Since the whole dump is in memory, records of 256 KiB of
    payload or more are hashed on worker threads, one per usable CPU, while
    the walk goes on; the index is the one a record-by-record check gives.
    """
    return _first_bad_index(_walk(*_blob_reader(blob, owned=False)), _usable_cpus())[0]


def verify_dump_file(path):
    """(first bad record index or None, record count) of a dump file.

    The file is checked in one pass that holds one record at a time, hashing
    each as it is read, and it gives the index verify_dump_bytes gives for the
    file's bytes. It starts no worker threads: reading ahead for them would
    hold a record per worker in fresh memory.
    """
    with open(path, "rb") as f:
        return _first_bad_index(_walk(*_file_reader(f)))


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
    count = _count(payload, 8, "parameter")
    return np.frombuffer(payload, dtype="<f8", count=count, offset=8).astype(np.float64)


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
