import dataclasses
import errno
import hashlib
import importlib.util
import io
import operator
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scei.ledger as ledger_mod
from scei.ledger import (
    GENESIS_PREV_HASH,
    Ledger,
    LedgerFormatError,
    LedgerRecord,
    RecordKind,
    compute_hash,
    decode_accuracy_list,
    decode_alpha_decision,
    decode_node_set,
    decode_params,
    encode_accuracy_list,
    encode_alpha_decision,
    encode_node_set,
    encode_params,
    verify_dump_bytes,
    verify_dump_file,
    _first_bad_index,
)

# the benchmark's dump reader, written apart from the program
_CHECKS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS_PATH)
checks = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def oracle_hash_input(index, round_no, kind_value, node_id, payload, prev_hash):
    """The hash input straight from the documented byte layout."""
    flag = 0 if node_id is None else 1
    header = struct.pack(
        "<QQBBQQ", index, round_no, kind_value, flag, node_id or 0, len(payload)
    )
    return header + payload + prev_hash


def oracle_digest(*fields):
    return hashlib.sha256(oracle_hash_input(*fields)).digest()


def oracle_frame(index, round_no, kind_value, node_id, payload, prev_hash):
    """One dump frame built from the documented layout: u32 length, then the
    hash input, then its SHA-256."""
    body = oracle_hash_input(index, round_no, kind_value, node_id, payload, prev_hash)
    body += hashlib.sha256(body).digest()
    return struct.pack("<I", len(body)) + body


def oracle_dump(records):
    """The dump of records, each framed by the oracle from its own fields."""
    return b"".join(
        oracle_frame(r.index, r.round_no, r.kind.value, r.node_id, r.payload, r.prev_hash)
        for r in records
    )


def build_ledger(n_records=10, payload_size=24, seed=0):
    rng = np.random.default_rng(seed)
    book = Ledger()
    kinds = [
        RecordKind.LOCAL_WEIGHTS,
        RecordKind.GLOBAL_WEIGHTS,
        RecordKind.ACCURACY_LIST,
        RecordKind.SUSPICION_SET,
    ]
    for i in range(n_records):
        kind = kinds[i % len(kinds)]
        node_id = int(rng.integers(0, 10)) if kind is RecordKind.LOCAL_WEIGHTS else None
        payload = rng.bytes(payload_size)
        book.append(round_no=1 + i // 4, kind=kind, node_id=node_id, payload=payload)
    return book


class TestAppend:
    def test_first_append_chains_to_genesis(self):
        book = Ledger()
        rec = book.append(1, RecordKind.LOCAL_WEIGHTS, 0, b"abc")
        assert rec.index == 1
        assert rec.prev_hash == book.records[0].hash
        assert book.records[0].prev_hash == GENESIS_PREV_HASH

    def test_second_append_chains_to_first(self):
        book = Ledger()
        first = book.append(1, RecordKind.LOCAL_WEIGHTS, 0, b"a")
        second = book.append(1, RecordKind.LOCAL_WEIGHTS, 1, b"b")
        assert second.prev_hash == first.hash
        assert second.index == 2

    def test_stored_hash_matches_independent_digest(self):
        book = build_ledger(12)
        for rec in book.records:
            assert rec.hash == oracle_digest(
                rec.index, rec.round_no, rec.kind.value, rec.node_id, rec.payload, rec.prev_hash
            )

    def test_genesis_cannot_be_appended(self):
        with pytest.raises(ValueError):
            Ledger().append(1, RecordKind.GENESIS, None, b"")

    @pytest.mark.parametrize("round_no", [-1, 2**64, 1.5, None])
    def test_a_round_outside_u64_is_refused_by_name(self, round_no):
        book = Ledger()
        with pytest.raises(ValueError, match=r"^round_no must be an integer in \[0, 2\*\*64\), got "):
            book.append(round_no, RecordKind.LOCAL_WEIGHTS, 0, b"x")
        assert len(book) == 1

    @pytest.mark.parametrize("node_id", [-1, 2**64, "3"])
    def test_a_node_id_outside_u64_is_refused_by_name(self, node_id):
        book = Ledger()
        with pytest.raises(ValueError, match=r"^node_id must be an integer in \[0, 2\*\*64\), got "):
            book.append(1, RecordKind.LOCAL_WEIGHTS, node_id, b"x")
        assert len(book) == 1
        book.append(2**64 - 1, RecordKind.LOCAL_WEIGHTS, 2**64 - 1, b"x")
        book.append(0, RecordKind.LOCAL_WEIGHTS, np.uint64(0), b"x")
        assert book.verify_chain() is None and verify_dump_bytes(book.to_bytes()) is None

    @pytest.mark.parametrize("kind", [2, "GLOBAL_WEIGHTS", None])
    def test_a_kind_that_is_not_a_record_kind_is_refused_by_name(self, kind):
        book = Ledger()
        with pytest.raises(TypeError, match=f"^kind must be a RecordKind, got {type(kind).__name__}$"):
            book.append(1, kind, None, b"x")
        assert len(book) == 1

    @pytest.mark.parametrize("payload", [None, 5, "text", np.zeros(2)])
    def test_a_payload_that_is_not_a_byte_buffer_is_refused_by_name(self, payload):
        book = Ledger()
        with pytest.raises(TypeError, match=f"^payload must be bytes, bytearray or memoryview, got {type(payload).__name__}$"):
            book.append(1, RecordKind.GLOBAL_WEIGHTS, None, payload)
        assert len(book) == 1

    def test_a_bytes_like_payload_is_kept_and_hashed_as_bytes(self):
        """The bytes a record keeps are the bytes its hash covers, whatever
        buffer the payload came in, and later writes to that buffer reach
        neither."""
        book = Ledger()
        for payload in (bytearray(b"abc"), memoryview(b"xabc")[1:], memoryview(np.array([1.5, -2.0]))):
            rec = book.append(1, RecordKind.GLOBAL_WEIGHTS, None, payload)
            kept = payload.tobytes() if isinstance(payload, memoryview) else bytes(payload)
            assert type(rec.payload) is bytes and rec.payload == kept
            assert rec.hash == oracle_digest(rec.index, 1, RecordKind.GLOBAL_WEIGHTS.value, None, kept, rec.prev_hash)
            if isinstance(payload, bytearray):
                payload[0] ^= 1
        assert book.verify_chain() is None and verify_dump_bytes(book.to_bytes()) is None

    def test_records_is_a_tuple_that_cannot_be_edited(self):
        book = build_ledger(4)
        rec = book.records[2]
        assert type(book.records) is tuple and book.records == tuple(book.records)
        for edit in (
            lambda records: operator.setitem(records, 2, rec),
            lambda records: operator.setitem(records, slice(1, 1), [rec]),
            lambda records: operator.delitem(records, 2),
        ):
            with pytest.raises(TypeError):
                edit(book.records)
        with pytest.raises(AttributeError):
            book.records = []
        assert len(book) == 5 and book.verify_chain() is None


class TestVerifyChain:
    def test_untampered_ledger_verifies(self):
        book = build_ledger(50)
        assert book.verify_chain() is None

    def test_payload_flip_detected_at_record(self, tmp_path):
        frames = _frames(build_ledger(20).to_bytes())
        frames[7] = _edited_frame(frames[7])
        assert _four_checks(b"".join(frames), tmp_path) == [7] * 4

    def test_rehashed_forgery_detected_at_next_link(self, tmp_path):
        frames = _frames(build_ledger(20).to_bytes())
        frames[7] = _edited_frame(frames[7], rehash=True)
        assert _four_checks(b"".join(frames), tmp_path) == [8] * 4


class TestQueryRound:
    def test_returns_all_matching_in_order(self):
        book = Ledger()
        for node in range(10):
            book.append(3, RecordKind.LOCAL_WEIGHTS, node, bytes([node]))
        book.append(4, RecordKind.LOCAL_WEIGHTS, 0, b"x")
        got = book.query_round(3, RecordKind.LOCAL_WEIGHTS)
        assert len(got) == 10
        assert [r.node_id for r in got] == list(range(10))

    def test_unknown_round_returns_empty(self):
        assert build_ledger(8).query_round(99, RecordKind.LOCAL_WEIGHTS) == []

    def test_matches_linear_scan(self):
        book = build_ledger(30)
        for round_no in (1, 2, 3):
            for kind in RecordKind:
                scan = [
                    r for r in book.records if r.round_no == round_no and r.kind is kind
                ]
                assert book.query_round(round_no, kind) == scan


class TestSerialization:
    def test_record_round_trip(self):
        """Frames built by hand from the layout parse to the records that made them."""
        book = build_ledger(10)
        assert Ledger.from_bytes(oracle_dump(book.records)).records == book.records

    def test_dump_round_trip(self):
        book = build_ledger(15)
        loaded = Ledger.from_bytes(book.to_bytes())
        assert loaded.records == book.records
        assert loaded.verify_chain() is None

    def test_loaded_records_own_their_bytes(self):
        blob = bytearray(build_ledger(5).to_bytes())
        loaded = Ledger.from_bytes(blob)
        blob[:] = bytes(len(blob))
        assert loaded.verify_chain() is None
        for rec, original in zip(loaded.records, build_ledger(5).records):
            assert type(rec.prev_hash) is bytes and type(rec.hash) is bytes
            assert rec.payload.readonly and rec.payload == original.payload

    def test_dump_file_round_trip(self, tmp_path):
        book = build_ledger(9)
        path = tmp_path / "ledger.bin"
        book.write_dump(path)
        loaded = Ledger.read_dump(path)
        assert loaded.records == book.records
        for rec, original in zip(loaded.records, book.records):
            assert type(rec.prev_hash) is bytes and type(rec.hash) is bytes
            assert rec.payload.readonly and rec.payload == original.payload
            assert hash(rec) == hash(original)

    def test_dump_file_bytes_equal_to_bytes(self, tmp_path):
        book = build_ledger(9, payload_size=1000)
        path = tmp_path / "ledger.bin"
        book.write_dump(path)
        assert path.read_bytes() == book.to_bytes() == oracle_dump(book.records)

    def test_empty_dump_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(LedgerFormatError, match="empty dump"):
            Ledger.read_dump(path)
        with pytest.raises(LedgerFormatError, match="empty dump"):
            Ledger.from_bytes(b"")

    def test_read_dump_holds_one_copy(self, tmp_path):
        """Loading a file allocates at most the dump's size plus a little:
        reading the whole file and copying the payloads out would take twice."""
        path = tmp_path / "ledger.bin"
        build_ledger(20, payload_size=200_000).write_dump(path)
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            loaded = Ledger.read_dump(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 21
        assert peak <= size + size // 16, f"peak {peak} bytes for a {size}-byte dump"

    def test_malformed_record_rejected(self):
        with pytest.raises(LedgerFormatError, match="record too short"):
            Ledger.from_bytes(struct.pack("<I", 5) + b"short")

    @given(
        st.integers(0, 2**63),
        st.one_of(st.none(), st.integers(0, 2**63)),
        st.binary(max_size=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_record_round_trip_property(self, round_no, node_id, payload):
        """A hand-built frame parses to its fields, and its hash is compute_hash's."""
        kind = RecordKind.ACCURACY_LIST
        frame = oracle_frame(3, round_no, kind.value, node_id, payload, b"p" * 32)
        (rec,) = Ledger.from_bytes(frame).records
        rec_hash = compute_hash(3, round_no, kind, node_id, payload, b"p" * 32)
        assert rec == LedgerRecord(3, round_no, kind, node_id, payload, b"p" * 32, rec_hash)
        assert rec.hash == frame[-32:]


class TestTamperDetection:
    def test_every_single_byte_mutation_detected_nearby(self):
        book = build_ledger(12, payload_size=16)
        blob = book.to_bytes()
        # frame offsets: (record index, start, length) including the length prefix
        offsets = []
        pos = 0
        idx = 0
        while pos < len(blob):
            (length,) = struct.unpack_from("<I", blob, pos)
            offsets.append((idx, pos, 4 + length))
            pos += 4 + length
            idx += 1
        for rec_idx, start, span in offsets:
            for byte_off in range(span):
                mutated = bytearray(blob)
                mutated[start + byte_off] ^= 0x5A
                bad = verify_dump_bytes(bytes(mutated))
                assert bad is not None, f"mutation in record {rec_idx} missed"
                assert bad <= rec_idx + 1

    def test_intact_dump_verifies(self):
        assert verify_dump_bytes(build_ledger(20).to_bytes()) is None

    def test_empty_blob_is_bad_at_zero(self):
        assert verify_dump_bytes(b"") == 0

    def test_truncated_tail_detected(self):
        blob = build_ledger(6).to_bytes()
        assert verify_dump_bytes(blob[:-5]) is not None

    def test_first_fault_wins_over_a_later_malformed_frame(self):
        """A payload edit in record 3 and a cut tail: record 3 is the first bad
        one, as the independent reader says, not the truncated last frame."""
        blob = bytearray(build_ledger(12, payload_size=40).to_bytes())
        blob[_framed(bytes(blob))[3] + 4 + 34 + 10] ^= 0x01  # a payload byte
        two_faults = bytes(blob[:-5])
        assert verify_dump_bytes(two_faults) == 3
        assert checks.read_dump(two_faults).first_bad == 3
        with pytest.raises(LedgerFormatError, match="truncated"):
            Ledger.from_bytes(two_faults)

    def test_the_check_stops_at_the_first_fault(self):
        """Records are checked as they come: nothing past the first bad record
        is pulled, and a walker that raises marks its own index. Here every
        record is hashed in place; the pooled path has its own test below."""
        records = build_ledger(8).records
        forged = list(records)
        forged[4] = LedgerRecord(4, 1, RecordKind.GLOBAL_WEIGHTS, None, b"x", records[3].hash, records[4].hash)
        pulled = []

        def stream(recs, fail_at=None):
            for i, rec in enumerate(recs):
                if i == fail_at:
                    raise LedgerFormatError("malformed")
                pulled.append(i)
                yield rec

        assert _first_bad_index(stream(forged)) == (4, 4)
        assert pulled == [0, 1, 2, 3, 4]
        assert _first_bad_index(stream(records, fail_at=6)) == (6, 6)
        assert _first_bad_index(stream(records)) == (None, 9)
        assert _first_bad_index(iter(())) == (0, 0)

    def test_the_pooled_check_reports_the_first_fault(self, monkeypatch):
        """Every record is hashed on the pool as it is walked: with a hash
        fault at k the pool finds k and the records past it, the check reports
        k, and a frame cut right after k does not hide it. A walk that raises
        keeps whatever results the worker had already found, each one right,
        and the check hashes the rest in place."""
        book = Ledger()
        for i in range(1, 14):
            book.append(1, RecordKind.GLOBAL_WEIGHTS, None, bytes([i]) * 64)
        monkeypatch.setattr(ledger_mod, "_hashing_threads", lambda: 1)

        def stream(recs, fail_at=None):
            for i, rec in enumerate(recs):
                if i == fail_at:
                    raise LedgerFormatError("malformed")
                yield rec

        frames = _frames(book.to_bytes())
        assert verify_dump_bytes(b"".join(frames)) is None
        for k in (1, 4, 7, 13):
            forged = list(book.records)
            rec = forged[k]
            forged[k] = LedgerRecord(rec.index, rec.round_no, rec.kind, None, b"\0" + rec.payload[1:], rec.prev_hash, rec.hash)
            assert ledger_mod._hash_apart(forged, 1) == (forged, {i: i != k for i in range(14)}, None)
            held, hashed, error = ledger_mod._hash_apart(stream(forged, fail_at=k + 1), 1)
            assert held == forged[: k + 1] and hashed.items() <= {i: i != k for i in range(k + 1)}.items()
            assert isinstance(error, LedgerFormatError) == (k + 1 < len(forged))
            if error is None:
                assert len(hashed) == k + 1
            dump = b"".join(frames[:k] + [_edited_frame(frames[k])] + frames[k + 1 :])
            assert verify_dump_bytes(dump) == k
            assert verify_dump_bytes(dump[: _framed(dump)[k + 1] + 2] if k + 1 < len(frames) else dump) == k

    def test_a_refused_load_hashes_nothing_the_walk_queued(self, monkeypatch):
        """A load that ends in LedgerFormatError keeps no result, so with the
        caller as the only worker it hashes none of the records it walked;
        verify_dump_bytes still hashes them in place and reports the cut."""
        book = Ledger()
        for i in range(20):
            book.append(1, RecordKind.GLOBAL_WEIGHTS, None, bytes([i]) * 100_000)
        cut = book.to_bytes()[:-5]
        hashed = []
        real = ledger_mod._hash_matches
        monkeypatch.setattr(ledger_mod, "_hash_matches", lambda rec: hashed.append(rec.index) or real(rec))
        monkeypatch.setattr(ledger_mod, "_hashing_threads", lambda: 0)
        with pytest.raises(LedgerFormatError, match="truncated record frame"):
            Ledger.from_bytes(cut)
        assert hashed == []
        assert verify_dump_bytes(cut) == 20
        assert hashed == list(range(20))

    def test_every_large_record_is_hashed_once_under_contention(self, monkeypatch):
        """Seven worker threads beside the walking caller, more than this
        machine has CPUs, with the interpreter lock passed as often as it can
        be: every record is walked once and gets exactly one hash and one
        entry."""
        records = build_ledger(60, payload_size=64).records
        hashed_ids = []
        real = ledger_mod._hash_matches
        monkeypatch.setattr(ledger_mod, "_hash_matches", lambda rec: hashed_ids.append(rec.index) or real(rec))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            held, found, error = ledger_mod._hash_apart(records, 7)
        finally:
            sys.setswitchinterval(interval)
        assert held == list(records) and error is None
        assert found == {i: True for i in range(len(records))}
        assert sorted(hashed_ids) == list(range(len(records)))

    def test_workers_follow_the_usable_cpus(self):
        """verify_dump_bytes never imports concurrent.futures; the calling
        thread is the first worker, so a 3-record dump starts one worker
        thread on two usable CPUs, none on one CPU, and none where the
        platform cannot say which CPUs are usable."""
        script = (
            "import os, sys, threading\n"
            "started = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda self: (started.append(self), start(self))[1]\n"
            "from scei.ledger import Ledger, RecordKind, verify_dump_bytes\n"
            "book = Ledger()\n"
            "for i in range(2):\n"
            "    book.append(1, RecordKind.GLOBAL_WEIGHTS, None, bytes(64))\n"
            "blob = book.to_bytes()\n"
            "for cpus in ({0, 1}, {0}, None):\n"
            "    if cpus is None:\n"
            "        del os.sched_getaffinity\n"
            "    else:\n"
            "        os.sched_getaffinity = lambda pid, cpus=cpus: cpus\n"
            "    started.clear()\n"
            "    assert verify_dump_bytes(blob) is None\n"
            "    print(len(started), end=' ')\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        path = os.path.dirname(os.path.dirname(ledger_mod.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "1 0 0 False\n"

    @pytest.mark.parametrize(
        "fault",
        ["edit 0x01", "edit 0x5a", "edit 0xff", "truncate", "length"],
    )
    def test_every_single_fault_agrees_with_the_independent_reader(self, fault, tmp_path):
        """verify_dump_bytes reports the first bad record perfbench's own reader
        finds, for every byte edit, every cut and bogus frame lengths, and the
        streaming file check gives the same index for the same bytes."""
        blob = build_ledger(6, payload_size=24).to_bytes()
        offsets = _framed(blob)
        if fault == "truncate":
            faulty = [blob[:n] for n in range(len(blob))]
        elif fault == "length":
            lengths = (0, 1, 97, 98, 99, 121, 122, 123, 2**32 - 1)
            faulty = [
                blob[:at] + struct.pack("<I", n) + blob[at + 4 :] for at in offsets for n in lengths
            ]
        else:
            mask = int(fault.split()[1], 16)
            faulty = [
                blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :] for at in range(len(blob))
            ]
        # a file per dump: rewriting one file in place costs tens of
        # milliseconds on some file systems, creating one a fraction of that
        for i, dump in enumerate(faulty):
            bad = verify_dump_bytes(dump)
            assert bad == checks.read_dump(dump).first_bad
            path = tmp_path / f"ledger-{i}.bin"
            path.write_bytes(dump)
            assert verify_dump_file(path) == (bad, len(Ledger.from_bytes(dump)) if bad is None else bad)

    @pytest.mark.parametrize("record", [0, 3, 6])
    def test_a_huge_frame_length_reads_no_more_than_the_file(self, record, tmp_path):
        """A frame prefix of 2**32-1 makes the file check read at most what the
        file has left, not 4 GB, and it reports the index the sweep expects.
        Record 0's frame then spans the whole file; the rest of the peak is the
        file's read buffer and the interpreter's own small objects."""
        blob = bytearray(build_ledger(6, payload_size=100_000).to_bytes())
        at = _framed(blob)[record]
        blob[at : at + 4] = struct.pack("<I", 2**32 - 1)
        path = tmp_path / "ledger.bin"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            found = verify_dump_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == (record, record)
        assert checks.read_dump(bytes(blob)).first_bad == record
        assert peak <= len(blob) + len(blob) // 16, f"peak {peak} bytes for a {len(blob)}-byte dump"

    @pytest.mark.parametrize(
        "fault",
        ["edit 0x01", "edit 0x5a", "edit 0xff", "truncate", "length"],
    )
    def test_every_single_fault_agrees_on_the_pool(self, fault, tmp_path, monkeypatch):
        """The same faults with every record hashed on a two-worker pool."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        self.test_every_single_fault_agrees_with_the_independent_reader(fault, tmp_path)

    @pytest.mark.parametrize(
        "fault",
        ["edit 0x01", "edit 0x5a", "edit 0xff", "truncate", "length"],
    )
    def test_every_single_fault_agrees_when_the_workers_hash_nothing(self, fault, tmp_path, monkeypatch):
        """The same faults with every record walked and due for the pool but
        no result from it: the walk hashes each record in place."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real = ledger_mod._hash_apart

        def nothing_hashed(records, threads):
            held, _, error = real(records, threads)
            return held, {}, error

        monkeypatch.setattr(ledger_mod, "_hash_apart", nothing_hashed)
        self.test_every_single_fault_agrees_with_the_independent_reader(fault, tmp_path)

    def test_any_thread_count_gives_the_same_index(self, monkeypatch, tmp_path):
        """Pools of 0, 1 and 3 hashing threads report what the in-place check
        reports, through verify_dump_bytes and through verify_chain after
        either loader, with the interpreter lock passed between the workers
        and the walk as often as it can be."""
        blob = build_ledger(8, payload_size=40).to_bytes()
        offsets = _framed(blob)
        faulty = [blob, blob[:-5]] + [
            blob[:at] + bytes([blob[at] ^ 0x5A]) + blob[at + 1 :] for start in offsets for at in (start + 4, start + 40)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i, dump in enumerate(faulty):
                expected = _first_bad_index(ledger_mod._walk(memoryview(dump)))[0]
                path = tmp_path / f"ledger-{i}.bin"
                path.write_bytes(dump)
                for threads in (0, 1, 3):
                    monkeypatch.setattr(ledger_mod, "_hashing_threads", lambda threads=threads: threads)
                    assert verify_dump_bytes(dump) == expected
                    from_buffer = _load(lambda: Ledger.from_bytes(dump))
                    from_file = _load(lambda: Ledger.read_dump(path))
                    assert (from_buffer is None) == (from_file is None)
                    for loaded in (from_buffer, from_file):
                        if loaded is not None:
                            assert loaded.verify_chain() == expected
        finally:
            sys.setswitchinterval(interval)


def _load_from(loader, blob, tmp_path):
    if loader == "buffer":
        return Ledger.from_bytes(blob)
    path = tmp_path / "ledger.bin"
    path.write_bytes(blob)
    return Ledger.read_dump(path)


class TestLoadChecks:
    """A load hashes every record once and checks the chain as it walks, and
    verify_chain reports what that walk found without hashing anything."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        """Every record hashed from here on, once per hash."""
        seen = []
        real = ledger_mod._hash_matches
        monkeypatch.setattr(ledger_mod, "_hash_matches", lambda rec: seen.append(rec) or real(rec))
        return seen

    @pytest.mark.parametrize("loader", ["file", "buffer"])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_what_changed_after_the_load_is_hashed(self, loader, k, hashed, tmp_path):
        """Whatever a dump changed at frame k is found once the load has
        hashed it: each splice of _splices is reported at the same index by
        the independent reader and the four checks, the load hashes every
        record it keeps once, and verify_chain hashes none."""
        frames = _frames(build_ledger(8, payload_size=4000).to_bytes())
        for name, dump, expected in _splices(frames, k):
            assert checks.read_dump(dump).first_bad == expected, name
            assert _four_checks(dump, tmp_path) == [expected] * 4, name
            hashed.clear()
            loaded = _load_from(loader, dump, tmp_path)
            assert sorted(map(id, hashed)) == sorted(map(id, loaded.records)), name
            hashed.clear()
            assert loaded.verify_chain() == expected and hashed == [], name

    def test_the_head_can_go_and_an_honest_append_verifies(self, hashed):
        """A dump cut at a frame boundary loads intact, and a record appended
        to it keeps it intact; one appended to a ledger loaded bad at 4 leaves
        it bad at 4. verify_chain hashes nothing either way."""
        frames = _frames(build_ledger(8).to_bytes())
        for dump, expected in ((frames[:-1], None), (frames[:4] + [_edited_frame(frames[4])] + frames[5:], 4)):
            loaded = Ledger.from_bytes(b"".join(dump))
            loaded.append(3, RecordKind.ACCURACY_LIST, None, b"late")
            hashed.clear()
            assert loaded.verify_chain() == expected and hashed == []
            assert verify_dump_bytes(loaded.to_bytes()) == expected

    def test_writes_to_the_loaded_bytearray_reach_neither_records_nor_check(self):
        """from_bytes copies a bytearray once: mending or zeroing it after the
        load leaves the records and verify_chain's answer as they were."""
        blob = bytearray(build_ledger(8, payload_size=64).to_bytes())
        at = _framed(bytes(blob))[4] + 4 + 34 + 10  # a payload byte of record 4
        blob[at] ^= 1
        loaded = Ledger.from_bytes(blob)
        records = [dataclasses.replace(rec, payload=bytes(rec.payload)) for rec in loaded.records]
        assert loaded.verify_chain() == 4
        for write in (lambda: blob.__setitem__(at, blob[at] ^ 1), lambda: blob.__setitem__(slice(None), bytes(len(blob)))):
            write()
            assert loaded.verify_chain() == 4 and list(loaded.records) == records

    def test_a_load_leaves_the_caller_as_it_found_it(self, tmp_path, monkeypatch):
        """After a clean load, a malformed dump and an OSError raised mid-read,
        no worker is left. At every read of the file the calling thread runs
        on its own CPU set, and the three hashing threads, started with the
        walk, run beside it."""
        own, threads = os.sched_getaffinity(0), threading.active_count()
        monkeypatch.setattr(ledger_mod, "_hashing_threads", lambda: 3)
        blob = build_ledger(20, payload_size=100_000).to_bytes()
        path = tmp_path / "ledger.bin"
        during, fail_at = [], None

        class WatchedRead(io.FileIO):
            def readinto(self, b):
                during.append((os.sched_getaffinity(0), threading.active_count()))
                if len(during) == fail_at:
                    raise OSError(errno.EIO, "read failed")
                return super().readinto(b)

        monkeypatch.setattr(ledger_mod, "open", lambda file, mode, buffering: WatchedRead(file), raising=False)

        def as_found(reads):
            assert os.sched_getaffinity(0) == own and threading.active_count() == threads
            assert reads(len(during))
            assert during == [(own, threads + 3)] * len(during)
            during.clear()

        for dump in (blob, blob[:-5]):
            path.write_bytes(dump)
            assert len(_load(lambda: Ledger.read_dump(path)) or ()) == (21 if dump is blob else 0)
            as_found(lambda count: count > 2)
            assert len(_load(lambda: Ledger.from_bytes(dump)) or ()) == (21 if dump is blob else 0)
            as_found(lambda count: count == 0)

        path.write_bytes(blob)
        fail_at = 3
        with pytest.raises(OSError, match="read failed"):
            Ledger.read_dump(path)
        as_found(lambda count: count == 3)


def _framed(blob):
    """Start offsets of each frame's u32 length prefix."""
    offsets = []
    pos = 0
    while pos < len(blob):
        offsets.append(pos)
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    return offsets


def _frames(blob):
    """Each frame of a dump, its u32 length prefix included."""
    starts = _framed(blob)
    return [blob[start:end] for start, end in zip(starts, starts[1:] + [len(blob)])]


_HEADER_SIZE = 34


def _edited_frame(frame, rehash=False):
    """frame with its first payload byte flipped, under its old hash or with
    the hash of its new bytes."""
    hashed = bytearray(frame[4:-32])
    hashed[_HEADER_SIZE] ^= 1
    return frame[:4] + bytes(hashed) + (hashlib.sha256(hashed).digest() if rehash else frame[-32:])


def _splices(frames, k):
    """(name, dump, first bad index) for each splice of a well-framed dump at
    frame k, which must have a frame after it."""
    late = oracle_frame(len(frames), 9, RecordKind.ACCURACY_LIST.value, None, b"late", frames[-1][-32:])
    spliced = [
        ("payload edited under its old hash", frames[:k] + [_edited_frame(frames[k])] + frames[k + 1 :], k),
        ("re-hashed in place", frames[:k] + [_edited_frame(frames[k], rehash=True)] + frames[k + 1 :], k + 1),
        ("inserted", frames[:k] + [_edited_frame(frames[k])] + frames[k:], k),
        ("dropped", frames[:k] + frames[k + 1 :], k),
        ("swapped", frames[:k] + [frames[k + 1], frames[k]] + frames[k + 2 :], k),
        ("duplicated", frames[: k + 1] + frames[k:], k + 1),
        ("wrongly hashed appended", frames + [late[:-1] + bytes([late[-1] ^ 1])], len(frames)),
    ]
    return [(name, b"".join(dump), expected) for name, dump, expected in spliced]


def _four_checks(dump, tmp_path):
    """The first bad index of a well-framed dump by verify_dump_bytes,
    verify_dump_file, and verify_chain after either loader."""
    path = tmp_path / "ledger.bin"
    path.write_bytes(dump)
    return [
        verify_dump_bytes(dump),
        verify_dump_file(path)[0],
        Ledger.from_bytes(dump).verify_chain(),
        Ledger.read_dump(path).verify_chain(),
    ]


_AGREEMENT_BLOB = build_ledger(8, payload_size=40).to_bytes()


def _edited(kind, a, b):
    blob = bytearray(_AGREEMENT_BLOB)
    if kind == "edit":
        blob[a % len(blob)] ^= 1 + b % 255
    elif kind == "truncate":
        del blob[a % len(blob) :]
    else:
        offsets = _framed(_AGREEMENT_BLOB)
        at = offsets[a % len(offsets)]
        blob[at : at + 4] = struct.pack("<I", b)
    return bytes(blob)


def _load(loader):
    try:
        return loader()
    except LedgerFormatError:
        return None


class TestLoaderAgreement:
    @given(
        st.sampled_from(["edit", "truncate", "length"]),
        st.integers(0, 2**20),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_file_and_buffer_loaders_agree(self, kind, a, b):
        """read_dump(file) and from_bytes(bytes) load equal records or both
        refuse the dump, and verify_dump_bytes reports what the load shows."""
        _assert_loaders_agree(_edited(kind, a, b))

    @given(
        st.sampled_from(["edit", "truncate", "length"]),
        st.integers(0, 2**20),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_file_and_buffer_loaders_agree_on_the_pool(self, kind, a, b):
        """The same, with every record of both checks hashed on a two-worker pool."""
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}):
            _assert_loaders_agree(_edited(kind, a, b))


def _assert_loaders_agree(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.bin")
        with open(path, "wb") as f:
            f.write(blob)
        from_file = _load(lambda: Ledger.read_dump(path))
    from_buffer = _load(lambda: Ledger.from_bytes(blob))
    bad = verify_dump_bytes(blob)
    if from_buffer is None:
        assert from_file is None
        assert bad is not None
    else:
        assert from_file is not None
        assert from_file.records == from_buffer.records
        assert bad == from_buffer.verify_chain()


class TestPayloadCodecs:
    def test_params_round_trip(self):
        vec = np.random.default_rng(0).normal(size=257)
        assert np.array_equal(decode_params(encode_params(vec)), vec)

    def test_params_encoding_is_length_prefixed_le_f8(self):
        vec = np.array([1.5, -2.0])
        blob = encode_params(vec)
        assert blob[:8] == struct.pack("<Q", 2)
        assert blob[8:] == struct.pack("<dd", 1.5, -2.0)

    def test_accuracy_list_round_trip(self):
        alphas = (0.5, 0.55, 0.6)
        accs = (0.91, 0.88, 0.93)
        assert decode_accuracy_list(encode_accuracy_list(alphas, accs)) == (alphas, accs)

    def test_alpha_decision_round_trip(self):
        assert decode_alpha_decision(encode_alpha_decision(0.65, 3)) == (0.65, 3)

    def test_node_set_round_trip_sorted(self):
        assert decode_node_set(encode_node_set({5, 1, 9})) == (1, 5, 9)
        assert decode_node_set(encode_node_set([])) == ()
        assert decode_node_set(encode_node_set([7])) == (7,)
        assert decode_node_set(encode_node_set({2**64 - 1, 0, 3})) == (0, 3, 2**64 - 1)

    @pytest.mark.parametrize("ids, cause", [((5, 5), "5 after 5"), ((5, 3), "3 after 5"), ((1, 4, 2), "2 after 4")])
    def test_node_set_ids_must_be_strictly_ascending(self, ids, cause):
        with pytest.raises(LedgerFormatError, match=f"^node set ids not strictly ascending: {cause}$"):
            decode_node_set(struct.pack(f"<Q{len(ids)}Q", len(ids), *ids))

    @pytest.mark.parametrize(
        "values",
        [
            np.arange(20.0)[::3],
            np.arange(7.0).astype(">f8"),
            np.linspace(-1, 1, 9, dtype=np.float32),
            np.empty(0),
            np.random.default_rng(1).normal(size=199_210),
        ],
        ids=["strided", "big-endian", "float32", "empty", "199210"],
    )
    def test_params_encoding_equals_the_three_copy_expression(self, values):
        vec = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        expected = struct.pack("<Q", vec.size) + vec.astype("<f8").tobytes()
        assert encode_params(values) == expected

    def test_params_decode_to_a_read_only_view_of_an_immutable_payload(self):
        vec = np.random.default_rng(2).normal(size=257)
        blob = encode_params(vec)
        copied = np.frombuffer(blob, dtype="<f8", count=257, offset=8).astype(np.float64)
        for payload in (blob, memoryview(b"ab" + blob)[2:]):  # appended, and loaded from a dump
            decoded = decode_params(payload)
            assert decoded.tobytes() == copied.tobytes()
            assert decoded.dtype == np.float64
            assert np.shares_memory(decoded, np.frombuffer(payload, dtype=np.uint8))
            assert not decoded.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                decoded[0] = 1.0

    def test_params_in_a_writable_buffer_decode_to_a_copy(self):
        """Only a writable buffer is copied: later writes to it do not reach
        the decoded vector, which is the caller's own."""
        vec = np.arange(5.0)
        for buffer in (bytearray(encode_params(vec)), memoryview(bytearray(b"ab" + encode_params(vec)))[2:]):
            decoded = decode_params(buffer)
            assert not np.shares_memory(decoded, np.frombuffer(buffer, dtype=np.uint8))
            buffer[8:16] = struct.pack("<d", 99.0)
            assert np.array_equal(decoded, vec)
            decoded[0] = -1.0
            assert bytes(buffer[8:16]) == struct.pack("<d", 99.0)
        # an immutable payload, by contrast, is viewed, not copied
        blob = encode_params(vec)
        assert np.shares_memory(decode_params(blob), np.frombuffer(blob, dtype=np.uint8))

    def test_params_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            encode_params(np.ones((2, 3)))

    def test_params_length_mismatch_rejected(self):
        blob = encode_params(np.ones(4))
        with pytest.raises(LedgerFormatError):
            decode_params(blob[:-8])

    @pytest.mark.parametrize(
        "decode, what, blob",
        [
            (decode_params, "parameter", encode_params(np.ones(3))),
            (decode_accuracy_list, "accuracy", encode_accuracy_list((0.5, 0.6), (0.9, 0.8))),
            (decode_node_set, "node set", encode_node_set({2, 7, 9})),
        ],
        ids=["params", "accuracy", "node-set"],
    )
    def test_count_prefixed_payloads_are_checked_against_their_length(self, decode, what, blob):
        for short in (b"", blob[:7]):
            with pytest.raises(LedgerFormatError, match=f"^{what} payload too short$"):
                decode(short)
        for wrong in (blob[:-1], blob[:-8], blob + b"\x00", struct.pack("<Q", 2**61) + blob[8:]):
            with pytest.raises(LedgerFormatError, match=f"^{what} payload length mismatch$"):
                decode(wrong)

    def test_accuracy_list_bytes_are_the_per_pair_packing(self):
        alphas, accs = (0.5, 0.55, 0.6), (0.91, np.float64(0.88), 1)
        expected = struct.pack("<Q", 3) + b"".join(struct.pack("<dd", a, c) for a, c in zip(alphas, accs))
        assert encode_accuracy_list(alphas, accs) == expected
        assert encode_accuracy_list((), ()) == struct.pack("<Q", 0)

    def test_node_set_bytes_are_the_per_id_packing(self):
        ids = {9, 0, 2**64 - 1, np.int64(4)}
        expected = struct.pack("<Q", 4) + b"".join(struct.pack("<Q", n) for n in (0, 4, 9, 2**64 - 1))
        assert encode_node_set(ids) == expected
        assert encode_node_set([]) == struct.pack("<Q", 0)


# a value of each non-genesis kind, with its payload packed by hand as README lays it out
PUT_VALUES = {
    RecordKind.LOCAL_WEIGHTS: (np.array([1.5, -0.0, np.inf]), struct.pack("<Q3d", 3, 1.5, -0.0, np.inf)),
    RecordKind.GLOBAL_WEIGHTS: (np.array([np.nan, 5e-324]), struct.pack("<Q2d", 2, np.nan, 5e-324)),
    RecordKind.ACCURACY_LIST: (((0.5, 0.75), (0.9, 1.0)), struct.pack("<Q4d", 2, 0.5, 0.9, 0.75, 1.0)),
    RecordKind.ALPHA_DECISION: ((0.65, 3), struct.pack("<dQ", 0.65, 3)),
    RecordKind.SUSPICION_SET: ((1, 4, 2**64 - 1), struct.pack("<4Q", 3, 1, 4, 2**64 - 1)),
    RecordKind.EXPULSION: (None, b""),
}


class TestPutAndRead:
    def test_every_kind_but_genesis_has_a_layout(self):
        assert set(PUT_VALUES) == set(RecordKind) - {RecordKind.GENESIS}

    def test_genesis_cannot_be_put(self):
        """put refuses the genesis kind as append does, before encoding the value."""
        book = Ledger()
        with pytest.raises(ValueError, match="^genesis records exist only at index 0$"):
            book.put(1, RecordKind.GENESIS, None, object())
        assert len(book) == 1

    def test_genesis_cannot_be_read(self):
        with pytest.raises(ValueError, match="^the genesis record has no put/read payload layout yet$"):
            Ledger().read(0, RecordKind.GENESIS)

    @pytest.mark.parametrize("kind", [2, "GLOBAL_WEIGHTS", None])
    def test_put_and_read_refuse_a_kind_that_is_not_a_record_kind(self, kind):
        """put and read refuse it as append does, before any lookup or append."""
        book = Ledger()
        message = f"^kind must be a RecordKind, got {type(kind).__name__}$"
        with pytest.raises(TypeError, match=message):
            book.put(1, kind, None, b"")
        with pytest.raises(TypeError, match=message):
            book.read(1, kind)
        assert len(book) == 1

    @pytest.mark.parametrize("kind", list(PUT_VALUES), ids=lambda kind: kind.name)
    def test_put_then_read_round_trips_bit_for_bit(self, kind):
        """put appends the layout's bytes, and read gives back the value that
        was put, for each record of the round and kind in ledger order."""
        value, payload = PUT_VALUES[kind]
        book = Ledger()
        for round_no, node_id in ((2, 5), (1, 5), (2, 3)):
            book.put(round_no, kind, node_id, value)
        assert [rec.payload for rec in book.records[1:]] == [payload] * 3
        read = book.read(2, kind)
        assert [node_id for node_id, _ in read] == [5, 3]
        for _, got in read:
            if isinstance(value, np.ndarray):
                assert got.dtype == np.float64 and got.tobytes() == value.tobytes()
            else:
                assert got == value
        assert book.read(3, kind) == []

    def test_a_non_empty_expulsion_payload_is_refused(self):
        book = Ledger()
        book.append(1, RecordKind.EXPULSION, 2, b"\x00")
        with pytest.raises(LedgerFormatError, match="^expulsion payload must be empty, got 1 bytes$"):
            book.read(1, RecordKind.EXPULSION)

    def test_codecs_are_looked_up_when_called(self, monkeypatch):
        """A codec rebound on the module, as a tracer rebinds it, is the one put and read call."""
        calls = []
        for name in ("encode_params", "decode_params"):
            real = getattr(ledger_mod, name)
            monkeypatch.setattr(ledger_mod, name, lambda x, real=real, name=name: calls.append(name) or real(x))
        book = Ledger()
        book.put(1, RecordKind.GLOBAL_WEIGHTS, None, np.ones(2))
        book.read(1, RecordKind.GLOBAL_WEIGHTS)
        assert calls == ["encode_params", "decode_params"]
