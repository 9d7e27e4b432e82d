import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    record_from_bytes,
    record_to_bytes,
    verify_dump_bytes,
)


def oracle_digest(index, round_no, kind_value, node_id, payload, prev_hash):
    """Recompute the record digest straight from the documented byte layout."""
    flag = 0 if node_id is None else 1
    header = struct.pack(
        "<QQBBQQ", index, round_no, kind_value, flag, node_id or 0, len(payload)
    )
    return hashlib.sha256(header + payload + prev_hash).digest()


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


class TestVerifyChain:
    def test_untampered_ledger_verifies(self):
        book = build_ledger(50)
        assert book.verify_chain() is None

    def test_payload_flip_detected_at_record(self):
        book = build_ledger(20)
        victim = book.records[7]
        tampered = bytearray(victim.payload)
        tampered[0] ^= 0xFF
        book.records[7] = LedgerRecord(
            victim.index,
            victim.round_no,
            victim.kind,
            victim.node_id,
            bytes(tampered),
            victim.prev_hash,
            victim.hash,
        )
        assert book.verify_chain() == 7

    def test_rehashed_forgery_detected_at_next_link(self):
        book = build_ledger(20)
        victim = book.records[7]
        forged_payload = b"forged!!"
        forged_hash = compute_hash(
            victim.index, victim.round_no, victim.kind, victim.node_id,
            forged_payload, victim.prev_hash,
        )
        book.records[7] = LedgerRecord(
            victim.index, victim.round_no, victim.kind, victim.node_id,
            forged_payload, victim.prev_hash, forged_hash,
        )
        assert book.verify_chain() == 8


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
        book = build_ledger(10)
        for rec in book.records:
            assert record_from_bytes(record_to_bytes(rec)) == rec

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
        for rec in loaded.records:
            assert all(type(f) is bytes for f in (rec.payload, rec.prev_hash, rec.hash))

    def test_dump_file_round_trip(self, tmp_path):
        book = build_ledger(9)
        path = tmp_path / "ledger.bin"
        book.write_dump(path)
        assert Ledger.read_dump(path).records == book.records

    def test_dump_file_bytes_equal_to_bytes(self, tmp_path):
        book = build_ledger(9, payload_size=1000)
        path = tmp_path / "ledger.bin"
        book.write_dump(path)
        framed = b"".join(
            struct.pack("<I", len(body)) + body for body in map(record_to_bytes, book.records)
        )
        assert path.read_bytes() == book.to_bytes() == framed

    def test_malformed_record_rejected(self):
        with pytest.raises(LedgerFormatError):
            record_from_bytes(b"short")

    @given(st.integers(0, 2**63), st.integers(0, 2**63), st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_record_round_trip_property(self, round_no, node_id, payload):
        rec_hash = compute_hash(3, round_no, RecordKind.ACCURACY_LIST, node_id, payload, b"p" * 32)
        rec = LedgerRecord(3, round_no, RecordKind.ACCURACY_LIST, node_id, payload, b"p" * 32, rec_hash)
        assert record_from_bytes(record_to_bytes(rec)) == rec


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

    def test_params_length_mismatch_rejected(self):
        blob = encode_params(np.ones(4))
        with pytest.raises(LedgerFormatError):
            decode_params(blob[:-8])
