"""Append protocol records to the hash-chained ledger, then tamper with it.

Every record's hash covers its fields plus the previous hash, so editing any
byte of a serialized ledger is detectable, and the first bad index localizes
the damage.
"""

import numpy as np

from scei import Ledger, RecordKind, verify_dump_bytes
from scei.ledger import encode_node_set, encode_params

rng = np.random.default_rng(0)
book = Ledger()
for round_no in (1, 2, 3):
    for node in range(4):
        book.append(round_no, RecordKind.LOCAL_WEIGHTS, node, encode_params(rng.normal(size=16)))
    book.append(round_no, RecordKind.SUSPICION_SET, None, encode_node_set([]))
    book.append(round_no, RecordKind.GLOBAL_WEIGHTS, None, encode_params(rng.normal(size=16)))

print(f"ledger holds {len(book)} records, head hash {book.head_hash.hex()[:16]}...")
print(f"verify_chain: {'intact' if book.verify_chain() is None else 'tampered'}")

blob = book.to_bytes()
print(f"\nserialized dump: {len(blob)} bytes")
print(f"verify_dump_bytes on the clean dump: {verify_dump_bytes(blob)}")

# flip one payload byte inside record 7
offset = 0
for _ in range(7):
    frame_len = int.from_bytes(blob[offset : offset + 4], "little")
    offset += 4 + frame_len
tampered = bytearray(blob)
tampered[offset + 4 + 40] ^= 0x01
print(f"after flipping one bit in record 7: first bad index = {verify_dump_bytes(bytes(tampered))}")

# a cleverer forgery: rewrite record 7 and recompute its own hash
from scei.ledger import LedgerRecord, compute_hash

victim = book.records[7]
forged_payload = encode_params(np.zeros(16))
forged = LedgerRecord(
    victim.index,
    victim.round_no,
    victim.kind,
    victim.node_id,
    forged_payload,
    victim.prev_hash,
    compute_hash(victim.index, victim.round_no, victim.kind, victim.node_id, forged_payload, victim.prev_hash),
)
book.records[7] = forged
print(f"self-consistent forgery of record 7: first bad index = {book.verify_chain()} (the broken link)")
