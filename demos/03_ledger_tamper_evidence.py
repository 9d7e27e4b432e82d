"""Append protocol records to the hash-chained ledger, then tamper with it.

Every record's hash covers its fields plus the previous hash, so editing any
byte of a serialized ledger is detectable, and the first bad index localizes
the damage; a load refuses such a dump at that index. A forger who re-hashes
every record from the edit on leaves a chain that verifies and loads; only
its new head hash gives it away.
"""

import hashlib

import numpy as np

from scei import Ledger, LedgerFormatError, RecordKind, verify_dump_bytes
from scei.ledger import HASH_LEN, encode_node_set, encode_params

rng = np.random.default_rng(0)
book = Ledger()
for round_no in (1, 2, 3):
    for node in range(4):
        book.append(round_no, RecordKind.LOCAL_WEIGHTS, node, encode_params(rng.normal(size=16)))
    book.append(round_no, RecordKind.SUSPICION_SET, None, encode_node_set([]))
    book.append(round_no, RecordKind.GLOBAL_WEIGHTS, None, encode_params(rng.normal(size=16)))

print(f"ledger holds {len(book)} records, head hash {book.head_hash.hex()[:16]}...")

blob = book.to_bytes()
print(f"\nserialized dump: {len(blob)} bytes")
print(f"verify_dump_bytes on the clean dump: {verify_dump_bytes(blob)}")

# split the dump into its frames: u32 length, then the record bytes
frames, offset = [], 0
while offset < len(blob):
    end = offset + 4 + int.from_bytes(blob[offset : offset + 4], "little")
    frames.append(bytearray(blob[offset:end]))
    offset = end
payload_at = 4 + 34  # past the frame length and the record header

# flip one payload byte inside record 7
tampered = [bytearray(frame) for frame in frames]
tampered[7][payload_at + 2] ^= 0x01
print(f"after flipping one bit in record 7: first bad index = {verify_dump_bytes(b''.join(tampered))}")
try:
    Ledger.from_bytes(b"".join(tampered))
except LedgerFormatError as refused:
    print(f"Ledger.from_bytes refuses it at index {refused.index}: {refused}")

# a cleverer forgery: rewrite record 7's payload in the dump and recompute
# its own hash. The ledger itself is append-only, so a forger edits bytes.


def rehash(frame, prev_hash):
    """Link frame to prev_hash and give it the hash of its new bytes."""
    frame[-2 * HASH_LEN : -HASH_LEN] = prev_hash
    frame[-HASH_LEN:] = hashlib.sha256(frame[4:-HASH_LEN]).digest()


forged_payload = encode_params(np.zeros(16))
frames[7][payload_at : payload_at + len(forged_payload)] = forged_payload
rehash(frames[7], frames[6][-HASH_LEN:])
forged = b"".join(frames)
print(f"self-consistent forgery of record 7: first bad index = {verify_dump_bytes(forged)} (the broken link)")

# re-hashing every later record as well leaves no broken link: the chain
# verifies, and only a head hash kept elsewhere shows the change
for prev, frame in zip(frames[7:], frames[8:]):
    rehash(frame, prev[-HASH_LEN:])
forged = b"".join(frames)
head = Ledger.from_bytes(forged).head_hash  # it loads: every link and hash holds
print(f"the whole chain re-hashed: first bad index = {verify_dump_bytes(forged)}, it loads, "
      f"head {head.hex()[:16]}... instead of {book.head_hash.hex()[:16]}...")
