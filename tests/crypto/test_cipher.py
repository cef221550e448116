"""Tests for the keyed-PRF stream cipher."""

from __future__ import annotations

import hashlib

import pytest

from repro.crypto.cipher import (
    KEY_BYTES,
    NONCE_BYTES,
    keystream,
    xor_decrypt,
    xor_encrypt,
)
from repro.errors import CryptoError

KEY = bytes(range(KEY_BYTES))
NONCE = bytes(range(NONCE_BYTES))


# Reference implementations: the pre-optimization semantics (uncached,
# byte-at-a-time) that the cipher must stay bitwise-identical to.
def _keystream_reference(key: bytes, nonce: bytes, length: int) -> bytes:
    """Original uncached block loop; byte-identical to :func:`keystream`."""
    if len(key) != KEY_BYTES:
        raise CryptoError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    if len(nonce) != NONCE_BYTES:
        raise CryptoError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")
    if length < 0:
        raise CryptoError("length must be >= 0")
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.blake2b(
            nonce + counter.to_bytes(8, "big"),
            key=key,
            digest_size=32,
        ).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


def _xor_encrypt_reference(plaintext: bytes, key: bytes, nonce: bytes) -> bytes:
    """Original per-byte XOR; byte-identical to :func:`xor_encrypt`."""
    stream = _keystream_reference(key, nonce, len(plaintext))
    return bytes(p ^ s for p, s in zip(plaintext, stream))


class TestKeystream:
    def test_deterministic(self):
        assert keystream(KEY, NONCE, 64) == keystream(KEY, NONCE, 64)

    def test_length(self):
        for n in (0, 1, 31, 32, 33, 100):
            assert len(keystream(KEY, NONCE, n)) == n

    def test_prefix_property(self):
        long = keystream(KEY, NONCE, 64)
        short = keystream(KEY, NONCE, 16)
        assert long[:16] == short

    def test_key_sensitivity(self):
        other = bytes([KEY[0] ^ 1]) + KEY[1:]
        assert keystream(KEY, NONCE, 32) != keystream(other, NONCE, 32)

    def test_nonce_sensitivity(self):
        other = bytes([NONCE[0] ^ 1]) + NONCE[1:]
        assert keystream(KEY, NONCE, 32) != keystream(KEY, other, 32)

    def test_rejects_bad_key_length(self):
        with pytest.raises(CryptoError):
            keystream(b"short", NONCE, 8)

    def test_rejects_bad_nonce_length(self):
        with pytest.raises(CryptoError):
            keystream(KEY, b"no", 8)

    def test_rejects_negative_length(self):
        with pytest.raises(CryptoError):
            keystream(KEY, NONCE, -1)


class TestXor:
    def test_roundtrip(self):
        plaintext = b"attack at dawn!!"
        ciphertext = xor_encrypt(plaintext, KEY, NONCE)
        assert ciphertext != plaintext
        assert xor_decrypt(ciphertext, KEY, NONCE) == plaintext

    def test_involution(self):
        data = b"\x00\xff\x7f" * 11
        once = xor_encrypt(data, KEY, NONCE)
        twice = xor_encrypt(once, KEY, NONCE)
        assert twice == data

    def test_wrong_key_garbles(self):
        plaintext = b"secret"
        other = bytes([KEY[0] ^ 1]) + KEY[1:]
        assert xor_decrypt(
            xor_encrypt(plaintext, KEY, NONCE), other, NONCE
        ) != plaintext

    def test_empty_plaintext(self):
        assert xor_encrypt(b"", KEY, NONCE) == b""

    def test_bytes_like_plaintexts_accepted(self):
        # Regression: an lru_cache on xor_encrypt made bytearray /
        # memoryview plaintexts raise TypeError (unhashable) and pinned
        # plaintext/ciphertext pairs in a process-global cache.
        plaintext = b"slice payload 42"
        expected = xor_encrypt(plaintext, KEY, NONCE)
        assert xor_encrypt(bytearray(plaintext), KEY, NONCE) == expected
        assert xor_encrypt(memoryview(plaintext), KEY, NONCE) == expected
        assert xor_decrypt(bytearray(expected), KEY, NONCE) == plaintext

    def test_public_entrypoint_is_not_the_cached_function(self):
        # The LRU layer must sit behind a normalizing wrapper: applying
        # it to the public function directly is what broke bytes-like
        # inputs in the first place.
        import repro.crypto.cipher as cipher_mod

        assert not hasattr(xor_encrypt, "cache_info")
        assert hasattr(cipher_mod._xor_encrypt_cached, "cache_info")
        assert hasattr(cipher_mod._expand, "cache_info")


class TestReferenceEquivalence:
    """The optimized (cached, big-int XOR) implementations must stay
    bitwise-identical to the original per-byte reference code defined
    at the top of this module."""

    # 0, 1, block boundary +/- 1, exact blocks, multi-block, odd tail.
    LENGTHS = (0, 1, 31, 32, 33, 63, 64, 65, 100, 256, 1000)

    def test_keystream_matches_reference(self):
        for length in self.LENGTHS:
            assert keystream(KEY, NONCE, length) == _keystream_reference(
                KEY, NONCE, length
            )

    def test_xor_encrypt_matches_reference(self):
        rng = __import__("random").Random(42)
        for length in self.LENGTHS:
            plaintext = bytes(rng.randrange(256) for _ in range(length))
            assert xor_encrypt(plaintext, KEY, NONCE) == _xor_encrypt_reference(
                plaintext, KEY, NONCE
            )

    def test_xor_encrypt_matches_reference_across_keys_and_nonces(self):
        for salt in range(8):
            key = bytes((salt + i) % 256 for i in range(KEY_BYTES))
            nonce = (1000 + salt).to_bytes(NONCE_BYTES, "big")
            plaintext = bytes((salt * 7 + i) % 256 for i in range(40))
            assert xor_encrypt(plaintext, key, nonce) == _xor_encrypt_reference(
                plaintext, key, nonce
            )

    def test_involution_at_every_length(self):
        for length in self.LENGTHS:
            data = bytes((i * 13) % 256 for i in range(length))
            assert xor_encrypt(xor_encrypt(data, KEY, NONCE), KEY, NONCE) == data

    def test_leading_zero_bytes_preserved(self):
        # The big-int XOR must not drop leading zeros of either side.
        plaintext = b"\x00\x00\x00\x07"
        ciphertext = xor_encrypt(plaintext, KEY, NONCE)
        assert len(ciphertext) == len(plaintext)
        assert xor_decrypt(ciphertext, KEY, NONCE) == plaintext

    def test_cached_calls_stay_correct(self):
        # Same (plaintext, key, nonce) twice: the LRU path must return
        # the same ciphertext as the cold path did.
        plaintext = b"retransmitted-slice-frame"
        first = xor_encrypt(plaintext, KEY, NONCE)
        second = xor_encrypt(plaintext, KEY, NONCE)
        assert first == second
        assert xor_decrypt(first, KEY, NONCE) == plaintext

    def test_cached_errors_still_raised(self):
        with pytest.raises(CryptoError):
            xor_encrypt(b"x", b"short", NONCE)
        with pytest.raises(CryptoError):
            xor_encrypt(b"x", b"short", NONCE)


class TestXorBatch:
    def test_matches_per_item_encrypt(self):
        from repro.crypto.cipher import xor_encrypt_batch

        items = [
            (
                value.to_bytes(8, "big"),
                KEY,
                (1000 + value).to_bytes(8, "big"),
            )
            for value in range(64)
        ]
        batched = xor_encrypt_batch(items)
        singles = [xor_encrypt(p, k, n) for p, k, n in items]
        assert batched == singles

    def test_matches_reference_implementation(self):
        from repro.crypto.cipher import xor_encrypt_batch

        items = [
            (bytes((i * j) % 256 for i in range(j)), KEY, (77 + j).to_bytes(8, "big"))
            for j in (0, 1, 7, 8, 31, 32, 33, 100)
        ]
        batched = xor_encrypt_batch(items)
        assert batched == [
            _xor_encrypt_reference(p, k, n) for p, k, n in items
        ]

    def test_mixed_lengths_and_leading_zeros(self):
        from repro.crypto.cipher import xor_encrypt_batch

        items = [
            (b"\x00\x00\x00\x07", KEY, NONCE),
            (b"", KEY, NONCE),
            (b"\x00" * 16, KEY, bytes(reversed(NONCE))),
        ]
        batched = xor_encrypt_batch(items)
        assert [len(c) for c in batched] == [4, 0, 16]
        assert batched == [xor_encrypt(p, k, n) for p, k, n in items]

    def test_empty_batch(self):
        from repro.crypto.cipher import xor_encrypt_batch

        assert xor_encrypt_batch([]) == []

    def test_accepts_bytes_like(self):
        from repro.crypto.cipher import xor_encrypt_batch

        items = [(bytearray(b"hello"), KEY, NONCE)]
        assert xor_encrypt_batch(items) == [xor_encrypt(b"hello", KEY, NONCE)]

    def test_bad_key_raises(self):
        from repro.crypto.cipher import xor_encrypt_batch

        with pytest.raises(CryptoError):
            xor_encrypt_batch([(b"x", b"short", NONCE)])
