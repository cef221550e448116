"""Link-level stream cipher.

iPDA requires link-level encryption of data slices (Section III-C);
without it an eavesdropper who hears every transmission of a node
recovers its reading trivially.  This module provides a small, honest
stream cipher for the simulation: a keyed BLAKE2b pseudo-random
function expanded into a keystream and XORed with the plaintext.  It is
*not* meant for production security — it is meant to make the privacy
experiments exercise a real encrypt/decrypt code path, with real keys,
so that "who can read this frame" is decided by key possession and
nothing else.

Hot-path notes: the XOR is done in one shot over big integers instead
of per byte, and two LRU layers serve the simulator's retransmission
pattern (the MAC re-encrypts the *same* frame on every ARQ attempt):
``_expand`` caches expanded keystreams per ``(key, nonce, length)``
and ``_xor_encrypt_cached`` caches whole ciphertexts per
``(plaintext, key, nonce)``.  Both caches are pure — nonces are derived
from ``(src, dst, round, seq)`` and never reused with different
plaintexts by the protocols, and even if they were, XOR is a pure
function of its inputs, so cached results are always correct.  The
public :func:`xor_encrypt` normalizes any bytes-like plaintext
(``bytes``, ``bytearray``, ``memoryview``) before the cached call, so
unhashable inputs keep working.  Tradeoff, stated plainly: the caches
pin up to ``maxsize`` recent ``(plaintext, key, nonce, ciphertext)``
tuples in process memory for the process lifetime.  That is acceptable
here because this cipher exists to *model* link encryption in a
simulator (see above — it is explicitly not production security);
do not reuse this caching pattern where key/plaintext residency
matters.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, List, Tuple

from ..errors import CryptoError

__all__ = [
    "keystream",
    "xor_encrypt",
    "xor_encrypt_batch",
    "xor_decrypt",
    "KEY_BYTES",
    "NONCE_BYTES",
]

KEY_BYTES = 16
NONCE_BYTES = 8
_BLOCK_BYTES = 32


@lru_cache(maxsize=1024)
def _expand(key: bytes, nonce: bytes, length: int) -> Tuple[bytes, int]:
    """Expanded keystream as ``(bytes, big-endian int)`` (cached)."""
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
            digest_size=_BLOCK_BYTES,
        ).digest()
        out.extend(block)
        counter += 1
    stream = bytes(out[:length])
    return stream, int.from_bytes(stream, "big")


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Expand ``(key, nonce)`` into ``length`` pseudo-random bytes."""
    return _expand(key, nonce, length)[0]


@lru_cache(maxsize=4096)
def _xor_encrypt_cached(plaintext: bytes, key: bytes, nonce: bytes) -> bytes:
    length = len(plaintext)
    stream_int = _expand(key, nonce, length)[1]
    if length == 0:
        return b""
    return (int.from_bytes(plaintext, "big") ^ stream_int).to_bytes(
        length, "big"
    )


def xor_encrypt(plaintext: bytes, key: bytes, nonce: bytes) -> bytes:
    """Encrypt by XOR with the keystream (involution).

    ``plaintext`` may be any bytes-like object (``bytes``,
    ``bytearray``, ``memoryview``); it is normalized to ``bytes``
    before the cached call, so unhashable inputs work.  See the module
    docstring for the cache-residency tradeoff.
    """
    if type(plaintext) is not bytes:
        plaintext = bytes(plaintext)
    return _xor_encrypt_cached(plaintext, key, nonce)


def xor_encrypt_batch(
    items: Iterable[Tuple[bytes, bytes, bytes]]
) -> List[bytes]:
    """Encrypt many ``(plaintext, key, nonce)`` items in one big-int pass.

    Byte-identical to calling :func:`xor_encrypt` per item: XOR over a
    concatenation equals concatenating the per-item XORs, and each
    item's keystream comes from the same cached :func:`_expand`.  The
    point is amortisation — a whole slice fan-out (hundreds of 8-byte
    payloads) does ONE ``int.from_bytes``/XOR/``to_bytes`` round trip
    instead of one per slice, which is what the ``cipher-xor-batch``
    micro benchmark measures.
    """
    plaintexts: List[bytes] = []
    streams: List[bytes] = []
    for plaintext, key, nonce in items:
        if type(plaintext) is not bytes:
            plaintext = bytes(plaintext)
        plaintexts.append(plaintext)
        streams.append(_expand(key, nonce, len(plaintext))[0])
    if not plaintexts:
        return []
    p_cat = b"".join(plaintexts)
    total = len(p_cat)
    if total == 0:
        return [b"" for _ in plaintexts]
    c_int = int.from_bytes(p_cat, "big") ^ int.from_bytes(
        b"".join(streams), "big"
    )
    c_cat = c_int.to_bytes(total, "big")
    out: List[bytes] = []
    offset = 0
    for plaintext in plaintexts:
        end = offset + len(plaintext)
        out.append(c_cat[offset:end])
        offset = end
    return out


def xor_decrypt(ciphertext: bytes, key: bytes, nonce: bytes) -> bytes:
    """Decrypt; identical to :func:`xor_encrypt` because XOR is an involution."""
    return xor_encrypt(ciphertext, key, nonce)

