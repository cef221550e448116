"""Key-management schemes.

Section IV-A.3 of the paper notes that iPDA "can be built on top of any
key management scheme" and that the choice drives the link-compromise
probability ``p_x``: under pairwise keys only the two endpoints can
read a link, while under random key predistribution (Eschenauer-Gligor)
third parties holding the same ring key can decrypt it.  This module
implements three schemes behind one interface so the privacy
experiments can sweep them.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..errors import CryptoError, KeyNotFoundError
from .cipher import KEY_BYTES

if TYPE_CHECKING:
    from ..net.topology import Topology

__all__ = [
    "KeyManagementScheme",
    "PairwiseKeyScheme",
    "GlobalKeyScheme",
    "RandomPredistributionScheme",
]


def _derive_key(namespace: str, seed: int, *labels: object) -> bytes:
    hasher = hashlib.blake2b(digest_size=KEY_BYTES)
    hasher.update(namespace.encode("utf-8"))
    hasher.update(str(int(seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x1f")
        hasher.update(repr(label).encode("utf-8"))
    return hasher.digest()


class KeyManagementScheme(ABC):
    """Decides which symmetric key protects each link, and who holds it."""

    #: ``(topology, version, sets)`` of the last
    #: :meth:`key_sharing_neighbors` answer.
    _sharing: Optional[Tuple["Topology", int, List[FrozenSet[int]]]] = None

    @abstractmethod
    def link_key(self, a: int, b: int) -> bytes:
        """Return the key protecting the (undirected) link ``a — b``.

        Raises :class:`KeyNotFoundError` if the two nodes share no key.
        """

    @abstractmethod
    def key_holders(self, a: int, b: int) -> FrozenSet[int]:
        """Return all node ids able to decrypt traffic on link ``a — b``.

        Always contains ``a`` and ``b`` when a key exists.  The privacy
        analysis treats every *other* holder as a potential insider
        eavesdropper.
        """

    def can_communicate(self, a: int, b: int) -> bool:
        """True iff the pair shares a key; derives no key to find out."""
        lo, hi = self._normalize(a, b)
        return self._shares_key(lo, hi)

    def key_sharing_neighbors(self, topology: "Topology") -> List[FrozenSet[int]]:
        """Each node's neighbours it shares a key with, indexed by node id.

        Asks :meth:`can_communicate` once per edge.  The answer is kept
        for the last topology (and adjacency version) asked about, so
        rounds that reuse a deployment and a scheme build it once.
        """
        memo = self._sharing
        if memo is not None and memo[0] is topology and memo[1] == topology.version:
            return memo[2]
        shared: List[Set[int]] = [set() for _ in range(topology.node_count)]
        for a, b in topology.edges():
            if self.can_communicate(a, b):
                shared[a].add(b)
                shared[b].add(a)
        sharing = [frozenset(nbrs) for nbrs in shared]
        self._sharing = (topology, topology.version, sharing)
        return sharing

    @abstractmethod
    def _shares_key(self, lo: int, hi: int) -> bool:
        """True iff the normalised pair ``lo < hi`` shares a key."""

    @staticmethod
    def _normalize(a: int, b: int) -> Tuple[int, int]:
        if a == b:
            raise CryptoError("a link needs two distinct endpoints")
        return (a, b) if a < b else (b, a)


class PairwiseKeyScheme(KeyManagementScheme):
    """A unique key per node pair: only the endpoints can decrypt.

    The strongest (and most storage-hungry) option; gives the smallest
    effective ``p_x``.
    """

    def __init__(self, node_count: int, *, seed: int = 0):
        if node_count < 0:
            raise CryptoError("node_count must be >= 0")
        self.node_count = node_count
        self._seed = seed
        #: derived keys by normalised pair, filled on first request.
        self._keys: Dict[Tuple[int, int], bytes] = {}

    def link_key(self, a: int, b: int) -> bytes:
        pair = self._normalize(a, b)
        key = self._keys.get(pair)
        if key is None:
            lo, hi = pair
            self._check(lo, hi)
            key = self._keys[pair] = _derive_key("pairwise", self._seed, lo, hi)
        return key

    def key_holders(self, a: int, b: int) -> FrozenSet[int]:
        lo, hi = self._normalize(a, b)
        self._check(lo, hi)
        return frozenset((lo, hi))

    def _shares_key(self, lo: int, hi: int) -> bool:
        return lo >= 0 and hi < self.node_count

    def _check(self, lo: int, hi: int) -> None:
        if not self._shares_key(lo, hi):
            raise KeyNotFoundError(f"nodes {lo},{hi} outside key universe")


class GlobalKeyScheme(KeyManagementScheme):
    """One network-wide key: every node can decrypt every link.

    The degenerate baseline — under it, slicing alone provides no
    privacy against insiders, which the tests assert.
    """

    def __init__(self, node_count: int, *, seed: int = 0):
        if node_count < 0:
            raise CryptoError("node_count must be >= 0")
        self.node_count = node_count
        self._seed = seed
        self._all = frozenset(range(node_count))
        self._key = _derive_key("global", seed)

    def link_key(self, a: int, b: int) -> bytes:
        self._normalize(a, b)
        return self._key

    def key_holders(self, a: int, b: int) -> FrozenSet[int]:
        self._normalize(a, b)
        return self._all

    def _shares_key(self, lo: int, hi: int) -> bool:
        return True


class RandomPredistributionScheme(KeyManagementScheme):
    """Eschenauer-Gligor random key predistribution [13].

    Each node draws a ring of ``ring_size`` distinct key ids from a pool
    of ``pool_size``.  Two nodes can talk iff their rings intersect; the
    link key is derived from the smallest shared key id, and every node
    whose ring contains that id can decrypt the link — the insider
    leak the paper calls out in Section IV-A.3.
    """

    def __init__(
        self,
        node_count: int,
        *,
        pool_size: int = 1000,
        ring_size: int = 50,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if node_count < 0:
            raise CryptoError("node_count must be >= 0")
        if ring_size > pool_size:
            raise CryptoError("ring_size cannot exceed pool_size")
        if ring_size < 1:
            raise CryptoError("ring_size must be >= 1")
        self.node_count = node_count
        self.pool_size = pool_size
        self.ring_size = ring_size
        self._seed = seed
        generator = rng if rng is not None else np.random.default_rng(seed)
        self._rings: List[FrozenSet[int]] = [
            frozenset(
                int(k)
                for k in generator.choice(pool_size, size=ring_size, replace=False)
            )
            for _ in range(node_count)
        ]
        self._holders_by_key: Dict[int, Set[int]] = {}
        for node_id, ring in enumerate(self._rings):
            for key_id in ring:
                self._holders_by_key.setdefault(key_id, set()).add(node_id)
        #: derived link keys by normalised pair, filled on first
        #: request; ``None`` memoises "no shared key".
        self._keys: Dict[Tuple[int, int], Optional[bytes]] = {}

    def ring(self, node_id: int) -> FrozenSet[int]:
        """Return the key-id ring assigned to ``node_id``."""
        self._check(node_id)
        return self._rings[node_id]

    def shared_key_ids(self, a: int, b: int) -> FrozenSet[int]:
        """Key ids both endpoints hold."""
        lo, hi = self._normalize(a, b)
        self._check(lo)
        self._check(hi)
        return self._rings[lo] & self._rings[hi]

    def link_key(self, a: int, b: int) -> bytes:
        pair = self._normalize(a, b)
        if pair in self._keys:
            key = self._keys[pair]
        else:
            shared = self.shared_key_ids(a, b)
            key = self._keys[pair] = (
                _derive_key("eg-pool", self._seed, min(shared))
                if shared
                else None
            )
        if key is None:
            raise KeyNotFoundError(f"nodes {a} and {b} share no ring key")
        return key

    def key_holders(self, a: int, b: int) -> FrozenSet[int]:
        shared = self.shared_key_ids(a, b)
        if not shared:
            raise KeyNotFoundError(f"nodes {a} and {b} share no ring key")
        return frozenset(self._holders_by_key[min(shared)])

    def _shares_key(self, lo: int, hi: int) -> bool:
        return (
            lo >= 0
            and hi < self.node_count
            and not self._rings[lo].isdisjoint(self._rings[hi])
        )

    def connectivity_probability(self) -> float:
        """Analytic probability two rings intersect (EG connectivity).

        ``1 - C(P-m, m) / C(P, m)`` with pool P and ring m, computed in
        log space for numerical stability.
        """
        import math

        p, m = self.pool_size, self.ring_size
        if 2 * m > p:
            return 1.0
        log_miss = (
            math.lgamma(p - m + 1)
            - math.lgamma(p - 2 * m + 1)
            - (math.lgamma(p + 1) - math.lgamma(p - m + 1))
        )
        return 1.0 - math.exp(log_miss)

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < self.node_count:
            raise KeyNotFoundError(f"node {node_id} outside key universe")
