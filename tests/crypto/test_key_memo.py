"""The key schemes' link-key memo is invisible except in cost.

Each scheme derives a link's key once and serves repeats from a
per-instance dict keyed by the normalised pair.  Generated request
sequences (both argument orders, repeats, ``a == b``, ids outside the
key universe, Eschenauer-Gligor pairs sharing no ring key) must get
exactly what the unmemoised derivation gives, call after call.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import (
    GlobalKeyScheme,
    PairwiseKeyScheme,
    RandomPredistributionScheme,
    _derive_key,
)
from repro.errors import CryptoError, KeyNotFoundError

NODES = 12

#: ids from just outside both ends of the key universe
_ids = st.integers(min_value=-2, max_value=NODES + 1)
_requests = st.lists(
    st.tuples(_ids, _ids).flatmap(
        # Repeat some requests, in either argument order.
        lambda pair: st.sampled_from([[pair], [pair, pair], [pair, pair[::-1]]])
    ),
    min_size=1,
    max_size=40,
).map(lambda groups: [pair for group in groups for pair in group])


def _in_universe(node: int) -> bool:
    return 0 <= node < NODES


def _expected_pairwise(scheme, a, b):
    if a == b:
        return CryptoError
    lo, hi = min(a, b), max(a, b)
    if not (_in_universe(lo) and _in_universe(hi)):
        return KeyNotFoundError
    return _derive_key("pairwise", scheme._seed, lo, hi)


def _expected_global(scheme, a, b):
    if a == b:
        return CryptoError
    return _derive_key("global", scheme._seed)


def _expected_eg(scheme, a, b):
    if a == b:
        return CryptoError
    if not (_in_universe(a) and _in_universe(b)):
        return KeyNotFoundError
    shared = scheme.ring(a) & scheme.ring(b)
    if not shared:
        return KeyNotFoundError
    return _derive_key("eg-pool", scheme._seed, min(shared))


def _outcome(call, a, b):
    try:
        return call(a, b)
    except (CryptoError, KeyNotFoundError) as error:
        # KeyNotFoundError subclasses CryptoError: report the exact type.
        return type(error)


def _check_requests(scheme, expected, requests):
    valid = set()
    for a, b in requests:
        want = expected(scheme, a, b)
        assert _outcome(scheme.link_key, a, b) == want
        # can_communicate agrees: True on a key, False on a miss, and
        # the same CryptoError on a malformed pair.
        if want is CryptoError:
            with pytest.raises(CryptoError):
                scheme.can_communicate(a, b)
        else:
            assert scheme.can_communicate(a, b) == (want is not KeyNotFoundError)
        if want is not CryptoError and _in_universe(a) and _in_universe(b):
            valid.add((min(a, b), max(a, b)))
        memo = getattr(scheme, "_keys", None)
        if memo is not None:
            assert len(memo) <= len(valid)
            # A miss is never memoised as a key.
            for (lo, hi), key in memo.items():
                want_key = expected(scheme, lo, hi)
                if isinstance(want_key, bytes):
                    assert key == want_key
                else:
                    assert key is None


@settings(max_examples=60, deadline=None)
@given(requests=_requests, seed=st.integers(min_value=0, max_value=2**31))
def test_pairwise_memo(requests, seed):
    scheme = PairwiseKeyScheme(NODES, seed=seed)
    _check_requests(scheme, _expected_pairwise, requests)


@settings(max_examples=60, deadline=None)
@given(requests=_requests, seed=st.integers(min_value=0, max_value=2**31))
def test_global_key_derived_once(requests, seed):
    scheme = GlobalKeyScheme(NODES, seed=seed)
    _check_requests(scheme, _expected_global, requests)


@settings(max_examples=60, deadline=None)
@given(requests=_requests, seed=st.integers(min_value=0, max_value=2**16))
def test_eg_memo_including_misses(requests, seed):
    # Rings of 3 from a pool of 40: about four pairs in five share
    # no key, so misses are the common case.
    scheme = RandomPredistributionScheme(
        NODES, pool_size=40, ring_size=3, seed=seed
    )
    _check_requests(scheme, _expected_eg, requests)


def test_eg_miss_raises_on_every_call():
    scheme = RandomPredistributionScheme(
        NODES, pool_size=40, ring_size=3, seed=1
    )
    pairs = [
        (a, b)
        for a in range(NODES)
        for b in range(a + 1, NODES)
        if not scheme.shared_key_ids(a, b)
    ]
    assert pairs
    a, b = pairs[0]
    for _ in range(3):
        with pytest.raises(KeyNotFoundError):
            scheme.link_key(a, b)
        with pytest.raises(KeyNotFoundError):
            scheme.link_key(b, a)
        assert not scheme.can_communicate(a, b)
    assert scheme._keys == {(a, b): None}


def test_memo_is_per_instance():
    first = PairwiseKeyScheme(NODES, seed=1)
    second = PairwiseKeyScheme(NODES, seed=2)
    assert first.link_key(3, 4) != second.link_key(3, 4)
    assert list(first._keys) == [(3, 4)] == list(second._keys)


@settings(max_examples=60, deadline=None)
@given(requests=_requests, seed=st.integers(min_value=0, max_value=2**16))
def test_membership_questions_derive_no_key(requests, seed):
    # can_communicate answers from the key universe and the rings alone;
    # only link_key fills the memo.
    for scheme in (
        PairwiseKeyScheme(NODES, seed=seed),
        RandomPredistributionScheme(
            NODES, pool_size=40, ring_size=3, seed=seed
        ),
    ):
        for a, b in requests:
            try:
                scheme.can_communicate(a, b)
            except CryptoError:
                assert a == b
        assert scheme._keys == {}


def test_can_communicate_lives_on_the_base_class_only():
    # The per-layer tracer wraps the base-class entry point, so every
    # scheme's membership questions must go through it.
    for scheme_class in (
        PairwiseKeyScheme,
        GlobalKeyScheme,
        RandomPredistributionScheme,
    ):
        assert "can_communicate" not in vars(scheme_class)
