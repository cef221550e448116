"""Data slicing and assembling (Phase II primitives).

A sensor hides its reading ``d(i)`` by cutting it into ``l`` integer
pieces that sum *exactly* to ``d(i)`` (Section III-C).  One independent
cut is made per tree colour — one scattered to red aggregators, one to
blue, and one more per extra colour of an m-tree palette — so each
tree reconstructs the full total.  Because arithmetic is integer, no
precision is lost, which is what lets iPDA report exact aggregates
(the paper's "Accuracy" design goal).

Every random draw of a plan is a bounded integer whose bounds depend
only on the candidate counts, the piece count and the magnitude, so
they are all known before the first draw.  :func:`plan_slices` takes a
node's draws in one ``Generator.integers(lows, highs)`` call and
:func:`plan_round` takes a whole round's in one.  With array bounds
numpy draws element by element through the same bounded primitive that
``Generator.choice`` and scalar ``integers`` use, so the values and the
generator's final state equal those of one ``choice(n, k,
replace=False)`` per colour followed by scalar cut draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ProtocolError
from ..sim.messages import TreeColor

__all__ = [
    "slice_value",
    "SlicePlan",
    "plan_slices",
    "plan_round",
    "PlannedSlice",
    "schedule_fanout",
    "SliceAssembler",
]


#: ``Generator.choice(n, k, replace=False)`` runs Floyd's algorithm
#: unless ``n`` exceeds this and ``k > n // _TAIL_SHUFFLE_DIVISOR``; then
#: it shuffles the tail of ``range(n)`` (numpy's own thresholds).
_FLOYD_MAX_POPULATION = 10_000
_TAIL_SHUFFLE_DIVISOR = 50

#: Bound tuples are shared across nodes and rounds; the cap keeps a
#: long-lived process whose magnitudes vary by round from growing them.
_BOUNDS_CACHE_SIZE = 4096

_Bounds = Tuple[Tuple[int, ...], Tuple[int, ...]]


def slice_value(
    value: int,
    pieces: int,
    rng: np.random.Generator,
    *,
    magnitude: int = 1_000_000,
) -> List[int]:
    """Cut ``value`` into ``pieces`` random integers summing to ``value``.

    The first ``pieces - 1`` components are uniform on
    ``[-magnitude, magnitude]``; the last makes the sum exact.  With
    ``pieces == 1`` the "cut" is the value itself (the l = 1 series of
    the evaluation, i.e. no privacy).  Each draw is a scalar
    ``rng.integers`` call: for the one or two draws of a single cut
    that is cheaper than one array-bound call.
    """
    lows, highs = _cut_bounds(pieces, magnitude)
    drawn = [int(rng.integers(low, high)) for low, high in zip(lows, highs)]
    return _replay_cut(value, pieces, magnitude, drawn, 0)[0]


def _chunks(span: int) -> int:
    """32-bit chunks per component of a window wider than 62 bits."""
    return (span.bit_length() + 8 + 31) // 32


@functools.lru_cache(maxsize=_BOUNDS_CACHE_SIZE)
def _cut_bounds(pieces: int, magnitude: int) -> _Bounds:
    """``(lows, highs)`` of one cut's draws, each on ``[low, high)``.

    ``pieces - 1`` draws on ``[-magnitude, magnitude]``.  numpy
    generators cap at 64 bits, so a wider window (power-mean components
    are big Python ints) composes each component from 32-bit chunks
    with an 8-bit rejection margin, which makes the modulo bias
    negligible for simulation purposes.
    """
    if pieces < 1:
        raise ProtocolError("cannot slice into fewer than 1 piece")
    if magnitude < 1:
        raise ProtocolError("magnitude must be >= 1")
    span = 2 * magnitude + 1
    if span <= 1 << 62:
        count = pieces - 1
        return (-magnitude,) * count, (magnitude + 1,) * count
    count = (pieces - 1) * _chunks(span)
    return (0,) * count, (1 << 32,) * count


def _replay_cut(
    value: int, pieces: int, magnitude: int, drawn: List[int], at: int
) -> Tuple[List[int], int]:
    """The cut that ``drawn[at:]`` makes under :func:`_cut_bounds`.

    Returns the pieces and the index of the first draw left over.
    """
    span = 2 * magnitude + 1
    count = pieces - 1
    if span <= 1 << 62:
        randoms = drawn[at : at + count]
        at += count
    else:
        chunks = _chunks(span)
        randoms = []
        for _ in range(count):
            combined = 0
            for chunk in drawn[at : at + chunks]:
                combined = (combined << 32) | chunk
            at += chunks
            randoms.append(combined % span - magnitude)
    return randoms + [int(value) - sum(randoms)], at


def _choice_bounds(n: int, k: int) -> _Bounds:
    """``(lows, highs)`` of the draws ``choice(n, k, replace=False)`` makes.

    Floyd's algorithm draws on ``[0, j]`` for ``j = n-k .. n-1``, then
    shuffles its picks with draws on ``[0, i]`` for ``i = k-1 .. 1``.
    The tail shuffle draws on ``[0, i]`` for ``i = n-1 .. max(n-k, 1)``.
    """
    if n > _FLOYD_MAX_POPULATION and k > n // _TAIL_SHUFFLE_DIVISOR:
        highs = tuple(range(n, max(n - k, 1), -1))
    else:
        highs = tuple(range(n - k + 1, n + 1)) + tuple(range(k, 1, -1))
    return (0,) * len(highs), highs


def _replay_choice(
    n: int, k: int, drawn: List[int], at: int
) -> Tuple[List[int], int]:
    """The uniform ``k``-subset of ``range(n)`` that ``drawn[at:]`` picks.

    Returns the sorted picks and the index of the first draw left over.
    The draws are those of :func:`_choice_bounds`, and the picks are the
    set ``Generator.choice(n, k, replace=False)`` returns for them.
    Floyd: a draw that is already taken picks ``j`` itself.  Tail
    shuffle: a partial Fisher-Yates over ``range(n)`` whose picks are
    its last ``k`` slots.  Either shuffle's order is discarded.
    """
    if n > _FLOYD_MAX_POPULATION and k > n // _TAIL_SHUFFLE_DIVISOR:
        slots: Dict[int, int] = {}
        for i in range(n - 1, max(n - k, 1) - 1, -1):
            j = drawn[at]
            at += 1
            slots[i], slots[j] = slots.get(j, j), slots.get(i, i)
        return sorted(slots.get(i, i) for i in range(n - k, n)), at
    # k is a slice count, small enough that a list beats a set here.
    picks: List[int] = []
    for j in range(n - k, n):
        draw = drawn[at]
        at += 1
        picks.append(j if draw in picks else draw)
    picks.sort()
    # The shuffle's k - 1 draws only reorder the picks.
    return picks, at + k - 1 if k else at


@dataclass
class SlicePlan:
    """Where one node's reading goes, for one colour.

    ``kept`` is the piece retained locally (aggregators keep ``d_ii``;
    pure senders keep nothing and ``kept`` is None).  ``outgoing`` maps
    each selected aggregator to its piece.
    """

    color: TreeColor
    kept: Optional[int]
    outgoing: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def transmission_count(self) -> int:
        """Frames this plan costs on the air."""
        return len(self.outgoing)

    def total(self) -> int:
        """Sum of all pieces — must equal the original reading."""
        total = sum(piece for _target, piece in self.outgoing)
        if self.kept is not None:
            total += self.kept
        return total


def plan_slices(
    node_id: int,
    value: int,
    *,
    own_color: Optional[TreeColor],
    candidates: Mapping[TreeColor, Collection[int]],
    pieces: int,
    rng: np.random.Generator,
    magnitude: int = 1_000_000,
) -> Dict[TreeColor, SlicePlan]:
    """Build one plan per palette colour for one node, or raise.

    ``candidates`` maps each palette colour, in palette order, to the
    aggregators of that colour the node may send to.  Implements the
    selection rule of Section III-C.1: choose ``l`` aggregators of each
    colour from the neighbourhood *including itself* — an aggregator
    always selects itself and ``l - 1`` peers of its own colour, keeping
    one piece local.  Candidate lists must not contain ``node_id``
    itself (self-selection is handled here).

    Raises :class:`ProtocolError` when a colour has fewer than ``l``
    candidates — the node must then sit out (data-loss factor (b) of
    Section IV-B.3).

    Every draw comes from one ``rng.integers(lows, highs)`` call, in
    this order: per colour, in palette order, the aggregator subset (as
    ``rng.choice(len(candidates), needed, replace=False)`` would draw
    it) and then the cut (as :func:`slice_value` would).  The draws stop
    at the first colour short of candidates: a node short of red draws
    nothing.  ``integers`` is the only method called on ``rng``.
    """
    lows, highs, short = _bounds(node_id, own_color, candidates, pieces, magnitude)
    drawn = rng.integers(lows, highs).tolist() if lows else []
    if short is not None:
        raise ProtocolError(
            f"node {node_id} has only {len(candidates[short])} {short.value} "
            f"aggregator(s) in range but needs "
            f"{pieces - 1 if own_color is short else pieces}"
        )
    plans: Dict[TreeColor, SlicePlan] = {}
    at = 0
    for color, options in candidates.items():
        ordered = sorted(options)
        includes_self = own_color is color
        picks, at = _replay_choice(
            len(ordered), pieces - 1 if includes_self else pieces, drawn, at
        )
        cut, at = _replay_cut(value, pieces, magnitude, drawn, at)
        chosen = [ordered[pick] for pick in picks]
        if includes_self:
            kept: Optional[int] = cut[0]
            outgoing = list(zip(chosen, cut[1:]))
        else:
            kept = None
            outgoing = list(zip(chosen, cut))
        plans[color] = SlicePlan(color=color, kept=kept, outgoing=outgoing)
    return plans


def _bounds(
    node_id: int,
    own_color: Optional[TreeColor],
    candidates: Mapping[TreeColor, Collection[int]],
    pieces: int,
    magnitude: int,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Optional[TreeColor]]:
    """:func:`_draw_bounds` of one node; raises if a list holds the node."""
    counts: Tuple[int, ...] = ()
    for color, options in candidates.items():
        if node_id in options:
            raise ProtocolError(
                f"candidate list for {color.value} must exclude node {node_id}"
            )
        counts += (len(options),)
    return _draw_bounds(own_color, tuple(candidates), counts, pieces, magnitude)


@functools.lru_cache(maxsize=_BOUNDS_CACHE_SIZE)
def _draw_bounds(
    own_color: Optional[TreeColor],
    colors: Tuple[TreeColor, ...],
    counts: Tuple[int, ...],
    pieces: int,
    magnitude: int,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Optional[TreeColor]]:
    """``(lows, highs, short)``: the draws :func:`plan_slices` makes.

    ``counts`` holds each palette colour's candidate count.  ``short``
    is the first colour with too few candidates, or None; the draws
    stop before it.
    """
    lows: Tuple[int, ...] = ()
    highs: Tuple[int, ...] = ()
    cut_lows, cut_highs = _cut_bounds(pieces, magnitude)
    for color, count in zip(colors, counts):
        needed = pieces - 1 if own_color is color else pieces
        if count < needed:
            return lows, highs, color
        choice_lows, choice_highs = _choice_bounds(count, needed)
        lows += choice_lows + cut_lows
        highs += choice_highs + cut_highs
    return lows, highs, None


class _Drawn:
    """A round's values from one ``integers`` call, handed out in order.

    Stands in for the generator inside :func:`plan_slices`: its
    ``integers(lows, highs)`` returns the next ``len(lows)`` values.
    """

    __slots__ = ("_values", "_at")

    def __init__(self, values: np.ndarray):
        self._values = values
        self._at = 0

    def integers(
        self, lows: Sequence[int], highs: Sequence[int]
    ) -> np.ndarray:
        start = self._at
        self._at = stop = start + len(lows)
        return self._values[start:stop]


#: ``(node_id, value, own_color, candidates)``, as :func:`plan_slices`
#: takes them.
SliceRequest = Tuple[
    int, int, Optional[TreeColor], Mapping[TreeColor, Collection[int]]
]


def plan_round(
    requests: Sequence[SliceRequest],
    *,
    pieces: int,
    magnitude: int,
    rng: np.random.Generator,
) -> List[Optional[Dict[TreeColor, SlicePlan]]]:
    """Plan a whole round's slices from one ``rng.integers`` call.

    ``requests`` holds one ``(node_id, value, own_color, candidates)``
    per node, ``candidates`` mapping each palette colour to its list.
    The plans, and the state ``rng`` is left in, are those of calling
    :func:`plan_slices` on ``rng`` for each request in order.  Returns
    each node's plans, or None where it sits out.
    """
    lows: List[int] = []
    highs: List[int] = []
    for node_id, _value, own_color, candidates in requests:
        try:
            node_lows, node_highs, _short = _bounds(
                node_id, own_color, candidates, pieces, magnitude
            )
        except ProtocolError:
            continue  # plan_slices rejects it before drawing
        lows += node_lows
        highs += node_highs
    drawn = _Drawn(
        rng.integers(lows, highs) if lows else np.empty(0, dtype=np.int64)
    )
    plans: List[Optional[Dict[TreeColor, SlicePlan]]] = []
    for node_id, value, own_color, candidates in requests:
        try:
            plans.append(
                plan_slices(
                    node_id,
                    value,
                    own_color=own_color,
                    candidates=candidates,
                    pieces=pieces,
                    rng=drawn,
                    magnitude=magnitude,
                )
            )
        except ProtocolError:
            plans.append(None)  # factor (b): not enough aggregators in range
    return plans


@dataclass(frozen=True)
class PlannedSlice:
    """One scheduled slice transmission of a node's fan-out.

    ``seq`` is the wire sequence number the send will carry — assigned
    here, ahead of time, so the whole fan-out can be sealed in one
    batched cipher pass.
    """

    color: TreeColor
    target: int
    piece: int
    delay: float
    seq: int


def schedule_fanout(
    plans: Dict[TreeColor, SlicePlan],
    window: float,
    rng: np.random.Generator,
    *,
    first_seq: int,
) -> List[PlannedSlice]:
    """Draw send delays and pre-assign sequence numbers for a fan-out.

    Delays are drawn in plan iteration order — the same RNG draw order
    the historical per-send path used.  Sequence numbers, however, are
    assigned in *fire* order: the event engine pops equal-time events
    in scheduling order, so a stable sort by delay predicts exactly
    the order the sends will fire in.  The caller can therefore seal
    every ciphertext upfront (see
    :func:`repro.crypto.envelope.seal_batch`) and still put the same
    bytes on the air the lazy path did.

    Entries are returned in scheduling order; callers must schedule
    them in this order for the tie-break prediction to hold.
    """
    drawn: List[Tuple[TreeColor, int, int, float]] = []
    for color, plan in plans.items():
        for target, piece in plan.outgoing:
            drawn.append(
                (color, target, piece, float(rng.uniform(0.0, window)))
            )
    fire_order = sorted(range(len(drawn)), key=lambda i: drawn[i][3])
    seqs = [0] * len(drawn)
    for fire_rank, index in enumerate(fire_order):
        seqs[index] = first_seq + fire_rank
    return [
        PlannedSlice(
            color=color, target=target, piece=piece, delay=delay, seq=seqs[i]
        )
        for i, (color, target, piece, delay) in enumerate(drawn)
    ]


class SliceAssembler:
    """Collects the slices one aggregator receives in a round.

    After the slicing window closes, :meth:`assembled_value` yields
    ``r(j) = d_jj + sum of received d_ij`` (Section III-C.2), which the
    aggregator then treats as its own reading for Phase III.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._kept = 0
        self._kept_count = 0
        self._received: List[Tuple[int, int]] = []

    def keep(self, piece: int) -> None:
        """Retain one of this node's own pieces locally (``d_ii``)."""
        self._kept += int(piece)
        self._kept_count += 1

    def receive(self, sender: int, piece: int) -> None:
        """Record a decrypted slice from ``sender``."""
        self._received.append((sender, int(piece)))

    @property
    def received_count(self) -> int:
        """Number of remote slices received so far."""
        return len(self._received)

    @property
    def kept_count(self) -> int:
        """Number of own pieces retained locally."""
        return self._kept_count

    @property
    def piece_count(self) -> int:
        """Total pieces folded into this assembler (kept + received).

        The unit of the graceful-degradation coverage accounting: tree
        sums travel up alongside these counts, so the base station can
        tell loss (sum *and* count shrink together) from pollution
        (sum changes, count does not).
        """
        return self._kept_count + len(self._received)

    def senders(self) -> List[int]:
        """Distinct senders heard from, sorted."""
        return sorted({sender for sender, _piece in self._received})

    def assembled_value(self) -> int:
        """``r(j)``: the sum of the kept piece and all received slices."""
        return self._kept + sum(piece for _sender, piece in self._received)
