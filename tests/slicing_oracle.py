"""The choice-based slice planner, kept as a differential-test oracle.

Before the planner took its randomness as bounded-integer draws, each
node's plan made one ``Generator.choice(n, k, replace=False)`` call per
colour and one scalar ``Generator.integers`` call per cut component
(32-bit chunks for windows wider than 62 bits), colour by colour in
palette order.  :func:`legacy_plan_slices` is that planner and
:func:`legacy_plan_round` plans a round node by node with it, so a test
can diff the one-draw planner against it: the plans, the nodes that sit
out, and the state the generator is left in.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.slicing import SlicePlan
from repro.errors import ProtocolError
from repro.sim.messages import TreeColor


def legacy_slice_value(
    value: int,
    pieces: int,
    rng: np.random.Generator,
    *,
    magnitude: int = 1_000_000,
) -> List[int]:
    """Cut ``value`` with one scalar draw per component."""
    if pieces < 1:
        raise ProtocolError("cannot slice into fewer than 1 piece")
    if magnitude < 1:
        raise ProtocolError("magnitude must be >= 1")
    if pieces == 1:
        return [int(value)]
    randoms = [
        _uniform_int(rng, -magnitude, magnitude) for _ in range(pieces - 1)
    ]
    last = int(value) - sum(randoms)
    return randoms + [last]


def _uniform_int(rng: np.random.Generator, low: int, high: int) -> int:
    span = high - low + 1
    if span <= (1 << 62):
        return int(rng.integers(low, high + 1))
    bits = span.bit_length() + 8
    chunks = (bits + 31) // 32
    value = 0
    for _ in range(chunks):
        value = (value << 32) | int(rng.integers(0, 1 << 32))
    return low + value % span


def legacy_choose(
    candidates: Sequence[int], count: int, rng: np.random.Generator
) -> List[int]:
    """``count`` sorted picks of ``candidates`` via ``Generator.choice``."""
    if count == 0:
        return []
    ordered = sorted(candidates)
    picked = rng.choice(len(ordered), size=count, replace=False)
    return [ordered[int(i)] for i in sorted(picked)]


def legacy_plan_slices(
    node_id: int,
    value: int,
    *,
    own_color: Optional[TreeColor],
    candidates: Mapping[TreeColor, Sequence[int]],
    pieces: int,
    rng: np.random.Generator,
    magnitude: int = 1_000_000,
) -> Dict[TreeColor, SlicePlan]:
    """One plan per palette colour of one node, drawing colour by colour."""
    plans: Dict[TreeColor, SlicePlan] = {}
    for color, options in candidates.items():
        options = list(options)
        if node_id in options:
            raise ProtocolError(
                f"candidate list for {color.value} must exclude node {node_id}"
            )
        includes_self = own_color is color
        remote_needed = pieces - 1 if includes_self else pieces
        if len(options) < remote_needed:
            raise ProtocolError(
                f"node {node_id} has only {len(options)} {color.value} "
                f"aggregator(s) in range but needs {remote_needed}"
            )
        chosen = legacy_choose(options, remote_needed, rng)
        cut = legacy_slice_value(value, pieces, rng, magnitude=magnitude)
        if includes_self:
            kept: Optional[int] = cut[0]
            outgoing = list(zip(chosen, cut[1:]))
        else:
            kept = None
            outgoing = list(zip(chosen, cut))
        plans[color] = SlicePlan(color=color, kept=kept, outgoing=outgoing)
    return plans


def legacy_plan_round(
    requests,
    *,
    pieces: int,
    magnitude: int,
    rng: np.random.Generator,
) -> List[Optional[Dict[TreeColor, SlicePlan]]]:
    """:func:`repro.core.slicing.plan_round`, one node at a time."""
    plans: List[Optional[Dict[TreeColor, SlicePlan]]] = []
    for node_id, value, own_color, candidates in requests:
        try:
            plans.append(
                legacy_plan_slices(
                    node_id,
                    value,
                    own_color=own_color,
                    candidates=candidates,
                    pieces=pieces,
                    rng=rng,
                    magnitude=magnitude,
                )
            )
        except ProtocolError:
            plans.append(None)
    return plans
