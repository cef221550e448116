"""Typed over-the-air messages.

Every frame the simulator carries is one of these dataclasses.  Sizes
follow a simple cost model: a fixed link-layer header plus a per-kind
payload, so byte accounting (Figure 7) is consistent across protocols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Optional, Tuple

from ..errors import TreeCountError

__all__ = [
    "TreeColor",
    "Message",
    "HelloMessage",
    "QueryMessage",
    "SliceMessage",
    "AggregateMessage",
    "AckMessage",
    "BROADCAST",
    "LINK_HEADER_BYTES",
]

#: Destination id that addresses every neighbour in radio range.
BROADCAST: int = -1

#: Link-layer header cost applied to every frame (source, destination,
#: type, sequence — a TinyOS-style compact header).
LINK_HEADER_BYTES: int = 16

_frame_ids = itertools.count(1)


class TreeColor(str, Enum):
    """Colour of an aggregation tree.

    The paper builds m = 2 (red/blue); GREEN and YELLOW extend the
    palette for the m > 2 generalisation of Section III-B.
    """

    RED = "red"
    BLUE = "blue"
    GREEN = "green"
    YELLOW = "yellow"

    @property
    def other(self) -> "TreeColor":
        """The dual-tree complement (defined for red/blue only)."""
        if self is TreeColor.RED:
            return TreeColor.BLUE
        if self is TreeColor.BLUE:
            return TreeColor.RED
        raise ValueError(f"{self.value} has no dual-tree complement")

    @classmethod
    def palette(cls, count: int) -> Tuple["TreeColor", ...]:
        """The first ``count`` colours, for m-tree deployments."""
        members = (cls.RED, cls.BLUE, cls.GREEN, cls.YELLOW)
        if not 2 <= count <= len(members):
            raise TreeCountError(
                f"tree count must be 2..{len(members)}, got {count}"
            )
        return members[:count]


@dataclass(slots=True)
class Message:
    """Base class for all frames.

    ``dst`` is a node id, or :data:`BROADCAST`.  ``frame_id`` uniquely
    identifies the transmission attempt for tracing.
    """

    src: int
    dst: int
    frame_id: int = field(default_factory=lambda: next(_frame_ids))

    #: per-kind payload size; subclasses override.
    PAYLOAD_BYTES: ClassVar[int] = 0

    #: Short lowercase name used by the trace collector.  Precomputed
    #: per class (the trace reads it several times per frame, so a
    #: per-call property shows up in profiles).
    kind: ClassVar[str] = ""

    def __init_subclass__(cls) -> None:
        # No super() call: dataclass(slots=True) recreates the class, so
        # the zero-arg super() closure would point at the pre-slots
        # Message and raise TypeError for every subclass.
        cls.kind = cls.__name__.replace("Message", "").lower()

    @property
    def size_bytes(self) -> int:
        """Total on-air size: link header plus payload."""
        return LINK_HEADER_BYTES + self.payload_bytes()

    def payload_bytes(self) -> int:
        """Payload size in bytes; subclasses may compute dynamically."""
        return self.PAYLOAD_BYTES

    @property
    def is_broadcast(self) -> bool:
        """True when the frame addresses every neighbour."""
        return self.dst == BROADCAST


@dataclass(slots=True)
class HelloMessage(Message):
    """Tree-construction HELLO (Phase I).

    Carries the sender's colour and its hop count from the base station
    so receivers can pick a shallow parent.  TAG's HELLO is the same
    frame with ``color=None``.
    """

    color: Optional[TreeColor] = None
    hops: int = 0
    round_id: int = 0

    PAYLOAD_BYTES = 6  # colour(1) + hops(2) + round(2) + flags(1)


@dataclass(slots=True)
class QueryMessage(Message):
    """Aggregation query flooded from the base station."""

    round_id: int = 0
    aggregate_name: str = "sum"

    PAYLOAD_BYTES = 8  # round(2) + op(1) + epoch/deadline(5)


@dataclass(slots=True)
class SliceMessage(Message):
    """An encrypted data slice (Phase II).

    ``ciphertext`` is the actual encrypted serialized slice value; the
    eavesdropper attack decrypts it when the link key is compromised.
    ``color`` names the cut the slice belongs to, so the base station —
    which sits on both trees — attributes it to the right aggregate.
    """

    round_id: int = 0
    color: Optional[TreeColor] = None
    seq: int = 0
    ciphertext: bytes = b""

    def payload_bytes(self) -> int:
        # round(2) + colour(1) + seq(2) + encrypted value.  The nonce is
        # derived from (src, dst, round, seq), not transmitted, so a
        # slice frame costs the same as a result frame — the uniform
        # packet model behind the paper's (2l+1)/2 overhead ratio.
        return 5 + len(self.ciphertext)


@dataclass(slots=True)
class AggregateMessage(Message):
    """An intermediate aggregation result travelling up a tree (Phase III).

    ``origins`` (loss-tolerant mode only) lists the aggregator ids whose
    shares the value includes.  End-to-end fail-over can deliver the
    same subtree twice along different paths; merge points drop any
    aggregate whose origins overlap what they already merged, making
    the convergecast duplicate-insensitive.  Carrying the ids costs 2
    bytes per origin — the classic reliability/compression trade-off of
    in-network aggregation; the empty default keeps fire-and-forget
    frames at the paper's fixed cost.
    """

    round_id: int = 0
    color: Optional[TreeColor] = None
    value: int = 0
    contributor_count: int = 0
    origins: Tuple[int, ...] = ()

    def payload_bytes(self) -> int:
        # round(2) + colour(1) + value(8) + count(2) + origin ids(2 each)
        return 13 + 2 * len(self.origins)


@dataclass(slots=True)
class AckMessage(Message):
    """Protocol-level acknowledgement (loss-tolerant mode only).

    Confirms receipt of a specific frame: ``ref`` is the acknowledged
    frame's ``frame_id`` (retransmissions reuse the frame, so one ack
    settles all attempts).  Link-layer ACKs are already folded into data
    frames; this is the *end-to-end* acknowledgement that survives a
    dead addressee — its absence is how a sender learns its counterpart
    crashed and fails over.
    """

    round_id: int = 0
    color: Optional[TreeColor] = None
    ref: int = 0

    PAYLOAD_BYTES = 7  # round(2) + colour(1) + ref(4)


def describe(message: Message) -> Tuple[str, int, int, int]:
    """Return ``(kind, src, dst, size)`` for compact logging."""
    return (message.kind, message.src, message.dst, message.size_bytes)
