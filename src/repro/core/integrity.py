"""Integrity verification at the base station (Phase III acceptance).

The base station accepts a round iff the two trees' results agree
within ``Th`` (Section III-D): ``|S_b - S_r| <= Th`` tolerates benign
wireless losses while any pollution on one tree drives the difference
far past it.  On persistent rejection (a DoS-style polluter), the base
station localises the malicious node by re-running the aggregation on
bisected participant subsets — "intelligently selecting a different
portion of the sensors to participate at each round" — which isolates a
single non-colluding polluter in O(log N) rounds.

Graceful degradation (robustness extension): the bare ``Th`` test
cannot tell a crashed aggregator from a polluting one — both unbalance
the trees.  But *loss* also removes slice pieces from exactly the tree
it damages, and piece counts are reported up the trees alongside the
sums, while *pollution* alters a sum without touching any count.  When
per-tree piece coverage is supplied, the checker scales its tolerance
by the *total* piece deficit across both trees (each missing piece can
shift the tree difference by at most ``piece_slack`` — and the two
trees lose independent pieces, so even count-symmetric loss moves the
sums apart) and classifies the round three ways:

* ``accepted`` — trees agree within ``Th``; report the average.
* ``degraded`` — disagreement is fully explained by the missing
  pieces; report the better-covered tree's sum as a partial estimate,
  with an explicit coverage fraction and confidence.
* ``rejected`` — disagreement exceeds what loss could cause (or the
  claimed loss itself is implausibly large): pollution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Set, Tuple

from ..errors import IntegrityError, ProtocolError
from .config import IpdaConfig

__all__ = [
    "VerificationResult",
    "DegradationPolicy",
    "IntegrityChecker",
    "PolluterLocalizer",
    "PolluterHunt",
    "bisect_polluter",
    "piece_slack",
    "verify_round",
]


@dataclass(frozen=True)
class DegradationPolicy:
    """How far benign loss may stretch the acceptance threshold.

    ``piece_slack`` bounds the damage of one lost slice piece (see
    :func:`piece_slack` for the default).
    ``max_missing_fraction`` caps how much of the two-tree
    piece population may be claimed missing before the round is
    rejected outright: an attacker faking a huge coverage gap to
    launder pollution as loss runs into this cap.
    """

    piece_slack: int
    max_missing_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.piece_slack < 0:
            raise ProtocolError("piece_slack must be >= 0")
        if not 0.0 < self.max_missing_fraction <= 1.0:
            raise ProtocolError("max_missing_fraction must be in (0, 1]")

    def effective_threshold(
        self,
        threshold: int,
        pieces_red: int,
        pieces_blue: int,
        expected_pieces: Optional[int],
    ) -> int:
        """Threshold scaled by the total observed piece deficit.

        Both trees lose pieces *independently*, so even a
        count-symmetric loss (k pieces gone on each side, different
        values) moves the sums apart by up to ``2k * piece_slack``;
        the stretch therefore counts every missing piece on either
        tree, not just the net count asymmetry.  Without an expected
        population only the asymmetry is observable and it degrades to
        that.
        """
        if expected_pieces is None or expected_pieces <= 0:
            missing = abs(int(pieces_red) - int(pieces_blue))
            return threshold + self.piece_slack * missing
        missing = max(expected_pieces - int(pieces_red), 0) + max(
            expected_pieces - int(pieces_blue), 0
        )
        if missing > self.max_missing_fraction * 2 * expected_pieces:
            return threshold  # too much claimed loss: do not stretch
        return threshold + self.piece_slack * missing


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of comparing the two trees' aggregates.

    The base fields implement the paper's bare threshold test; the
    optional piece-coverage fields (filled in loss-tolerant mode) add
    the degraded middle ground between accept and reject.
    """

    s_red: int
    s_blue: int
    threshold: int
    #: threshold after coverage scaling; None means no degradation
    #: context was available (legacy two-way accept/reject).
    effective_threshold: Optional[int] = None
    pieces_red: Optional[int] = None
    pieces_blue: Optional[int] = None
    expected_pieces: Optional[int] = None

    @property
    def difference(self) -> int:
        """``|S_b - S_r|``."""
        return abs(self.s_blue - self.s_red)

    @property
    def accepted(self) -> bool:
        """True when the difference is within the tolerance ``Th``."""
        return self.difference <= self.threshold

    @property
    def missing_pieces(self) -> int:
        """Total piece deficit across both trees (net asymmetry when the
        expected population is unknown — all that is observable then)."""
        if self.pieces_red is None or self.pieces_blue is None:
            return 0
        if self.expected_pieces:
            return max(self.expected_pieces - self.pieces_red, 0) + max(
                self.expected_pieces - self.pieces_blue, 0
            )
        return abs(self.pieces_red - self.pieces_blue)

    @property
    def degraded(self) -> bool:
        """Loss (not pollution) explains the disagreement."""
        if self.accepted or self.effective_threshold is None:
            return False
        return (
            self.effective_threshold > self.threshold
            and self.difference <= self.effective_threshold
        )

    @property
    def rejected(self) -> bool:
        """Neither acceptable nor explainable by reported loss."""
        return not self.accepted and not self.degraded

    @property
    def outcome(self) -> str:
        """``"accepted"``, ``"degraded"``, or ``"rejected"``."""
        if self.accepted:
            return "accepted"
        if self.degraded:
            return "degraded"
        return "rejected"

    @property
    def coverage(self) -> Optional[float]:
        """Worse tree's piece coverage against the expected population."""
        if (
            self.pieces_red is None
            or self.pieces_blue is None
            or not self.expected_pieces
        ):
            return None
        # Fail-over retransmissions can (rarely) double-deliver a
        # subtree, pushing a count past the expectation; clip.
        return min(
            1.0, min(self.pieces_red, self.pieces_blue) / self.expected_pieces
        )

    @property
    def confidence(self) -> float:
        """How much of the piece population backs the reported value.

        1.0 for a clean accept; shrinks with the coverage asymmetry the
        degraded estimate had to paper over; 0.0 on rejection.
        """
        if self.accepted:
            return 1.0
        if not self.degraded:
            return 0.0
        if not self.expected_pieces:
            return 0.5  # degraded with unknown population: low trust
        return max(
            0.0, 1.0 - self.missing_pieces / (2 * self.expected_pieces)
        )

    @property
    def accepted_value(self) -> int:
        """The value the base station reports when it accepts.

        The two trees may differ by a few units under loss; we follow
        the natural choice of averaging them (rounding toward red on
        ties keeps the result deterministic).
        """
        if not self.accepted:
            raise IntegrityError(
                f"result rejected: |{self.s_blue} - {self.s_red}| = "
                f"{self.difference} > Th = {self.threshold}"
            )
        return (self.s_red + self.s_blue) // 2

    @property
    def degraded_estimate(self) -> int:
        """Partial estimate on degradation: the better-covered tree.

        "Better" means *closest to the expected population*, not
        maximal: an end-to-end fail-over can double-deliver a subtree
        (ACK lost after delivery, resent via the backup parent), and an
        inflated count is no more trustworthy than a deficient one.
        With equal (or unknown) coverage the trees average, as in the
        accepted case.
        """
        if self.pieces_red is None or self.pieces_blue is None:
            return (self.s_red + self.s_blue) // 2
        if self.expected_pieces:
            gap_red = abs(self.pieces_red - self.expected_pieces)
            gap_blue = abs(self.pieces_blue - self.expected_pieces)
        else:
            gap_red, gap_blue = -self.pieces_red, -self.pieces_blue
        if gap_red < gap_blue:
            return self.s_red
        if gap_blue < gap_red:
            return self.s_blue
        return (self.s_red + self.s_blue) // 2

    @property
    def report_value(self) -> Optional[int]:
        """What the base station reports: full, partial, or nothing."""
        if self.accepted:
            return self.accepted_value
        if self.degraded:
            return self.degraded_estimate
        return None


class IntegrityChecker:
    """The base station's acceptance rule."""

    def __init__(self, threshold: int):
        if threshold < 0:
            raise ProtocolError("threshold must be >= 0")
        self.threshold = threshold
        self.history: List[VerificationResult] = []

    def verify(
        self,
        s_red: int,
        s_blue: int,
        *,
        pieces_red: Optional[int] = None,
        pieces_blue: Optional[int] = None,
        expected_pieces: Optional[int] = None,
        policy: Optional[DegradationPolicy] = None,
    ) -> VerificationResult:
        """Compare the two tree results; record and return the outcome.

        Without the keyword context this is the paper's bare two-way
        test.  With piece counts and a :class:`DegradationPolicy` the
        result also carries the loss-scaled ``effective_threshold``
        that enables the ``degraded`` outcome.
        """
        effective: Optional[int] = None
        if (
            policy is not None
            and pieces_red is not None
            and pieces_blue is not None
        ):
            effective = policy.effective_threshold(
                self.threshold, pieces_red, pieces_blue, expected_pieces
            )
        result = VerificationResult(
            s_red=int(s_red),
            s_blue=int(s_blue),
            threshold=self.threshold,
            effective_threshold=effective,
            pieces_red=pieces_red,
            pieces_blue=pieces_blue,
            expected_pieces=expected_pieces,
        )
        self.history.append(result)
        return result

    @property
    def rejection_streak(self) -> int:
        """Consecutive rejections at the end of the history.

        Degraded rounds break the streak: their disagreement is
        explained by reported loss, so they are no evidence of a
        polluter and must not trigger the bisection hunt.
        """
        streak = 0
        for result in reversed(self.history):
            if not result.rejected:
                break
            streak += 1
        return streak


def piece_slack(config: IpdaConfig, magnitude: int) -> int:
    """How far one lost slice piece can move a tree sum.

    ``config.robustness.piece_slack`` when set.  Otherwise: random
    pieces stay within ``+-magnitude`` but the final piece of an
    ``l``-cut reaches ``|reading| + (l-1) * magnitude <= (l - 1/2) *
    magnitude``, so the bound scales with ``l`` beyond 2.
    """
    robustness = config.robustness
    if robustness is not None and robustness.piece_slack is not None:
        return robustness.piece_slack
    return magnitude * max(2, config.slices)


def verify_round(
    config: IpdaConfig,
    magnitude: int,
    s_red: int,
    s_blue: int,
    pieces_red: int,
    pieces_blue: int,
    participants: int,
) -> VerificationResult:
    """The base station's verdict on one round's two tree sums.

    The paper's bare two-way test, or — with ``config.robustness`` set
    and degradation enabled — the three-way verdict whose threshold the
    per-tree piece counts scale against the expected population of
    ``participants * l`` pieces.  The lossless pipeline, the one-shot
    radio round and standing epochs all judge their rounds here.
    """
    checker = IntegrityChecker(config.threshold)
    robustness = config.robustness
    if robustness is None or not robustness.degradation:
        return checker.verify(s_red, s_blue)
    return checker.verify(
        s_red,
        s_blue,
        pieces_red=pieces_red,
        pieces_blue=pieces_blue,
        expected_pieces=participants * config.slices,
        policy=DegradationPolicy(
            piece_slack=piece_slack(config, magnitude),
            max_missing_fraction=robustness.max_missing_fraction,
        ),
    )


class PolluterLocalizer:
    """Bisection search for a single non-colluding polluter.

    Usage: repeatedly take :meth:`next_probe` (the subset of suspects to
    include in the next aggregation round), run the round with only
    those suspects participating, and feed whether the round was
    polluted (rejected) back via :meth:`report`.  When
    :attr:`localized` returns a node id, the polluter is found;
    :attr:`rounds_used` is guaranteed O(log2 N).
    """

    def __init__(self, suspects: Iterable[int]):
        self._suspects: Set[int] = set(suspects)
        if not self._suspects:
            raise ProtocolError("localizer needs at least one suspect")
        self._probe: Optional[Set[int]] = None
        self.rounds_used = 0

    @property
    def suspects(self) -> Set[int]:
        """Current candidate set."""
        return set(self._suspects)

    @property
    def localized(self) -> Optional[int]:
        """The polluter's id once the candidate set is a singleton."""
        if len(self._suspects) == 1:
            return next(iter(self._suspects))
        return None

    def next_probe(self) -> Set[int]:
        """Return the half of the suspect set to include next round."""
        if self.localized is not None:
            raise ProtocolError("polluter already localized")
        if self._probe is not None:
            raise ProtocolError("previous probe not yet reported")
        ordered = sorted(self._suspects)
        self._probe = set(ordered[: len(ordered) // 2])
        return set(self._probe)

    def report(self, polluted: bool) -> None:
        """Record whether the probe round was polluted (rejected)."""
        if self._probe is None:
            raise ProtocolError("no probe outstanding")
        if polluted:
            self._suspects = set(self._probe)
        else:
            self._suspects -= self._probe
        self._probe = None
        self.rounds_used += 1
        if not self._suspects:
            raise IntegrityError(
                "suspect set emptied: pollution reports were inconsistent "
                "(colluding or intermittent attacker?)"
            )

    def run(self, probe_is_polluted) -> int:
        """Drive the whole search with a callback; returns the polluter.

        ``probe_is_polluted(subset) -> bool`` must run an aggregation
        round restricted to ``subset`` plus the honest rest and report
        whether the base station rejected it.
        """
        while self.localized is None:
            probe = self.next_probe()
            self.report(bool(probe_is_polluted(probe)))
        return self.localized


def bisect_polluter(
    suspects: Iterable[int],
    population: Iterable[int],
    run: Callable[[Set[int]], object],
) -> Tuple[int, int]:
    """Isolate a persistent polluter among ``suspects`` by bisection.

    ``run(contributors)`` runs one round in which exactly
    ``contributors`` inject readings and returns its outcome (anything
    with a ``verification``).  Each probe lets the honest rest of
    ``population`` contribute plus the probed half of the suspects.  Only a *rejected* probe
    counts against its half: a degraded round is explained by loss and
    is no evidence of pollution.  Returns ``(polluter, probe rounds)``.
    """
    suspects = set(suspects)
    honest = set(population) - suspects
    localizer = PolluterLocalizer(suspects)
    culprit = localizer.run(
        lambda probe: run(honest | probe).verification.rejected
    )
    return culprit, localizer.rounds_used


class PolluterHunt:
    """Detect → bisect → exclude: one policy for every iPDA service.

    A service runs each round with :meth:`eligible` contributors and
    hands the verdict to :meth:`observe`.  ``hunt_after`` consecutive
    rejections — a degraded round breaks the streak — trigger
    :func:`bisect_polluter` over the service's suspects, and the
    culprit is excluded from every later round.
    """

    def __init__(self, hunt_after: int = 2):
        if hunt_after < 1:
            raise ProtocolError("hunt_after must be >= 1")
        self.hunt_after = hunt_after
        self.excluded: Set[int] = set()
        self._rejection_streak = 0

    def eligible(
        self,
        readings: Mapping[int, int],
        contributors: Optional[Set[int]] = None,
    ) -> Set[int]:
        """Who may contribute: not excluded, and within ``contributors``."""
        eligible = set(readings) - self.excluded
        if contributors is not None:
            eligible &= contributors
        return eligible

    def observe(
        self,
        verification: VerificationResult,
        readings: Mapping[int, int],
        suspects: Callable[[], Set[int]],
        run: Callable[[Set[int]], object],
    ) -> Optional[Tuple[int, int]]:
        """Count a served round's verdict; hunt when the streak is due.

        ``suspects()`` names the nodes that could be polluting and
        ``run(contributors)`` runs one round with exactly those
        contributors.  Returns ``(culprit, probe rounds)`` when a hunt
        ran and excluded its culprit, else None.
        """
        if not verification.rejected:
            self._rejection_streak = 0
            return None
        self._rejection_streak += 1
        if self._rejection_streak < self.hunt_after:
            return None
        pool = suspects() - self.excluded
        if not pool:
            raise ProtocolError("nothing to hunt: no suspects left")
        culprit, rounds = bisect_polluter(
            pool,
            readings,
            lambda contributors: run(self.eligible(readings, contributors)),
        )
        self.excluded.add(culprit)
        self._rejection_streak = 0
        return culprit, rounds
