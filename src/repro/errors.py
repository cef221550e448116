"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary without accidentally swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class TreeCountError(ConfigurationError, ValueError):
    """A tree palette was asked for a number of colours it cannot give.

    Also a :class:`ValueError`, which is what the palette raised before
    it joined this hierarchy.
    """


class TopologyError(ReproError):
    """A deployment or graph construction request cannot be satisfied."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class ProtocolError(SimulationError):
    """A protocol implementation observed a message or state it cannot handle."""


class CryptoError(ReproError):
    """Key lookup or encryption/decryption failed."""


class KeyNotFoundError(CryptoError):
    """No shared key exists for the requested link."""


class IntegrityError(ReproError):
    """An aggregation result failed the base station's integrity check."""


class AnalysisError(ReproError):
    """A closed-form analysis routine received out-of-domain parameters."""


class ServiceError(ReproError):
    """The long-running aggregation service was misused or failed."""


class ServiceOverloadError(ServiceError):
    """The admission queue is past its high-water mark: backpressure.

    Raised by :meth:`repro.serve.AggregationService.submit` instead of
    queueing — callers are expected to shed load or retry later, never
    to block behind an unbounded queue.
    """


class FleetError(ReproError):
    """The fleet work queue was misused or reached an invalid state."""


class QuarantineError(FleetError):
    """A sweep finished with quarantined cells instead of results.

    ``records`` carries one quarantine record per failed cell (digest,
    cell label, attempt count, and the captured error/traceback), so
    callers can render an explicit failure report instead of a
    traceback.
    """

    def __init__(self, message: str, records=()):
        super().__init__(message)
        self.records = list(records)
