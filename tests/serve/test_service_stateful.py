"""Stateful property test: the service core's admission accounting.

A hypothesis state machine drives one :class:`ServiceCore` over a
40-node robust fleet (with a crash and a burst-loss schedule, so epochs
also come back degraded): it submits queries of every kind and lane
with a drawn deadline, lets service time pass so deadlines lapse, and
dispatches on the 0.5 s grid.  A plain FIFO model predicts which
tickets each dispatch drains and which of them expire.  After every
step, read from the registry counters and the tickets:

* offered = admitted + ``rejected_overload``;
* admitted = completed + expired + ``queue_depth``;
* no ticket is answered twice, and an answer never changes once given;
* a submit at capacity raises :class:`ServiceOverloadError` at once and
  queues nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ServiceOverloadError
from repro.obs import MetricsRegistry, using_registry
from repro.serve import (
    AggregationQuery,
    FleetConfig,
    ServiceConfig,
    ServiceCore,
    Ticket,
    parse_fault_spec,
)
from repro.serve.query import KINDS_BY_PROTOCOL, VERDICTS

FLEET = FleetConfig(node_count=40, seed=11, robust=True)
FAULTS = "crash=2@1+2,loss=light@2"
#: small enough that drawn submits reach the high-water mark and a
#: dispatch leaves queries behind
CONFIG = ServiceConfig(capacity=4, max_batch=3, epoch_seconds=0.5)

QUERIES = st.sampled_from(
    [
        (kind, protocol)
        for protocol in sorted(KINDS_BY_PROTOCOL)
        for kind in sorted(KINDS_BY_PROTOCOL[protocol])
    ]
)
DEADLINES = st.sampled_from([None, 0.2, 0.5, 1.0, 2.5])
#: service-time steps: off the grid, on it, and past several epochs
LAPSES = st.sampled_from([0.1, 0.25, 0.5, 1.3, 3.0])


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.registry = MetricsRegistry()
        self.core = ServiceCore(
            config=CONFIG,
            fleet_config=FLEET,
            faults=parse_fault_spec(FAULTS),
        )
        with using_registry(self.registry):
            self.core.start()
        self.now = 0.0
        #: the model: admitted tickets not yet drained, in FIFO order
        self.queue: Deque[Ticket] = deque()
        #: query id -> the result object its ticket was answered with
        self.answers: Dict[int, object] = {}
        self.tickets: List[Ticket] = []
        self.offered = 0

    def _counter(self, name: str) -> float:
        return self.registry.counters.get(name, 0)

    # -- operations ----------------------------------------------------
    @rule(query=QUERIES, deadline=DEADLINES)
    def submit(self, query, deadline):
        kind, protocol = query
        request = AggregationQuery(
            kind, protocol=protocol, deadline_seconds=deadline
        )
        full = len(self.queue) >= CONFIG.capacity
        self.offered += 1
        with using_registry(self.registry):
            if full:
                try:
                    self.core.submit(request, now=self.now)
                except ServiceOverloadError:
                    pass
                else:
                    raise AssertionError("a submit at capacity was queued")
                assert self.core.queue_depth == CONFIG.capacity
                return
            ticket = self.core.submit(request, now=self.now)
        assert ticket.result is None
        assert ticket.submitted_at == self.now
        assert ticket.deadline == deadline
        self.queue.append(ticket)
        self.tickets.append(ticket)

    @rule(seconds=LAPSES)
    def lapse(self, seconds):
        self.now += seconds

    @rule()
    def dispatch(self):
        grid = CONFIG.epoch_seconds
        self.now = (int(self.now / grid + 1e-9) + 1) * grid
        drained, expired, batch = [], set(), 0
        while self.queue and batch < CONFIG.max_batch:
            ticket = self.queue.popleft()
            drained.append(ticket.query_id)
            if (
                ticket.deadline is not None
                and self.now - ticket.submitted_at > ticket.deadline
            ):
                expired.add(ticket.query_id)
            else:
                batch += 1
        with using_registry(self.registry):
            done = self.core.dispatch(now=self.now)
        assert sorted(t.query_id for t in done) == sorted(drained)
        for ticket in done:
            assert ticket.query_id not in self.answers, "answered twice"
            result = ticket.result
            assert result is not None
            assert result.query_id == ticket.query_id
            assert result.verdict in VERDICTS
            assert (result.verdict == "expired") == (
                ticket.query_id in expired
            )
            self.answers[ticket.query_id] = result

    # -- invariants ----------------------------------------------------
    @invariant()
    def offered_is_admitted_plus_rejected(self):
        assert self._counter("serve.submitted") == self.offered
        assert self._counter("serve.submitted") == self._counter(
            "serve.admitted"
        ) + self._counter("serve.rejected_overload")

    @invariant()
    def admitted_is_answered_plus_queued(self):
        depth = self.core.queue_depth
        assert depth == len(self.queue) <= CONFIG.capacity
        assert self.registry.gauges.get("serve.queue_depth", 0) == depth
        assert self._counter("serve.admitted") == (
            self._counter("serve.completed")
            + self._counter("serve.expired")
            + depth
        )

    @invariant()
    def each_ticket_is_answered_once(self):
        assert len(self.answers) == self._counter(
            "serve.completed"
        ) + self._counter("serve.expired")
        queued = {ticket.query_id for ticket in self.queue}
        for ticket in self.tickets:
            if ticket.query_id in queued:
                assert ticket.result is None
            else:
                assert ticket.result is self.answers[ticket.query_id]


ServiceMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestServiceStateMachine = ServiceMachine.TestCase
