"""Service core: admission, backpressure, deadlines, dispatch, faults.

Uses small deployments (40 nodes) so every test stays in the
sub-second range; the 200-node paper deployment is exercised by the
bench tests and CI smoke.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    ServiceError,
    ServiceOverloadError,
)
from repro.obs import MetricsRegistry, using_registry
from repro.serve import (
    AggregationQuery,
    FleetConfig,
    ServiceConfig,
    ServiceCore,
    parse_fault_spec,
)

SMALL = FleetConfig(node_count=40, seed=11)


@pytest.fixture(scope="module")
def started_core():
    """One started service shared by read-only admission tests."""
    core = ServiceCore(
        config=ServiceConfig(capacity=4, max_batch=8),
        fleet_config=SMALL,
    )
    core.start()
    return core


def _drain(core, now=1.0):
    while core.queue_depth:
        core.dispatch(now=now)
        now += core.config.epoch_seconds


class TestAdmission:
    def test_submit_before_start_fails(self):
        core = ServiceCore(fleet_config=SMALL)
        with pytest.raises(ServiceError, match="not started"):
            core.submit(AggregationQuery("sum"), now=0.0)

    def test_backpressure_rejects_past_high_water_mark(self, started_core):
        _drain(started_core)
        for _ in range(4):
            started_core.submit(AggregationQuery("sum"), now=0.0)
        # the queue is at capacity: the fifth submission must be
        # rejected immediately — never queued, never blocked
        with pytest.raises(ServiceOverloadError, match="queue full"):
            started_core.submit(AggregationQuery("sum"), now=0.0)
        assert started_core.queue_depth == 4
        _drain(started_core)

    def test_rejected_submission_frees_no_slot(self, started_core):
        _drain(started_core)
        for _ in range(4):
            started_core.submit(AggregationQuery("sum"), now=0.0)
        for _ in range(3):
            with pytest.raises(ServiceOverloadError):
                started_core.submit(AggregationQuery("sum"), now=0.0)
        assert started_core.queue_depth == 4
        # a dispatch cycle drains the queue and reopens admission
        started_core.dispatch(now=1.0)
        started_core.submit(AggregationQuery("sum"), now=1.1)
        _drain(started_core, now=2.0)

    def test_overload_is_counted(self):
        registry = MetricsRegistry()
        core = ServiceCore(
            config=ServiceConfig(capacity=1), fleet_config=SMALL
        )
        with using_registry(registry):
            core.start()
            core.submit(AggregationQuery("sum"), now=0.0)
            with pytest.raises(ServiceOverloadError):
                core.submit(AggregationQuery("sum"), now=0.0)
        counters = registry.snapshot()["counters"]
        assert counters["serve.submitted"] == 2
        assert counters["serve.admitted"] == 1
        assert counters["serve.rejected_overload"] == 1


class TestDispatch:
    def test_batch_shares_one_epoch(self, started_core):
        _drain(started_core)
        tickets = [
            started_core.submit(AggregationQuery(kind), now=0.0)
            for kind in ("sum", "avg", "count")
        ]
        done = started_core.dispatch(now=0.5)
        assert {t.query_id for t in done} == {
            t.query_id for t in tickets
        }
        epochs = {t.result.epoch for t in done}
        assert len(epochs) == 1  # one pipelined epoch served all three
        total = next(t.result for t in done if t.result.kind == "sum")
        count = next(t.result for t in done if t.result.kind == "count")
        avg = next(t.result for t in done if t.result.kind == "avg")
        assert avg.value == pytest.approx(total.value / count.value)
        for ticket in done:
            assert ticket.result.verdict == "accepted"
            assert ticket.result.started_at == 0.5
            assert ticket.result.latency == pytest.approx(
                0.5 + started_core.config.epoch_seconds
            )

    def test_deadline_expires_in_queue(self, started_core):
        _drain(started_core)
        ticket = started_core.submit(
            AggregationQuery("sum", deadline_seconds=0.2), now=0.0
        )
        fresh = started_core.submit(AggregationQuery("sum"), now=0.0)
        done = started_core.dispatch(now=1.0)
        by_id = {t.query_id: t.result for t in done}
        assert by_id[ticket.query_id].verdict == "expired"
        assert by_id[ticket.query_id].value is None
        assert by_id[ticket.query_id].epoch is None
        assert by_id[fresh.query_id].verdict == "accepted"

    def test_idle_dispatch_is_free(self, started_core):
        _drain(started_core)
        before = started_core.fleet.epoch
        assert started_core.dispatch(now=100.0) == []
        assert started_core.fleet.epoch == before

    def test_max_batch_leaves_excess_queued(self):
        core = ServiceCore(
            config=ServiceConfig(capacity=8, max_batch=2),
            fleet_config=SMALL,
        )
        core.start()
        for _ in range(5):
            core.submit(AggregationQuery("count"), now=0.0)
        done = core.dispatch(now=0.5)
        assert len(done) == 2
        assert core.queue_depth == 3
        _drain(core)

    def test_mixed_lanes_in_one_cycle(self, started_core):
        _drain(started_core)
        specs = [
            ("sum", "ipda"), ("sum", "tag"),
            ("max", "kipda"), ("min", "kipda"),
        ]
        tickets = [
            started_core.submit(
                AggregationQuery(kind, protocol=protocol), now=0.0
            )
            for kind, protocol in specs
        ]
        done = started_core.dispatch(now=0.5)
        assert len(done) == len(tickets)
        by_id = {t.query_id: t.result for t in done}
        for ticket, (kind, protocol) in zip(tickets, specs):
            result = by_id[ticket.query_id]
            assert result.protocol == protocol
            assert result.ok
            assert result.value is not None


class TestFaultsUnderTraffic:
    def test_crash_schedule_applies_at_cycle_boundary(self):
        registry = MetricsRegistry()
        core = ServiceCore(
            config=ServiceConfig(capacity=16),
            fleet_config=SMALL,
            faults=parse_fault_spec("crash=2@1+2"),
        )
        with using_registry(registry):
            core.start()
            results = []
            for epoch in range(4):
                core.submit(AggregationQuery("count"), now=float(epoch))
                done = core.dispatch(now=float(epoch))
                results.extend(t.result for t in done)
        counters = registry.snapshot()["counters"]
        assert counters["serve.faults.crashes"] == 2
        assert counters["serve.faults.recoveries"] == 2
        # epoch 0 ran pre-crash on the full deployment; epochs 1-2 ran
        # with two dead sensors; epoch 3 after recovery
        assert results[0].detail["participants"] >= results[1].detail[
            "participants"
        ]

    def test_availability_positive_under_faults(self):
        core = ServiceCore(
            config=ServiceConfig(capacity=64),
            fleet_config=SMALL,
            faults=parse_fault_spec("crash=2@2,loss=light@2"),
        )
        core.start()
        results = []
        for epoch in range(5):
            for _ in range(3):
                core.submit(AggregationQuery("sum"), now=float(epoch))
            results.extend(
                t.result for t in core.dispatch(now=float(epoch))
            )
        ok = [r for r in results if r.ok]
        assert results, "service must keep answering under faults"
        # the pre-fault epochs guarantee usable answers even if every
        # post-fault epoch is rejected by the integrity check
        assert len(ok) > 0


class TestFaultSpecParsing:
    def test_full_spec(self):
        schedule = parse_fault_spec("crash=2@3+4,loss=light@1")
        assert schedule.crashes[0].count == 2
        assert schedule.crashes[0].epoch == 3
        assert schedule.crashes[0].recover_after == 4
        assert schedule.loss_level == "light"
        assert schedule.loss_epoch == 1

    def test_loss_without_epoch_defaults_to_zero(self):
        schedule = parse_fault_spec("loss=heavy")
        assert schedule.loss_level == "heavy"
        assert schedule.loss_epoch == 0

    @pytest.mark.parametrize(
        "spec",
        ["crash", "crash=x@1", "loss=total", "burn=1@2", "crash=1@b"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)

    @pytest.mark.parametrize(
        "spec, problem",
        [
            ("crash=-1@1", "crash count"),
            ("crash=2@-3", "crash epoch"),
            ("loss=light@-2", "loss epoch"),
            ("crash=2@3+0", "revival"),
            ("crash=2@3+-1", "revival"),
        ],
    )
    def test_out_of_range_values_rejected(self, spec, problem):
        # Before validation a negative count died mid-run inside numpy,
        # a negative epoch never fired, and "+0" revived one epoch late
        # exactly like "+1".
        with pytest.raises(ConfigurationError, match=problem):
            parse_fault_spec(spec)

    def test_repeated_loss_clause_rejected(self):
        # A schedule holds one loss level; the second clause used to
        # replace the first silently.
        with pytest.raises(ConfigurationError, match="loss=heavy@2"):
            parse_fault_spec("loss=light@1,loss=heavy@2")

    def test_boundary_values_accepted(self):
        schedule = parse_fault_spec("crash=0@0+1,loss=light@0")
        assert schedule.crashes[0].count == 0
        assert schedule.crashes[0].epoch == 0
        assert schedule.crashes[0].recover_after == 1
        assert schedule.loss_epoch == 0

    def test_schedule_validates_without_the_parser(self):
        from repro.serve import ServiceFaultSchedule

        with pytest.raises(ConfigurationError, match="loss epoch"):
            ServiceFaultSchedule(loss_level="light", loss_epoch=-1)

    def test_revival_one_epoch_after_the_crash(self):
        core = ServiceCore(
            config=ServiceConfig(capacity=16),
            fleet_config=SMALL,
            faults=parse_fault_spec("crash=2@1+1"),
        )
        core.start()
        down = []
        for epoch in range(3):
            core.submit(AggregationQuery("count"), now=float(epoch))
            core.dispatch(now=float(epoch))
            down.append(len(core.fleet.session.network.down))
        # crashed at the start of epoch 1, revived at the start of 2
        assert down == [0, 2, 0]


class TestConfigValidation:
    def test_service_config_bounds(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(capacity=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(epoch_seconds=0.0)

    def test_fleet_config_bounds(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(node_count=1)

    def test_core_rejects_conflicting_fleet_arguments(self):
        from repro.serve import ServiceFleet

        fleet = ServiceFleet(SMALL)
        with pytest.raises(ConfigurationError, match="not both"):
            ServiceCore(fleet, fleet_config=SMALL)

    def test_double_start_fails(self):
        core = ServiceCore(fleet_config=SMALL)
        core.start()
        with pytest.raises(ServiceError, match="already started"):
            core.start()
