"""Transient read failures: the bounded ECC retry loop on the device."""

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.faults import FaultPlan, replay_with_faults, stats_digest
from repro.sim import EventKind, Host
from repro.trace import Op, Request, SECTOR, Trace


def _trace(num=60, writes_every=3):
    return Trace(
        "faulty",
        [
            Request(
                arrival_us=i * 50.0,
                lba=(i % 64) * SECTOR,
                size=SECTOR,
                op=Op.WRITE if i % writes_every == 0 else Op.READ,
            )
            for i in range(num)
        ],
    )


class TestEccRetries:
    def test_moderate_rate_corrects_reads(self):
        plan = FaultPlan(seed=7, read_error_rate=0.3, read_retry_limit=3)
        result = replay_with_faults(small_four_ps(), _trace(), plan)
        stats = result.stats
        assert stats.read_retries > 0
        assert stats.corrected_reads > 0
        assert stats.uncorrectable_reads == 0  # 0.3^4 over ~40 reads: none expected
        assert len(result.trace) == 60  # every request still served

    def test_retry_exhaustion_declares_uncorrectable(self):
        plan = FaultPlan(seed=7, read_error_rate=0.95, read_retry_limit=1)
        result = replay_with_faults(small_four_ps(), _trace(), plan)
        stats = result.stats
        assert stats.uncorrectable_reads > 0
        # An uncorrectable read burns exactly retry_limit retries.
        assert stats.read_retries >= stats.uncorrectable_reads * plan.read_retry_limit
        assert len(result.trace) == 60  # uncorrectable is reported, not fatal

    def test_zero_retry_limit_fails_immediately(self):
        plan = FaultPlan(seed=3, read_error_rate=0.5, read_retry_limit=0)
        result = replay_with_faults(small_four_ps(), _trace(), plan)
        assert result.stats.read_retries == 0
        assert result.stats.uncorrectable_reads > 0

    def test_retries_slow_the_replay(self):
        base = replay_with_faults(small_four_ps(), _trace(), FaultPlan.none())
        slow = replay_with_faults(
            small_four_ps(),
            _trace(),
            FaultPlan(seed=7, read_error_rate=0.4, read_retry_backoff_us=500.0),
        )
        assert slow.stats.read_retry_backoff_us > 0
        assert slow.trace.end_us > base.trace.end_us

    def test_retry_events_visible_in_kernel_trace(self):
        plan = FaultPlan(seed=7, read_error_rate=0.4, read_retry_limit=3)
        result = replay_with_faults(
            small_four_ps(), _trace(), plan, record_events=True
        )
        assert result.stats.read_retries > 0
        retry_events = [
            e for e in result.events if e[3] == EventKind.FAULT_RETRY.name
        ]
        assert len(retry_events) == result.stats.read_retries
        assert all(e[4].startswith("ecc-retry-") for e in retry_events)

    def test_fault_counters_deterministic(self):
        plan = FaultPlan(seed=21, read_error_rate=0.3)
        a = replay_with_faults(small_four_ps(), _trace(), plan)
        b = replay_with_faults(small_four_ps(), _trace(), plan)
        assert stats_digest(a.stats) == stats_digest(b.stats)
        assert list(a.trace) == list(b.trace)


class TestRecordedEvents:
    def test_power_loss_returns_post_recovery_events_only(self):
        plan = FaultPlan(seed=7, read_error_rate=0.2, power_loss_at_event=20)
        result = replay_with_faults(
            small_four_ps(), _trace(), plan, record_events=True
        )
        assert result.interrupted
        assert result.events
        assert all(e[0] >= result.recovery.resumed_us for e in result.events)
        # Only the re-armed requests arrive after the cut.
        arrivals = [e for e in result.events if e[3] == EventKind.ARRIVAL.name]
        assert len(arrivals) == result.resubmitted


class TestInertPlan:
    def test_none_plan_is_structurally_dropped(self):
        device = EmmcDevice(small_four_ps(), faults=FaultPlan.none())
        assert device.faults is None  # no injector, no branch anywhere

    def test_none_plan_replay_bit_identical_to_plain(self):
        faulted = replay_with_faults(small_four_ps(), _trace(), FaultPlan.none())
        plain = Host(EmmcDevice(small_four_ps())).replay(_trace().without_timing())
        assert stats_digest(faulted.stats) == stats_digest(plain.stats)
        assert list(faulted.trace) == list(plain.trace)

    def test_fault_events_property_sums_counters(self):
        plan = FaultPlan(seed=7, read_error_rate=0.5, read_retry_limit=1)
        stats = replay_with_faults(small_four_ps(), _trace(), plan).stats
        assert stats.fault_events == (
            stats.corrected_reads
            + stats.uncorrectable_reads
            + stats.program_failures
            + stats.erase_failures
        )
        assert stats.fault_events > 0


class TestConfigGuards:
    def test_program_faults_require_page_mapping(self):
        from dataclasses import replace

        config = replace(small_four_ps(), mapping_scheme="hybrid-log")
        with pytest.raises(ValueError, match="page mapping"):
            EmmcDevice(config, faults=FaultPlan(seed=1, program_error_rate=0.1))

    def test_read_faults_allowed_on_any_scheme(self):
        from dataclasses import replace

        config = replace(small_four_ps(), mapping_scheme="hybrid-log")
        device = EmmcDevice(config, faults=FaultPlan(seed=1, read_error_rate=0.1))
        assert device.faults is not None
