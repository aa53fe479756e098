"""Unit tests for the trace-event and metrics primitives."""

import pytest

from repro.obs import EVENT_KINDS, MetricsRegistry, TimerStat, TraceEvent


class TestTraceEvent:
    def test_kinds_cover_the_documented_set(self):
        assert EVENT_KINDS == {
            "iteration",
            "scheme_fired",
            "rollback",
            "mode_switch",
            "reconfig_charge",
            "convergence_handover",
            "lut_refresh",
            "program_capture",
            "program_bailout",
            "program_fallback",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            TraceEvent(kind="explosion", iteration=0)

    def test_dict_round_trip(self):
        event = TraceEvent(
            kind="rollback", iteration=7, mode="level2", detail={"next_mode": "level3"}
        )
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_minimal_dict_round_trip(self):
        event = TraceEvent(kind="iteration", iteration=0)
        payload = event.to_dict()
        assert "mode" not in payload and "detail" not in payload
        assert TraceEvent.from_dict(payload) == event

    def test_from_dict_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            TraceEvent.from_dict({"kind": "iteration"})
        with pytest.raises(ValueError, match="missing field"):
            TraceEvent.from_dict({"iteration": 3})

    def test_events_are_frozen(self):
        event = TraceEvent(kind="iteration", iteration=0)
        with pytest.raises(AttributeError):
            event.kind = "rollback"


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("adds.level1")
        m.inc("adds.level1", 41)
        assert m.counters["adds.level1"] == 42

    def test_gauges_keep_last_value(self):
        m = MetricsRegistry()
        m.gauge("pid.level", 1)
        m.gauge("pid.level", 3)
        assert m.gauges["pid.level"] == 3.0

    def test_timer_context_manager_records(self):
        m = MetricsRegistry()
        with m.time("direction"):
            pass
        with m.time("direction"):
            pass
        stat = m.timers["direction"]
        assert stat.count == 2
        assert stat.total >= 0.0
        assert stat.mean == pytest.approx(stat.total / 2)

    def test_timer_mean_before_any_observation(self):
        assert TimerStat().mean == 0.0

    def test_timer_records_even_when_body_raises(self):
        m = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with m.time("update"):
                raise RuntimeError("boom")
        assert m.timers["update"].count == 1

    def test_merge_is_associative_join(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("energy.acc", 10.0)
        b.inc("energy.acc", 5.0)
        b.inc("energy.level1", 1.0)
        a.gauge("pid.level", 1)
        b.gauge("pid.level", 4)
        a.observe_time("direction", 1.0)
        b.observe_time("direction", 3.0)
        a.merge(b)
        assert a.counters == {"energy.acc": 15.0, "energy.level1": 1.0}
        assert a.gauges == {"pid.level": 4.0}  # last writer wins
        assert a.timers["direction"] == TimerStat(total=4.0, count=2)

    def test_dict_round_trip(self):
        m = MetricsRegistry()
        m.inc("adds.acc", 100)
        m.gauge("pid.normalized", 0.5)
        m.observe_time("objective", 0.25)
        rebuilt = MetricsRegistry.from_dict(m.to_dict())
        assert rebuilt.counters == m.counters
        assert rebuilt.gauges == m.gauges
        assert rebuilt.timers == m.timers
