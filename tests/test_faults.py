"""Tests for the fault-injection and graceful-degradation layer."""

from __future__ import annotations

import pytest

from repro.circuits import bnre_like
from repro.errors import FaultPlanError
from repro.events import Simulator
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkWindow,
    NodeStall,
    RecoveryPolicy,
)
from repro.harness.fingerprint import jsonify, stable_hash
from repro.netsim import MeshTopology, Message, WormholeNetwork
from repro.parallel import run_message_passing
from repro.updates import UpdateSchedule


def quick_run(**kwargs):
    circuit = bnre_like(n_wires=160)
    schedule = kwargs.pop(
        "schedule", UpdateSchedule.receiver_initiated(1, 5, blocking=True)
    )
    return run_message_passing(circuit, schedule, iterations=2, **kwargs)


class TestFaultPlanValidation:
    def test_default_plan_is_fault_free(self):
        plan = FaultPlan()
        assert not plan.has_packet_faults
        assert plan.recovery is not None  # recovery armed by default

    @pytest.mark.parametrize("field", ["drop_prob", "duplicate_prob", "delay_prob", "reorder_prob"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_bad_probability_rejected(self, field, value):
        with pytest.raises(FaultPlanError):
            FaultPlan(**{field: value})

    def test_bad_kind_probability_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(drop_prob_by_kind=(("RSP_RMT_DATA", 2.0),))

    def test_bad_window_rejected(self):
        with pytest.raises(FaultPlanError):
            LinkWindow(link=0, start_s=2.0, end_s=1.0)
        with pytest.raises(FaultPlanError):
            LinkWindow(link=0, start_s=0.0, end_s=1.0, slowdown=0.5)

    def test_bad_stall_rejected(self):
        with pytest.raises(FaultPlanError):
            NodeStall(proc=-1, start_s=0.0, end_s=1.0)

    def test_bad_recovery_rejected(self):
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(watchdog_timeout_s=0.0)
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(max_retries=-1)

    def test_kind_overrides_fall_back_to_global(self):
        plan = FaultPlan(drop_prob=0.1, drop_prob_by_kind=(("RSP_RMT_DATA", 0.9),))
        assert plan.kind_drop_prob("RSP_RMT_DATA") == 0.9
        assert plan.kind_drop_prob("REQ_RMT_DATA") == 0.1
        assert plan.kind_drop_prob(None) == 0.1


class TestInjectorDeterminism:
    def _decisions(self, seed, n=200):
        injector = FaultInjector(FaultPlan(seed=seed, drop_prob=0.3, duplicate_prob=0.2))
        msgs = [Message(0, 1, 10, None) for _ in range(n)]
        return [(d.drop, d.copies, d.extra_delay_s) for d in map(injector.on_send, msgs)]

    def test_same_seed_same_decisions(self):
        assert self._decisions(42) == self._decisions(42)

    def test_different_seed_different_decisions(self):
        assert self._decisions(1) != self._decisions(2)

    def test_stats_track_decisions(self):
        injector = FaultInjector(FaultPlan(seed=0, drop_prob=1.0))
        d = injector.on_send(Message(0, 1, 10, None))
        assert d.drop and d.copies == 0
        assert injector.stats.send_attempts == 1
        assert injector.stats.dropped == 1
        assert injector.stats.bytes_dropped == 10
        assert injector.stats.lossy


class TestNetworkFaultHooks:
    def _net(self, plan):
        sim = Simulator()
        deliveries = []
        net = WormholeNetwork(
            sim, MeshTopology(16), deliveries.append, faults=FaultInjector(plan)
        )
        return sim, net, deliveries

    def test_dropped_packet_never_enters_counters(self):
        sim, net, deliveries = self._net(FaultPlan(drop_prob=1.0))
        assert net.send(Message(0, 1, 10, "x")) is None
        sim.run()
        assert deliveries == []
        assert net.messages_injected == 0
        assert net.in_flight == 0
        assert float(net._link_busy_s.sum()) == 0.0

    def test_duplicate_transmits_two_copies(self):
        sim, net, deliveries = self._net(FaultPlan(duplicate_prob=1.0))
        net.send(Message(0, 1, 10, "x"))
        sim.run()
        assert len(deliveries) == 2
        assert net.messages_injected == net.messages_delivered == 2

    def test_outage_window_defers_train_start(self):
        # Link 0 is node 0's X link (route 0 -> 1); out for [0, 1ms).
        plan = FaultPlan(link_windows=(LinkWindow(link=0, start_s=0.0, end_s=1e-3),))
        sim, net, deliveries = self._net(plan)
        net.send(Message(0, 1, 10, "x"))
        sim.run()
        assert deliveries[0].arrive_time > 1e-3
        assert net.faults.stats.outage_deferrals == 1

    def test_slowdown_window_stretches_transfer(self):
        plan = FaultPlan(
            link_windows=(LinkWindow(link=0, start_s=0.0, end_s=1.0, slowdown=3.0),)
        )
        sim, net, deliveries = self._net(plan)
        net.send(Message(0, 1, 10, "x"))
        sim.run()
        base = net.uncontended_latency(0, 1, 10)
        assert deliveries[0].latency > base
        assert net.faults.stats.slowdown_hits == 1

    def test_node_stall_holds_delivery(self):
        plan = FaultPlan(node_stalls=(NodeStall(proc=1, start_s=0.0, end_s=5e-3),))
        sim, net, deliveries = self._net(plan)
        net.send(Message(0, 1, 10, "x"))
        sim.run()
        assert deliveries[0].arrive_time == pytest.approx(5e-3)
        assert net.faults.stats.deliveries_stalled == 1


class TestGracefulDegradation:
    def test_blocking_run_survives_total_response_loss(self):
        """100% RSP_RMT_DATA drop: the watchdog must prevent deadlock."""
        plan = FaultPlan(seed=3, drop_prob_by_kind=(("RSP_RMT_DATA", 1.0),))
        result = quick_run(faults=plan)
        # every wire routed, in bounded virtual time (each doomed request
        # costs at most 1+2+4+8 ms of watchdog waiting)
        assert len(result.paths) == 160
        assert result.exec_time_s < 30.0
        recovery = result.meta["faults"]["recovery"]
        assert recovery["requests_abandoned"] > 0
        assert recovery["retries_sent"] > 0
        injected = result.meta["faults"]["injected"]
        assert injected["dropped_by_kind"].get("RSP_RMT_DATA", 0) > 0

    def test_without_recovery_total_loss_deadlocks(self):
        """recovery=None really is the pre-watchdog behaviour."""
        from repro.errors import SimulationError

        plan = FaultPlan(
            seed=3, drop_prob_by_kind=(("RSP_RMT_DATA", 1.0),), recovery=None
        )
        with pytest.raises(SimulationError, match="deadlock"):
            quick_run(faults=plan)

    def test_duplicate_responses_are_ignored_not_fatal(self):
        """Satellite fix: duplicated responses must not crash the node."""
        plan = FaultPlan(seed=5, duplicate_prob_by_kind=(("RSP_RMT_DATA", 1.0),))
        result = quick_run(faults=plan)
        recovery = result.meta["faults"]["recovery"]
        assert recovery["duplicate_responses_ignored"] > 0
        assert len(result.paths) == 160

    def test_invariants_green_under_drop_and_duplication(self):
        plan = FaultPlan(seed=11, drop_prob=0.15, duplicate_prob=0.1)
        result = quick_run(faults=plan, check_invariants=True)
        verification = result.meta["verification"]
        assert verification["ok"], verification["violations"]
        # the replica check was waived visibly, not silently skipped
        assert verification["checks_run"].get("replica-convergence-waived", 0) > 0

    def test_faultfree_run_reports_no_faults(self):
        result = quick_run(faults=FaultPlan(seed=9))
        injected = result.meta["faults"]["injected"]
        assert injected["dropped"] == 0 and injected["duplicated"] == 0
        # No request is ever *abandoned* fault-free: the watchdog may fire
        # on slow (not lost) responses, but a response always lands within
        # the retry budget.
        recovery = result.meta["faults"]["recovery"]
        assert recovery["requests_abandoned"] == 0
        assert len(result.paths) == 160

    def test_fault_plan_none_leaves_meta_clean(self):
        result = quick_run()
        assert "faults" not in result.meta


class TestDeterministicFingerprints:
    def _fingerprint(self, seed):
        result = quick_run(faults=FaultPlan(seed=seed, drop_prob=0.2))
        return stable_hash(jsonify(result.summary_dict()))

    def test_same_fault_seed_identical_fingerprint(self):
        assert self._fingerprint(7) == self._fingerprint(7)

    def test_different_fault_seed_different_fingerprint(self):
        assert self._fingerprint(7) != self._fingerprint(8)


class TestCliFaultFlags:
    def test_quick_fault_smoke_exits_zero(self, capsys):
        from repro.cli import main

        rc = main(
            ["mp", "--quick", "--fault-drop", "0.2", "--check-invariants"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults:" in out and "recovery:" in out
        assert "0 violations" in out

    def test_fault_seed_changes_fault_stream(self, capsys):
        from repro.cli import main

        outputs = []
        for seed in ("1", "1", "2"):
            assert (
                main(
                    ["mp", "--quick", "--fault-drop", "0.3", "--fault-seed", seed, "--json"]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_fault_free_cli_has_no_fault_block(self, capsys):
        from repro.cli import main

        assert main(["mp", "--quick"]) == 0
        assert "faults:" not in capsys.readouterr().out
