"""The control plane: signals, adaptive admission, the controller's
severity loop, and byte parity with the controller on."""

import json

import pytest

from repro.cluster import ClusterSpec, PolicySpec
from repro.cluster.admission import DeadlineShed, make_admission
from repro.cluster.workload import churn_script, drive_monitor, trail_mismatches
from repro.control.controller import Controller, ControlPolicy
from repro.control.policies import AdaptiveAdmission
from repro.control.signals import (
    LatencySeries,
    SignalBus,
    SignalWindow,
    nearest_rank,
)
from repro.promises.spec import ShortestRoute
from repro.pvr.scenarios import serve_network

SEED = 2011
PREFIX_COUNT = 3


# ---------------------------------------------------------------------------
# signal primitives


class TestNearestRank:
    def test_empty_is_none(self):
        assert nearest_rank([], 50) is None

    def test_single_sample(self):
        assert nearest_rank([7.0], 1) == 7.0
        assert nearest_rank([7.0], 100) == 7.0

    def test_known_ranks(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(ordered, 25) == 1.0
        assert nearest_rank(ordered, 50) == 2.0
        assert nearest_rank(ordered, 75) == 3.0
        assert nearest_rank(ordered, 99) == 4.0

    @pytest.mark.parametrize("p", [0, -1, 101])
    def test_percentile_domain(self, p):
        with pytest.raises(ValueError):
            nearest_rank([1.0], p)

    def test_all_percentiles_route_through_one_implementation(self):
        """Satellite: no duplicated nearest-rank code — the one metrics
        ledger and the load generator use the exact class from
        repro.control.signals."""
        from repro.cluster import metrics as cluster_metrics
        from repro.serve import loadgen

        assert loadgen.LatencySeries is LatencySeries
        assert cluster_metrics.LatencySeries is LatencySeries


class TestSignalWindow:
    def test_ring_evicts_oldest(self):
        window = SignalWindow(capacity=4)
        for value in range(6):
            window.observe(value)
        assert len(window) == 4
        assert window.values() == [2.0, 3.0, 4.0, 5.0]
        assert window.last() == 5.0
        assert window.observed == 6

    def test_percentile_over_current_contents_only(self):
        window = SignalWindow(capacity=3)
        for value in (100.0, 1.0, 2.0, 3.0):
            window.observe(value)
        # the 100.0 fell off: p99 sees only the last three
        assert window.percentile(99) == 3.0
        assert window.mean() == 2.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SignalWindow(capacity=0)


class TestSignalBus:
    def test_well_known_feeders(self):
        bus = SignalBus(window=8)
        bus.observe_epoch_wall(0.5)
        bus.observe("worker/1/epoch_wall", 0.25)
        bus.observe_queue_depth(4, 16)
        assert bus.names() == [
            "epoch_wall",
            "queue_fraction",
            "worker/1/epoch_wall",
        ]
        assert bus.last("queue_fraction") == 0.25

    def test_snapshot_is_json_serializable(self):
        bus = SignalBus(window=4)
        bus.observe_epoch_wall(0.1)
        snapshot = bus.snapshot()
        assert snapshot["schema"] == "repro.control/signals"
        assert snapshot["schema_version"] == 1
        json.dumps(snapshot)

    def test_unknown_signal_percentile_is_none(self):
        assert SignalBus().percentile("nope", 50) is None


# ---------------------------------------------------------------------------
# adaptive admission


class TestAdaptiveAdmission:
    def test_protected_kinds_never_shed(self):
        policy = AdaptiveAdmission(seed=SEED)
        policy.update_signals(severity=1.0)
        for kind in ("churn", "adjudicate"):
            assert policy.at_door(kind, 0, 8)
            assert policy.at_dispatch(kind, waited=999.0)
        # the protection is structural, not a tuning artifact
        assert "churn" not in AdaptiveAdmission.SHEDDABLE
        assert "adjudicate" not in AdaptiveAdmission.SHEDDABLE

    def test_shed_pattern_is_deterministic_given_seed(self):
        def pattern(seed):
            policy = AdaptiveAdmission(seed=seed)
            policy.update_signals(severity=0.5)
            return [policy.at_door("query", 0, 64) for _ in range(200)]

        first, again = pattern(7), pattern(7)
        assert first == again
        assert any(first), "severity 0.5 shed every query"
        assert not all(first), "severity 0.5 shed no queries"
        assert pattern(8) != first

    def test_zero_severity_admits_without_consuming_draws(self):
        policy = AdaptiveAdmission(seed=SEED)
        assert all(policy.at_door("query", 0, 8) for _ in range(32))
        assert policy.describe()["door_draws"] == 0
        assert policy.at_dispatch("query", waited=999.0)

    def test_full_severity_reserves_door_headroom(self):
        policy = AdaptiveAdmission(seed=SEED, door_headroom=0.5)
        policy.update_signals(severity=1.0)
        # past half the queue, queries are refused outright
        assert not policy.at_door("query", 4, 8)
        # protected traffic still has the whole queue
        assert policy.at_door("churn", 7, 8)

    def test_stale_queries_shed_at_dispatch_under_load(self):
        policy = AdaptiveAdmission(seed=SEED, stale_after=0.1)
        policy.update_signals(severity=0.5)
        assert policy.at_dispatch("query", waited=0.05)
        assert not policy.at_dispatch("query", waited=0.2)

    def test_update_signals_clamps_and_validates(self):
        policy = AdaptiveAdmission(seed=SEED)
        policy.update_signals(severity=7.0)
        assert policy.severity == 1.0
        policy.update_signals(severity=-3.0)
        assert policy.severity == 0.0
        with pytest.raises(ValueError):
            policy.update_signals(severity=0.5, stale_after=0.0)

    def test_make_admission_resolves_adaptive(self):
        assert isinstance(make_admission("adaptive"), AdaptiveAdmission)
        resolved = make_admission("adaptive:0.5")
        assert isinstance(resolved, AdaptiveAdmission)
        assert resolved.stale_after == 0.5


class TestShedUnderCoalescedChurnBursts:
    """Satellite: DeadlineShed and AdaptiveAdmission driven through the
    real service with coalesced churn bursts — shed outcomes are
    deterministic given the seed, and churn/adjudication are never
    shed."""

    def run_burst(self, admission):
        from serve_driver import run_workload

        service, _ = run_workload(
            shards=2,
            prefixes=4,
            requests=16,
            seed=7,
            burst=6,  # coalesced churn groups
            violation_every=4,
            admission=admission,
        )
        kinds = service.metrics.snapshot()["requests"]
        return {
            kind: (record["admitted"], record["rejected"],
                   record["shed"], record["completed"])
            for kind, record in sorted(kinds.items())
        }

    def test_deadline_shed_protects_churn_and_adjudication(self):
        def admission():
            # an impossible deadline: every query is stale at dispatch;
            # churn and adjudication are exempted per kind
            return DeadlineShed(
                deadline=1e-9,
                deadlines={"churn": None, "adjudicate": None},
            )

        first = self.run_burst(admission())
        again = self.run_burst(admission())
        assert first == again, "shed outcomes not reproducible"
        for kind in ("churn", "adjudicate"):
            if kind in first:
                admitted, _, shed, completed = first[kind]
                assert shed == 0
                assert completed == admitted
        assert first["query"][2] > 0, "no query was ever shed"
        assert first["query"][3] == 0, "a stale query completed"

    def test_adaptive_admission_sheds_only_queries(self):
        def admission():
            policy = AdaptiveAdmission(seed=7, stale_after=1e-9)
            policy.update_signals(severity=0.5)
            return policy

        first = self.run_burst(admission())
        again = self.run_burst(admission())
        assert first == again, "seeded shedding not reproducible"
        for kind in ("churn", "adjudicate"):
            if kind in first:
                admitted, rejected, shed, completed = first[kind]
                assert shed == 0
                assert rejected == 0
                assert completed == admitted
        admitted, rejected, shed, completed = first["query"]
        assert rejected + shed > 0, "severity 0.5 never shed a query"


# ---------------------------------------------------------------------------
# controller hysteresis


class TestControllerHysteresis:
    def test_severity_from_epoch_wall(self):
        controller = Controller(ControlPolicy(latency_bound=1.0))
        for _ in range(4):
            controller.observe_epoch(wall_seconds=2.5)
            controller.tick()
        assert controller.severity == 1.0
        decisions = [d for d in controller.decisions
                     if d.action == "admission"]
        assert decisions and decisions[0].applied is True

    def test_severity_recovers_when_the_window_drains(self):
        controller = Controller(
            ControlPolicy(window=4, latency_bound=1.0)
        )
        controller.observe_epoch(wall_seconds=3.0)
        controller.tick()
        assert controller.severity == 1.0
        for _ in range(4):
            controller.observe_epoch(wall_seconds=0.01)
            controller.tick()
        assert controller.severity == 0.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ControlPolicy(window=0)
        with pytest.raises(ValueError):
            ControlPolicy(latency_bound=0.0)
        with pytest.raises(ValueError):
            ControlPolicy(queue_high=0.0)

    def test_snapshot_is_json_serializable(self):
        controller = Controller()
        controller.observe_epoch(wall_seconds=2.0)
        controller.bus.observe("worker/0/epoch_wall", 1.5)
        controller.tick()
        snapshot = controller.snapshot()
        assert snapshot["schema"] == "repro.control/controller"
        json.dumps(snapshot)


# ---------------------------------------------------------------------------
# byte parity with the controller on


def _network():
    return serve_network(PREFIX_COUNT)[0]


def make_spec(**overrides):
    options = dict(
        network=_network,
        policies=(
            PolicySpec(
                "A",
                ShortestRoute(),
                {"recipients": ("B",), "name": "A/min->B", "max_length": 8},
            ),
        ),
        workers=2,
        transport="inline",
        rng_seed=SEED,
        parity_sample=1,
    )
    options.update(overrides)
    return ClusterSpec(**options)


class TestControllerReshardParity:
    def test_controller_enabled_cluster_keeps_reference_parity(self):
        """Controller on, including its admission severity loop: the
        evidence trail still matches the unsharded monitor byte for
        byte (control decisions never perturb what is verified)."""
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=5, violation_every=3)
        spec = make_spec(controller=True, admission="adaptive")
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
            assert cluster.controller is not None
            assert cluster.controller.ticks > 0
            reference = spec.build_monitor()
            drive_monitor(reference, requests)
            assert trail_mismatches(
                cluster.evidence, reference.evidence
            ) == []
            assert cluster.metrics.parity_failed == 0
            snapshot = cluster.snapshot()
            assert snapshot["control"]["ticks"] == cluster.controller.ticks
        finally:
            cluster.stop()

    def test_cluster_snapshot_carries_epoch_wall_and_batches(self):
        """Satellite: per-epoch wall clock and coalesced batch sizes
        surface on the snapshot (and hence on --json)."""
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=4)
        spec = make_spec(coalesce_max=4)
        cluster = spec.build()
        try:
            for request in requests:
                cluster.submit(request)
            cluster.pump()
            snapshot = cluster.snapshot()
        finally:
            cluster.stop()
        epochs = snapshot["epochs"]
        assert epochs["wall"]["count"] > 0
        assert epochs["wall"]["max_s"] > 0
        batches = epochs["coalesced_batches"]
        assert batches["count"] > 0
        assert batches["max_size"] > 1, "no churn burst ever coalesced"
        assert sum(snapshot["placement"]["load"].values()) > 0
        json.dumps(snapshot)


class TestNoSignalHold:
    """Satellite: an empty signal window is *no signal*, not zero.

    ``SignalWindow.percentile`` returns ``None`` on an empty window,
    and ``Controller.tick`` holds the previous severity rather than
    treating the absence of observations as "severity 0".
    """

    def test_empty_window_percentile_is_none(self):
        window = SignalWindow(capacity=4)
        assert window.percentile(50) is None
        assert window.percentile(99) is None
        # one observation flips it to a real number
        window.observe(0.25)
        assert window.percentile(50) == 0.25

    def test_tick_without_observations_holds_severity(self):
        controller = Controller(ControlPolicy(latency_bound=1.0))
        controller.observe_epoch(wall_seconds=3.0)
        controller.tick()
        assert controller.severity == 1.0
        # a burst of signal-free ticks must not decay severity to 0 —
        # there is no evidence the overload cleared
        controller.bus._signals.clear()
        before = len(controller.decisions)
        for _ in range(3):
            controller.tick()
        assert controller.severity == 1.0
        assert len(controller.decisions) == before

    def test_fresh_controller_ticks_stay_quiet(self):
        controller = Controller(ControlPolicy())
        for _ in range(3):
            assert controller.tick() == []
        assert controller.severity == 0.0
        assert controller.decisions == []
