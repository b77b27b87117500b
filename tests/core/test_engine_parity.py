"""Golden parity: compiled/batched engine vs the reference engine.

``REPRO_REFERENCE_ENGINE=1`` is the escape hatch that forces the
pre-optimisation serial implementation (trie-walk path resolution,
probe-at-a-time stochastic draws). The optimised engine's entire
correctness claim is that it is *bit-identical* to that reference, so a
whole campaign — measurements, canonical store records, probe
accounting, simulator end state — must not differ in a single byte
between the two engines.

The workspace suites extend the claim to every probe-heavy phase run on
the compiled probe engine (``core.fastengine``), against the reference
engine and against ``REPRO_CAMPAIGN_ENGINE=object`` with dynamic
events, including a session the compiled engine declines mid-/24.
"""

import contextlib
import copy
import dataclasses
import os
import random

import pytest

from repro.core import TerminationPolicy, run_campaign
from repro.core.fastengine import CAMPAIGN_ENGINE_ENV, FastPathUnsupported
from repro.net.prefix import Prefix
from repro.netsim import EventConfig, SimulatedInternet, tiny_scenario
from repro.netsim.routing import (
    REFERENCE_ENGINE_ENV,
    reference_engine_enabled,
)
from repro.probing import scan
from repro.store import MeasurementStore
from repro.store.codec import canonical_json_bytes, measurement_to_dict

SCENARIO_SEED = 11
CAMPAIGN_SEED = 5
MAX_DESTINATIONS = 32
SLASH24S = 12


class _EngineRun:
    """One full campaign under one engine, store records included."""

    def __init__(self, reference: bool, store_root):
        previous = os.environ.get(REFERENCE_ENGINE_ENV)
        previous_campaign = os.environ.get(CAMPAIGN_ENGINE_ENV)
        # This suite exercises the compiled *forwarding* plane against
        # its reference; keep the object-path campaign engine so the
        # batched probe path (asserted below) actually runs. The
        # columnar campaign engine has its own golden suite.
        os.environ[CAMPAIGN_ENGINE_ENV] = "object"
        if reference:
            os.environ[REFERENCE_ENGINE_ENV] = "1"
        else:
            os.environ.pop(REFERENCE_ENGINE_ENV, None)
        try:
            internet = SimulatedInternet.from_config(
                tiny_scenario(seed=SCENARIO_SEED)
            )
            assert internet.forwarder.compiled_enabled != reference
            snapshot = scan(internet)
            selection = snapshot.eligible_slash24s()[:SLASH24S]
            with MeasurementStore(store_root) as store:
                self.result = run_campaign(
                    internet,
                    TerminationPolicy(),
                    slash24s=selection,
                    snapshot=snapshot,
                    seed=CAMPAIGN_SEED,
                    max_destinations_per_slash24=MAX_DESTINATIONS,
                    store=store,
                )
                self.records = {
                    document["key"]: document
                    for document in store.documents()
                }
            self.selection = selection
            self.clock_seconds = internet.clock_seconds
            self.probe_count = internet.probe_count
            self.stats = internet.stats()
        finally:
            if previous is None:
                os.environ.pop(REFERENCE_ENGINE_ENV, None)
            else:
                os.environ[REFERENCE_ENGINE_ENV] = previous
            if previous_campaign is None:
                os.environ.pop(CAMPAIGN_ENGINE_ENV, None)
            else:
                os.environ[CAMPAIGN_ENGINE_ENV] = previous_campaign


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    return _EngineRun(True, tmp_path_factory.mktemp("ref-store") / "s")


@pytest.fixture(scope="module")
def compiled_run(tmp_path_factory):
    return _EngineRun(False, tmp_path_factory.mktemp("fast-store") / "s")


class TestEscapeHatch:
    def test_env_toggles_engine(self, monkeypatch):
        monkeypatch.delenv(REFERENCE_ENGINE_ENV, raising=False)
        assert not reference_engine_enabled()
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        assert reference_engine_enabled()
        # Explicitly disabled spellings mean "optimised engine".
        for value in ("0", "", "false", "no", "off"):
            monkeypatch.setenv(REFERENCE_ENGINE_ENV, value)
            assert not reference_engine_enabled()

    def test_reference_engine_sends_no_batches(self, reference_run):
        assert reference_run.stats["probe_batches"] == 0
        assert reference_run.stats["batched_probes"] == 0

    def test_compiled_engine_batches(self, compiled_run):
        assert compiled_run.stats["batched_probes"] > 0


class TestGoldenParity:
    def test_same_selection(self, reference_run, compiled_run):
        assert reference_run.selection == compiled_run.selection
        assert len(reference_run.selection) == SLASH24S

    def test_measurements_bit_identical(self, reference_run, compiled_run):
        fast = compiled_run.result.measurements
        slow = reference_run.result.measurements
        assert list(fast) == list(slow)
        for slash24 in slow:
            # Dataclass equality first (clear diffs on failure)...
            assert fast[slash24] == slow[slash24], slash24
            # ...then the canonical store encoding, byte for byte.
            assert canonical_json_bytes(
                measurement_to_dict(fast[slash24])
            ) == canonical_json_bytes(measurement_to_dict(slow[slash24]))

    def test_probe_accounting_identical(self, reference_run, compiled_run):
        assert (
            compiled_run.result.probes_used
            == reference_run.result.probes_used
        )
        assert compiled_run.probe_count == reference_run.probe_count

    def test_simulator_end_state_identical(self, reference_run, compiled_run):
        assert compiled_run.clock_seconds == reference_run.clock_seconds

    def test_category_counts_identical(self, reference_run, compiled_run):
        assert (
            compiled_run.result.category_counts()
            == reference_run.result.category_counts()
        )

    def test_store_fingerprints_identical(self, reference_run, compiled_run):
        """The store keys cover every input fingerprint (scenario,
        policy, seed, clock base, active list); the engines must agree
        on all of them and on every stored byte."""
        assert set(compiled_run.records) == set(reference_run.records)
        assert len(compiled_run.records) >= SLASH24S
        for key, document in reference_run.records.items():
            fast_document = compiled_run.records[key]
            assert canonical_json_bytes(fast_document) == (
                canonical_json_bytes(document)
            ), key

    def test_cross_engine_store_warm_rerun(
        self, reference_run, tmp_path_factory
    ):
        """A store written by the reference engine satisfies a
        compiled-engine rerun without a single probe — the fingerprints
        embed no engine identity, so caches are interchangeable."""
        root = tmp_path_factory.mktemp("cross-store") / "s"
        with MeasurementStore(root) as store:
            for document in reference_run.records.values():
                store.put(dict(document))
        os.environ.pop(REFERENCE_ENGINE_ENV, None)
        internet = SimulatedInternet.from_config(
            tiny_scenario(seed=SCENARIO_SEED)
        )
        snapshot = scan(internet)
        with MeasurementStore(root) as store:
            result = run_campaign(
                internet,
                TerminationPolicy(),
                slash24s=reference_run.selection,
                snapshot=snapshot,
                seed=CAMPAIGN_SEED,
                max_destinations_per_slash24=MAX_DESTINATIONS,
                store=store,
            )
        assert internet.probe_count == 0
        assert result.measurements == reference_run.result.measurements


@contextlib.contextmanager
def _env(values):
    """Set (str) or unset (None) environment variables for the block."""
    previous = {name: os.environ.get(name) for name in values}
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _transient_state(internet):
    """Probe-side simulator state: counters, clock, nonce, every touched
    rate-limiter bucket (by router address) and the radio tracker."""
    owners = {
        id(router.rate_limiter): router.address
        for router in internet.topology._routers
        if router.rate_limiter is not None
    }
    return (
        internet.probe_count,
        internet.clock_seconds,
        internet._nonce,
        sorted(
            (owners[id(limiter)], limiter._tokens, limiter._last_time)
            for limiter in internet._touched_limiters
        ),
        sorted(internet._radio._last_probe.items()),
    )


class _WorkspaceRun:
    """Every probe-heavy workspace artifact on the tiny profile, built
    under one engine: confidence dataset, aggregation with reprobe,
    path dataset and strict-het, plus the simulator's transient state
    just before every measurement-context switch and at the end."""

    def __init__(self, env, event_intensity=0.0):
        from repro.experiments.common import PROFILES, Workspace

        with _env(env):
            workspace = Workspace(
                PROFILES["tiny"], workers=1, store_path=None,
                event_intensity=event_intensity,
            )
            internet = workspace.internet
            self.context_states = []
            begin = internet.begin_measurement_context

            def recording_begin(clock_seconds, nonce):
                self.context_states.append(_transient_state(internet))
                begin(clock_seconds, nonce)

            internet.begin_measurement_context = recording_begin
            workspace.ensure_built()
        self.workspace = workspace
        self.probe_count = internet.probe_count
        self.clock_seconds = internet.clock_seconds
        self.nonce = internet._nonce
        self.end_state = _transient_state(internet)
        self.stats = internet.stats()
        self.fast_engine = getattr(internet, "_fast_engine", None)
        self.event_counters = (
            dict(internet.events.counters)
            if internet.events is not None else None
        )


@pytest.fixture(scope="module")
def workspace_runs():
    """(reference oracle, production) on the static tiny world."""
    return (
        _WorkspaceRun({REFERENCE_ENGINE_ENV: "1"}),
        _WorkspaceRun({REFERENCE_ENGINE_ENV: None, CAMPAIGN_ENGINE_ENV: None}),
    )


@pytest.fixture(scope="module")
def object_workspace_run():
    """The object path (Prober over nonce blocks) on the static tiny
    world: what budgeted Probers and ``REPRO_CAMPAIGN_ENGINE=object``
    run."""
    return _WorkspaceRun(
        {REFERENCE_ENGINE_ENV: None, CAMPAIGN_ENGINE_ENV: "object"}
    )


@pytest.fixture(scope="module")
def event_workspace_runs():
    """(object engine, compiled engine) with every stressor active."""
    return (
        _WorkspaceRun(
            {REFERENCE_ENGINE_ENV: None, CAMPAIGN_ENGINE_ENV: "object"},
            event_intensity=0.6,
        ),
        _WorkspaceRun(
            {REFERENCE_ENGINE_ENV: None, CAMPAIGN_ENGINE_ENV: None},
            event_intensity=0.6,
        ),
    )


class TestWorkspaceParity:
    """Every workspace phase (exhaustive and reprobe sessions, the
    Paris-MDA path dataset, strict-het) must match the oracle on every
    artifact it feeds and on the probe-side state it leaves, not only
    on the campaign."""

    @pytest.fixture
    def runs(self, workspace_runs):
        return workspace_runs

    def test_engines_differ_in_draw_source(self, runs):
        """The oracle never touches the compiled engine; production
        sends every workspace probe through it — no forwarder lookup,
        no batched probe, no nonce block on the object probe path."""
        oracle, production = runs
        assert oracle.fast_engine is None
        assert production.fast_engine is not None
        assert production.probe_count == oracle.probe_count > 0
        assert production.stats["forwarder_cache_hits"] == 0
        assert production.stats["forwarder_cache_misses"] == 0
        assert production.stats["batched_probes"] == 0
        assert production.stats["draw_block_fills"] == 0

    def test_confidence_dataset_identical(self, runs):
        reference, production = runs
        slow = reference.workspace.confidence_dataset
        fast = production.workspace.confidence_dataset
        assert slow
        assert list(fast) == list(slow)
        assert fast == slow

    def test_aggregation_with_reprobe_identical(self, runs):
        reference, production = runs
        slow = reference.workspace.aggregation
        fast = production.workspace.aggregation
        assert slow.reprobe_probes_used > 0
        assert fast.reprobe_probes_used == slow.reprobe_probes_used
        assert fast.reprobe_records == slow.reprobe_records
        assert fast.validations == slow.validations
        assert fast.rule_matches == slow.rule_matches
        assert fast.final_blocks == slow.final_blocks

    def test_path_dataset_identical(self, runs):
        reference, production = runs
        slow = reference.workspace.path_dataset
        fast = production.workspace.path_dataset
        assert slow
        assert list(fast) == list(slow)
        assert fast == slow

    def test_strict_het_identical(self, runs):
        reference, production = runs
        slow = reference.workspace.strict_het_analyses
        fast = production.workspace.strict_het_analyses
        assert list(fast) == list(slow)
        assert fast == slow

    def test_simulator_end_state_identical(self, runs):
        reference, production = runs
        assert production.probe_count == reference.probe_count
        assert production.clock_seconds == reference.clock_seconds
        assert production.nonce == reference.nonce
        assert production.end_state == reference.end_state

    def test_state_at_every_context_switch_identical(self, runs):
        """Limiter buckets and the radio tracker as each phase (and
        each campaign /24) hands over: the compiled engine commits what
        the object path mutated probe by probe."""
        reference, production = runs
        assert len(production.context_states) == len(
            reference.context_states
        )
        assert any(state[3] for state in reference.context_states)
        for fast, slow in zip(
            production.context_states, reference.context_states
        ):
            assert fast == slow

    def test_event_counters_identical(self, runs):
        reference, production = runs
        assert production.event_counters == reference.event_counters


class TestObjectWorkspaceParity(TestWorkspaceParity):
    """The object path against the reference on the same artifacts and
    state: the nonce-block draws and the Prober walk the compiled engine
    falls back to stay an exact oracle."""

    @pytest.fixture
    def runs(self, workspace_runs, object_workspace_run):
        return workspace_runs[0], object_workspace_run

    def test_engines_differ_in_draw_source(self, runs):
        """Neither run touches the compiled engine; the object run draws
        from nonce blocks through the compiled forwarder, the reference
        from scalar hashes through the trie walk."""
        reference, object_run = runs
        assert reference.fast_engine is None
        assert object_run.fast_engine is None
        assert object_run.probe_count == reference.probe_count > 0
        assert object_run.stats["draw_block_fills"] > 0
        assert reference.stats["draw_block_fills"] == 0
        assert object_run.stats["batched_probes"] > 0
        assert reference.stats["batched_probes"] == 0


class TestEventWorkspaceParity(TestWorkspaceParity):
    """The same contract against ``REPRO_CAMPAIGN_ENGINE=object`` with
    renumbering waves, routing shifts, outages and rate-limit storms
    all firing."""

    @pytest.fixture
    def runs(self, event_workspace_runs):
        return event_workspace_runs

    def test_every_stressor_fired(self, runs):
        for run in runs:
            for name in ("renumber", "reroute", "outage", "storm"):
                assert run.event_counters[name] > 0, name


class TestMidContextFallback:
    """A compiled session that declines a /24 part-way through, in the
    middle of a probe stream shared with other /24s, must leave nothing
    behind: the object path then continues from the same point."""

    #: The compiled engine declines at this destination of the /24.
    DECLINE_AT = 3

    @pytest.fixture
    def decline(self, monkeypatch):
        """Arm with ``decline.at = k`` to make the compiled engine
        refuse the k-th destination it is asked to program from then
        on; every destination programmed while armed is recorded."""
        from repro.core.fastengine import FastCampaignEngine

        monkeypatch.delenv(CAMPAIGN_ENGINE_ENV, raising=False)
        program_for = FastCampaignEngine._program_for

        class Decline:
            at = None
            calls = []

        def declining(engine, dst, src, local):
            if Decline.at is not None:
                Decline.calls.append(dst)
                if len(Decline.calls) >= Decline.at:
                    raise FastPathUnsupported("declined by the test")
            return program_for(engine, dst, src, local)

        monkeypatch.setattr(FastCampaignEngine, "_program_for", declining)
        return Decline

    def _world(self, events=0.0):
        config = tiny_scenario(seed=SCENARIO_SEED)
        if events:
            config = dataclasses.replace(
                config, events=EventConfig.at_intensity(events)
            )
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        eligible = snapshot.eligible_slash24s()
        return internet, snapshot, eligible[:3], eligible[3]

    def _state(self, internet, rng):
        return rng.getstate(), _transient_state(internet), [
            (router.rate_limiter._tokens, router.rate_limiter._last_time)
            for router in internet.topology._routers
            if router.rate_limiter is not None
        ], internet.events and dict(internet.events.counters)

    def _run(self, events, decline=None):
        """Three warm-up /24s on one shared RNG and Prober, then the
        target /24 (declined at its DECLINE_AT-th destination when
        ``decline`` is given), then one more /24."""
        from repro.core import ExhaustivePolicy, measure_slash24
        from repro.obs.metrics import metrics_scope
        from repro.probing import Prober

        internet, snapshot, warmup, target = self._world(events)
        rng = random.Random(2024)
        prober = Prober(internet)
        policy = ExhaustivePolicy()

        def measure(slash24):
            return measure_slash24(
                prober, slash24, snapshot.active_in(slash24), policy, rng
            )

        measurements = [measure(slash24) for slash24 in warmup]
        if decline is not None:
            decline.at = self.DECLINE_AT
        with metrics_scope() as registry:
            measurements.append(measure(target))
        if decline is not None:
            decline.at = None
        measurements.append(measure(warmup[0]))
        return (
            measurements, prober.stats, self._state(internet, rng),
            registry.counter_value("campaign.fastpath_fallback"),
        )

    @pytest.mark.parametrize("events", [0.0, 0.6])
    def test_declined_session_changes_nothing(self, decline, events):
        from repro.core import ExhaustivePolicy, measure_slash24
        from repro.core.fastengine import fast_engine_for
        from repro.probing import Prober

        internet, snapshot, warmup, target = self._world(events)
        rng = random.Random(2024)
        prober = Prober(internet)
        policy = ExhaustivePolicy()
        for slash24 in warmup:
            measure_slash24(
                prober, slash24, snapshot.active_in(slash24), policy, rng
            )
        engine = fast_engine_for(prober, policy)
        assert engine is not None
        before = self._state(internet, rng)
        # Mid-stream: buckets carry tokens spent by the warm-up /24s.
        assert before[1][3]
        assert internet.probe_count > 0
        decline.at = self.DECLINE_AT
        with pytest.raises(FastPathUnsupported):
            engine.measure(
                policy, target, snapshot.active_in(target), rng, None
            )
        assert len(decline.calls) == self.DECLINE_AT
        assert self._state(internet, rng) == before
        if events:
            # Left alone, the destinations before the decline point
            # fire stressors: the restored counters were really moved.
            decline.at = None
            twin, twin_rng = copy.deepcopy((internet, rng))
            fast_engine_for(Prober(twin), policy).measure(
                policy, target, snapshot.active_in(target), twin_rng,
                self.DECLINE_AT - 1,
            )
            assert twin.events.counters != before[3]

    @pytest.mark.parametrize("events", [0.0, 0.6])
    def test_fallback_continues_like_the_object_path(
        self, decline, monkeypatch, events
    ):
        compiled = self._run(events, decline)
        assert len(decline.calls) == self.DECLINE_AT
        assert compiled[3] == 1
        monkeypatch.setenv(CAMPAIGN_ENGINE_ENV, "object")
        oracle = self._run(events)
        assert oracle[3] == 0
        assert compiled[:3] == oracle[:3]

    def test_route_kernel_fallback_matches_enumerate_paths(self, decline):
        from repro.core.fastengine import enumerate_routes
        from repro.obs.metrics import metrics_scope
        from repro.probing import Prober
        from repro.probing.mda import enumerate_paths

        def trace(compiled):
            internet, snapshot, warmup, _ = self._world()
            prober = Prober(internet)
            routes = []
            dsts = [
                dst for slash24 in warmup
                for dst in snapshot.active_in(slash24)[:2]
            ]
            for dst in dsts:
                if compiled:
                    routes.append(enumerate_routes(prober, dst, dst))
                else:
                    result = enumerate_paths(prober, dst, flow_seed=dst)
                    routes.append(frozenset(result.routes))
            return routes, prober.stats, _transient_state(internet)

        oracle = trace(compiled=False)
        assert any(oracle[0])
        assert trace(compiled=True) == oracle
        decline.at = 1
        with metrics_scope() as registry:
            assert trace(compiled=True) == oracle
        assert len(decline.calls) == 6
        assert registry.counter_value("campaign.fastpath_fallback") == 6
