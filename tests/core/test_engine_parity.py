"""Golden parity: compiled/batched engine vs the reference engine.

``REPRO_REFERENCE_ENGINE=1`` is the escape hatch that forces the
pre-optimisation serial implementation (trie-walk path resolution,
probe-at-a-time stochastic draws). The optimised engine's entire
correctness claim is that it is *bit-identical* to that reference, so a
whole campaign — measurements, canonical store records, probe
accounting, simulator end state — must not differ in a single byte
between the two engines.
"""

import pytest

from repro.core import TerminationPolicy, run_campaign
from repro.core.fastengine import CAMPAIGN_ENGINE_ENV
from repro.net.prefix import Prefix
from repro.netsim import SimulatedInternet, tiny_scenario
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
        import os

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
        import os

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


class _WorkspaceRun:
    """Every probe-heavy workspace artifact on the tiny profile, built
    under one engine: confidence dataset, aggregation with reprobe,
    path dataset and strict-het, plus the simulator's end state."""

    def __init__(self, reference: bool):
        import os

        from repro.experiments.common import PROFILES, Workspace

        previous = os.environ.get(REFERENCE_ENGINE_ENV)
        if reference:
            os.environ[REFERENCE_ENGINE_ENV] = "1"
        else:
            os.environ.pop(REFERENCE_ENGINE_ENV, None)
        try:
            workspace = Workspace(
                PROFILES["tiny"], workers=1, store_path=None,
                event_intensity=0.0,
            )
            assert workspace.internet._reference == reference
            workspace.ensure_built()
        finally:
            if previous is None:
                os.environ.pop(REFERENCE_ENGINE_ENV, None)
            else:
                os.environ[REFERENCE_ENGINE_ENV] = previous
        internet = workspace.internet
        self.workspace = workspace
        self.probe_count = internet.probe_count
        self.clock_seconds = internet.clock_seconds
        self.nonce = internet._nonce
        self.stats = internet.stats()


@pytest.fixture(scope="module")
def workspace_runs():
    return _WorkspaceRun(True), _WorkspaceRun(False)


class TestWorkspaceParity:
    """The scalar probe path (Paris traceroute/MDA, exhaustive and
    reprobe sessions) must match the reference oracle on every artifact
    it feeds, not only on the campaign."""

    def test_engines_differ_in_draw_source(self, workspace_runs):
        reference, production = workspace_runs
        assert reference.stats["draw_block_fills"] == 0
        assert production.stats["draw_block_fills"] > 0

    def test_confidence_dataset_identical(self, workspace_runs):
        reference, production = workspace_runs
        slow = reference.workspace.confidence_dataset
        fast = production.workspace.confidence_dataset
        assert slow
        assert list(fast) == list(slow)
        assert fast == slow

    def test_aggregation_with_reprobe_identical(self, workspace_runs):
        reference, production = workspace_runs
        slow = reference.workspace.aggregation
        fast = production.workspace.aggregation
        assert slow.reprobe_probes_used > 0
        assert fast.reprobe_probes_used == slow.reprobe_probes_used
        assert fast.reprobe_records == slow.reprobe_records
        assert fast.validations == slow.validations
        assert fast.rule_matches == slow.rule_matches
        assert fast.final_blocks == slow.final_blocks

    def test_path_dataset_identical(self, workspace_runs):
        reference, production = workspace_runs
        slow = reference.workspace.path_dataset
        fast = production.workspace.path_dataset
        assert slow
        assert list(fast) == list(slow)
        assert fast == slow

    def test_strict_het_identical(self, workspace_runs):
        reference, production = workspace_runs
        slow = reference.workspace.strict_het_analyses
        fast = production.workspace.strict_het_analyses
        assert list(fast) == list(slow)
        assert fast == slow

    def test_simulator_end_state_identical(self, workspace_runs):
        reference, production = workspace_runs
        assert production.probe_count == reference.probe_count
        assert production.clock_seconds == reference.clock_seconds
        assert production.nonce == reference.nonce
