"""The end-to-end Hobbit measurement campaign.

Mirrors the paper's pipeline: take a ZMap activity snapshot, select the
/24s meeting the Section 3.3 criteria, measure each with the classifier,
and summarise into Table 1 counts. The campaign result carries each
/24's last-hop router set onward to the aggregation stage (Sections 5
and 6).

The paper measures ~3.37M /24s *independently* — no /24's probing
touches another /24 — and this module preserves that independence: each
/24 is measured inside its own deterministic context (RNG stream, probe
nonce, virtual-clock position, reply-side router state) derived from the
campaign seed and the prefix alone. A /24's measurement is therefore a
pure function of the scenario and its context, which buys two things at
once:

* **order independence** — reordering or truncating the selection list
  never changes any individual /24's classification; and
* **parallelism** — shards of the /24 list can run on worker processes
  and merge into a result byte-identical to the serial run.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..net.prefix import Prefix
from ..netsim.internet import SimulatedInternet
from ..obs.metrics import MetricsRegistry, current_metrics
from ..obs.progress import ProgressReporter, progress_enabled
from ..obs.trace import configure_tracing, span, trace_event, trace_warning
from ..probing.session import ProbeBudgetExceeded, Prober, ProbeStats
from ..probing.zmap import ActivitySnapshot, scan
from ..util.envknobs import (
    kill_after_for_worker,
    parse_kill_spec,
    positive_float_env,
)
from ..util.hashing import mix, stable_string_hash
from .classifier import Category, Slash24Measurement, measure_slash24
from .columnar import ColumnarCampaignResult, result_format_name
from .confidence import ConfidenceTable
from .termination import ReprobePolicy, TerminationPolicy


class ParallelFallbackWarning(RuntimeWarning):
    """A ``workers=N`` campaign degraded to the serial path.

    Results are identical either way (the executor's core contract),
    but the wall-clock gain the caller asked for silently vanished —
    which is exactly the kind of degradation a measurement study must
    be able to see. Raised as a *warning* (not an error) because the
    serial result is still correct."""

#: Domain separators for the campaign's derived randomness, so the RNG
#: stream, the probe-nonce stream and the end-of-campaign state never
#: collide even for the same (seed, prefix).
_RNG_SALT = stable_string_hash("campaign/slash24-rng")
_NONCE_SALT = stable_string_hash("campaign/slash24-nonce")
_END_SALT = stable_string_hash("campaign/end-state")


def slash24_seed(campaign_seed: int, slash24: Prefix) -> int:
    """Stable per-/24 RNG seed: a /24's probing order and flow ids
    depend only on the campaign seed and its own prefix, never on which
    (or how many) other /24s were measured before it."""
    return mix(campaign_seed, _RNG_SALT, slash24.network, slash24.length)


def slash24_nonce(campaign_seed: int, slash24: Prefix) -> int:
    """Stable starting probe nonce for one /24's measurement context."""
    return mix(campaign_seed, _NONCE_SALT, slash24.network, slash24.length)


@dataclass
class CampaignResult:
    """Outcome of measuring a set of /24s."""

    measurements: Dict[Prefix, Slash24Measurement] = field(default_factory=dict)
    probes_used: int = 0

    def add(self, measurement: Slash24Measurement) -> None:
        """Record one /24's measurement.

        Raises ValueError on a duplicate prefix: silently overwriting
        the measurement while still accumulating ``probes_used`` would
        inflate the campaign's headline probe-cost numbers.
        """
        if measurement.slash24 in self.measurements:
            raise ValueError(
                f"duplicate measurement for {measurement.slash24}: "
                "each /24 is measured exactly once per campaign"
            )
        self.measurements[measurement.slash24] = measurement
        self.probes_used += measurement.probes_used

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Fold another (disjoint) result into this one — how per-shard
        results from parallel workers combine. Returns self."""
        overlap = self.measurements.keys() & other.measurements.keys()
        if overlap:
            sample = ", ".join(str(p) for p in sorted(overlap)[:3])
            raise ValueError(
                f"cannot merge campaign results with {len(overlap)} "
                f"overlapping /24s (e.g. {sample})"
            )
        for measurement in other.measurements.values():
            self.add(measurement)
        return self

    # -- Table 1 ---------------------------------------------------------

    def category_counts(self) -> Dict[Category, int]:
        counts = {category: 0 for category in Category}
        for measurement in self.measurements.values():
            counts[measurement.category] += 1
        return counts

    @property
    def total(self) -> int:
        return len(self.measurements)

    def analyzable(self) -> List[Slash24Measurement]:
        return [
            m for m in self.measurements.values() if m.category.analyzable
        ]

    def homogeneous(self) -> List[Slash24Measurement]:
        return [
            m for m in self.measurements.values() if m.is_homogeneous
        ]

    def by_category(self, category: Category) -> List[Slash24Measurement]:
        return [
            m
            for m in self.measurements.values()
            if m.category is category
        ]

    def homogeneous_fraction_of_analyzable(self) -> float:
        analyzable = self.analyzable()
        if not analyzable:
            return 0.0
        return sum(m.is_homogeneous for m in analyzable) / len(analyzable)

    def lasthop_sets(self) -> Dict[Prefix, FrozenSet[int]]:
        """Homogeneous /24 → its last-hop router set (the aggregation
        input of Section 5)."""
        return {
            m.slash24: m.lasthop_set
            for m in self.homogeneous()
            if m.lasthop_set
        }

    # -- lookup & slicing (resume code and tests go through these rather
    # -- than reaching into the measurements dict) -----------------------

    def __contains__(self, slash24: Prefix) -> bool:
        return slash24 in self.measurements

    def __iter__(self):
        """Iterate measurements in insertion (campaign input) order."""
        return iter(self.measurements.values())

    def get(self, slash24: Prefix) -> Optional[Slash24Measurement]:
        return self.measurements.get(slash24)

    def prefixes(self) -> List[Prefix]:
        return list(self.measurements)

    def subset(self, slash24s: Iterable[Prefix]) -> "CampaignResult":
        """A new result holding just the given /24s (KeyError if one was
        never measured); ``probes_used`` re-accumulates from the kept
        measurements."""
        result = CampaignResult()
        for slash24 in slash24s:
            if slash24 not in self.measurements:
                raise KeyError(f"{slash24} was not measured in this campaign")
            result.add(self.measurements[slash24])
        return result


def _measure_in_context(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24: Prefix,
    snapshot_active: List[int],
    campaign_seed: int,
    clock_base: float,
    max_destinations: Optional[int],
    max_probes: Optional[int] = None,
) -> Tuple[Slash24Measurement, ProbeStats]:
    """Measure one /24 inside its own deterministic context."""
    internet.begin_measurement_context(
        clock_seconds=clock_base,
        nonce=slash24_nonce(campaign_seed, slash24),
    )
    prober = Prober(internet, max_probes=max_probes)
    measurement = measure_slash24(
        prober,
        slash24,
        snapshot_active,
        policy,
        random.Random(slash24_seed(campaign_seed, slash24)),
        max_destinations=max_destinations,
    )
    return measurement, prober.stats


# -- lease-based distributed execution --------------------------------------
#
# ``workers=N`` no longer shards the /24 list statically: the list is
# cut into bounded batches, published as a plan in a lease ledger next
# to the measurement store (:mod:`repro.store.lease`), and worker
# processes *claim* batches as time-limited leases, checkpointing every
# completed /24 through the store. A dead worker's lease lapses and is
# re-claimed by a surviving worker (or, if all workers died, by the
# parent), so the campaign loses at most the un-checkpointed part of
# one batch per death — and re-measuring that part is byte-identical
# anyway, because each /24's measurement is a pure function of its
# deterministic context.

#: Batches planned per worker. More batches than workers is what makes
#: work-stealing effective: a fast worker drains several while a slow
#: one holds only its current lease, and a dead worker forfeits at most
#: its one in-flight batch — everything it completed is already durably
#: checkpointed and marked done.
_BATCHES_PER_WORKER = 4

#: How long claimants sleep when every remaining batch is under a live
#: lease (waiting for a completion or a lapse), and how often the
#: parent polls the ledger for progress.
_LEASE_POLL_SECONDS = 0.05

#: Lease time-to-live override (seconds). Tests and the CI faulty-worker
#: smoke job shrink it so a killed worker's batch is reclaimed quickly.
_LEASE_TTL_ENV = "REPRO_LEASE_TTL"

#: Fault injection: comma-separated ``"<worker_index>:<checkpoints>"``
#: entries. Each named worker SIGKILLs itself right after durably
#: checkpointing that many fresh /24s — i.e. mid-batch, lease held,
#: rest of the batch unfinished. ``"0:1"`` kills one worker (lease
#: stolen by a peer); ``"0:1,1:1"`` with ``workers=2`` kills them all
#: (parent takeover). The crash-consistency tests and the CI
#: faulty-worker smoke job drive this.
_LEASE_KILL_ENV = "REPRO_LEASE_KILL"


def _parse_kill_spec(spec: Optional[str], worker_index: int) -> Optional[int]:
    """Checkpoint count after which *this* worker self-destructs.

    Malformed specs raise :class:`repro.util.envknobs.EnvKnobError`
    (naming the variable) rather than silently disarming the fault
    injection they were supposed to switch on.
    """
    return kill_after_for_worker(spec, worker_index, name=_LEASE_KILL_ENV)


def _fold_measurement_metrics(
    registry: MetricsRegistry,
    measurement: Slash24Measurement,
    stats: ProbeStats,
) -> None:
    """One /24's contribution to the campaign-wide counters.

    Serial execution and parallel workers fold through this same
    helper, so merged shard registries reconstruct the serial totals
    bit-identically (integer sums are associative and commutative).
    """
    registry.count("campaign.slash24s")
    stats.fold_into(registry, "campaign.probes")
    registry.count(
        f"campaign.categories.{measurement.category.name.lower()}"
    )


def _lease_worker_main(
    payload: bytes,
    store_root: str,
    campaign: str,
    generation: int,
    worker_id: str,
    worker_index: int,
    ttl: float,
    fsync: bool,
) -> None:
    """One worker process's claim → measure → checkpoint → renew loop.

    Workers receive the campaign fingerprint as a string computed by
    the parent (never recomputed — ``repr``-based policy fingerprints
    are only stable within the process that minted them) and coordinate
    exclusively through the store directory: measurements go into the
    measurement store, claims into the lease ledger. Nothing flows back
    over a pipe, which is precisely why losing this process loses no
    completed work.
    """
    # Workers never write the parent's trace journal: concurrent appends
    # from several processes would interleave.
    configure_tracing(None)
    from ..store import CampaignCache, MeasurementStore
    from ..store.lease import LeaseLedger

    kill_after = _parse_kill_spec(
        os.environ.get(_LEASE_KILL_ENV), worker_index
    )
    internet, policy, seed, clock_base, max_destinations = pickle.loads(
        payload
    )
    base = (
        internet.probe_seconds, internet.probe_batches,
        internet.batched_probes,
    )
    events_base = (
        internet.events.counter_snapshot()
        if internet.events is not None
        else None
    )
    checkpoints = claims = steals = 0
    with MeasurementStore(store_root, fsync=fsync) as store, LeaseLedger(
        store_root, campaign, ttl=ttl, fsync=fsync
    ) as ledger:
        cache = CampaignCache(store, campaign)
        # Renew often enough that a live lease can never lapse: well
        # inside both the tentative window and the half-TTL threshold
        # below which renewals actually append.
        renew_every = min(ledger.tentative_ttl, ledger.ttl / 2) / 2
        while True:
            claim, campaign_done = ledger.claim(
                worker_id, generation, pid=os.getpid()
            )
            if claim is None:
                if campaign_done:
                    break
                time.sleep(_LEASE_POLL_SECONDS)
                continue
            claims += 1
            steals += int(claim.stolen)
            if claim.stolen:
                # The previous owner may have checkpointed part of this
                # batch before dying; pick its records up so only the
                # genuinely unmeasured rest is re-measured.
                store.refresh()
            completed = True
            next_renew = 0.0
            for prefix_text, active in claim.slash24s:
                now = time.time()
                if now >= next_renew:
                    if not ledger.renew(claim):
                        # Stolen out from under us (we stalled past the
                        # TTL); the thief re-measures what we didn't
                        # checkpoint, identically. Abandon the batch.
                        completed = False
                        break
                    next_renew = now + renew_every
                slash24 = Prefix.parse(prefix_text)
                if claim.stolen and cache.lookup(slash24, active) is not None:
                    continue  # the dead owner got this far
                measurement, stats = _measure_in_context(
                    internet, policy, slash24, active,
                    seed, clock_base, max_destinations,
                )
                cache.record(slash24, active, measurement, stats)
                checkpoints += 1
                if kill_after is not None and checkpoints >= kill_after:
                    # Fault injection: die the hard way, mid-batch, with
                    # the lease held — exactly what the reclamation
                    # machinery must survive.
                    os.kill(os.getpid(), 9)
            if completed:
                ledger.mark_done(claim)
        event_attrs = {}
        if events_base is not None:
            event_attrs = {
                f"events_{name}": delta
                for name, delta in internet.events.counter_deltas(
                    events_base
                ).items()
            }
        ledger.record_exit(
            worker_id, generation,
            engine_seconds=internet.probe_seconds - base[0],
            engine_batches=internet.probe_batches - base[1],
            engine_batched=internet.batched_probes - base[2],
            claims=claims, steals=steals, checkpoints=checkpoints,
            **event_attrs,
        )


class _ParallelUnavailable(Exception):
    """Internal: the parallel path cannot run; carries why."""

    def __init__(self, reason: str, cause: BaseException) -> None:
        super().__init__(reason)
        self.reason = reason
        self.cause = cause


def _note_parallel_fallback(
    registry: MetricsRegistry, fallback: "_ParallelUnavailable"
) -> None:
    """Make a degraded-to-serial run visible on every channel: a Python
    warning for interactive and test runs, a trace journal entry, and
    ``campaign.parallel_fallback`` counters for programmatic checks."""
    message = (
        f"parallel campaign unavailable ({fallback.reason}): "
        f"{fallback.cause!r}; continuing serially — results are "
        "identical, but the requested parallel speedup was not applied"
    )
    warnings.warn(ParallelFallbackWarning(message), stacklevel=4)
    registry.count("campaign.parallel_fallback")
    registry.count(f"campaign.parallel_fallback.{fallback.reason}")
    trace_warning(
        "campaign.parallel_fallback",
        message,
        reason=fallback.reason,
        error=repr(fallback.cause),
    )


def _lease_takeover(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    seed: int,
    clock_base: float,
    max_destinations: Optional[int],
    transport,
    campaign: str,
    ledger,
    generation: int,
    dead_owners: Set[str],
) -> Tuple[float, int, int]:
    """Finish a campaign whose worker processes all died.

    The parent claims the leftover batches itself, through the same
    lease protocol (so any *other* process working this campaign still
    coordinates correctly); its own children are certainly dead, so
    their leases are claimable immediately rather than after the TTL.
    Engine counters are restored to their pre-takeover values and the
    deltas returned, because the caller folds all worker engine
    activity into the parent simulator in one place.
    """
    from ..store.campaign import CampaignCache

    transport.refresh()
    cache = CampaignCache(transport, campaign)
    worker_id = f"w{os.getpid()}.takeover"
    base = (
        internet.probe_count, internet.probe_seconds,
        internet.probe_batches, internet.batched_probes,
    )
    while True:
        claim, campaign_done = ledger.claim(
            worker_id, generation, pid=os.getpid(),
            takeover_owners=dead_owners,
        )
        if claim is None:
            if campaign_done:
                break
            time.sleep(_LEASE_POLL_SECONDS)
            continue
        for prefix_text, active in claim.slash24s:
            slash24 = Prefix.parse(prefix_text)
            if cache.lookup(slash24, active) is not None:
                continue
            measurement, stats = _measure_in_context(
                internet, policy, slash24, active,
                seed, clock_base, max_destinations,
            )
            cache.record(slash24, active, measurement, stats)
        ledger.mark_done(claim)
    deltas = (
        internet.probe_seconds - base[1],
        internet.probe_batches - base[2],
        internet.batched_probes - base[3],
    )
    internet.probe_count = base[0]
    internet.probe_seconds = base[1]
    internet.probe_batches = base[2]
    internet.batched_probes = base[3]
    return deltas


def _run_shards_parallel(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24s: List[Prefix],
    snapshot: ActivitySnapshot,
    seed: int,
    clock_base: float,
    max_destinations: Optional[int],
    workers: int,
    cache=None,
    progress: Optional[ProgressReporter] = None,
) -> Tuple[Dict[Prefix, Slash24Measurement], ProbeStats, MetricsRegistry, Tuple]:
    """Measure the /24 list with lease-claiming worker processes.

    The /24s are batched into a lease-ledger plan next to the
    measurement store (an ephemeral one when the campaign has no store
    attached); ``workers`` processes claim, measure, checkpoint and
    renew until every batch is done, stealing lapsed leases from dead
    or stalled peers along the way. The parent then reconstructs the
    merged result *from the store records* — bit-identical to serial
    because each record is the pure function of its /24's context.

    Returns the merged (measurements, probe stats, shard metrics,
    engine timing deltas). Raises :class:`_ParallelUnavailable` when
    the simulator or policy cannot ship to workers (unpicklable
    scenario, process start failure) — the caller then falls back to
    the serial path, which produces identical results anyway, and
    reports the degradation.
    """
    try:
        payload = pickle.dumps(
            (internet, policy, seed, clock_base, max_destinations),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception as error:
        raise _ParallelUnavailable("unpicklable", error) from error
    from ..store import MeasurementStore
    from ..store.codec import KIND_SLASH24, decode_slash24_record
    from ..store.fingerprint import (
        campaign_fingerprint,
        measurement_key,
        policy_fingerprint,
        scenario_fingerprint,
    )
    from ..store.lease import DEFAULT_TTL_SECONDS, LeaseLedger

    transport = getattr(cache, "store", None)
    campaign = getattr(cache, "campaign", None)
    store_root = getattr(transport, "root", None)
    ephemeral_dir = None
    external_cache = None
    if store_root is None or campaign is None:
        # No real store attached (none, or a custom lookup/record
        # object): coordinate through an ephemeral one. It outlives the
        # campaign by microseconds, so skip fsync entirely.
        external_cache = cache
        ephemeral_dir = tempfile.mkdtemp(prefix="repro-lease-")
        store_root = ephemeral_dir
        campaign = campaign_fingerprint(
            scenario_fingerprint(internet.config),
            policy_fingerprint(policy),
            seed, clock_base, max_destinations,
        )
        transport = MeasurementStore(store_root, fsync=False)
        fsync = False
    else:
        fsync = getattr(transport, "fsync", True)

    worker_count = min(workers, len(slash24s))
    batch_count = min(len(slash24s), worker_count * _BATCHES_PER_WORKER)
    # Interleave assignment: adjacent prefixes have correlated probing
    # cost (same organization), so striding balances batch loads.
    batches = [
        [(str(p), snapshot.active_in(p)) for p in slash24s[index::batch_count]]
        for index in range(batch_count)
    ]
    # Validate the operational knobs here, in the parent, before any
    # worker forks: a malformed value raises one clear EnvKnobError
    # instead of killing workers at startup (which would look like an
    # ordinary worker death and silently disarm fault injection).
    parse_kill_spec(os.environ.get(_LEASE_KILL_ENV), name=_LEASE_KILL_ENV)
    ttl = positive_float_env(_LEASE_TTL_ENV, DEFAULT_TTL_SECONDS)
    ledger = LeaseLedger(store_root, campaign, ttl=ttl, fsync=fsync)
    worker_ids = [f"w{os.getpid()}.{index}" for index in range(worker_count)]
    procs: List[multiprocessing.Process] = []
    try:
        with span(
            "campaign.lease_plan", batches=batch_count, workers=worker_count
        ):
            generation = ledger.plan(batches)
        # fork keeps worker start as cheap as the old process pool's;
        # the explicit payload round-trip above still guarantees the
        # campaign *could* ship to a spawned process.
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        try:
            for index, worker_id in enumerate(worker_ids):
                proc = context.Process(
                    target=_lease_worker_main,
                    args=(
                        payload, store_root, campaign, generation,
                        worker_id, index, ttl, fsync,
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
        except OSError as error:
            raise _ParallelUnavailable("pool_failure", error) from error
        while any(proc.is_alive() for proc in procs):
            if progress is not None:
                state = ledger.state()
                if state is not None:
                    progress.update(state.counts()["slash24s_done"])
            time.sleep(_LEASE_POLL_SECONDS)
        for proc in procs:
            proc.join()

        state = ledger.state()
        takeover_deltas = (0.0, 0, 0)
        took_over = False
        if state is None or not state.all_done:
            # Every worker exited with batches unfinished — the case
            # the static-chunk executor simply lost. Reclaim and finish
            # in the parent.
            took_over = True
            with span("campaign.lease_takeover"):
                takeover_deltas = _lease_takeover(
                    internet, policy, seed, clock_base, max_destinations,
                    transport, campaign, ledger, generation, set(worker_ids),
                )
            state = ledger.state()

        # Reconstruct the merged result from the store: every pending
        # /24 was checkpointed by whoever measured it.
        transport.refresh()
        by_prefix: Dict[Prefix, Slash24Measurement] = {}
        stats = ProbeStats()
        shard_metrics = MetricsRegistry()
        missing: List[Prefix] = []
        collected: List[Tuple[Prefix, Slash24Measurement, ProbeStats]] = []
        for slash24 in slash24s:
            document = transport.get(
                measurement_key(campaign, slash24, snapshot.active_in(slash24))
            )
            if document is None or document.get("kind") != KIND_SLASH24:
                missing.append(slash24)
                continue
            measurement, record_stats = decode_slash24_record(document)
            collected.append((slash24, measurement, record_stats))
        if missing:
            raise _ParallelUnavailable(
                "incomplete",
                RuntimeError(
                    f"{len(missing)} of {len(slash24s)} /24s missing from "
                    f"the lease-coordinated store (e.g. {missing[0]})"
                ),
            )
        for slash24, measurement, record_stats in collected:
            by_prefix[slash24] = measurement
            stats.merge(record_stats)
            _fold_measurement_metrics(shard_metrics, measurement, record_stats)
            if external_cache is not None:
                external_cache.record(
                    slash24, snapshot.active_in(slash24),
                    measurement, record_stats,
                )

        # Engine timing deltas come from the workers' exit records; a
        # SIGKILLed worker never writes one, so its (diagnostic-only)
        # timing is lost while its measurements survive via the store.
        exits = state.exits if state is not None else {}
        engine_seconds, engine_batches, engine_batched = takeover_deltas
        lost = 0
        event_deltas: Dict[str, int] = {}
        for worker_id in worker_ids:
            exit_info = exits.get(worker_id)
            if exit_info is None:
                lost += 1
                continue
            engine_seconds += float(exit_info.get("engine_seconds", 0.0))
            engine_batches += int(exit_info.get("engine_batches", 0))
            engine_batched += int(exit_info.get("engine_batched", 0))
            for attr, value in exit_info.items():
                if attr.startswith("events_"):
                    name = attr[len("events_"):]
                    event_deltas[name] = event_deltas.get(name, 0) + int(value)
        if event_deltas and internet.events is not None:
            # The workers probed pickled copies of the simulator; fold
            # their event activity back so the parent's schedule counts
            # the whole campaign (SIGKILLed workers lose their deltas,
            # like engine timing — diagnostics only).
            internet.events.add_counter_deltas(event_deltas)
        counts = state.counts() if state is not None else {}
        shard_metrics.count(
            "campaign.parallel.lease.batches", counts.get("batches", 0)
        )
        shard_metrics.count(
            "campaign.parallel.lease.claims", counts.get("claims", 0)
        )
        shard_metrics.count(
            "campaign.parallel.lease.steals", counts.get("steals", 0)
        )
        shard_metrics.count(
            "campaign.parallel.lease.renews", counts.get("renews", 0)
        )
        if lost:
            shard_metrics.count("campaign.parallel.lease.workers_lost", lost)
            trace_warning(
                "campaign.lease_worker_lost",
                f"{lost} of {worker_count} campaign workers died; their "
                "leases were reclaimed and the campaign completed",
                workers_lost=lost,
                takeover=took_over,
            )
        if took_over:
            shard_metrics.count("campaign.parallel.lease.takeover")
        if progress is not None:
            progress.update(len(by_prefix), probes=stats.sent)
        return (
            by_prefix,
            stats,
            shard_metrics,
            (engine_seconds, engine_batches, engine_batched),
        )
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
        ledger.close()
        if ephemeral_dir is not None:
            transport.close()
            shutil.rmtree(ephemeral_dir, ignore_errors=True)


def _bind_store(
    store,
    internet: SimulatedInternet,
    policy,
    seed: int,
    clock_base: float,
    max_destinations: Optional[int],
):
    """Turn the ``store`` argument into a campaign-bound cache.

    Accepts a :class:`repro.store.MeasurementStore` (or anything with
    its ``get``/``put`` surface), or an already-bound object exposing
    ``lookup``/``record``. Imported lazily so :mod:`repro.core` never
    depends on :mod:`repro.store` at import time.
    """
    if store is None:
        return None
    if hasattr(store, "lookup") and hasattr(store, "record"):
        return store
    from ..store.campaign import CampaignCache

    return CampaignCache.bind(
        store, internet, policy, seed, clock_base, max_destinations
    )


def run_campaign(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24s: Optional[Iterable[Prefix]] = None,
    snapshot: Optional[ActivitySnapshot] = None,
    seed: int = 0,
    max_probes: Optional[int] = None,
    max_destinations_per_slash24: Optional[int] = None,
    workers: int = 1,
    store=None,
    metrics: Optional[MetricsRegistry] = None,
    result_format: Optional[str] = None,
    on_measurement=None,
) -> CampaignResult:
    """Measure every selected /24 and classify it.

    When ``slash24s`` is None, all snapshot-eligible /24s are measured
    (the paper's 3.37M, at our scenario's scale).

    ``result_format`` selects the result representation: ``"object"``
    (default — a :class:`CampaignResult` of per-/24 dataclasses) or
    ``"columnar"`` (a flat-array
    :class:`repro.core.columnar.ColumnarCampaignResult`, streamed row by
    row so million-/24 campaigns never hold per-/24 objects). Unset, it
    falls back to ``$REPRO_RESULT_FORMAT``. The two hold identical
    information — conversions are exact both ways.

    ``workers`` > 1 shards the /24 list across a process pool; the
    merged result (measurements, their insertion order, and probe
    accounting) is identical to the serial run with the same seed.
    A campaign-wide ``max_probes`` budget requires serial accounting —
    when both are given, the campaign runs serially.

    ``store`` attaches an on-disk measurement store (see
    :mod:`repro.store`): every completed /24 is durably checkpointed,
    and /24s whose full input fingerprint (scenario, policy, seed,
    clock base, destination cap, snapshot active list) is already
    stored are replayed without sending a single probe. A run killed
    mid-campaign therefore resumes where it left off, and the resumed
    result — measurements, insertion order and ``probes_used`` — is
    bit-identical to an uninterrupted run. Replayed /24s still advance
    the deterministic end-of-campaign clock (downstream stages see the
    same world), but ``internet.probe_count`` only counts probes this
    run actually sent.

    ``on_measurement(measurement, stats, done, total)`` is invoked once
    per /24, in result insertion order, as each measurement lands in the
    result — the progress hook the service daemon's workers use to
    stream per-/24 records. ``stats`` is the /24's
    :class:`ProbeStats` where per-/24 accounting exists (the serial
    path, and store replays on either path) and None for /24s measured
    inside parallel shard workers, whose per-/24 stats are folded into
    the shard aggregate. The callback runs on the measuring process's
    thread; it must not mutate the campaign's inputs.

    ``metrics`` names the registry campaign accounting folds into
    (default: the ambient :func:`repro.obs.metrics.current_metrics`).
    The totals are identical — bit for bit — between the serial and
    parallel paths; the execution path itself is recorded under
    ``campaign.parallel`` / ``campaign.parallel_fallback`` so a
    degraded run is distinguishable from the one that was asked for.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    registry = metrics if metrics is not None else current_metrics()
    if snapshot is None:
        snapshot = scan(internet)
    if slash24s is None:
        slash24s = snapshot.eligible_slash24s()
    slash24s = list(slash24s)
    fmt = result_format_name(result_format)
    with span("campaign.run", slash24s=len(slash24s), workers=workers):
        result = _run_campaign_observed(
            internet, policy, slash24s, snapshot, seed, max_probes,
            max_destinations_per_slash24, workers, store, registry, fmt,
            on_measurement,
        )
    return result


def _run_campaign_observed(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24s: List[Prefix],
    snapshot: ActivitySnapshot,
    seed: int,
    max_probes: Optional[int],
    max_destinations_per_slash24: Optional[int],
    workers: int,
    store,
    registry: MetricsRegistry,
    result_format: str = "object",
    on_measurement=None,
) -> CampaignResult:
    # Routing shifts land between the snapshot and the campaign's first
    # probe — before the clock base and the worker payload are taken, so
    # serial, parallel and resumed runs all probe the same shifted FIBs
    # (the application itself is idempotent and deterministic).
    if internet.events is not None:
        rerouted = internet.apply_event_reroutes()
        if rerouted:
            trace_event("campaign.event_reroutes", pods=rerouted)
    events_base = (
        internet.events.counter_snapshot()
        if internet.events is not None
        else None
    )
    clock_base = internet.clock_seconds
    engine_base = (
        internet.probe_count, internet.probe_seconds,
        internet.probe_batches, internet.batched_probes,
    )
    cache = _bind_store(
        store, internet, policy, seed, clock_base,
        max_destinations_per_slash24,
    )
    cache_base = (
        (cache.hits, cache.misses)
        if cache is not None and hasattr(cache, "hits")
        else None
    )
    cached: Dict[Prefix, Tuple[Slash24Measurement, ProbeStats]] = {}
    pending: List[Prefix] = []
    if cache is not None:
        for slash24 in slash24s:
            hit = cache.lookup(slash24, snapshot.active_in(slash24))
            if hit is not None:
                cached[slash24] = hit
            else:
                pending.append(slash24)
    else:
        pending = slash24s
    progress = (
        ProgressReporter(len(slash24s)) if progress_enabled() else None
    )
    result = (
        ColumnarCampaignResult()
        if result_format == "columnar"
        else CampaignResult()
    )
    stats = ProbeStats()

    parallel = None
    if workers > 1 and pending:
        if max_probes is not None:
            # Documented behaviour (a campaign-wide budget needs serial
            # accounting), but still worth a breadcrumb in the journal.
            registry.count("campaign.parallel_skipped.budget")
            trace_event(
                "campaign.parallel_skipped", reason="max_probes",
                workers=workers,
            )
        else:
            try:
                parallel = _run_shards_parallel(
                    internet, policy, pending, snapshot, seed, clock_base,
                    max_destinations_per_slash24, workers, cache=cache,
                    progress=progress,
                )
            except _ParallelUnavailable as fallback:
                _note_parallel_fallback(registry, fallback)
    if parallel is not None:
        by_prefix, fresh_stats, shard_metrics, engine_deltas = parallel
        registry.count("campaign.parallel")
        registry.merge(shard_metrics)
        for measurement, replay_stats in cached.values():
            stats.merge(replay_stats)
            _fold_measurement_metrics(registry, measurement, replay_stats)
        stats.merge(fresh_stats)
        # Re-insert following the input order so even the measurement
        # dict's iteration order matches the serial run exactly.
        done = 0
        total = len(slash24s)
        for slash24 in slash24s:
            if slash24 in cached:
                measurement, replay_stats = cached[slash24]
            else:
                measurement, replay_stats = by_prefix[slash24], None
            result.add(measurement)
            done += 1
            if on_measurement is not None:
                on_measurement(measurement, replay_stats, done, total)
        # The parent simulator never saw the workers' probes; account
        # for them — counts *and* engine timing — so diagnostics match
        # the serial run. (Replayed /24s sent nothing, so they don't
        # count here.)
        internet.probe_count += fresh_stats.sent
        internet.probe_seconds += engine_deltas[0]
        internet.probe_batches += engine_deltas[1]
        internet.batched_probes += engine_deltas[2]
    else:
        remaining = max_probes
        done = 0
        for slash24 in slash24s:
            if slash24 in cached:
                measurement, measure_stats = cached[slash24]
                # Replays charge the budget exactly what the original
                # measurement cost, so a budgeted run stops at the same
                # point whether or not its prefix was cached.
                if remaining is not None and measure_stats.sent > remaining:
                    raise ProbeBudgetExceeded(
                        f"budget exhausted replaying {slash24} from store"
                    )
            else:
                with span("campaign.slash24", prefix=slash24):
                    measurement, measure_stats = _measure_in_context(
                        internet, policy, slash24,
                        snapshot.active_in(slash24),
                        seed, clock_base, max_destinations_per_slash24,
                        max_probes=remaining,
                    )
                if cache is not None:
                    cache.record(
                        slash24, snapshot.active_in(slash24),
                        measurement, measure_stats,
                    )
            if remaining is not None:
                remaining -= measure_stats.sent
            stats.merge(measure_stats)
            _fold_measurement_metrics(registry, measurement, measure_stats)
            result.add(measurement)
            done += 1
            if on_measurement is not None:
                on_measurement(
                    measurement, measure_stats, done, len(slash24s)
                )
            if progress is not None:
                progress.update(
                    done,
                    probes=stats.sent,
                    store_hits=len(cached),
                    store_lookups=len(slash24s) if cache is not None else 0,
                )

    # Honest what-actually-ran accounting: netsim.* counts probes this
    # process (and its workers) physically sent, while campaign.probes.*
    # above includes store replays — the gap between the two *is* the
    # store's savings.
    registry.gauge("campaign.workers", workers)
    registry.count("netsim.probes", internet.probe_count - engine_base[0])
    registry.add_seconds(
        "netsim.probe_seconds", internet.probe_seconds - engine_base[1],
        calls=0,
    )
    registry.count(
        "netsim.probe_batches", internet.probe_batches - engine_base[2]
    )
    registry.count(
        "netsim.batched_probes", internet.batched_probes - engine_base[3]
    )
    if cache_base is not None:
        registry.count("campaign.store.hits", cache.hits - cache_base[0])
        registry.count("campaign.store.misses", cache.misses - cache_base[1])
    if events_base is not None:
        # Per-campaign dynamic-event activity (workers' deltas were
        # already folded back into the parent schedule).
        for name, delta in sorted(
            internet.events.counter_deltas(events_base).items()
        ):
            registry.count(f"events.{name}", delta)
    if progress is not None:
        progress.finish(probes=stats.sent)

    # Leave the simulator in a deterministic end state — virtual time
    # advanced by the campaign's (order-invariant) total probe count —
    # so downstream stages see the same world whether the campaign ran
    # serially or sharded.
    internet.begin_measurement_context(
        clock_seconds=(
            clock_base + stats.sent * internet.config.probe_clock_step_seconds
        ),
        nonce=mix(seed, _END_SALT),
    )
    return result


def run_campaign_parallel(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24s: Optional[Iterable[Prefix]] = None,
    snapshot: Optional[ActivitySnapshot] = None,
    seed: int = 0,
    max_destinations_per_slash24: Optional[int] = None,
    workers: int = 4,
    store=None,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignResult:
    """Sharded campaign executor: :func:`run_campaign` across a worker
    pool. Kept as a named entry point for callers that always want the
    parallel path; results are identical to the serial run."""
    return run_campaign(
        internet,
        policy,
        slash24s=slash24s,
        snapshot=snapshot,
        seed=seed,
        max_destinations_per_slash24=max_destinations_per_slash24,
        workers=workers,
        store=store,
        metrics=metrics,
    )


def default_policy(confidence_table: ConfidenceTable) -> TerminationPolicy:
    """The paper's original strategy with a built confidence table."""
    return TerminationPolicy(confidence_table=confidence_table)
