"""The workloads and the metrics they report.

Every workload builds its inputs from the seed alone: each measured
*world* is a scenario whose seed is the run's seed or one derived from
it. It forces the workspace's lazy artifacts in the order
``Workspace.ensure_built`` uses — one span per layer call — and checks
its outputs: store integrity, zero-probe re-analysis, exactly-once
classification, no fallback, and ground-truth quality floors.

* ``cold-small``: the ``small`` reproduction, serial, into a fresh
  persistent store, then the zero-probe re-analysis experiments; two
  worlds per run, because the work itself varies by ±15% from one
  scenario to the next.
* ``campaign-scale``: a scale-0.6 universe, no store, a 2-worker lease
  executor campaign with columnar results and 2-way MCL fan-out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.aggregation import run_aggregation
from repro.analysis.scoring import score_pipeline
from repro.core.classifier import Category
from repro.experiments import PROFILES, Profile, Workspace, run_experiment
from repro.netsim import SimulatedInternet
from repro.obs import (
    MetricsRegistry,
    configure_tracing,
    current_metrics,
    metrics_scope,
    summarize_trace,
)

from .host import calibrate, peak_rss_mb, reset_peak_rss, speed_factor
from .spans import Ledger, Span, SpanRecorder, layer_self_times

#: Program counters that mark a silent degradation; any increase during
#: a layer call fails that call.
FALLBACK_COUNTERS = (
    "campaign.fastpath_fallback",
    "campaign.parallel_fallback",
    "aggregation.fallback",
    "aggregation.parallel_fallback",
    "aggregation.component_fallback",
)

#: Registered experiments that only re-analyse the built workspace,
#: each well under a second on ``small``. Left out: those that probe
#: again (dynamics, prelim, fig6, longitudinal, ablation-termination,
#: ablation-vantage), the three that take seconds (fig11, dhcp-search,
#: and sensitivity, which builds fixed-seed scenarios of its own).
REANALYSIS_EXPERIMENTS = (
    "lasthop-vs-path", "fig3", "fig4", "table1", "table2", "table3",
    "table4", "fig5", "table5", "fig7", "fig8", "fig9", "fig10",
    "fig12", "rdns-cellular", "ablation-mcl",
)

#: Program layers measured inside an iteration (``netsim`` builds the
#: scenario in set-up).
LAYERS = ("probing", "core", "aggregation", "store", "analysis",
          "experiments")

#: The workspace's lazy artifacts in ``Workspace.ensure_built`` order:
#: (span name, workspace attribute).
PIPELINE = (
    ("probing.scan", "snapshot"),
    ("core.confidence_dataset", "confidence_dataset"),
    ("core.confidence_table", "confidence_table"),
    ("core.campaign", "campaign"),
    ("aggregation.run", "aggregation"),
    ("probing.path_dataset", "path_dataset"),
    ("core.strict_het", "strict_het_analyses"),
)

#: Scenario builds timed in set-up (beside one per world measured), so
#: ``setup_s`` is a median, not one sample.
SETUP_BUILDS = 3

#: Step between the seeds of a run's worlds: world i has scenario seed
#: ``seed + i * WORLD_STRIDE``, so world 0 is the seed itself.
WORLD_STRIDE = 7919

#: name → (unit, better). End-to-end metrics come from untraced runs.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "slash24s_per_s": ("/24/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "probes": ("count", "lower"),
    "probes_per_slash24": ("count", "lower"),
    "homog_precision": ("ratio", "higher"),
    "homog_recall": ("ratio", "higher"),
    "block_purity": ("ratio", "higher"),
    "pass_ratio": ("ratio", "higher"),
}

_CATEGORY_METRIC = {
    Category.SAME_LASTHOP: "same_lasthop",
    Category.NON_HIERARCHICAL: "non_hierarchical",
    Category.HIERARCHICAL: "hierarchical",
    Category.TOO_FEW_ACTIVE: "too_few_active",
    Category.UNRESPONSIVE_LASTHOP: "unresponsive_lasthop",
}

#: name → (unit, better). Per-layer metrics come from the traced run.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "netsim.build_s": ("s", "lower"),
    "netsim.probe_us": ("us", "lower"),
    "netsim.batched_share": ("ratio", "higher"),
    "netsim.forwarder_hit_rate": ("ratio", "higher"),
    "probing.scan_s": ("s", "lower"),
    "probing.eligible_slash24s": ("count", "higher"),
    "probing.path_dataset_s": ("s", "lower"),
    "probing.path_dataset_probes": ("count", "lower"),
    "probing.path_dataset_slash24s": ("count", "higher"),
    "core.confidence_dataset_s": ("s", "lower"),
    "core.confidence_dataset_probes": ("count", "lower"),
    "core.confidence_table_s": ("s", "lower"),
    "core.campaign_s": ("s", "lower"),
    "core.campaign_cpu_s": ("s", "lower"),
    "core.campaign_core_util": ("ratio", "higher"),
    "core.campaign_probes": ("count", "lower"),
    "core.campaign_probes_per_s": ("1/s", "higher"),
    "core.campaign_slash24s": ("count", "higher"),
    "core.fastpath_fallbacks": ("count", "lower"),
    "core.parallel_fallbacks": ("count", "lower"),
    "core.lease_steals": ("count", "lower"),
    "core.lease_takeovers": ("count", "lower"),
    "core.strict_het_s": ("s", "lower"),
    "core.strict_het_probes": ("count", "lower"),
    **{
        f"core.share.{label}": ("ratio", "higher")
        for label in _CATEGORY_METRIC.values()
    },
    "aggregation.run_s": ("s", "lower"),
    "aggregation.reprobe_s": ("s", "lower"),
    "aggregation.reprobe_probes": ("count", "lower"),
    "aggregation.graph_s": ("s", "lower"),
    "aggregation.mcl_s": ("s", "lower"),
    "aggregation.cpu_s": ("s", "lower"),
    "aggregation.mcl_runs": ("count", "lower"),
    "aggregation.mcl_iterations": ("count", "lower"),
    "aggregation.edges": ("count", "lower"),
    "aggregation.components": ("count", "lower"),
    "aggregation.identical_blocks": ("count", "lower"),
    "aggregation.final_blocks": ("count", "lower"),
    "aggregation.parallel_fallbacks": ("count", "lower"),
    "aggregation.engine_fallbacks": ("count", "lower"),
    "store.bytes": ("bytes", "lower"),
    "store.records": ("count", "lower"),
    "store.verify_s": ("s", "lower"),
    **{
        f"experiments.{experiment}_s": ("s", "lower")
        for experiment in REANALYSIS_EXPERIMENTS
    },
    "analysis.score_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "bench.self_s": ("s", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
    "host.calib_s": ("s", "lower"),
    "host.raw_wall_s": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Spec:
    """One workload at one size."""

    profile: Profile
    workers: int
    #: Worlds measured per pass. More worlds average out how much the
    #: work varies with the scenario.
    worlds: int
    #: Ground-truth floors: homogeneous precision, recall, block purity.
    floors: Tuple[float, float, float]


def _scale_profile(base: Profile, name: str, **changes) -> Profile:
    return dataclasses.replace(
        base, name=name, confidence_sample_slash24s=16,
        campaign_result_format="columnar", **changes,
    )


#: Ground-truth floors at full size. They catch a broken classifier or
#: aggregation, not drift: over runs on 66 seeds the lowest readings
#: were precision 0.9995, recall 0.894 and purity 0.929.
FULL_FLOORS = (0.99, 0.80, 0.85)
#: A few hundred /24s per tiny world make its scores coarse.
TINY_FLOORS = (0.90, 0.70, 0.60)

#: size → workload → spec. ``tiny`` keeps the benchmark's own tests in
#: seconds; ``full`` is what BENCHMARK.json measures.
SIZES: Dict[str, Dict[str, Spec]] = {
    "full": {
        "cold-small": Spec(PROFILES["small"], 1, 2, FULL_FLOORS),
        "campaign-scale": Spec(
            _scale_profile(PROFILES["small"], "scale-0.6",
                           scenario_scale=0.6),
            2, 1, FULL_FLOORS,
        ),
    },
    "tiny": {
        "cold-small": Spec(PROFILES["tiny"], 1, 2, TINY_FLOORS),
        "campaign-scale": Spec(
            _scale_profile(PROFILES["tiny"], "tiny-scale"), 2, 1,
            TINY_FLOORS,
        ),
    },
}


@dataclass
class Iteration:
    """A workload's measured work on one world."""

    world: int = 0
    root: Optional[Span] = None
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Seconds of the layer calls, scaled to the reference host speed.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Unscaled wall-clock of the iteration, calibration loops included.
    raw_wall_s: float = 0.0
    #: Reference-host seconds per measured second (see host.py).
    host_factor: float = 1.0
    peak_rss_mb: float = 0.0
    #: Probes the simulator sent during the measured work (workers too).
    probes: int = 0
    slash24s: int = 0
    #: Probes the campaign result accounts for.
    campaign_probes: int = 0
    precision: float = 0.0
    recall: float = 0.0
    purity: float = 0.0
    #: Per-/24 categories plus final blocks, hashed.
    digest: str = ""
    layer: Dict[str, float] = field(default_factory=dict)


class Run:
    """State of one benchmark run: inputs, spans, ledger, set-up."""

    def __init__(
        self, workload: str, seed: int, size: str, workdir: str
    ) -> None:
        if workload not in WORKLOADS:
            raise KeyError(f"unknown workload {workload!r}")
        self.workload = workload
        self.spec = SIZES[size][workload]
        self.worlds = [
            seed + index * WORLD_STRIDE for index in range(self.spec.worlds)
        ]
        self.workdir = workdir
        self.recorder = SpanRecorder(run_id=f"{workload}/{seed}")
        self.ledger = Ledger()
        #: Raw seconds of every scenario build (set-up and per world).
        self.build_samples: List[float] = []
        #: Every host calibration sample (seconds of the fixed loop).
        self.calibrations: List[float] = []
        #: Whether the host was sampled since the current pass began
        #: (the sample after one call is the sample before the next).
        self._calibrated = False
        #: world seed → input sizes.
        self.inputs: Dict[int, Dict[str, int]] = {}
        self.iterations: List[Iteration] = []

    # -- layer calls and checks -------------------------------------------

    @contextlib.contextmanager
    def call(
        self, name: str, internet: Optional[SimulatedInternet] = None
    ) -> Iterator[Span]:
        """Span one call into a layer. The call fails if it raises or
        fires a fallback counter; probes it sends land in the span. The
        host's speed is sampled before and after it."""
        if not self._calibrated:
            self.calibrate_host()
        registry = current_metrics()
        before = [registry.counter_value(c) for c in FALLBACK_COUNTERS]
        probes = internet.probe_count if internet is not None else 0
        with self.recorder.span(name) as record:
            try:
                yield record
            except BaseException:
                self.ledger.check(name, False, "raised")
                raise
        self.calibrate_host()
        if internet is not None:
            record.attrs["probes"] = internet.probe_count - probes
        fired = [
            counter
            for counter, count in zip(FALLBACK_COUNTERS, before)
            if registry.counter_value(counter) > count
        ]
        self.ledger.check(name, not fired, "fallback " + ", ".join(fired))

    # -- workspaces ---------------------------------------------------------

    def calibrate_host(self) -> None:
        self.calibrations.append(calibrate())
        self._calibrated = True

    def profile(self, world: int) -> Profile:
        return dataclasses.replace(self.spec.profile, scenario_seed=world)

    def scenario_builds(self, count: int = SETUP_BUILDS) -> None:
        config = Workspace(
            self.profile(self.worlds[0]), workers=1, store_path=None,
            event_intensity=0.0,
        ).scenario_config()
        for _ in range(count):
            with self.call("netsim.build") as record:
                SimulatedInternet.from_config(config)
            self.build_samples.append(record.seconds)
        gc.collect()

    def workspace(self, world: int, store_path: Optional[str]) -> Workspace:
        """A fresh workspace with its scenario built (timed as set-up,
        outside the measured work)."""
        ws = Workspace(
            self.profile(world), workers=self.spec.workers,
            store_path=store_path, event_intensity=0.0,
        )
        with self.call("netsim.build") as record:
            internet = ws.internet
        self.build_samples.append(record.seconds)
        self.inputs[world] = {
            "universe_slash24s": len(internet.universe_slash24s),
            "routers": len(internet.topology),
        }
        return ws

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    @contextlib.contextmanager
    def measured(self, ws: Workspace) -> Iterator[Iteration]:
        """The measured work of one iteration: wall, CPU, peak RSS and
        live probes, under a fresh metrics registry. Wall and CPU are
        the layer calls' own (calibration loops excluded), scaled by
        the host speed sampled around them."""
        iteration = Iteration(world=ws.profile.scenario_seed)
        gc.collect()
        reset_peak_rss()
        self._calibrated = False
        first_sample = len(self.calibrations)
        probes = ws.internet.probe_count
        with metrics_scope(iteration.registry), \
                self.recorder.span("iteration") as root:
            yield iteration
        iteration.root = root
        iteration.host_factor = speed_factor(self.calibrations[first_sample:])
        calls = [
            record for record in self.recorder.descendants(root)
            if record.parent == root.span_id
        ]
        iteration.wall_s = iteration.host_factor * sum(
            record.seconds for record in calls
        )
        iteration.cpu_s = iteration.host_factor * sum(
            record.cpu for record in calls
        )
        iteration.raw_wall_s = root.seconds
        iteration.peak_rss_mb = peak_rss_mb()
        iteration.probes = ws.internet.probe_count - probes

    # -- shared pipeline and checks ----------------------------------------

    def pipeline(self, ws: Workspace, steps=PIPELINE) -> None:
        """Force the lazy artifacts in ``ensure_built`` order, one span
        per layer call, so each span holds only its own layer's work."""
        internet = ws.internet
        for name, attribute in steps:
            with self.call(name, internet):
                getattr(ws, attribute)

    def score(self, ws: Workspace, outcome, iteration: Iteration):
        with self.call("analysis.score"):
            report = score_pipeline(
                ws.internet, ws.campaign, outcome.final_blocks
            )
        iteration.precision = report.homogeneous_precision
        iteration.recall = report.homogeneous_recall
        iteration.purity = report.block_purity

    def finish(self, ws: Workspace, outcome, iteration: Iteration) -> None:
        """Record an iteration's results and run the checks every
        workload shares."""
        campaign = ws.campaign
        eligible = ws.eligible_slash24s()
        prefixes = campaign.prefixes()
        iteration.slash24s = campaign.total
        iteration.campaign_probes = campaign.probes_used
        iteration.digest = result_digest(campaign, outcome.final_blocks)
        self.inputs[iteration.world]["measured_slash24s"] = campaign.total
        self.ledger.check(
            "core.classified_exactly_once",
            len(prefixes) == len(set(prefixes)) == campaign.total
            and set(prefixes) == set(eligible),
            f"{campaign.total} classified, {len(eligible)} eligible",
        )
        low_precision, low_recall, low_purity = self.spec.floors
        for name, value, floor in (
            ("homog_precision", iteration.precision, low_precision),
            ("homog_recall", iteration.recall, low_recall),
            ("block_purity", iteration.purity, low_purity),
        ):
            self.ledger.check(f"analysis.{name}_floor", value >= floor,
                              f"{value:.4f} < {floor}")
        same_world = [
            it for it in self.iterations if it.world == iteration.world
        ]
        if same_world:
            self.ledger.check(
                "bench.repeatable",
                (iteration.probes, iteration.digest)
                == (same_world[0].probes, same_world[0].digest),
                "passes over one world disagree on probes or results",
            )
        iteration.layer = layer_metrics(self, ws, outcome, iteration)
        self.iterations.append(iteration)

    def verify_store(self, ws: Workspace) -> Dict[str, object]:
        with self.call("store.verify"):
            report = ws.store.verify()
        self.ledger.check("store.verify_clean", report.clean,
                          f"{len(report.corrupt)} corrupt, "
                          f"{report.truncated_tails} truncated tails")
        with self.call("store.info"):
            return ws.store.info()


def result_digest(campaign, blocks) -> str:
    """Hash of every /24's category plus the final blocks."""
    digest = hashlib.sha256()
    for measurement in sorted(campaign, key=lambda m: m.slash24.network):
        digest.update(
            f"{measurement.slash24} {measurement.category.value}\n".encode()
        )
    for members in sorted(
        sorted(str(p) for p in block.slash24s) for block in blocks
    ):
        digest.update((" ".join(members) + "\n").encode())
    return digest.hexdigest()


# -- workloads ---------------------------------------------------------------


def cold_small(run: Run, world: int) -> Iteration:
    store_path = run.fresh_dir("store-")
    ws = run.workspace(world, store_path)
    try:
        with run.measured(ws) as iteration:
            with run.call("store.open"):
                ws.store
            run.pipeline(ws)
            store_info = run.verify_store(ws)
            for experiment in REANALYSIS_EXPERIMENTS:
                with run.call(f"experiments.{experiment}", ws.internet):
                    run_experiment(experiment, ws)
            run.score(ws, ws.aggregation, iteration)
        reanalysis_probes = sum(
            record.attrs["probes"]
            for record in run.recorder.descendants(iteration.root)
            if record.layer == "experiments"
        )
        run.ledger.check("experiments.reanalysis_sends_no_probe",
                         reanalysis_probes == 0,
                         f"{reanalysis_probes} probes sent")
        run.finish(ws, ws.aggregation, iteration)
        iteration.layer.update(
            {"store.bytes": store_info["bytes"],
             "store.records": store_info["records"]}
        )
        return iteration
    finally:
        ws.close()
        shutil.rmtree(store_path, ignore_errors=True)


def campaign_scale(run: Run, world: int) -> Iteration:
    ws = run.workspace(world, None)
    internet = ws.internet
    with run.measured(ws) as iteration:
        run.pipeline(ws, PIPELINE[:4])
        with run.call("aggregation.run", internet):
            outcome = run_aggregation(
                ws.campaign.lasthop_sets(), validate=False,
                workers=run.spec.workers,
            )
        run.score(ws, outcome, iteration)
    run.ledger.check(
        "core.parallel_executor_ran",
        iteration.registry.counter_value("campaign.parallel") == 1,
        "the campaign did not run on the lease executor",
    )
    run.finish(ws, outcome, iteration)
    return iteration


#: workload → its measured work on one world.
WORKLOADS: Dict[str, Callable[[Run, int], Iteration]] = {
    "cold-small": cold_small,
    "campaign-scale": campaign_scale,
}


# -- metrics ------------------------------------------------------------------


def layer_metrics(run: Run, ws: Workspace, outcome,
                  iteration: Iteration) -> Dict[str, float]:
    """Per-layer numbers of one iteration, from its spans, the
    program's registry and the simulator's own statistics."""
    spans = run.recorder.descendants(iteration.root)
    seconds: Dict[str, float] = {}
    cpu: Dict[str, float] = {}
    attrs: Dict[str, Dict[str, float]] = {}
    factor = iteration.host_factor
    for record in spans:
        seconds[record.name] = (
            seconds.get(record.name, 0.0) + record.seconds * factor
        )
        cpu[record.name] = cpu.get(record.name, 0.0) + record.cpu * factor
        attrs.setdefault(record.name, {}).update(record.attrs)

    def probes(name: str) -> float:
        return attrs.get(name, {}).get("probes", 0)

    registry = iteration.registry
    stats = ws.internet.stats()
    campaign = ws.campaign
    counts = campaign.category_counts()
    campaign_s = seconds.get("core.campaign", 0.0)
    campaign_cpu = cpu.get("core.campaign", 0.0)
    metrics: Dict[str, float] = {
        "netsim.probe_us": stats["probe_us_avg"],
        "netsim.batched_share": (
            stats["batched_probes"] / stats["probe_count"]
            if stats["probe_count"] else 0.0
        ),
        "netsim.forwarder_hit_rate": stats["forwarder_cache_hit_rate"],
        "probing.scan_s": seconds.get("probing.scan", 0.0),
        "probing.eligible_slash24s": len(ws.eligible_slash24s()),
        "probing.path_dataset_s": seconds.get("probing.path_dataset", 0.0),
        "probing.path_dataset_probes": probes("probing.path_dataset"),
        "probing.path_dataset_slash24s": (
            len(ws.path_dataset) if "probing.path_dataset" in seconds else 0
        ),
        "core.confidence_dataset_s": seconds.get(
            "core.confidence_dataset", 0.0
        ),
        "core.confidence_dataset_probes": probes("core.confidence_dataset"),
        "core.confidence_table_s": seconds.get("core.confidence_table", 0.0),
        "core.campaign_s": campaign_s,
        "core.campaign_cpu_s": campaign_cpu,
        "core.campaign_core_util": (
            campaign_cpu / (campaign_s * run.spec.workers)
            if campaign_s else 0.0
        ),
        "core.campaign_probes": probes("core.campaign"),
        "core.campaign_probes_per_s": (
            probes("core.campaign") / campaign_s if campaign_s else 0.0
        ),
        "core.campaign_slash24s": campaign.total,
        "core.fastpath_fallbacks": registry.counter_value(
            "campaign.fastpath_fallback"
        ),
        "core.parallel_fallbacks": registry.counter_value(
            "campaign.parallel_fallback"
        ),
        "core.lease_steals": registry.counter_value(
            "campaign.parallel.lease.steals"
        ),
        "core.lease_takeovers": registry.counter_value(
            "campaign.parallel.lease.takeover"
        ),
        "core.strict_het_s": seconds.get("core.strict_het", 0.0),
        "core.strict_het_probes": probes("core.strict_het"),
        **{
            f"core.share.{label}": counts[category] / campaign.total
            for category, label in _CATEGORY_METRIC.items()
        },
        "aggregation.run_s": seconds.get("aggregation.run", 0.0),
        "aggregation.reprobe_s": factor * registry.timer_seconds(
            "phase.aggregate.reprobe"
        ),
        "aggregation.reprobe_probes": probes("aggregation.run"),
        "aggregation.graph_s": factor * registry.timer_seconds(
            "phase.aggregate.graph"
        ),
        "aggregation.mcl_s": factor * registry.timer_seconds(
            "phase.aggregate.mcl"
        ),
        "aggregation.cpu_s": cpu.get("aggregation.run", 0.0),
        "aggregation.mcl_runs": registry.counter_value("mcl.runs"),
        "aggregation.mcl_iterations": registry.counter_value(
            "mcl.iterations"
        ),
        "aggregation.edges": registry.gauge_value("aggregation.edges"),
        "aggregation.components": registry.gauge_value(
            "aggregation.components"
        ),
        "aggregation.identical_blocks": len(outcome.identical_blocks),
        "aggregation.final_blocks": len(outcome.final_blocks),
        "aggregation.parallel_fallbacks": (
            registry.counter_value("aggregation.parallel_fallback")
            + registry.counter_value("aggregation.component_fallback")
        ),
        "aggregation.engine_fallbacks": registry.counter_value(
            "aggregation.fallback"
        ),
        "store.bytes": 0,
        "store.records": 0,
        "store.verify_s": seconds.get("store.verify", 0.0),
        **{
            f"experiments.{experiment}_s": seconds.get(
                f"experiments.{experiment}", 0.0
            )
            for experiment in REANALYSIS_EXPERIMENTS
        },
        "analysis.score_s": seconds.get("analysis.score", 0.0),
    }
    # The benchmark's own time between layer calls (calibration loops
    # included) stays raw; layer time is scaled like wall_s.
    self_seconds = layer_self_times([iteration.root, *spans])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = factor * self_seconds.get(layer, 0.0)
    metrics["bench.self_s"] = self_seconds["iteration"]
    metrics["host.raw_wall_s"] = iteration.raw_wall_s
    return metrics


def end_to_end_metrics(run: Run) -> Dict[str, float]:
    """The end-to-end metrics over a run's (untraced) passes; a pass
    measures every world once. Times are medians over passes; counts
    and quality come from the first pass (every pass repeats them, a
    checked invariant)."""
    size = len(run.worlds)
    passes = [
        run.iterations[start:start + size]
        for start in range(0, len(run.iterations), size)
    ]
    first = passes[0]
    wall = statistics.median(sum(it.wall_s for it in p) for p in passes)
    slash24s = sum(it.slash24s for it in first)
    return {
        "setup_s": (
            statistics.median(run.build_samples)
            * speed_factor(run.calibrations)
        ),
        "wall_s": wall,
        "cpu_s": statistics.median(sum(it.cpu_s for it in p) for p in passes),
        "slash24s_per_s": slash24s / wall,
        "peak_rss_mb": max(it.peak_rss_mb for it in run.iterations),
        "probes": sum(it.probes for it in first),
        "probes_per_slash24": (
            sum(it.campaign_probes for it in first) / slash24s
        ),
        "homog_precision": statistics.mean(it.precision for it in first),
        "homog_recall": statistics.mean(it.recall for it in first),
        "block_purity": statistics.mean(it.purity for it in first),
        "pass_ratio": 1.0 - run.ledger.fail_ratio,
    }


def run_workload(
    run: Run, seconds: float, journal: Optional[str]
) -> Dict[str, float]:
    """Set up, then measure. Untraced (``journal`` None): repeat passes
    over the run's worlds until ``seconds`` of measured work, report
    end-to-end metrics. Traced: the first world once untraced and once
    with the program's journal on; report per-layer metrics of the
    traced one."""
    measure = WORKLOADS[run.workload]
    with run.recorder.span("setup"):
        run.scenario_builds()
    if journal is None:
        while True:
            for world in run.worlds:
                measure(run, world)
            if sum(it.wall_s for it in run.iterations) >= seconds:
                return end_to_end_metrics(run)
    plain = measure(run, run.worlds[0])
    configure_tracing(journal)
    try:
        traced = measure(run, run.worlds[0])
    finally:
        configure_tracing(None)
    summary = summarize_trace(journal)
    run.ledger.check(
        "obs.journal_clean",
        summary.clean and not summary.unclosed_spans,
        f"{summary.corrupt_lines} corrupt lines, "
        f"{len(summary.warnings)} warnings, "
        f"{summary.unclosed_spans} unclosed spans",
    )
    metrics = dict(traced.layer)
    metrics["netsim.build_s"] = (
        statistics.median(run.build_samples) * speed_factor(run.calibrations)
    )
    metrics["obs.trace_overhead"] = traced.wall_s / plain.wall_s
    metrics["host.calib_s"] = statistics.mean(run.calibrations)
    metrics["fail_ratio"] = run.ledger.fail_ratio
    return metrics
