"""Compiled probe engine: route templates for every probe-heavy phase.

Every probe-heavy phase of the pipeline is one of two shapes. The
per-/24 last-hop sessions (campaign, exhaustive confidence dataset,
reprobe, strict-het) send a long serial sequence of echo, locate-ladder
and last-hop enumeration probes; the full-path dataset runs Paris
traceroute MDA (:func:`~repro.probing.mda.enumerate_paths`). In both,
a probe's *reply* depends on only a handful of facts: which router sits
at the probed TTL (or that the TTL overshoots the path), whether that
router responds and has rate-limiter tokens, one stochastic-loss draw,
and — for host probes — the destination's availability in the current
epoch plus two per-address constants (default TTL, reverse-path delta).
RTT values never influence what the classifier or the route set
observes, so the engine skips them entirely.

This module exploits that: for each /24 it flattens the compiled
forwarding plane into a **route template** — one slot per path position,
each slot either a fixed router or a load-balancer choice — under the
invariant that every branch of a choice has an identical continuation
(true of the builder's diamond topologies; violations fall back to the
object path). A probe at TTL *t* then needs at most one splitmix64
evaluation (the slot at position ``t-1``) instead of a full
``resolve_path`` walk plus reply-object construction. The route kernel
(:meth:`FastCampaignEngine.trace_routes`) goes one step further and
resolves each per-flow slot once per trace.

Parity contract: for every supported policy the engine's measurement
(observations, category, stop reason, ``probes_used``), its
:class:`~repro.probing.session.ProbeStats`, and the simulator state it
leaves (``probe_count``, clock, nonce, rate-limiter buckets, cellular
radio tracker, the caller's RNG) are bit-identical to the object path
(:func:`repro.core.classifier.measure_slash24` through a
:class:`~repro.probing.session.Prober`); the route kernel's route set
equals :func:`~repro.probing.mda.enumerate_paths`'. The golden suites
``tests/core/test_columnar_campaign.py`` (whole campaigns) and
``tests/core/test_engine_parity.py`` (every workspace phase) enforce
this.

A session may start at any point of a probe stream, not only at a
measurement-context boundary. Simulator state that probes would mutate
— rate-limiter buckets, the radio tracker, the clock, the nonce — is
mirrored locally (limiter mirrors start from the live buckets) and only
committed when the /24 or trace completes. A :class:`FastPathUnsupported`
raised mid-/24 therefore leaves the simulator untouched and the
caller's RNG restored, and the object path continues from the same
point.
"""

from __future__ import annotations

import math
import os
import random
import time
from bisect import bisect_right
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..net.addr import format_address
from ..netsim import hosts as hostmod
from ..netsim.loadbalance import (
    HybridBalancer,
    PerDestinationBalancer,
    PerFlowBalancer,
    PerPacketBalancer,
)
from ..obs.metrics import current_metrics
from ..obs.trace import trace_warning
from ..probing.mda import DEFAULT_MAX_TTL as _MAX_TTL
from ..probing.mda import enumerate_paths
from ..probing.session import ECHO_TTL as _ECHO_TTL
from ..probing.session import Prober, ProbeStats
from ..probing.stopping import DEFAULT_CONFIDENCE, probes_required
from ..probing.traceroute import Route
from ..util.hashing import MASK64, splitmix64
from .classifier import (
    Category,
    Slash24Measurement,
    closing_category_from_state,
)
from .confidence import ConfidenceTable
from .selection import meets_selection_criteria, round_robin_order
from .termination import (
    ExhaustivePolicy,
    ReprobePolicy,
    TerminationPolicy,
    TerminationState,
)

#: Environment variable selecting the campaign execution engine:
#: ``columnar`` (default — this compiled engine plus columnar results
#: where requested) or ``object`` (the per-object reference path).
CAMPAIGN_ENGINE_ENV = "REPRO_CAMPAIGN_ENGINE"

#: ``enumerate_paths``' default cap on flows per destination.
_MAX_FLOWS = 64

_TWO64 = float(1 << 64)

# Slot kinds after per-destination specialization.
_FIXED = 0     # (0, (responds, limiter, address))
_BY_FLOW = 1   # (1, pre, n, members) — index = splitmix64(pre ^ flow) % n
_BY_NONCE = 2  # (2, pre, n, members) — index = splitmix64(pre ^ nonce) % n

# Template-slot kinds before specialization (destination unknown).
_T_FIXED = 0
_T_PER_FLOW = 1
_T_PER_DEST = 2
_T_HYBRID = 3
_T_PER_PACKET = 4


class FastPathUnsupported(Exception):
    """The compiled engine cannot replay this /24 or trace; the caller
    falls back to the object path from the same point (no simulator
    state was touched and the caller's RNG is restored)."""


def campaign_engine_name() -> str:
    """The configured campaign engine (``columnar`` or ``object``)."""
    value = os.environ.get(CAMPAIGN_ENGINE_ENV, "").strip().lower()
    if value in ("object", "reference"):
        return "object"
    return "columnar"


def _compiled_engine(prober: Prober) -> Optional["FastCampaignEngine"]:
    """The simulator's compiled engine if ``prober`` may use it, else
    None: a plain :class:`Prober` (subclasses may override ``probe``),
    no probe budget (budget accounting must raise at the exact probe,
    which only the Prober path does), the columnar campaign engine and a
    compiled forwarding plane (``REPRO_REFERENCE_ENGINE=1`` pins the
    reference everything)."""
    if type(prober) is not Prober or prober.max_probes is not None:
        return None
    if campaign_engine_name() == "object":
        return None
    internet = prober.internet
    if internet._reference or not internet.forwarder.compiled_enabled:
        return None
    engine = getattr(internet, "_fast_engine", None)
    if engine is None or not engine.valid():
        engine = FastCampaignEngine(internet)
        internet._fast_engine = engine
    return engine


def fast_engine_for(
    prober: Prober, policy
) -> Optional["FastCampaignEngine"]:
    """The compiled engine for a last-hop session under ``policy`` if
    eligible, else None. Besides the prober checks, only the exact
    policy types the engine replicates qualify (subclasses may override
    hooks the engine inlines)."""
    kind = type(policy)
    if kind is TerminationPolicy:
        table = policy.confidence_table
        if table is not None and type(table) is not ConfidenceTable:
            return None
    elif kind not in (ReprobePolicy, ExhaustivePolicy):
        return None
    return _compiled_engine(prober)


def note_fastpath_fallback(subject: str, unsupported: Exception) -> None:
    """Make a compiled-engine fallback visible: a fallback is correct
    but slower, and a phase that silently degrades is invisible in
    benchmarks."""
    current_metrics().count("campaign.fastpath_fallback")
    trace_warning(
        "campaign.fastpath_fallback",
        f"compiled engine declined {subject}; measured on the object "
        "path (identical result, slower)",
        subject=subject,
        reason=str(unsupported),
    )


def enumerate_routes(
    prober: Prober, dst: int, flow_seed: int = 0
) -> FrozenSet[Route]:
    """The route set :func:`~repro.probing.mda.enumerate_paths` discovers
    towards ``dst`` with default parameters (empty if the destination
    never answered), on the compiled route kernel when eligible.

    Probes, clock, nonce and ``prober.stats`` move exactly as the
    Prober path moves them; only the per-hop RTTs are never computed.
    """
    engine = _compiled_engine(prober)
    if engine is not None:
        try:
            routes, stats = engine.trace_routes(dst, flow_seed, prober.source)
        except FastPathUnsupported as unsupported:
            note_fastpath_fallback(
                f"routes towards {format_address(dst)}", unsupported
            )
        else:
            prober.stats.merge(stats)
            return routes
    return frozenset(enumerate_paths(prober, dst, flow_seed=flow_seed).routes)


class _DstProgram:
    """A route template specialized to one destination."""

    __slots__ = (
        "dst", "slots", "length", "observed_ttl",
        "density", "stability", "sleep_p", "up_epoch", "allocated", "pod",
    )

    def __init__(self, dst, slots, length, observed_ttl,
                 density, stability, sleep_p, allocated, pod=None):
        self.dst = dst
        self.slots = slots
        self.length = length
        self.observed_ttl = observed_ttl
        self.density = density
        self.stability = stability
        self.sleep_p = sleep_p
        #: Memoized (epoch, up, renumbered) availability of this
        #: destination.
        self.up_epoch: Optional[Tuple[int, bool, bool]] = None
        self.allocated = allocated
        #: The destination's pod: outage windows and renumbering keys
        #: (with a dynamic-event schedule) and the radio tracker.
        self.pod = pod


class FastCampaignEngine:
    """Per-simulator compiled probe engine. See module docstring."""

    def __init__(self, internet) -> None:
        self.internet = internet
        forwarder = internet.forwarder
        # Staleness anchors: _reset_compiled_state replaces the dict
        # object wholesale, and allocation changes bump the revision.
        self._compiled_ref = forwarder._compiled
        self._alloc_revision = internet.allocations.revision
        #: key24 → (template slots, uniform-for-/24) or None (build failed).
        self._templates: Dict[int, Optional[Tuple[tuple, bool]]] = {}
        built = internet._built
        self._host_seed = built.host_seed
        self._loss_base = splitmix64(built.loss_seed & MASK64)

    def valid(self) -> bool:
        forwarder = self.internet.forwarder
        return (
            forwarder.compiled_enabled
            and self._compiled_ref is forwarder._compiled
            and self._alloc_revision == self.internet.allocations.revision
        )

    # -- route templates --------------------------------------------------

    @staticmethod
    def _member(router) -> tuple:
        return (
            router.responds_to_ttl_exceeded, router.rate_limiter,
            router.address,
        )

    def _choice_slot(self, selector, members: tuple) -> tuple:
        data = tuple(self._member(m) for m in members)
        kind = type(selector)
        if kind is PerFlowBalancer:
            return (_T_PER_FLOW, selector.salt, len(data), data)
        if kind is PerDestinationBalancer:
            return (
                _T_PER_DEST, selector.salt, selector.include_source,
                len(data), data,
            )
        if kind is HybridBalancer:
            return (_T_HYBRID, selector.salt, len(data), data)
        if kind is PerPacketBalancer:
            return (
                _T_PER_PACKET, splitmix64(selector.salt & MASK64),
                len(data), data,
            )
        raise FastPathUnsupported(f"selector {kind.__name__}")

    def _build_template(self, dst: int) -> Tuple[tuple, bool]:
        """Flatten the forwarding DAG towards ``dst`` into slots.

        Returns (slots, uniform) where ``uniform`` is True when every
        FIB interval consulted covers ``dst``'s whole /24 — then the
        template is valid for every destination in the /24 and is cached
        under the /24 key.
        """
        forwarder = self.internet.forwarder
        by_id = forwarder.topology.by_id
        fibs = forwarder.fibs
        compiled_fib = forwarder._compiled_fib
        memo: Dict[int, tuple] = {}
        building: set = set()
        uniform = [True]

        def chain(router) -> tuple:
            rid = router.router_id
            cached = memo.get(rid)
            if cached is not None:
                return cached
            if rid in building:
                raise FastPathUnsupported("forwarding loop")
            building.add(rid)
            fib = fibs.get(rid)
            if fib is None:
                raise FastPathUnsupported("router has no FIB")
            cfib = compiled_fib(rid, fib)
            index = bisect_right(cfib.starts, dst) - 1
            if not cfib.covers24[index]:
                uniform[0] = False
            entry = cfib.values[index]
            if entry is None:
                raise FastPathUnsupported("no route")
            if entry.delivers:
                out: tuple = ((_FIXED, self._member(router)),)
            else:
                selector = entry.selector
                hops = selector.next_hops
                if len(hops) == 1:
                    out = ((_FIXED, self._member(router)),) + chain(
                        by_id(hops[0])
                    )
                else:
                    members = tuple(by_id(hop) for hop in hops)
                    tails = [chain(member) for member in members]
                    rest = tails[0][1:]
                    for tail in tails[1:]:
                        if tail[1:] != rest:
                            # A branch changes the downstream path: the
                            # slot-per-position model cannot represent
                            # it, and the builder never produces it.
                            raise FastPathUnsupported(
                                "divergent branch continuations"
                            )
                    out = (
                        (_FIXED, self._member(router)),
                        self._choice_slot(selector, members),
                    ) + rest
            building.discard(rid)
            memo[rid] = out
            return out

        slots = chain(forwarder.source_router)
        if len(slots) >= _ECHO_TTL:
            # Echo probes would land on a router; possible in theory,
            # never in built scenarios — leave it to the object path.
            raise FastPathUnsupported("path reaches echo TTL")
        return slots, uniform[0]

    def _template_for(
        self, dst: int, local: Dict[int, tuple]
    ) -> tuple:
        key24 = dst >> 8
        cached = self._templates.get(key24, False)
        if cached is False:
            try:
                slots, uniform = self._build_template(dst)
            except FastPathUnsupported:
                self._templates[key24] = None
                raise
            self._templates[key24] = (slots, uniform) if uniform else None
            if not uniform:
                local[dst] = slots
            return slots
        if cached is not None:
            return cached[0]
        # Non-uniform /24 (split-/24 FIB intervals): per-destination
        # templates, memoized for this measurement only.
        slots = local.get(dst)
        if slots is None:
            slots, _ = self._build_template(dst)
            local[dst] = slots
        return slots

    # -- per-destination specialization -----------------------------------

    def _program_for(
        self, dst: int, src: int, local: Dict[int, tuple]
    ) -> _DstProgram:
        internet = self.internet
        allocation = internet._allocation_of(dst)
        if allocation is None:
            # The object path's probes to unallocated space consume
            # clock/nonce and time out; no routing needed.
            return _DstProgram(dst, (), 0, 0, 0.0, 0.0, 0.0, False)
        template = self._template_for(dst, local)
        slots: List[tuple] = []
        for slot in template:
            kind = slot[0]
            if kind == _T_FIXED:
                slots.append(slot)
            elif kind == _T_PER_FLOW:
                _, salt, n, members = slot
                pre = splitmix64(
                    splitmix64(splitmix64(salt & MASK64) ^ src) ^ dst
                )
                slots.append((_BY_FLOW, pre, n, members))
            elif kind == _T_PER_DEST:
                _, salt, include_source, n, members = slot
                if include_source:
                    index = splitmix64(
                        splitmix64(splitmix64(salt & MASK64) ^ src) ^ dst
                    ) % n
                else:
                    index = splitmix64(splitmix64(salt & MASK64) ^ dst) % n
                slots.append((_FIXED, members[index]))
            elif kind == _T_HYBRID:
                _, salt, n, members = slot
                first = splitmix64(splitmix64(salt & MASK64) ^ dst) % n
                pair = (members[first], members[(first + 1) % n])
                pre = splitmix64(
                    splitmix64(
                        splitmix64((salt ^ 0x5A5A) & MASK64) ^ src
                    ) ^ dst
                )
                slots.append((_BY_FLOW, pre, 2, pair))
            else:  # _T_PER_PACKET
                _, pre, n, members = slot
                slots.append((_BY_NONCE, pre, n, members))
        length = len(slots)
        config = internet.config
        pod = allocation.pod
        host_seed = self._host_seed
        default = hostmod.default_ttl(
            host_seed, dst, config.default_ttl_weights,
            config.custom_ttl_probability,
        )
        delta = hostmod.reverse_path_delta(
            host_seed, dst, config.reverse_delta_weights
        )
        observed_ttl = max(0, default - max(1, length + delta))
        return _DstProgram(
            dst, tuple(slots), length, observed_ttl,
            pod.host_density, pod.host_stability, pod.sleep_probability,
            True, pod,
        )

    # -- probe sessions ---------------------------------------------------

    def _open_session(self):
        """The per-probe reply step over mirrored simulator state, and
        the commit that writes that state back.

        ``send(prog, ttl, flow)`` returns None (timeout), -1 (echo
        reply) or the responding router's address (TTL-exceeded), and
        calls the rate limiters, the event schedule and the host
        availability draw exactly as the object path's reply does.
        ``commit()`` adds the session's probes, clock, nonce, limiter
        buckets, radio-tracker updates and wall time to the simulator
        and returns the session's :class:`ProbeStats`.
        """
        started = time.perf_counter()
        internet = self.internet
        config = internet.config
        step = config.probe_clock_step_seconds
        epoch_seconds = config.epoch_seconds
        host_seed = self._host_seed
        loss_base = self._loss_base
        p_router = config.router_loss_probability
        p_host = config.host_loss_probability
        host_up = hostmod.host_up_in_epoch
        floor = math.floor
        sm = splitmix64
        mask = MASK64
        #: Dynamic-event schedule (None in the common, event-free case).
        events = internet.events

        clock = internet.clock_seconds
        nonce = internet._nonce
        sent = 0
        answered = 0
        echo_replies = 0
        ttl_exceeded = 0
        #: Limiter → [tokens, last refill time]: mirrors of the live
        #: token buckets, taken at a limiter's first probe.
        limiters: Dict[object, list] = {}
        #: Cellular destination → clock of its latest echo reply.
        radio: Dict[int, float] = {}

        def send(prog: _DstProgram, ttl: int, flow: int):
            nonlocal clock, nonce, sent, answered, echo_replies, ttl_exceeded
            sent += 1
            nonce += 1
            clock += step
            if not prog.allocated:
                return None
            if ttl <= prog.length:
                slot = prog.slots[ttl - 1]
                kind = slot[0]
                if kind == _FIXED:
                    responds, limiter, address = slot[1]
                elif kind == _BY_FLOW:
                    responds, limiter, address = slot[3][
                        sm(slot[1] ^ flow) % slot[2]
                    ]
                else:
                    responds, limiter, address = slot[3][
                        sm(slot[1] ^ (nonce & mask)) % slot[2]
                    ]
                if not responds:
                    return None
                if limiter is not None:
                    state = limiters.get(limiter)
                    if state is None:
                        state = [limiter._tokens, limiter._last_time]
                        limiters[limiter] = state
                    tokens = state[0]
                    # Mirror RateLimiter.allow arithmetic-for-arithmetic,
                    # including the storm-scaled capacity/rate and clamp.
                    capacity = limiter.capacity
                    rate = limiter.rate_per_second
                    if events is not None:
                        scale = events.storm_scale(address, clock)
                        if scale != 1.0:
                            capacity = capacity * scale
                            rate = rate * scale
                            if tokens > capacity:
                                tokens = capacity
                    if clock > state[1]:
                        tokens = min(
                            capacity,
                            tokens + (clock - state[1]) * rate,
                        )
                        state[1] = clock
                    if tokens >= 1.0:
                        state[0] = tokens - 1.0
                    else:
                        state[0] = tokens
                        return None
                if (
                    p_router > 0.0
                    and sm(loss_base ^ (nonce & mask)) / _TWO64 < p_router
                ):
                    return None
                answered += 1
                ttl_exceeded += 1
                return address
            if events is not None and events.outage_active(prog.pod, clock):
                return None
            epoch = floor(clock / epoch_seconds)
            memo = prog.up_epoch
            if memo is not None and memo[0] == epoch:
                up = memo[1]
                if memo[2]:
                    # The object path re-derives the renumbered key on
                    # every host probe, counting each redirection.
                    events.counters["renumber"] += 1
            else:
                # Renumbering keys availability on the subscriber identity
                # (canonical address), so the memo stays valid per epoch:
                # the key depends only on (pod, dst, epoch).
                key = prog.dst
                if events is not None:
                    key = events.availability_key(prog.pod, key, epoch)
                up = host_up(
                    host_seed, key, epoch,
                    prog.density, prog.stability, prog.sleep_p,
                )
                prog.up_epoch = (epoch, up, key != prog.dst)
            if not up:
                return None
            if (
                p_host > 0.0
                and sm(loss_base ^ (nonce & mask)) / _TWO64 < p_host
            ):
                return None
            if prog.pod.cellular:
                radio[prog.dst] = clock
            answered += 1
            echo_replies += 1
            return -1

        def commit() -> ProbeStats:
            internet.probe_count += sent
            internet.clock_seconds = clock
            internet._nonce = nonce
            touched = internet._touched_limiters
            for limiter, (tokens, last) in limiters.items():
                limiter._tokens = tokens
                limiter._last_time = last
                touched.add(limiter)
            if radio:
                # The tracker only keeps each address's latest probe.
                internet._radio._last_probe.update(radio)
            internet.probe_seconds += time.perf_counter() - started
            return ProbeStats(
                sent=sent, answered=answered,
                echo_replies=echo_replies, ttl_exceeded=ttl_exceeded,
            )

        return send, commit

    # -- last-hop sessions ------------------------------------------------

    def measure(
        self,
        policy,
        slash24,
        snapshot_active: List[int],
        rng: random.Random,
        max_destinations: Optional[int],
        source: Optional[int] = None,
    ) -> Tuple[Slash24Measurement, ProbeStats]:
        """Measure one /24 — bit-identical to the object path.

        Valid at any point of a probe stream; ``rng`` is the caller's
        RNG, drawn from exactly as the object path draws (the
        destination order is consumed lazily). Raises
        :class:`FastPathUnsupported` when a route template cannot be
        built, with the simulator untouched and ``rng`` restored.
        """
        result = Slash24Measurement(
            slash24=slash24, category=Category.TOO_FEW_ACTIVE
        )
        if not meets_selection_criteria(snapshot_active):
            return result, ProbeStats()
        internet = self.internet
        events = internet.events
        rng_state = rng.getstate()
        counters = dict(events.counters) if events is not None else None
        send, commit = self._open_session()
        try:
            self._measure(
                send, result, policy, snapshot_active, rng,
                max_destinations,
                internet.vantage_address if source is None else source,
            )
        except FastPathUnsupported:
            rng.setstate(rng_state)
            if counters is not None:
                events.counters.clear()
                events.counters.update(counters)
            raise
        return result, commit()

    def _measure(
        self, send, result, policy, snapshot_active, rng, max_destinations,
        src,
    ) -> None:
        observations: Dict[int, frozenset] = {}
        state = TerminationState()
        policy_kind = type(policy)
        is_termination = policy_kind is TerminationPolicy
        is_closing_policy = policy_kind in (ReprobePolicy, ExhaustivePolicy)
        local_templates: Dict[int, tuple] = {}

        flow_seed = rng.randrange(1 << 30)
        for index, dst in enumerate(round_robin_order(snapshot_active, rng)):
            if max_destinations is not None and index >= max_destinations:
                break
            prog = self._program_for(dst, src, local_templates)
            fs = flow_seed + index * 101

            # Step 1 (mda): echo with retries — 3 attempts, flows 0..2;
            # counts once in probes_used, each attempt in stats.sent.
            reply = None
            for attempt in range(3):
                reply = send(prog, _ECHO_TTL, attempt)
                if reply is not None:
                    break
            result.probes_used += 1
            if reply is None:
                continue
            result.hosts_responsive += 1
            observed = prog.observed_ttl if reply == -1 else 255 - _ECHO_TTL
            if observed < 64:
                assumed = 64
            elif observed < 128:
                assumed = 128
            elif observed < 192:
                assumed = 192
            else:
                assumed = 255
            estimate = max(1, assumed - observed)

            # Step 2: locate the last-hop TTL, halving on overshoot.
            first_ttl = min(estimate, _MAX_TTL)
            distance = None
            while first_ttl >= 1:
                overshoot = False
                found = None
                for ttl in range(first_ttl, _MAX_TTL + 1):
                    got_echo = False
                    for attempt in range(2):
                        reply = send(prog, ttl, fs + attempt)
                        result.probes_used += 1
                        if reply is None:
                            continue
                        if reply == -1:
                            got_echo = True
                        break
                    if got_echo:
                        if ttl == first_ttl and first_ttl > 1:
                            overshoot = True
                        else:
                            found = ttl - 1 if ttl > 1 else None
                        break
                if overshoot:
                    first_ttl //= 2
                    continue
                distance = found
                break
            if distance is None:
                continue

            # Step 3: enumerate last-hop routers with the stopping rule.
            seen: set = set()
            probes_sent = 0
            while True:
                required = probes_required(
                    max(len(seen), 1), DEFAULT_CONFIDENCE
                )
                if probes_sent >= required:
                    break
                for flow in range(fs + probes_sent, fs + required):
                    reply = send(prog, distance, flow)
                    if reply is None or reply == -1:
                        continue
                    seen.add(reply)
                result.probes_used += required - probes_sent
                probes_sent = required
            if not seen:
                continue
            lasthops = frozenset(seen)
            observations[dst] = lasthops
            state.observe(dst, lasthops)
            result.destinations_probed = len(observations)
            reason = policy.should_stop_state(state)
            if reason is not None:
                result.observations = observations
                result.stop_reason = reason
                result.category = closing_category_from_state(state)
                return
        # Ran out of destinations (or hit the destination cap) before
        # the policy was satisfied — the object path's tail
        # classification, on incremental aggregates.
        result.observations = observations
        result.destinations_probed = len(observations)
        if result.hosts_responsive < 4:
            result.category = Category.TOO_FEW_ACTIVE
        elif not observations:
            result.category = Category.UNRESPONSIVE_LASTHOP
        elif is_closing_policy:
            result.category = closing_category_from_state(state)
        elif is_termination and policy.required_probes_state(state) is None:
            result.category = closing_category_from_state(state)
        else:
            result.category = Category.TOO_FEW_ACTIVE

    # -- route kernel -----------------------------------------------------

    def trace_routes(
        self,
        dst: int,
        flow_seed: int = 0,
        source: Optional[int] = None,
    ) -> Tuple[FrozenSet[Route], ProbeStats]:
        """Replay :func:`~repro.probing.mda.enumerate_paths` towards
        ``dst`` (default confidence, TTLs 1..32, three attempts per
        TTL, at most 64 flows) and return its route set — empty if no
        trace reached ``dst`` — with the session's probe accounting.

        Each flow's per-flow slot choices are resolved once per trace;
        no reply objects or RTTs are built. Raises
        :class:`FastPathUnsupported` before sending any probe when the
        route template cannot be built.
        """
        internet = self.internet
        src = internet.vantage_address if source is None else source
        prog = self._program_for(dst, src, {})
        send, commit = self._open_session()
        sm = splitmix64
        base = prog.slots
        routes: set = set()
        flows_tried = 0
        while flows_tried < min(
            probes_required(max(len(routes), 1), DEFAULT_CONFIDENCE),
            _MAX_FLOWS,
        ):
            flow = flow_seed + flows_tried
            flows_tried += 1
            prog.slots = tuple(
                (_FIXED, slot[3][sm(slot[1] ^ flow) % slot[2]])
                if slot[0] == _BY_FLOW else slot
                for slot in base
            )
            hops: List[Optional[int]] = []
            for ttl in range(1, _MAX_TTL + 1):
                # paris_traceroute: up to three attempts per TTL.
                reply = send(prog, ttl, flow)
                if reply is None:
                    reply = send(prog, ttl, flow)
                    if reply is None:
                        reply = send(prog, ttl, flow)
                if reply == -1:
                    routes.add(tuple(hops))
                    break
                hops.append(reply)
        return frozenset(routes), commit()
