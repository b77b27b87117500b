"""Parity tests for the compiled forwarding plane + batched probe engine.

Every optimisation in the probe hot path claims *bit-identity* with the
serial reference implementation. This file holds that claim to account
layer by layer: trie flattening, compiled path resolution, the
vectorised stochastic draws, and the batched probe API. The end-to-end
campaign-level parity check lives in ``tests/core/test_engine_parity.py``.
"""

import dataclasses
import pickle
import random

import numpy as np
import pytest

from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.netsim import hosts as hostmod
from repro.netsim.config import EventConfig
from repro.netsim.draws import DRAW_BLOCK_NONCES
from repro.netsim.icmp import stochastic_loss, stochastic_loss_np
from repro.netsim.internet import MIN_VECTOR_BATCH
from repro.netsim.routing import Forwarder
from repro.netsim.rtt import (
    HOST_LATENCY_MS,
    path_rtt_ms,
    rtt_draws_for_nonces,
)
from repro.util.hashing import mix_np, splitmix64, splitmix64_np, unit_np

SEED = 13


def _fresh(seed=SEED):
    return SimulatedInternet.from_config(tiny_scenario(seed=seed))


def _reference(monkeypatch, seed=SEED):
    """A bit-identical internet forced onto the legacy serial engine."""
    monkeypatch.setenv("REPRO_REFERENCE_ENGINE", "1")
    net = SimulatedInternet.from_config(tiny_scenario(seed=seed))
    monkeypatch.delenv("REPRO_REFERENCE_ENGINE")
    return net


# -- layer 1: trie flattening ------------------------------------------------


def _interval_lookup(points, addr):
    lo, hi = 0, len(points)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if points[mid][0] <= addr:
            lo = mid
        else:
            hi = mid
    return points[lo][1]


class TestLeafIntervals:
    def test_empty_trie(self):
        assert PrefixTrie().leaf_intervals() == [(0, None)]

    def test_single_prefix(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        points = trie.leaf_intervals()
        assert points == [
            (0, None),
            (10 << 24, "a"),
            (11 << 24, None),
        ]

    def test_nested_prefix_punches_hole(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "outer")
        trie.insert(Prefix.parse("10.1.0.0/16"), "inner")
        points = trie.leaf_intervals()
        base = 10 << 24
        assert points == [
            (0, None),
            (base, "outer"),
            (base + (1 << 16), "inner"),
            (base + (2 << 16), "outer"),
            (11 << 24, None),
        ]

    def test_fuzz_against_trie_lookup(self):
        rng = random.Random(99)
        for _ in range(40):
            trie = PrefixTrie()
            for _ in range(rng.randrange(0, 30)):
                length = rng.randrange(4, 30)
                network = rng.getrandbits(32) & ~((1 << (32 - length)) - 1)
                trie.insert(Prefix(network, length), rng.randrange(1000))
            points = trie.leaf_intervals()
            # Breakpoints are strictly increasing with no no-op runs.
            starts = [p[0] for p in points]
            assert starts == sorted(set(starts))
            probes = [rng.getrandbits(32) for _ in range(64)]
            # Also probe right at the breakpoints and just before them.
            for start, _ in points:
                probes.extend((start, max(0, start - 1)))
            for addr in probes:
                addr &= 0xFFFFFFFF
                hit = trie.lookup(addr)
                expected = None if hit is None else hit[1]
                assert _interval_lookup(points, addr) == expected

    def test_allocation_map_delegates(self):
        net = _fresh()
        points = net.allocations.leaf_intervals()
        rng = random.Random(5)
        for _ in range(500):
            addr = rng.getrandbits(32)
            hit = net.allocations.lookup(addr)
            assert _interval_lookup(points, addr) is hit


# -- layer 2: compiled path resolution ---------------------------------------


class TestCompiledResolve:
    def test_matches_reference_walk(self, monkeypatch):
        compiled = _fresh()
        reference = _reference(monkeypatch)
        assert compiled.forwarder.compiled_enabled
        assert not reference.forwarder.compiled_enabled
        src = compiled.vantage_address
        dsts = [s24.first + offset
                for s24 in compiled.universe_slash24s[:24]
                for offset in (0, 1, 77, 255)]
        for dst in dsts:
            for flow in range(3):
                for nonce in (1, 2):
                    fast = compiled.forwarder.resolve_path(
                        src, dst, flow, nonce
                    )
                    slow = reference.forwarder.resolve_path(
                        src, dst, flow, nonce
                    )
                    assert fast == slow, (hex(dst), flow, nonce)

    def test_shared_paths_are_identical_objects(self):
        net = _fresh()
        forwarder = net.forwarder
        src = net.vantage_address
        # Addresses of one /24 share the leaf route, so (outside
        # per-packet-balanced regions, whose paths legitimately vary per
        # probe) resolution must hand back the *same* tuple object — the
        # memory win of signature-keyed caching. At least some of the
        # scenario's /24s must exhibit the sharing.
        shared = 0
        for s24 in net.universe_slash24s:
            first = forwarder.resolve_path(src, s24.first, 0, 1)
            second = forwarder.resolve_path(src, s24.first + 1, 0, 2)
            if first is second:
                shared += 1
        assert shared > 0
        assert forwarder.cache_stats()["shared_paths"] > 0

    def test_hit_counters_and_stats_keys(self):
        net = _fresh()
        forwarder = net.forwarder
        src = net.vantage_address
        dst = net.universe_slash24s[0].first
        forwarder.resolve_path(src, dst, 0, 1)
        misses = forwarder.cache_misses
        forwarder.resolve_path(src, dst, 0, 2)
        assert forwarder.cache_hits >= 1
        assert forwarder.cache_misses == misses
        stats = forwarder.cache_stats()
        for key in (
            "hits", "misses", "hit_rate", "entries",
            "shared_paths", "entry_memo",
        ):
            assert key in stats
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_precompile_idempotent(self):
        net = _fresh()
        before = net.forwarder.cache_stats()["entry_memo"]
        net.forwarder.precompile()
        net.forwarder.precompile()
        assert net.forwarder.cache_stats()["entry_memo"] == before

    def test_clear_cache_resets(self):
        net = _fresh()
        src = net.vantage_address
        net.forwarder.resolve_path(src, net.universe_slash24s[0].first, 0, 1)
        assert net.forwarder.cache_size > 0
        net.forwarder.clear_cache()
        assert net.forwarder.cache_size == 0

    def test_pickle_drops_compiled_state(self):
        import pickle

        net = _fresh()
        src = net.vantage_address
        net.forwarder.resolve_path(src, net.universe_slash24s[0].first, 0, 1)
        clone = pickle.loads(pickle.dumps(net.forwarder))
        assert clone.cache_size == 0
        # ...and resolves identically after the lazy rebuild.
        for s24 in net.universe_slash24s[:8]:
            assert clone.resolve_path(
                src, s24.first, 0, 1
            ) == net.forwarder.resolve_path(src, s24.first, 0, 1)


# -- layer 3: vectorised stochastic draws ------------------------------------


class TestNumpyDrawParity:
    """The numpy draws must be *bitwise* equal to the scalar ones —
    close-enough floats would silently fork the simulated universe."""

    ADDRS = np.arange(0x0A000000, 0x0A000100, dtype=np.uint64)

    def test_splitmix64(self):
        values = np.arange(0, 4096, dtype=np.uint64)
        batch = splitmix64_np(values)
        for value, hashed in zip(values.tolist(), batch.tolist()):
            assert hashed == splitmix64(value)

    def test_hosts_up(self):
        for epoch in (0, 7):
            mask = hostmod.hosts_up_in_epoch_np(
                SEED, self.ADDRS, epoch, 0.4, 0.6, 0.05
            )
            for addr, up in zip(self.ADDRS.tolist(), mask.tolist()):
                assert up == hostmod.host_up_in_epoch(
                    SEED, addr, epoch, 0.4, 0.6, 0.05
                )

    def test_default_ttls(self):
        weights = ((64, 0.6), (128, 0.3), (255, 0.1))
        ttls = hostmod.default_ttls_np(SEED, self.ADDRS, weights, 0.1)
        for addr, ttl in zip(self.ADDRS.tolist(), ttls.tolist()):
            assert ttl == hostmod.default_ttl(SEED, addr, weights, 0.1)

    def test_reverse_path_deltas(self):
        weights = ((0, 0.7), (1, 0.2), (-1, 0.1))
        deltas = hostmod.reverse_path_deltas_np(SEED, self.ADDRS, weights)
        for addr, delta in zip(self.ADDRS.tolist(), deltas.tolist()):
            assert delta == hostmod.reverse_path_delta(SEED, addr, weights)

    def test_stochastic_loss(self):
        nonces = np.arange(1, 2001, dtype=np.uint64)
        mask = stochastic_loss_np(SEED, nonces, 0.03)
        for nonce, lost in zip(nonces.tolist(), mask.tolist()):
            assert lost == stochastic_loss(SEED, nonce, 0.03)

    def test_stochastic_loss_zero_probability(self):
        nonces = np.arange(1, 50, dtype=np.uint64)
        assert not stochastic_loss_np(SEED, nonces, 0.0).any()

    def test_rtt_draws_reconstruct_path_rtt(self):
        net = _fresh()
        seed = net._built.rtt_seed
        path = net.forwarder.resolve_path(
            net.vantage_address, net.universe_slash24s[0].first, 0, 1
        )
        propagation = 2.0 * net.forwarder.propagation_sums(path)[len(path)]
        nonces = list(range(1, 1001))
        jitter, flags, spike = rtt_draws_for_nonces(seed, nonces)
        assert any(flags)  # 1000 draws at 1% spike probability
        for index, nonce in enumerate(nonces):
            rtt = propagation + HOST_LATENCY_MS + jitter[index]
            if flags[index]:
                rtt += spike[index]
            assert rtt == path_rtt_ms(path, seed, nonce)


# -- layer 4: the batched probe API ------------------------------------------


def _replies_equal(batch, serial):
    assert len(batch) == len(serial)
    for got, expected in zip(batch, serial):
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.kind == expected.kind
            assert got.source == expected.source
            assert got.ttl == expected.ttl
            assert got.rtt_ms == expected.rtt_ms  # bitwise


class TestSendProbeBatch:
    def _serial(self, net, dsts, ttl, flows, gap=0.0):
        replies = []
        for index, (dst, flow) in enumerate(zip(dsts, flows)):
            if index and gap:
                net.advance_clock(gap)
            replies.append(net.send_probe(dst, ttl, flow))
        return replies

    def _assert_batch_matches_serial(self, dsts, ttl, flows, gap=0.0):
        batch_net, serial_net = _fresh(), _fresh()
        batch = batch_net.send_probe_batch(
            dsts, ttl, flows, inter_probe_seconds=gap
        )
        serial = self._serial(serial_net, dsts, ttl, flows, gap)
        _replies_equal(batch, serial)
        assert batch_net.clock_seconds == serial_net.clock_seconds
        assert batch_net.probe_count == serial_net.probe_count
        assert batch_net._nonce == serial_net._nonce

    def test_host_sweep(self):
        net = _fresh()
        dsts = [addr for s24 in net.universe_slash24s[:4] for addr in s24]
        self._assert_batch_matches_serial(dsts, 64, [0] * len(dsts))

    def test_router_ttls(self):
        net = _fresh()
        dsts = [s24.first + 9 for s24 in net.universe_slash24s[:16]]
        for ttl in (1, 3, 6):
            self._assert_batch_matches_serial(dsts, ttl, list(range(len(dsts))))

    def test_ping_train_with_clock_gaps(self):
        net = _fresh()
        dst = net.universe_slash24s[0].first + 3
        self._assert_batch_matches_serial(
            [dst] * 20, 64, [7] * 20, gap=0.5
        )

    def test_unallocated_destinations_mixed_in(self):
        net = _fresh()
        unallocated = next(
            addr for addr in range(1, 1 << 24)
            if net.allocations.lookup(addr) is None
        )
        dsts = [net.universe_slash24s[0].first, unallocated] * 8
        self._assert_batch_matches_serial(dsts, 64, [0] * len(dsts))

    def test_nonpositive_ttl_still_advances_clock(self):
        self._assert_batch_matches_serial(
            [1, 2, 3, 4, 5, 6], 0, [0] * 6
        )

    def test_small_batch_takes_serial_path(self):
        dsts = [0x0A000001] * (MIN_VECTOR_BATCH - 1)
        self._assert_batch_matches_serial(dsts, 64, [0] * len(dsts))

    def test_flow_ids_length_mismatch_raises(self):
        net = _fresh()
        with pytest.raises(ValueError, match="flow_ids"):
            net.send_probe_batch([1, 2, 3], 64, [0, 1])

    def test_negative_gap_raises(self):
        net = _fresh()
        with pytest.raises(ValueError):
            net.send_probe_batch([1, 2, 3, 4], 64, 0, None, -1.0)

    def test_reference_engine_never_batches(self, monkeypatch):
        net = _reference(monkeypatch)
        dsts = [s24.first for s24 in net.universe_slash24s[:8]]
        net.send_probe_batch(dsts, 64)
        assert net.stats()["probe_batches"] == 0
        assert net.stats()["batched_probes"] == 0

    def test_stats_report_engine_counters(self):
        net = _fresh()
        dsts = [addr for s24 in net.universe_slash24s[:2] for addr in s24]
        net.send_probe_batch(dsts, 64)
        stats = net.stats()
        assert stats["probe_batches"] == 1
        assert stats["batched_probes"] == len(dsts)
        assert stats["probe_seconds"] > 0.0
        assert stats["probe_us_avg"] > 0.0
        assert stats["forwarder_cache_hits"] >= 0
        assert 0.0 <= stats["forwarder_cache_hit_rate"] <= 1.0


# -- layer 5: nonce-block draws and host memos in the scalar path --------------


def _pair(monkeypatch, config=None):
    """(production, reference) internets over the same scenario."""
    config = config or tiny_scenario(seed=SEED)
    monkeypatch.setenv("REPRO_REFERENCE_ENGINE", "1")
    reference = SimulatedInternet.from_config(config)
    monkeypatch.delenv("REPRO_REFERENCE_ENGINE")
    return SimulatedInternet.from_config(config), reference


def _targets(net, slash24s=6, per_slash24=4):
    """Active hosts spread over the universe."""
    universe = net.universe_slash24s
    stride = max(1, len(universe) // slash24s)
    dsts = []
    for slash24 in universe[::stride][:slash24s]:
        dsts.extend(net.active_addresses_in_slash24(slash24)[:per_slash24])
    return dsts


def _trace(net, dsts, ttls=range(1, 12), flows=(0, 1, 2)):
    """A scalar Paris-traceroute-shaped stream over every (dst, flow,
    ttl): router replies for short TTLs, echo replies past the path."""
    return [
        net.send_probe(dst, ttl, flow)
        for dst in dsts for flow in flows for ttl in ttls
    ]


class TestDrawBlocks:
    """Scalar ``send_probe`` streams through the nonce-block draws and
    host memos must equal the reference engine's per-probe hashes."""

    def _assert_same(self, fast_net, slow_net, fast, slow):
        _replies_equal(fast, slow)
        assert any(reply is not None and reply.is_echo for reply in slow)
        assert any(
            reply is not None and not reply.is_echo for reply in slow
        )
        assert fast_net.clock_seconds == slow_net.clock_seconds
        assert fast_net.probe_count == slow_net.probe_count
        assert fast_net._nonce == slow_net._nonce

    def test_stream_crosses_block_boundaries(self, monkeypatch):
        fast_net, slow_net = _pair(monkeypatch)
        dsts = _targets(fast_net)
        fast, slow = _trace(fast_net, dsts), _trace(slow_net, dsts)
        assert len(fast) > 2 * DRAW_BLOCK_NONCES
        self._assert_same(fast_net, slow_net, fast, slow)
        assert fast_net.stats()["draw_block_fills"] == -(
            -len(fast) // DRAW_BLOCK_NONCES
        )

    def test_context_moves_nonce_backwards_mid_block(self, monkeypatch):
        fast_net, slow_net = _pair(monkeypatch)
        dsts = _targets(fast_net, slash24s=3, per_slash24=1)

        def run(net):
            net.begin_measurement_context(100.0, 5000)
            replies = _trace(net, dsts[:2], ttls=range(1, 11))
            # Back to an earlier nonce inside the same block, and to an
            # earlier clock: the block stays, the host memo is cleared.
            net.begin_measurement_context(40.0, 5010)
            return replies + _trace(net, dsts, ttls=range(1, 11))

        fast, slow = run(fast_net), run(slow_net)
        # Both contexts' nonces lie inside the first block.
        assert fast_net._nonce < 5000 + DRAW_BLOCK_NONCES
        self._assert_same(fast_net, slow_net, fast, slow)
        assert fast_net.stats()["draw_block_fills"] == 1

    def test_nonce_written_directly_between_probes(self, monkeypatch):
        fast_net, slow_net = _pair(monkeypatch)
        dsts = _targets(fast_net, slash24s=3, per_slash24=2)

        def run(net):
            # The compiled campaign engine commits nonce and clock by
            # assignment, without a context switch.
            replies = _trace(net, dsts[:2])
            net._nonce = 10 ** 9
            net.clock_seconds += 7.5
            replies += _trace(net, dsts[2:4])
            net._nonce = 40
            replies += _trace(net, dsts[4:])
            return replies

        fast, slow = run(fast_net), run(slow_net)
        self._assert_same(fast_net, slow_net, fast, slow)
        assert fast_net.stats()["draw_block_fills"] >= 3

    def test_events_at_intensity(self, monkeypatch):
        config = dataclasses.replace(
            tiny_scenario(seed=SEED), events=EventConfig.at_intensity(0.6)
        )
        fast_net, slow_net = _pair(monkeypatch, config)
        # Sweeping for targets counts renumbered keys too: sweep both.
        dsts = _targets(fast_net, slash24s=40, per_slash24=1)
        assert dsts == _targets(slow_net, slash24s=40, per_slash24=1)

        def run(net):
            net.apply_event_reroutes()
            replies = []
            for context in range(6):
                net.begin_measurement_context(
                    context * 1800.0 + 3.0, 1000 * context + 1
                )
                replies += _trace(net, dsts, flows=(0,))
            return replies

        fast, slow = run(fast_net), run(slow_net)
        self._assert_same(fast_net, slow_net, fast, slow)
        assert fast_net.events.counters == slow_net.events.counters
        for name in ("storm", "outage", "renumber", "reroute"):
            assert slow_net.events.counters[name] > 0, name

    def test_host_memo_within_context_spans_epochs(self, monkeypatch):
        fast_net, slow_net = _pair(monkeypatch)
        dsts = _targets(fast_net, slash24s=12, per_slash24=3)

        def run(net):
            replies = []
            for _ in range(6):
                replies += [net.send_probe(dst, 64, 0) for dst in dsts]
                replies.append(net.send_probe(dsts[0], 2, 0))
                net.advance_clock(net.config.epoch_seconds)
            return replies

        fast, slow = run(fast_net), run(slow_net)
        self._assert_same(fast_net, slow_net, fast, slow)
        # Availability really changed between epochs for some host.
        per_epoch = len(dsts) + 1
        answered = [
            tuple(reply is not None for reply in slow[at:at + len(dsts)])
            for at in range(0, len(slow), per_epoch)
        ]
        assert len(set(answered)) > 1

    def test_cellular_radio_promotion(self, monkeypatch):
        fast_net, slow_net = _pair(monkeypatch)
        pod = next(pod for pod in fast_net.pods if pod.cellular)
        hosts = [
            addr
            for slash24 in fast_net.universe_slash24s
            if fast_net.allocations.pod_of(slash24.first) is pod
            for addr in fast_net.active_addresses_in_slash24(slash24)[:2]
        ][:8]
        assert hosts

        def run(net):
            replies = []
            # Idle gaps above and below the radio's idle timeout.
            for gap in (0.0, 2.0, 30.0, 1.0, 12.0):
                net.advance_clock(gap)
                for dst in hosts:
                    replies.append(net.send_probe(dst, 64, 0))
                    replies.append(net.send_probe(dst, 3, 0))
            return replies

        fast, slow = run(fast_net), run(slow_net)
        self._assert_same(fast_net, slow_net, fast, slow)
        low = pod.promotion_delay_range[0] * 1000.0
        promoted = [
            reply for reply in slow
            if reply is not None and reply.is_echo and reply.rtt_ms > low
        ]
        assert promoted

    def test_nonce_near_two_to_the_64(self, monkeypatch):
        fast_net, slow_net = _pair(monkeypatch)
        dsts = _targets(fast_net, slash24s=8, per_slash24=2)
        batch_dsts = [addr for dst in dsts for addr in (dst, dst + 1)]

        def run(net):
            net.begin_measurement_context(0.0, (1 << 64) - 100)
            replies = _trace(net, dsts)
            # The scalar stream ran past 2**64 across block refills...
            assert net._nonce > (1 << 64) + DRAW_BLOCK_NONCES
            net.begin_measurement_context(0.0, (1 << 64) - 5)
            # ...and so does a batch.
            return replies + net.send_probe_batch(batch_dsts, 64)

        fast, slow = run(fast_net), run(slow_net)
        assert fast_net._nonce > 1 << 64
        self._assert_same(fast_net, slow_net, fast, slow)

    def test_memos_clear_at_their_cap(self, monkeypatch):
        from repro.netsim import draws

        fast_net, slow_net = _pair(monkeypatch)
        monkeypatch.setattr(draws, "MEMO_MAX_ENTRIES", 4)
        dsts = _targets(fast_net, slash24s=6, per_slash24=2)
        fast, slow = _trace(fast_net, dsts), _trace(slow_net, dsts)
        self._assert_same(fast_net, slow_net, fast, slow)
        assert 0 < len(fast_net._draws._ttl_facts) <= 4
        assert 0 < len(fast_net._draws._up) <= 4

    def test_pickle_drops_block_and_memos(self):
        net = _fresh()
        dsts = _targets(net, slash24s=2, per_slash24=2)
        _trace(net, dsts[:2])
        draws = net._draws
        assert draws.size and draws.jitter and draws._ttl_facts
        clone = pickle.loads(pickle.dumps(net))
        copied = clone._draws
        assert copied.size == 0 and copied.high == 0
        assert not copied.router_lost and not copied.jitter
        assert not copied._up and not copied._ttl_facts
        assert not copied._promotion
        assert not clone.forwarder._prop_sums
        # ...and the clone carries on exactly like the original.
        _replies_equal(_trace(clone, dsts[2:]), _trace(net, dsts[2:]))

    def test_stats_report_draw_blocks(self, monkeypatch):
        fast_net, slow_net = _pair(monkeypatch)
        dsts = _targets(fast_net, slash24s=2, per_slash24=2)
        _trace(fast_net, dsts)
        _trace(slow_net, dsts)
        stats = fast_net.stats()
        assert stats["draw_block_fills"] >= 1
        assert 0.0 < stats["draw_block_used_share"] <= 1.0
        assert slow_net.stats()["draw_block_fills"] == 0
        assert slow_net.stats()["draw_block_used_share"] == 0.0
        # Short contexts leave most of each block unread.
        fast_net.begin_measurement_context(0.0, 10)
        fast_net.send_probe(dsts[0], 64)
        fast_net.begin_measurement_context(0.0, 10 ** 6)
        fast_net.send_probe(dsts[0], 64)
        assert fast_net.stats()["draw_block_used_share"] < (
            stats["draw_block_used_share"]
        )
