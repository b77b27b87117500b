"""Draw sources: where the probe path's stochastic inputs come from.

Every draw the simulator makes for a probe is a pure hash. Per-nonce
draws (router loss, host loss, RTT jitter, spike flag, spike size) are
functions of (seed, nonce); per-address host facts (availability,
default TTL, reverse-path delta, radio promotion delay) are functions
of (seed, address[, epoch]). Two sources implement one interface:

* :class:`ScalarDraws`, the oracle, hashes every draw per probe with
  the scalar model functions (:func:`~.icmp.stochastic_loss`,
  :func:`~.rtt.path_rtt_ms`, :mod:`.hosts`).
  ``REPRO_REFERENCE_ENGINE=1`` selects it.
* :class:`BlockDraws`, the production source, computes the per-nonce
  draws for a run of consecutive nonces at once with the numpy kernels,
  memoises per-address facts until the next measurement context, and
  takes the RTT propagation term from the forwarder's per-path prefix
  sums.

Because every draw is pure, both sources return bitwise identical
values for the same inputs; they differ only in cost. The probe
sequencing (nonce, clock, rate limiters, radio tracker) stays in
:class:`~.internet.SimulatedInternet` and is shared by both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..util.hashing import MASK64, mix_np, unit_np
from . import hosts as hostmod
from .icmp import stochastic_loss
from .rtt import HOST_LATENCY_MS, path_rtt_ms, rtt_draws_for_nonces

#: Nonces per draw block. Object-campaign contexts use about 100 nonces
#: each and the path dataset runs long scalar streams; see DESIGN.md for
#: the sizing measurement.
DRAW_BLOCK_NONCES = 256

#: A host-fact memo is cleared when it reaches this many entries, which
#: bounds memory for long probe streams outside measurement contexts.
MEMO_MAX_ENTRIES = 1 << 16


class ScalarDraws:
    """The oracle draw source: every draw hashed per probe."""

    def __init__(self, built) -> None:
        config = built.config
        self._loss_seed = built.loss_seed
        self._rtt_seed = built.rtt_seed
        self._host_seed = built.host_seed
        self._router_loss = config.router_loss_probability
        self._host_loss = config.host_loss_probability
        self._ttl_weights = config.default_ttl_weights
        self._custom_ttl = config.custom_ttl_probability
        self._delta_weights = config.reverse_delta_weights

    def new_context(self) -> None:
        """Called on every measurement context switch."""

    def router_rtt(self, path, hops: int, nonce: int) -> Optional[float]:
        """RTT of the TTL-exceeded reply from ``path[hops - 1]``, or
        None when the reply is lost."""
        if stochastic_loss(self._loss_seed, nonce, self._router_loss):
            return None
        return path_rtt_ms(path[:hops], self._rtt_seed, nonce)

    def host_rtt(self, path, nonce: int) -> Optional[float]:
        """RTT of an echo reply over ``path`` (before any promotion
        delay), or None when the reply is lost."""
        if stochastic_loss(self._loss_seed, nonce, self._host_loss):
            return None
        return path_rtt_ms(path, self._rtt_seed, nonce)

    def host_up(self, key: int, epoch: int, pod) -> bool:
        """Whether availability key ``key`` answers in ``epoch``."""
        return hostmod.host_up_in_epoch(
            self._host_seed, key, epoch, pod.host_density,
            pod.host_stability, pod.sleep_probability,
        )

    def host_ttl_facts(self, dst: int) -> Tuple[int, int]:
        """``(default TTL, reverse-path delta)`` of the host at ``dst``."""
        return (
            hostmod.default_ttl(
                self._host_seed, dst, self._ttl_weights, self._custom_ttl
            ),
            hostmod.reverse_path_delta(
                self._host_seed, dst, self._delta_weights
            ),
        )

    def promotion_delay(self, dst: int, low: float, high: float) -> float:
        """Radio promotion delay (seconds) of the cellular host ``dst``."""
        return hostmod.promotion_delay_seconds(self._host_seed, dst, low, high)

    def stats(self) -> Dict[str, float]:
        return {"draw_block_fills": 0, "draw_block_used_share": 0.0}


class BlockDraws(ScalarDraws):
    """The production draw source: nonce blocks and per-address memos.

    The current block holds the per-nonce draws for the nonces
    ``first .. first + size - 1``. A request for a nonce outside it
    refills the block starting at that nonce, so contexts that move the
    nonce (backwards or forwards) and callers that write the nonce
    directly need no notification. Nonces wrap modulo 2**64, as the
    scalar hashes do.
    """

    def __init__(self, built, forwarder) -> None:
        super().__init__(built)
        self._forwarder = forwarder
        #: Blocks filled, nonces drawn into them, and nonces of finished
        #: blocks the probe stream reached (``high`` of each block).
        self.fills = 0
        self.drawn = 0
        self._reached = 0
        self._drop_block()
        self._drop_memos()

    def _drop_block(self) -> None:
        self.first = 0
        self.size = 0
        #: One past the highest block index read so far.
        self.high = 0
        self.router_lost: List[bool] = []
        self.host_lost: List[bool] = []
        self.jitter: List[float] = []
        self.spike_flags: List[bool] = []
        self.spike_ms: List[float] = []

    def _drop_memos(self) -> None:
        self._up: Dict[tuple, bool] = {}
        self._ttl_facts: Dict[int, Tuple[int, int]] = {}
        self._promotion: Dict[tuple, float] = {}

    def __getstate__(self):
        # Blocks and memos rebuild lazily; pickles ship neither.
        state = self.__dict__.copy()
        for name in ("first", "size", "high"):
            state[name] = 0
        for name in ("router_lost", "host_lost", "jitter", "spike_flags",
                     "spike_ms"):
            state[name] = []
        state["_up"] = {}
        state["_ttl_facts"] = {}
        state["_promotion"] = {}
        return state

    def new_context(self) -> None:
        self._drop_memos()

    # -- per-nonce draws ---------------------------------------------------

    def cover(self, first: int, count: int) -> int:
        """Make the block hold nonces ``first .. first + count - 1``;
        return the block index of ``first``."""
        index = first - self.first
        if index < 0 or index + count > self.size:
            self._fill(first, max(count, DRAW_BLOCK_NONCES))
            index = 0
        if index + count > self.high:
            self.high = index + count
        return index

    def _fill(self, first: int, size: int) -> None:
        self.fills += 1
        self.drawn += size
        self._reached += self.high
        with np.errstate(over="ignore"):
            nonces = np.arange(size, dtype=np.uint64) + np.uint64(
                first & MASK64
            )
        # Router and host loss draw the same (seed, nonce) hash against
        # different probabilities (see stochastic_loss): hash once.
        loss = unit_np(mix_np(self._loss_seed, nonces))
        self.router_lost = (loss < self._router_loss).tolist()
        self.host_lost = (loss < self._host_loss).tolist()
        self.jitter, self.spike_flags, self.spike_ms = rtt_draws_for_nonces(
            self._rtt_seed, nonces
        )
        self.first = first
        self.size = size
        self.high = 0

    def rtt_at(self, path, hops: int, index: int) -> float:
        """:func:`~.rtt.path_rtt_ms` over ``path[:hops]`` for the nonce
        at block index ``index``, term for term."""
        rtt = (
            2.0 * self._forwarder.propagation_sums(path)[hops]
            + HOST_LATENCY_MS
            + self.jitter[index]
        )
        if self.spike_flags[index]:
            rtt += self.spike_ms[index]
        return rtt

    def router_rtt(self, path, hops: int, nonce: int) -> Optional[float]:
        index = self.cover(nonce, 1)
        if self.router_lost[index]:
            return None
        return self.rtt_at(path, hops, index)

    def host_rtt(self, path, nonce: int) -> Optional[float]:
        index = self.cover(nonce, 1)
        if self.host_lost[index]:
            return None
        return self.rtt_at(path, len(path), index)

    # -- per-address facts -------------------------------------------------

    def host_up(self, key: int, epoch: int, pod) -> bool:
        memo_key = (
            key, epoch, pod.host_density, pod.host_stability,
            pod.sleep_probability,
        )
        up = self._up.get(memo_key)
        if up is None:
            up = _remember(
                self._up, memo_key, super().host_up(key, epoch, pod)
            )
        return up

    def host_ttl_facts(self, dst: int) -> Tuple[int, int]:
        facts = self._ttl_facts.get(dst)
        if facts is None:
            facts = _remember(
                self._ttl_facts, dst, super().host_ttl_facts(dst)
            )
        return facts

    def promotion_delay(self, dst: int, low: float, high: float) -> float:
        memo_key = (dst, low, high)
        delay = self._promotion.get(memo_key)
        if delay is None:
            delay = _remember(
                self._promotion, memo_key,
                super().promotion_delay(dst, low, high),
            )
        return delay

    def stats(self) -> Dict[str, float]:
        return {
            "draw_block_fills": self.fills,
            "draw_block_used_share": (
                (self._reached + self.high) / self.drawn
                if self.drawn else 0.0
            ),
        }


def _remember(memo: dict, key, value):
    """Store ``value`` in a host-fact memo, clearing it at the cap."""
    if len(memo) >= MEMO_MAX_ENTRIES:
        memo.clear()
    memo[key] = value
    return value
