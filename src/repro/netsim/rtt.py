"""Round-trip-time model.

RTTs combine per-hop propagation (each router carries a one-way
latency), a small per-probe jitter, rare queueing spikes, and — for
cellular hosts — the radio *promotion delay*: a device whose radio has
been idle takes hundreds of milliseconds to several seconds to answer
its first probe, after which it stays promoted for a short window
(Section 5.2, citing "Timeouts: Beware surprisingly high delay").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import math

import numpy as np

from ..util.hashing import (
    mix_np,
    mix_to_unit,
    splitmix64_np,
    stable_string_hash,
    unit_np,
)
from .topology import Router

_JITTER = stable_string_hash("rtt-jitter")
_SPIKE = stable_string_hash("rtt-spike")

#: One-way host processing latency added to every echo RTT (ms).
HOST_LATENCY_MS = 0.5
#: Mean of the exponential per-probe jitter (ms).
JITTER_MEAN_MS = 2.0
#: Probability and magnitude of a queueing spike.
SPIKE_PROBABILITY = 0.01
SPIKE_MAX_MS = 150.0


def path_rtt_ms(path: Sequence[Router], seed: int, nonce: int) -> float:
    """Base RTT to the end of ``path`` for one probe (before any
    cellular promotion delay)."""
    # Left to right, as the engines' per-path prefix sums add: sum()
    # compensates rounding error on Python >= 3.12, which would make
    # this oracle disagree with them in the last bit.
    total = 0.0
    for router in path:
        total = total + router.latency_ms
    propagation = 2.0 * total
    u = mix_to_unit(seed ^ _JITTER, nonce)
    # Inverse-CDF exponential jitter; clamp u away from 1.0.
    jitter = -JITTER_MEAN_MS * math.log(max(1.0 - u, 1e-12))
    rtt = propagation + HOST_LATENCY_MS + jitter
    if mix_to_unit(seed ^ _SPIKE, nonce) < SPIKE_PROBABILITY:
        rtt += SPIKE_MAX_MS * mix_to_unit(seed ^ _SPIKE, nonce, 1)
    return rtt


def rtt_draws_for_nonces(
    seed: int, nonces: Sequence[int]
) -> Tuple[List[float], List[bool], List[float]]:
    """Per-nonce jitter and spike draws of :func:`path_rtt_ms`,
    vectorised over a probe batch.

    Returns ``(jitter_ms, spike_flags, spike_ms)``; a probe's RTT is
    ``propagation + HOST_LATENCY_MS + jitter_ms[i]`` plus
    ``spike_ms[i]`` when ``spike_flags[i]``. The hash draws and the
    exact float steps (``1 - u``, the clamp, the scaling) run through
    numpy; the log stays scalar because ``np.log`` is not bitwise
    identical to ``math.log`` on every input.
    """
    arr = np.asarray(nonces, dtype=np.uint64)
    clamped = np.maximum(1.0 - unit_np(mix_np(seed ^ _JITTER, arr)), 1e-12)
    logs = np.array(list(map(math.log, clamped.tolist())), dtype=np.float64)
    jitter = (-JITTER_MEAN_MS * logs).tolist()
    # mix(seed, nonce, 1) continues mix(seed, nonce): reuse that hash.
    spike_hash = mix_np(seed ^ _SPIKE, arr)
    spike_flags = (unit_np(spike_hash) < SPIKE_PROBABILITY).tolist()
    spike = (
        SPIKE_MAX_MS * unit_np(splitmix64_np(spike_hash ^ np.uint64(1)))
    ).tolist()
    return jitter, spike_flags, spike


class CellularRadioTracker:
    """Tracks when each cellular address last saw a probe, to decide
    whether the next probe pays the promotion delay."""

    def __init__(self, idle_timeout_seconds: float = 10.0) -> None:
        self.idle_timeout_seconds = idle_timeout_seconds
        self._last_probe: Dict[int, float] = {}

    def promotion_applies(self, addr: int, now_seconds: float) -> bool:
        """True if the radio was idle and the promotion delay applies.
        Records this probe either way."""
        last = self._last_probe.get(addr)
        self._last_probe[addr] = now_seconds
        return last is None or (now_seconds - last) > self.idle_timeout_seconds

    def reset(self) -> None:
        self._last_probe.clear()
