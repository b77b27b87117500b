"""Per-/24 measurement and classification (Table 1's categories).

For one /24, the classifier walks destinations in the Section 3.3
round-robin order, identifies each destination's last-hop router(s)
with the Section 3.4 procedure, checks the termination policy after
every destination, and finally assigns one of the five Table 1
categories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional

from ..net.prefix import Prefix
from ..probing.mda import identify_lasthops
from ..probing.session import Prober
from .grouping import (
    Observations,
    group_by_lasthop,
    identical_lasthop_sets,
    union_lasthops,
)
from .hierarchy import groups_hierarchical
from .selection import meets_selection_criteria, round_robin_order
from .termination import (
    ExhaustivePolicy,
    ReprobePolicy,
    StopReason,
    TerminationPolicy,
)


class Category(Enum):
    """Table 1 rows."""

    TOO_FEW_ACTIVE = "too-few-active"
    UNRESPONSIVE_LASTHOP = "unresponsive-last-hop"
    SAME_LASTHOP = "same-last-hop"
    NON_HIERARCHICAL = "non-hierarchical"
    HIERARCHICAL = "different-but-hierarchical"

    @property
    def analyzable(self) -> bool:
        return self not in (
            Category.TOO_FEW_ACTIVE, Category.UNRESPONSIVE_LASTHOP
        )

    @property
    def homogeneous(self) -> bool:
        """Whether Hobbit counts the /24 as homogeneous (the paper
        treats "different but hierarchical" as heterogeneous)."""
        return self in (Category.SAME_LASTHOP, Category.NON_HIERARCHICAL)


@dataclass
class Slash24Measurement:
    """Everything Hobbit learned about one /24."""

    slash24: Prefix
    category: Category
    #: Destination → responsive last-hop router addresses.
    observations: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    destinations_probed: int = 0
    hosts_responsive: int = 0
    probes_used: int = 0
    stop_reason: Optional[StopReason] = None

    @property
    def lasthop_set(self) -> FrozenSet[int]:
        """The /24's set of last-hop routers (Section 5's aggregation
        key)."""
        return union_lasthops(self.observations)

    @property
    def cardinality(self) -> int:
        return len(self.lasthop_set)

    @property
    def is_homogeneous(self) -> bool:
        return self.category.homogeneous


def measure_slash24(
    prober: Prober,
    slash24: Prefix,
    snapshot_active: List[int],
    policy: TerminationPolicy | ReprobePolicy,
    rng: random.Random,
    max_destinations: Optional[int] = None,
) -> Slash24Measurement:
    """Measure and classify one /24.

    ``snapshot_active`` is the ZMap-snapshot active list (possibly stale
    by probe time). Destinations that no longer answer echo probes do
    not count as probed addresses.

    This is the one place that picks the probe engine: the compiled
    engine (:mod:`repro.core.fastengine`) when the session is eligible,
    else the :class:`Prober` walk below. Both leave the measurement,
    ``prober.stats``, ``rng`` and the simulator in the same state.
    """
    from .fastengine import (
        FastPathUnsupported,
        fast_engine_for,
        note_fastpath_fallback,
    )

    engine = fast_engine_for(prober, policy)
    if engine is not None:
        try:
            measurement, stats = engine.measure(
                policy, slash24, snapshot_active, rng, max_destinations,
                prober.source,
            )
        except FastPathUnsupported as unsupported:
            note_fastpath_fallback(str(slash24), unsupported)
        else:
            prober.stats.merge(stats)
            return measurement

    result = Slash24Measurement(slash24=slash24, category=Category.TOO_FEW_ACTIVE)
    if not meets_selection_criteria(snapshot_active):
        return result

    observations: Dict[int, FrozenSet[int]] = {}
    lasthop_unresponsive_dests = 0
    flow_seed = rng.randrange(1 << 30)

    for index, dst in enumerate(round_robin_order(snapshot_active, rng)):
        if max_destinations is not None and index >= max_destinations:
            break
        identification = identify_lasthops(
            prober, dst, flow_seed=flow_seed + index * 101
        )
        result.probes_used += identification.probes_used
        if not identification.host_responsive:
            continue
        result.hosts_responsive += 1
        if not identification.lasthops:
            lasthop_unresponsive_dests += 1
            continue
        observations[dst] = identification.lasthops
        result.destinations_probed = len(observations)
        reason = policy.should_stop(observations)
        if reason is not None:
            result.observations = observations
            result.stop_reason = reason
            result.category = _closing_category(observations)
            return result

    # Ran out of destinations before the policy was satisfied.
    result.observations = observations
    result.destinations_probed = len(observations)
    if result.hosts_responsive < 4:
        result.category = Category.TOO_FEW_ACTIVE
    elif not observations:
        result.category = Category.UNRESPONSIVE_LASTHOP
    elif isinstance(policy, (ReprobePolicy, ExhaustivePolicy)):
        # These strategies classify whatever they gathered.
        result.category = _closing_category(observations)
    elif (
        isinstance(policy, TerminationPolicy)
        and policy.required_probes(observations) is None
    ):
        # No populated confidence cell for this cardinality: the paper
        # probes every active address and classifies the outcome.
        result.category = _closing_category(observations)
    else:
        # Active addresses ran out below the confidence requirement.
        result.category = Category.TOO_FEW_ACTIVE
    return result


def _closing_category(observations: Observations) -> Category:
    lasthops = union_lasthops(observations)
    if len(lasthops) <= 1:
        return Category.SAME_LASTHOP
    if identical_lasthop_sets(observations):
        # Every address reaches the same *set* of routers: different
        # last-hop routers purely due to (per-flow) load balancing.
        return Category.NON_HIERARCHICAL
    if not groups_hierarchical(group_by_lasthop(observations)):
        return Category.NON_HIERARCHICAL
    return Category.HIERARCHICAL


def classify_observations(observations: Observations) -> Category:
    """Classify a complete observation set without probing (used when
    replaying recorded datasets, e.g. for the confidence table and the
    Section 3.1 metric comparison)."""
    if len(observations) < 4:
        return Category.TOO_FEW_ACTIVE
    return _closing_category(observations)


def closing_category_from_state(state) -> Category:
    """:func:`_closing_category` evaluated on an incremental
    :class:`repro.core.termination.TerminationState` instead of the full
    observation map (same decision procedure, same order)."""
    if state.cardinality <= 1:
        return Category.SAME_LASTHOP
    if state.identical_lasthop_sets():
        return Category.NON_HIERARCHICAL
    if not state.ranges_hierarchical():
        return Category.NON_HIERARCHICAL
    return Category.HIERARCHICAL


# -- columnar category codes ------------------------------------------------
#
# The columnar campaign result stores categories and stop reasons as
# small integer codes so whole-campaign summaries (Table 1 counts,
# homogeneous masks) reduce to numpy bincounts over flat arrays instead
# of per-measurement attribute walks. Codes are positional in enum
# declaration order, which is stable (the enums are part of the store
# codec's on-disk contract and never reorder).

CATEGORY_ORDER = tuple(Category)
CATEGORY_CODES = {category: code for code, category in enumerate(CATEGORY_ORDER)}

STOP_REASON_ORDER = tuple(StopReason)
STOP_REASON_CODES = {
    reason: code for code, reason in enumerate(STOP_REASON_ORDER)
}
#: Stop-reason code for "the policy never fired" (ran out of
#: destinations); categories have no such gap, every /24 gets one.
NO_STOP_CODE = -1

#: True where the coded category counts toward the analyzable rows of
#: Table 1, indexed by category code.
ANALYZABLE_BY_CODE = tuple(c.analyzable for c in CATEGORY_ORDER)
#: True where the coded category is homogeneous, indexed by code.
HOMOGENEOUS_BY_CODE = tuple(c.homogeneous for c in CATEGORY_ORDER)
