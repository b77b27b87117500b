"""Section 2's preliminary studies.

* The straw man: compare entire route sets of one address per /26 —
  "88% of /24 blocks were heterogeneous", dropping to 87% with
  unresponsive-hop wildcards.
* The per-destination estimate: probe a /31 pair per /24 — "about 77%
  of the /31s have distinct routes", and "about 30% of the address pairs
  within /31s have distinct last-hop routers".
"""

from __future__ import annotations

import random
from typing import FrozenSet, List

from ..analysis.pathmetrics import lasthop_of_route
from ..core.fastengine import enumerate_routes
from ..core.selection import one_per_slash26, slash31_pair
from ..probing import Prober
from ..probing.traceroute import route_sets_share_route
from ..util.tables import format_percent
from .common import ExperimentResult, Workspace

#: /24s sampled for each preliminary study.
SAMPLE_SLASH24S = 80


def run(workspace: Workspace) -> ExperimentResult:
    internet = workspace.internet
    snapshot = workspace.snapshot
    rng = random.Random(internet.config.seed ^ 0x9E11)
    eligible = workspace.eligible_slash24s()
    stride = max(1, len(eligible) // SAMPLE_SLASH24S)
    sample = eligible[::stride][:SAMPLE_SLASH24S]

    prober = Prober(internet)

    # --- straw man: one address per /26, compare route sets -------------
    heterogeneous_wild = 0
    heterogeneous_strict = 0
    comparable = 0
    for slash24 in sample:
        destinations = one_per_slash26(snapshot.active_in(slash24), rng)
        route_sets: List[FrozenSet] = []
        for dst in destinations:
            routes = enumerate_routes(prober, dst, flow_seed=dst & 0xFFF)
            if routes:
                route_sets.append(routes)
        if len(route_sets) < 4:
            continue
        comparable += 1
        if not _all_share(route_sets, wildcards=True):
            heterogeneous_wild += 1
        if not _all_share(route_sets, wildcards=False):
            heterogeneous_strict += 1

    # --- /31 pairs: per-destination load balancing ------------------------
    pairs_compared = 0
    distinct_routes = 0
    distinct_lasthops = 0
    for slash24 in sample:
        pair = slash31_pair(snapshot.active_in(slash24))
        if pair is None:
            continue
        sets = []
        for dst in pair:
            routes = enumerate_routes(prober, dst, flow_seed=dst & 0xFFF)
            if routes:
                sets.append(routes)
        if len(sets) != 2:
            continue
        pairs_compared += 1
        if not route_sets_share_route(sets[0], sets[1], wildcards=True):
            distinct_routes += 1
        lasthops = [
            {lasthop_of_route(route) for route in s} - {None} for s in sets
        ]
        if lasthops[0] and lasthops[1] and lasthops[0] != lasthops[1]:
            distinct_lasthops += 1

    rows = [
        [
            "Heterogeneous /24s, strict route comparison",
            heterogeneous_strict,
            comparable,
            format_percent(heterogeneous_strict, comparable),
            "88%",
        ],
        [
            "Heterogeneous /24s, wildcard unresponsive hops",
            heterogeneous_wild,
            comparable,
            format_percent(heterogeneous_wild, comparable),
            "87%",
        ],
        [
            "/31 pairs with distinct route sets",
            distinct_routes,
            pairs_compared,
            format_percent(distinct_routes, pairs_compared),
            "77%",
        ],
        [
            "/31 pairs with distinct last-hop routers",
            distinct_lasthops,
            pairs_compared,
            format_percent(distinct_lasthops, pairs_compared),
            "30%",
        ],
    ]
    return ExperimentResult(
        experiment_id="prelim",
        title="Section 2 preliminary studies",
        headers=["quantity", "count", "out of", "measured", "paper"],
        rows=rows,
        notes=(
            "Straw-man comparison declares a /24 homogeneous only if all "
            "four sampled addresses share at least one route."
        ),
    )


def _all_share(route_sets: List[FrozenSet], wildcards: bool) -> bool:
    """True if every pair of destinations shares at least one route."""
    for i, a in enumerate(route_sets):
        for b in route_sets[i + 1:]:
            if not route_sets_share_route(a, b, wildcards=wildcards):
                return False
    return True
