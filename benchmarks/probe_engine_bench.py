"""Probe-engine microbenchmark: compiled+batched vs the reference engine.

Measures µs/probe on three probe-path workloads, once under
``REPRO_REFERENCE_ENGINE=1`` (the serial trie-walk baseline that hashes
every draw per probe) and once under the compiled forwarding plane:

* ``sweep`` — full-/24 echo sweeps (batched);
* ``mda_fanout`` — MDA-style per-destination flow fan-out (batched);
* ``paris_mda`` — serial Paris-traceroute MDA path enumeration
  (``enumerate_paths``), which goes through the scalar ``send_probe``
  path with nonce-block draws. A third column runs the same workload
  on the compiled route kernel (``enumerate_routes``, as the path
  dataset runs it), which returns only the route sets.

Emits a machine-readable summary (``BENCH_probe_engine.json`` by
default) with the µs/probe figures, the speedups, and the forwarder
cache hit rate; CI runs this as the probe-engine bench smoke.

Both engines send bit-identical probe sequences (asserted via the final
probe counter and a digest of every reply), so the comparison is pure
engine overhead. The route kernel builds no replies; it must match the
probe count and the digest of every discovered route set.

Usage::

    PYTHONPATH=src python benchmarks/probe_engine_bench.py \
        [--out BENCH_probe_engine.json] [--slash24s 60] \
        [--mda-dsts 40] [--flows 64] [--seed 7]
"""

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.netsim.routing import REFERENCE_ENGINE_ENV  # noqa: E402


def _build_internet(reference, seed):
    """A fresh tiny-scenario internet pinned to one engine."""
    from repro.netsim import SimulatedInternet, tiny_scenario

    if reference:
        os.environ[REFERENCE_ENGINE_ENV] = "1"
    else:
        os.environ.pop(REFERENCE_ENGINE_ENV, None)
    try:
        return SimulatedInternet.from_config(tiny_scenario(seed=seed))
    finally:
        os.environ.pop(REFERENCE_ENGINE_ENV, None)


def _digest(replies):
    """Digest of a reply sequence: kind, source, TTL and RTT bits."""
    digest = hashlib.sha256()
    for reply in replies:
        if reply is None:
            digest.update(b"*;")
        else:
            digest.update(
                f"{reply.kind.value},{reply.source},{reply.ttl},"
                f"{reply.rtt_ms!r};".encode()
            )
    return digest.hexdigest()


def _run_sweep(internet, slash24_count):
    """Echo-sweep ``slash24_count`` /24s (256 addresses each, ttl=64)."""
    slash24s = internet.universe_slash24s[:slash24_count]
    replies = []
    started = time.perf_counter()
    for slash24 in slash24s:
        replies.extend(internet.send_probe_batch(list(slash24), 64))
    return time.perf_counter() - started, {"replies": _digest(replies)}


def _run_mda_fanout(internet, dst_count, flows):
    """Fan ``flows`` flow ids out to each of ``dst_count`` destinations
    across a TTL ladder (the per-hop MDA shape: the same flows re-probe
    every hop, so path resolution recurs and the route cache pays)."""
    dsts = [s24.first + 1 for s24 in internet.universe_slash24s[:dst_count]]
    flow_ids = list(range(flows))
    replies = []
    started = time.perf_counter()
    for dst in dsts:
        for ttl in range(1, 8):
            replies.extend(
                internet.send_probe_batch([dst] * flows, ttl, flow_ids)
            )
    return time.perf_counter() - started, {"replies": _digest(replies)}


def _route_digest(route_sets):
    """Digest of each destination's discovered route set."""
    digest = hashlib.sha256()
    for routes in route_sets:
        digest.update(f"{sorted(routes, key=repr)!r};".encode())
    return digest.hexdigest()


def _run_paris_mda(internet, slash24_count, addresses, kernel=False):
    """Serial Paris-traceroute MDA towards up to ``addresses`` active
    hosts in each of ``slash24_count`` /24s spread over the universe —
    the path dataset's probe shape. Every probe goes through the scalar
    ``send_probe`` path (``enumerate_paths``), or through the compiled
    route kernel with ``kernel``."""
    from repro.core.fastengine import enumerate_routes
    from repro.probing import Prober
    from repro.probing.mda import enumerate_paths

    universe = internet.universe_slash24s
    stride = max(1, len(universe) // slash24_count)
    dsts = [
        dst
        for slash24 in universe[::stride][:slash24_count]
        for dst in internet.active_addresses_in_slash24(slash24)[:addresses]
    ]
    prober = Prober(internet)
    if kernel:
        started = time.perf_counter()
        route_sets = [
            enumerate_routes(prober, dst, flow_seed=dst & 0xFFFF)
            for dst in dsts
        ]
        elapsed = time.perf_counter() - started
        return elapsed, {"routes": _route_digest(route_sets)}
    results = []
    started = time.perf_counter()
    for dst in dsts:
        results.append(enumerate_paths(prober, dst, flow_seed=dst & 0xFFFF))
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256()
    for result in results:
        for trace in result.traces:
            for hop in trace.hops:
                digest.update(
                    f"{trace.flow_id},{hop.ttl},{hop.address},"
                    f"{hop.rtt_ms!r};".encode()
                )
    return elapsed, {
        "replies": digest.hexdigest(),
        "routes": _route_digest(result.routes for result in results),
    }


def _measure(workload, reference, seed, **kwargs):
    internet = _build_internet(reference, seed)
    elapsed, digests = workload(internet, **kwargs)
    return {
        "elapsed_seconds": elapsed,
        "digests": digests,
        "probes": internet.probe_count,
        "us_per_probe": 1e6 * elapsed / internet.probe_count,
        "stats": internet.stats(),
    }


#: Paris-MDA workload size: active hosts traced per /24, over this many
#: /24s (about 20k probes on the tiny scenario).
PARIS_SLASH24S = 12
PARIS_ADDRESSES = 4


def run(slash24s, mda_dsts, flows, seed):
    results = {}
    for name, workload, kwargs in (
        ("sweep", _run_sweep, {"slash24_count": slash24s}),
        ("mda_fanout", _run_mda_fanout,
         {"dst_count": mda_dsts, "flows": flows}),
        ("paris_mda", _run_paris_mda,
         {"slash24_count": PARIS_SLASH24S, "addresses": PARIS_ADDRESSES}),
    ):
        reference = _measure(workload, True, seed, **kwargs)
        compiled = _measure(workload, False, seed, **kwargs)
        # Same workload on the same scenario: the engines must have sent
        # the exact same probes and seen the exact same replies, or the
        # timing is meaningless.
        assert reference["probes"] == compiled["probes"], name
        assert reference["digests"] == compiled["digests"], name
        results[name] = {
            "probes": compiled["probes"],
            "reference_us_per_probe": round(
                reference["us_per_probe"], 3
            ),
            "compiled_us_per_probe": round(compiled["us_per_probe"], 3),
            "speedup": round(
                reference["us_per_probe"] / compiled["us_per_probe"], 3
            ),
            "forwarder_cache_hit_rate": round(
                compiled["stats"]["forwarder_cache_hit_rate"], 4
            ),
            "batched_probes": compiled["stats"]["batched_probes"],
            "draw_block_fills": compiled["stats"]["draw_block_fills"],
            "reply_digest": compiled["digests"]["replies"],
        }
        if workload is _run_paris_mda:
            kernel = _measure(workload, False, seed, kernel=True, **kwargs)
            # The route kernel sends the same probes and finds the same
            # route sets; it builds no replies to digest.
            assert kernel["probes"] == compiled["probes"], name
            assert kernel["digests"]["routes"] == (
                compiled["digests"]["routes"]
            ), name
            results[name].update({
                "route_kernel_us_per_probe": round(
                    kernel["us_per_probe"], 3
                ),
                "route_kernel_speedup": round(
                    compiled["us_per_probe"] / kernel["us_per_probe"], 3
                ),
                "route_digest": kernel["digests"]["routes"],
            })
    return {
        "benchmark": "probe_engine",
        "scenario": "tiny",
        "seed": seed,
        "workloads": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_probe_engine.json")
    parser.add_argument("--slash24s", type=int, default=60)
    parser.add_argument("--mda-dsts", type=int, default=40)
    parser.add_argument("--flows", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    document = run(args.slash24s, args.mda_dsts, args.flows, args.seed)
    rendered = json.dumps(document, indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(rendered + "\n")
    print(rendered)
    for name, workload in document["workloads"].items():
        kernel = ""
        if "route_kernel_us_per_probe" in workload:
            kernel = (
                f" -> {workload['route_kernel_us_per_probe']} us/probe "
                f"route kernel ({workload['route_kernel_speedup']}x)"
            )
        print(
            f"{name}: {workload['reference_us_per_probe']} -> "
            f"{workload['compiled_us_per_probe']} us/probe "
            f"({workload['speedup']}x, cache hit rate "
            f"{workload['forwarder_cache_hit_rate']}){kernel}"
        )


if __name__ == "__main__":
    main()
