#!/usr/bin/env python3
"""Hobbit pipeline benchmark: one command, two workloads.

Run from the root of a checkout::

    python3 hobbitbench/run.py --workload cold-small --seed 2016 \
        --seconds 10 --trace 0

Workloads: ``cold-small`` and ``campaign-scale`` (see
``hobbitbench/workloads.py`` and ``hobbitbench/plan.json``). The seed
is the scenario seed of the first world a run measures (default 2016,
the seed behind EXPERIMENTS.md).

Prints the input sizes and every metric by name and unit, then, as the
last line, one JSON object ``{correct, attempted, failed, metrics}``.
``--trace 0`` repeats the measured work for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` runs the first world once
untraced and once with the program's trace journal on, reports the
per-layer metrics of the traced pass, and leaves the journal and the
benchmark's own spans in ``.hobbitbench/``. Scratch stores live under
``.hobbitbench/`` too and are removed on exit. ``REPRO_*`` environment
knobs are ignored, so the program runs with its defaults.

Times are scaled to a reference host speed (see ``host.py``); the raw
wall-clock and the calibration samples are printed on the ``host:``
line.

Exits non-zero, printing no result, if the program's sources
(``src/repro``) are not in the checkout.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".hobbitbench")
WORKLOAD_NAMES = ("cold-small", "campaign-scale")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload to the tiny profile "
        "(for the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"hobbitbench: no program sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from hobbitbench.workloads import END_TO_END, PER_LAYER, Run, run_workload

    os.makedirs(WORKDIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    # Ephemeral stores the program makes (e.g. the lease executor's)
    # land inside the checkout too.
    previous_tempdir, tempfile.tempdir = tempfile.tempdir, scratch
    try:
        run = Run(args.workload, args.seed, args.size, scratch)
        journal = None
        if args.trace:
            stem = os.path.join(WORKDIR, f"{args.workload}-{args.seed}")
            journal = stem + ".trace.jsonl"
            if os.path.exists(journal):
                os.remove(journal)
        metrics = run_workload(run, args.seconds, journal)
        if args.trace:
            run.recorder.write(stem + ".spans.json")
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for world, sizes in run.inputs.items():
        print(
            f"inputs: workload={args.workload} seed={args.seed} "
            f"world_seed={world} "
            + " ".join(f"{key}={value}" for key, value in sizes.items())
        )
    calibrations = run.calibrations
    print(
        f"host: calib_first_s={calibrations[0]:.5f} "
        f"calib_last_s={calibrations[-1]:.5f} "
        f"calib_min_s={min(calibrations):.5f} "
        f"calib_max_s={max(calibrations):.5f} samples={len(calibrations)} "
        "raw_wall_s=" + ",".join(
            f"{it.raw_wall_s:.3f}" for it in run.iterations
        )
    )
    for failure in run.ledger.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name][0]}")
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
