"""Benchmark of the latentadapt CLI: samples/s, per-sample latency, set-up time.

Run from the repository root:

    python3 bench/run.py --workload harness-ted --seed 14 --seconds 50 --trace 0
    python3 bench/run.py                  # every workload, seed 14
    python3 bench/run.py --seed heldout   # every workload, the held-out seed

Each workload drives the README quick-start through ``latentadapt.cli.main``
in-process, with the argv a user would type. ``gen`` and ``fit`` run five
times into fresh directories (``setup_s`` is the median); then whole ``adapt``
passes over the target file repeat, one command at a time, for about
``--seconds`` and at least twice. Every pass is checked against an
independent decode of the targets. ``--trace 1`` instead runs gen, fit and
adapt once untraced and once with every layer's public functions wrapped in
spans, and reports the per-layer split and the tracing overhead.

``wide-qted`` runs here but is not among the workloads in BENCHMARK.json:
its five set-ups alone take about 45 s, too long to repeat in every
measured run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / ".runs"
DEFAULT_SEED = 14          # the ROADMAP harness seed
HELDOUT_SEED = 20251011    # not used while tuning; re-check claims on it
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _seed(text: str) -> int:
    return HELDOUT_SEED if text == "heldout" else int(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help=f"input seed, or 'heldout' for {HELDOUT_SEED} "
                             f"(default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time per workload, in whole adapt passes (at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    return parser


def _import_package():
    """Import latentadapt from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import latentadapt
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import latentadapt from {src}: {exc}") from exc
    if src not in Path(latentadapt.__file__).resolve().parents:
        raise SystemExit(f"bench: latentadapt imported from {latentadapt.__file__}, not {src}")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # numpy reads these when it loads; matrices here are at most 256x256
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    _import_package()
    import harness

    if args.workload == "all":
        names = list(harness.WORKLOADS)
    elif args.workload in harness.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)} or all")

    print("machine: " + json.dumps(harness.machine_info(THREAD_VARS), sort_keys=True))
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS))
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            w = harness.WORKLOADS[name]
            if args.trace:
                outcome = harness.measure_traced(
                    w, args.seed, work / name, RUNS / f"spans-{name}.csv")
            else:
                outcome = harness.measure(w, args.seed, args.seconds, work / name)
            print(f"workload {name} seed={args.seed} trace={args.trace}")
            for note in outcome.notes:
                print(f"  {note}")
            for metric, (value, unit) in outcome.metrics.items():
                print(f"  {metric} = {value:.6g} {unit}")
                key = metric if len(names) == 1 else f"{name}:{metric}"
                metrics[key] = {"value": value, "unit": unit}
            for failure in outcome.checks.failures:
                print(f"  CHECK FAILED: {failure}")
            attempted += outcome.attempted
            failed += outcome.failed
            correct = correct and not outcome.checks.failures
    except harness.CliError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
