"""Workloads, in-process CLI runs and output checks for the benchmark.

run.py imports this module only after pinning BLAS and OpenMP threads,
because numpy reads those settings when it loads.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import gc
import io
import math
import os
import platform
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import latentadapt.cli
from latentadapt.decoder import decode
from latentadapt.fileio import read_artifact, read_features

from spans import Profile, Tracer

SETUP_REPS = 5
MIN_PASSES = 2  # so each per-sample latency is a median, not a single timing


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple[str, ...]
    k: int
    adapt: tuple[str, ...]
    evaluations: int           # n * lambda + 1, lambda = 4 + floor(3 ln k)
    entropy_ratio_max: float   # ceiling on mean adapted / mean no-adapt entropy


_HARNESS_GEN = ("--classes", "10", "--dim", "64", "--per-class", "200",
                "--target-per-class", "20", "--severity", "1.0")

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("harness-ted", _HARNESS_GEN, 16, ("--mode", "ted", "--n", "8"), 97, 0.01),
    Workload("harness-fixed8b4", _HARNESS_GEN, 16,
             ("--mode", "fixed", "--fmt", "8b4", "--n", "8"), 97, 0.01),
    Workload("wide-qted",
             ("--classes", "32", "--dim", "256", "--per-class", "40",
              "--target-per-class", "10", "--severity", "1.0"),
             8, ("--mode", "qted-v1", "--n", "4"), 41, 0.25),
)}


class CliError(RuntimeError):
    pass


@dataclass
class Checks:
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    checks: Checks
    notes: list[str]


def run_cli(argv: list[str], tracer: Tracer | None = None) -> float:
    """Run one ``latentadapt`` command in-process; return its wall seconds."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        if tracer is None:
            code = latentadapt.cli.main(argv)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                code = latentadapt.cli.main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise CliError(f"latentadapt {' '.join(argv)} exited with {code}")
    return wall


def setup(w: Workload, seed: int, d: Path, tracer: Tracer | None = None) -> float:
    """Quick-start steps 1-2 (gen, fit) into ``d``; return their wall seconds."""
    wall = run_cli(["gen", "--out", str(d / "data"), *w.gen, "--seed", str(seed)], tracer)
    return wall + run_cli(
        ["fit", str(d / "data" / "source_train.latf"), "--k", str(w.k),
         "--out", str(d / "model.lama")],
        tracer,
    )


def adapt_pass(w: Workload, seed: int, d: Path, tracer: Tracer | None = None) -> float:
    """Quick-start step 3 (adapt) on the files in ``d``; return its wall seconds."""
    return run_cli(
        ["adapt", str(d / "model.lama"), str(d / "data" / "target_combined.latf"),
         *w.adapt, "--seed", str(seed), "--out", str(d / "report.csv")],
        tracer,
    )


def read_report(d: Path) -> list[dict[str, str]]:
    with open(d / "report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def decode_targets(d: Path) -> list[tuple[int, float]]:
    """Class and entropy of every unadapted target row, decoded directly."""
    decoder = read_artifact(d / "model.lama").decoder
    features, _ = read_features(d / "data" / "target_combined.latf")
    return [(p.predicted_class, p.entropy) for p in (decode(decoder, z) for z in features)]


def deterministic_part(rows: list[dict[str, str]]) -> list[tuple[str, ...]]:
    return [tuple(v for k, v in row.items() if k != "wall_ms") for row in rows]


def check_report(w: Workload, rows, baseline, checks: Checks) -> int:
    """Apply the per-row and per-report checks; return the failed row count."""
    checks.expect(len(rows) == len(baseline),
                  f"report has {len(rows)} rows for {len(baseline)} targets")
    failed = 0
    for i, (row, (cls, entropy)) in enumerate(zip(rows, baseline)):
        noadapt = float(row["noadapt_entropy"])
        adapted = float(row["adapted_entropy"])
        problems = []
        if row["status"] != "ok":
            problems.append(f"status {row['status']}")
        if int(row["evaluations"]) != w.evaluations:
            problems.append(f"{row['evaluations']} evaluations, expected {w.evaluations}")
        if not adapted <= noadapt:
            problems.append(f"adapted entropy {adapted} > no-adapt {noadapt}")
        if int(row["noadapt_class"]) != cls or not math.isclose(
                noadapt, entropy, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"no-adapt ({row['noadapt_class']}, {noadapt}) != "
                            f"decode ({cls}, {entropy})")
        if problems:
            failed += 1
            if len(checks.failures) < 10:
                checks.expect(False, f"row {i}: " + "; ".join(problems))
    ok = [r for r in rows if r["status"] == "ok"]
    if ok:
        mean_no = statistics.fmean(float(r["noadapt_entropy"]) for r in ok)
        mean_ad = statistics.fmean(float(r["adapted_entropy"]) for r in ok)
        checks.expect(mean_ad <= w.entropy_ratio_max * mean_no,
                      f"mean adapted entropy {mean_ad:.3g} is more than "
                      f"{w.entropy_ratio_max} x no-adapt {mean_no:.3g}")
    return failed + len(baseline) - min(len(rows), len(baseline))


def same_outputs(a: Path, b: Path) -> bool:
    names = ["model.lama"] + [f"data/{p.name}" for p in sorted((a / "data").iterdir())]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def measure(w: Workload, seed: int, seconds: float, work: Path) -> Outcome:
    """Untraced run: end-to-end metrics."""
    checks = Checks()
    setup_s = [setup(w, seed, work / f"setup{rep}") for rep in range(SETUP_REPS)]
    d = work / "setup0"
    for rep in range(1, SETUP_REPS):
        checks.expect(same_outputs(d, work / f"setup{rep}"),
                      f"gen/fit outputs of repetition {rep} differ from the first")
    baseline = decode_targets(d)

    rates, pass_ms, first = [], [], None
    attempted = failed = ok_rows = 0
    start = time.perf_counter()
    elapsed = 0.0
    # whole passes only; stop before a pass of the mean length would overrun
    while len(rates) < MIN_PASSES or elapsed + elapsed / len(rates) <= seconds:
        wall = adapt_pass(w, seed, d)
        rows = read_report(d)
        rates.append(len(rows) / wall)
        pass_ms.append([float(r["wall_ms"]) for r in rows])
        attempted += len(baseline)
        failed += check_report(w, rows, baseline, checks)
        ok_rows += sum(r["status"] == "ok" for r in rows)
        if first is None:
            first = deterministic_part(rows)
        else:
            checks.expect(deterministic_part(rows) == first,
                          f"adapt pass {len(rates)} differs from the first")
        elapsed = time.perf_counter() - start

    # each sample's latency is its median over the passes; percentiles are
    # then taken across samples
    row_ms = [statistics.median(times) for times in zip(*pass_ms)]
    cuts = statistics.quantiles(row_ms, n=20, method="inclusive")
    metrics = {
        "samples_per_s": (statistics.median(rates), "samples/s"),
        "sample_ms_p50": (statistics.median(row_ms), "ms"),
        "sample_ms_p95": (cuts[-1], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "ok_frac": (ok_rows / attempted, "ratio"),
    }
    notes = [f"{len(rates)} adapt passes of {len(row_ms)} samples, "
             f"{SETUP_REPS} set-ups ({', '.join(f'{s:.3f}' for s in setup_s)} s)"]
    return Outcome(metrics, attempted, failed, checks, notes)


_QUANT_RE = re.compile(
    r"saturation events: (\d+) \(sigma clamps: (\d+), eigenvalue clamps: (\d+)\)")


def quant_counts(w: Workload, d: Path, checks: Checks) -> tuple[int, int, int]:
    """Saturation and clamp counts from the fixed-mode summary (0 elsewhere)."""
    if "fixed" not in w.adapt:
        return 0, 0, 0
    match = _QUANT_RE.search((d / "report.txt").read_text())
    if not checks.expect(match is not None, "fixed-mode summary lacks saturation counts"):
        return 0, 0, 0
    return tuple(int(g) for g in match.groups())


def measure_traced(w: Workload, seed: int, work: Path, spans_out: Path) -> Outcome:
    """One untraced and one traced gen/fit/adapt: per-layer metrics."""
    checks = Checks()
    plain_dir, traced_dir = work / "plain", work / "traced"
    plain_s = setup(w, seed, plain_dir) + adapt_pass(w, seed, plain_dir)

    tracer = Tracer()
    tracer.install()
    try:
        traced_s = setup(w, seed, traced_dir, tracer) + adapt_pass(w, seed, traced_dir, tracer)
    finally:
        tracer.uninstall()
    tracer.write_csv(spans_out)

    baseline = decode_targets(traced_dir)
    rows = read_report(traced_dir)
    failed = check_report(w, rows, baseline, checks)
    checks.expect(deterministic_part(rows) == deterministic_part(read_report(plain_dir)),
                  "traced report differs from the untraced one")
    p = Profile(tracer.spans)
    evaluations = sum(int(r["evaluations"]) for r in rows)
    checks.expect(p.calls["decoder.fitness"] == evaluations,
                  f"decoder.fitness calls {p.calls['decoder.fitness']} != "
                  f"report evaluations {evaluations}")

    by_parent = p.under("linalg.sym_eig", ("adapt.adapt", "subspace.fit"))
    search_calls, search_s = by_parent["adapt.adapt"]
    saturations, sigma_clamps, eig_clamps = quant_counts(w, traced_dir, checks)
    count, sec, ratio = "count", "s", "ratio"
    metrics = {
        "linalg.sym_eig.search.calls": (search_calls, count),
        "linalg.sym_eig.search.s": (search_s, sec),
        "linalg.sym_eig.search.share": (search_s / p.seconds("adapt.adapt"), ratio),
        "linalg.sym_eig.fit.s": (by_parent["subspace.fit"][1], sec),
        "subspace.fit.self_s": (p.self_seconds("subspace.fit"), sec),
        "rng.normals.calls": (p.calls["rng.normals"], count),
        "rng.normals.s": (p.seconds("rng.normals"), sec),
        "datagen.gen_source.s": (p.seconds("datagen.gen_source"), sec),
        "cmaes.ask.self_s": (p.self_seconds("cmaes.ask"), sec),
        "cmaes.tell.s": (p.seconds("cmaes.tell"), sec),
        "cmaes.minimize.self_s": (p.self_seconds("cmaes.minimize"), sec),
        "quant.fixed_cmaes_minimize.self_s": (p.self_seconds("quant.fixed_cmaes_minimize"), sec),
        "quant.quantize_binary.calls": (p.calls["quant.quantize_binary"], count),
        "quant.quantize_binary.s": (p.seconds("quant.quantize_binary"), sec),
        "quant.saturations": (saturations, count),
        "quant.sigma_clamps": (sigma_clamps, count),
        "quant.eig_clamps": (eig_clamps, count),
        "decoder.fitness.calls": (p.calls["decoder.fitness"], count),
        "decoder.fitness.s": (p.seconds("decoder.fitness"), sec),
        "adapt.adapt.calls": (p.calls["adapt.adapt"], count),
        "adapt.adapt.self_s": (p.self_seconds("adapt.adapt"), sec),
        "cli.adapt.self_s": (p.self_seconds("cli.adapt"), sec),
        "fileio.read.s": (p.seconds("fileio.read_features") + p.seconds("fileio.read_artifact"), sec),
        "fileio.write.s": (p.seconds("fileio.write_features") + p.seconds("fileio.write_artifact"), sec),
        "fileio.bytes_read": (tracer.counters["fileio.bytes_read"], "bytes"),
        "fileio.bytes_written": (tracer.counters["fileio.bytes_written"], "bytes"),
        "report.write_csv.s": (p.seconds("report.write_csv"), sec),
        "trace.overhead_s": (traced_s - plain_s, sec),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, ratio),
    }
    notes = [f"untraced gen+fit+adapt {plain_s:.3f} s, traced {traced_s:.3f} s, "
             f"{len(tracer.spans)} spans written to {spans_out.name}"]
    return Outcome(metrics, 2 * len(baseline), failed, checks, notes)


def machine_info(thread_vars: tuple[str, ...]) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in thread_vars},
    }
