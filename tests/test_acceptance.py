"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
The end-to-end criteria drive the real CLI against the frozen harness seed;
the observed accuracies are regression fixtures frozen at first measurement.
"""

import hashlib
import importlib.util
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latentadapt import cmaes, datagen, fileio, quant, report
from latentadapt.adapt import AdaptationConfig, adapt
from latentadapt.cli import main
from latentadapt.decoder import decode
from latentadapt.quant import FixedPointFormat, _FixedOps
from latentadapt.rng import derive_seed
from latentadapt.subspace import PrincipalSubspace, apply_correction, fit, project

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

# frozen harness fixture: seed and the accuracies observed at first measurement
HARNESS_SEED = 14
FROZEN_ACC_NOADAPT = 74.5
FROZEN_ACC_TED = 77.5
FROZEN_ACC_QTED_V1 = 76.5
FROZEN_ACC_8B4 = 77.0
FROZEN_ACC_4B2 = 77.0
FIXTURE_TOL = 0.75  # points; guards the frozen values against silent drift


def _verdict(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    """gen + fit once at the frozen seed; adapt runs reuse the artifact."""
    root = tmp_path_factory.mktemp("harness")
    data = root / "data"
    art = root / "model.lama"
    assert main(
        ["gen", "--classes", "10", "--dim", "64", "--per-class", "200",
         "--target-per-class", "20", "--severity", "1.0",
         "--seed", str(HARNESS_SEED), "--out", str(data)]
    ) == 0
    assert main(
        ["fit", str(data / "source_train.latf"), "--k", "16", "--out", str(art)]
    ) == 0
    return root, data, art


def _run_mode(root, data, art, mode, fmt=None, tag=""):
    rep = root / f"report_{tag or mode}.csv"
    args = [
        "adapt", str(art), str(data / "target_combined.latf"),
        "--mode", mode, "--n", "8", "--seed", str(HARNESS_SEED), "--out", str(rep),
    ]
    if fmt is not None:
        args += ["--fmt", fmt]
    assert main(args) == 0
    records = report.read_csv(rep)
    return records, report.summarize(records)


def test_criterion_1_coordinate_correction_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    d, k = 64, 16
    worst = 0.0
    for _ in range(1000):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = PrincipalSubspace(
            mean=rng.standard_normal(d),
            basis=q[:, :k].copy(),
            singular_values=np.linspace(k, 1, k, dtype=np.float64),
            source_count=d,
        )
        z = 5.0 * rng.standard_normal(d)
        p = 3.0 * rng.standard_normal(k)
        gap = np.abs(project(s, apply_correction(s, z, p)) - (project(s, z) + p))
        worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"max identity error {worst:.3e} over 1000 instances in {elapsed:.1f}s",
    )


def test_criterion_2_subspace_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    k = 8
    worst_rel = 0.0
    worst_orth = 0.0
    for _ in range(20):
        z = rng.standard_normal((50, 16))
        s = fit(z, k)
        centered = z - z.mean(axis=0)
        residual = centered - (centered @ s.basis) @ s.basis.T
        energy = float(np.sum(residual ** 2))
        spectrum = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        expected = float(np.sum(spectrum[k:]))
        worst_rel = max(worst_rel, abs(energy - expected) / expected)
        gram = s.basis.T @ s.basis
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(k)))))
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        worst_rel < 1e-6 and worst_orth < 1e-9 and elapsed < 10.0,
        f"residual-energy rel err {worst_rel:.2e}, orthonormality {worst_orth:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_cmaes_benchmarks():
    started = time.perf_counter()

    def sphere(p):
        return float(np.sum(p * p))

    def rosenbrock(p):
        return float(
            sum(
                100.0 * (p[i + 1] - p[i] ** 2) ** 2 + (1.0 - p[i]) ** 2
                for i in range(len(p) - 1)
            )
        )

    sphere_hits = 0
    for seed in range(1, 11):
        res = cmaes.search(cmaes.CmaEs(cmaes.CmaEsParams.defaults(8), seed), sphere, 200)
        sphere_hits += res.best_fitness < 1e-8

    # the 10 Rosenbrock seeds run as the rows of one machine, each row getting
    # the bits it gets alone, as seed 1's run alone checks for row 0
    params = cmaes.CmaEsParams.defaults(4)
    generations = 20_000 // params.population
    run = cmaes.Search(cmaes.CmaEs(params, range(1, 11)), rosenbrock)
    for _ in range(generations):
        run.step()
    rows = [run.result(row) for row in range(10)]
    rosen_hits = sum(res.best_fitness < 1e-6 for res in rows)
    alone = cmaes.search(cmaes.CmaEs(params, 1), rosenbrock, generations)
    row_0_alone = (rows[0].best_p.tobytes() == alone.best_p.tobytes()
                   and rows[0].best_fitness == alone.best_fitness)

    elapsed = time.perf_counter() - started
    _verdict(
        3,
        sphere_hits == 10 and rosen_hits >= 8 and row_0_alone and elapsed < 60.0,
        f"sphere {sphere_hits}/10, rosenbrock {rosen_hits}/10, row 0 as alone "
        f"{row_0_alone}, {elapsed:.1f}s",
    )


def test_criterion_4_grid_oracle_equivalence():
    started = time.perf_counter()
    task = datagen.make_task(class_count=10, dim=16, seed=21)
    train, _ = datagen.gen_source(task, 200, stream=0)
    test, _ = datagen.gen_source(task, 20, stream=1)
    dec = datagen.make_decoder(task)
    combined = [s for s in datagen.preset_shifts(16, 1.0, 21) if s.label == "combined"][0]
    shifted = datagen.apply_shift(test, task.class_means.mean(axis=0), combined)
    sub = fit(train, 2)

    # brute-force oracle over the grid, evaluated directly from the logit map
    grid = np.arange(-5.0, 5.0 + 1e-9, 0.05)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    gain = dec.weights @ sub.basis

    def grid_min_entropy(z):
        logits = (dec.weights @ z + dec.bias)[None, :] + points @ gain.T
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        prob = e / e.sum(axis=1, keepdims=True)
        ent = -np.sum(
            np.where(prob > 0, prob * np.log(np.where(prob > 0, prob, 1.0)), 0.0),
            axis=1,
        )
        return float(ent.min())

    hits = 0
    for i, z in enumerate(shifted):
        target = grid_min_entropy(z) + 0.05
        cfg = AdaptationConfig(
            k=2, n=20, sigma0=3.0, seed=derive_seed(777, i), mode="ted"
        )
        res = adapt(z, dec, sub, cfg)
        hits += res.prediction.entropy <= target
    elapsed = time.perf_counter() - started
    _verdict(
        4,
        hits >= 190 and elapsed < 300.0,
        f"{hits}/200 samples within 0.05 of the grid minimum, {elapsed:.1f}s",
    )


def test_criterion_5_end_to_end_adaptation_gain(harness):
    started = time.perf_counter()
    root, data, art = harness
    records, summary = _run_mode(root, data, art, "ted")
    elapsed = time.perf_counter() - started

    entropy_ok = all(r.adapted_entropy <= r.noadapt_entropy for r in records)
    gain_ok = summary.accuracy_adapted > summary.accuracy_noadapt
    frozen_ok = (
        abs(summary.accuracy_noadapt - FROZEN_ACC_NOADAPT) <= FIXTURE_TOL
        and abs(summary.accuracy_adapted - FROZEN_ACC_TED) <= FIXTURE_TOL
    )
    _verdict(
        5,
        gain_ok and entropy_ok and frozen_ok and elapsed < 120.0,
        f"no-adapt {summary.accuracy_noadapt:.2f}% -> adapted "
        f"{summary.accuracy_adapted:.2f}% (frozen {FROZEN_ACC_NOADAPT} -> "
        f"{FROZEN_ACC_TED}), entropy guarantee "
        f"{'100%' if entropy_ok else 'violated'}, {elapsed:.1f}s",
    )


def test_harness_shift_is_undone_inside_the_source_subspace(harness):
    # the paper's premise, held by the harness: the target's shift is a
    # distortion of the coordinates inside the source subspace. Row i of a
    # target file is row i of source_test shifted, so the in-subspace oracle
    # z_t + U U^T (z_src - z_t) classifies within 1 point of the unshifted
    # twin z_src itself (99.5 against 99.0 at seed 14)
    _, data, art = harness
    model = fileio.read_artifact(art)
    source, labels = fileio.read_features(data / "source_test.latf")
    target, target_labels = fileio.read_features(data / "target_combined.latf")
    np.testing.assert_array_equal(labels, target_labels)
    basis = model.subspace.basis

    def accuracy(rows):
        return 100.0 * np.mean([decode(model.decoder, z).predicted_class == y
                                for z, y in zip(rows, labels)])

    oracle = [apply_correction(model.subspace, z_t, basis.T @ (z_src - z_t))
              for z_src, z_t in zip(source.astype(np.float64), target.astype(np.float64))]
    acc_oracle, acc_twin, acc_target = accuracy(oracle), accuracy(source), accuracy(target)
    assert abs(acc_oracle - acc_twin) <= 1.0, (acc_oracle, acc_twin)
    assert acc_oracle > acc_target + 10.0, (acc_oracle, acc_target)  # the shift costs accuracy


def test_criterion_6_forgetting_free_and_budget():
    started = time.perf_counter()
    task = datagen.make_task(class_count=4, dim=16, seed=6)
    source, _ = datagen.gen_source(task, 40, stream=0)
    sub = fit(source, 4)
    dec = datagen.make_decoder(task)
    targets, _ = datagen.gen_source(task, 250, stream=1)

    def model_digest():
        h = hashlib.sha256()
        for a in (dec.weights, dec.bias, sub.mean, sub.basis, sub.singular_values):
            h.update(a.tobytes())
        return h.hexdigest()

    before = model_digest()
    cfg = AdaptationConfig(k=4, n=3, population=6, seed=60, mode="ted")
    budget_ok = True
    for i in range(1000):
        res = adapt(targets[i], dec, sub, cfg.with_seed(derive_seed(60, i)))
        budget_ok = budget_ok and res.evaluations == 3 * 6 + 1
    frozen = model_digest() == before
    elapsed = time.perf_counter() - started
    _verdict(
        6,
        frozen and budget_ok,
        f"model bytes {'unchanged' if frozen else 'CHANGED'} after 1000 calls, "
        f"budget exact: {budget_ok}, {elapsed:.1f}s",
    )


def test_criterion_7_quantization_degradation_ordering(harness):
    started = time.perf_counter()
    root, data, art = harness
    _, s_float = _run_mode(root, data, art, "ted", tag="c7_ted")
    _, s_v1 = _run_mode(root, data, art, "qted-v1", tag="c7_v1")
    _, s_8b4 = _run_mode(root, data, art, "fixed", fmt="8b4", tag="c7_8b4")
    _, s_4b2 = _run_mode(root, data, art, "fixed", fmt="4b2", tag="c7_4b2")
    acc = {
        "float": s_float.accuracy_adapted,
        "qted-v1": s_v1.accuracy_adapted,
        "8b4": s_8b4.accuracy_adapted,
        "4b2": s_4b2.accuracy_adapted,
    }
    ordering_ok = (
        acc["float"] >= acc["qted-v1"] - 1.0 and acc["8b4"] >= acc["4b2"] - 1.0
    )
    closeness_ok = all(
        abs(acc["float"] - acc[v]) <= 5.0 for v in ("qted-v1", "8b4", "4b2")
    )
    frozen_ok = (
        abs(acc["qted-v1"] - FROZEN_ACC_QTED_V1) <= FIXTURE_TOL
        and abs(acc["8b4"] - FROZEN_ACC_8B4) <= FIXTURE_TOL
        and abs(acc["4b2"] - FROZEN_ACC_4B2) <= FIXTURE_TOL
    )
    elapsed = time.perf_counter() - started
    _verdict(
        7,
        ordering_ok and closeness_ok and frozen_ok and elapsed < 300.0,
        "accuracies " + ", ".join(f"{k}={v:.2f}" for k, v in acc.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_8_fixed_point_core():
    started = time.perf_counter()
    formats = [
        FixedPointFormat(x, y) for x in range(4, 13) for y in range(0, x)
    ]

    def exact_quantize(v, fmt):
        """v * 2^f rounded half to even on exact rationals, then saturated."""
        raw = round(Fraction(v) * (1 << fmt.frac_bits))
        return min(max(raw, fmt.raw_min), fmt.raw_max)

    roundtrip_ok = True
    for fmt in formats:
        ops = _FixedOps(fmt)
        raws = np.arange(fmt.raw_min, fmt.raw_max + 1)
        for raw in raws:
            value = float(raw * fmt.resolution)
            if int(ops.quantize(value)) != raw:
                roundtrip_ok = False

    mono_ok = True
    bound_ok = True
    agree_ok = True
    rng = np.random.default_rng(1008)
    for fmt in formats:
        ops = _FixedOps(fmt)
        span = 4.0 * max(fmt.max_value, 1.0)
        xs = np.sort(rng.uniform(-span, span, size=100_000))
        quantized = ops.to_float(ops.quantize(xs))
        if np.any(np.diff(quantized) < 0.0):
            mono_ok = False
        in_range = (xs >= fmt.min_value) & (xs <= fmt.max_value)
        err = np.abs(quantized[in_range] - xs[in_range])
        if err.size and err.max() > fmt.resolution / 2.0 + 1e-15:
            bound_ok = False
        # scalar and array quantization must both equal the exact oracle
        stride = len(xs) // 500
        for v, raw in zip(xs[::stride].tolist(), ops.quantize(xs[::stride]).tolist()):
            if not exact_quantize(v, fmt) == int(ops.quantize(v)) == raw:
                agree_ok = False
    elapsed = time.perf_counter() - started
    _verdict(
        8,
        roundtrip_ok and mono_ok and bound_ok and agree_ok and elapsed < 30.0,
        f"roundtrip {roundtrip_ok}, monotone {mono_ok}, half-step bound {bound_ok}, "
        f"exact-oracle agreement {agree_ok}, {elapsed:.1f}s",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    started = time.perf_counter()

    def run(base):
        data = base / "data"
        art = base / "model.lama"
        rep = base / "report.csv"
        assert main(
            ["gen", "--classes", "6", "--dim", "32", "--per-class", "50",
             "--target-per-class", "10", "--severity", "1.0", "--seed", "33",
             "--out", str(data)]
        ) == 0
        assert main(
            ["fit", str(data / "source_train.latf"), "--k", "8", "--out", str(art)]
        ) == 0
        assert main(
            ["adapt", str(art), str(data / "target_combined.latf"), "--mode", "ted",
             "--n", "4", "--seed", "33", "--out", str(rep)]
        ) == 0
        assert main(["report", str(rep), "--out", str(base / "summary.txt")]) == 0
        return data, art, rep

    d1, a1, r1 = run(tmp_path / "run1")
    d2, a2, r2 = run(tmp_path / "run2")

    files_ok = all(
        (d1 / name).read_bytes() == (d2 / name).read_bytes()
        for name in (
            "source_train.latf",
            "source_test.latf",
            "target_mean_only.latf",
            "target_cov_only.latf",
            "target_combined.latf",
        )
    )
    artifact_ok = a1.read_bytes() == a2.read_bytes()
    report_ok = compare_reports.first_difference(str(r1), str(r2)) is None
    elapsed = time.perf_counter() - started
    _verdict(
        9,
        files_ok and artifact_ok and report_ok and elapsed < 180.0,
        f"features identical {files_ok}, artifact identical {artifact_ok}, "
        f"report identical (timing excluded) {report_ok}, {elapsed:.1f}s",
    )
