"""Command-line interface: gen, fit, adapt, sweep, report.

Exit codes: 0 success, 1 usage or config error, 2 data or contract error,
3 convergence error.

A flat key = value UTF-8 file given with --config supplies defaults to the
command being run: its keys are the command's optional long flags without
the leading --, explicit flags win over the file, and a switch takes
true/false/yes/no/on/off/1/0. An unknown key, like an unreadable file, is a
config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import datagen, fileio, report
from .adapt import MODES, AdaptationConfig, adapt_batch
from .cmaes import CmaEsParams
from .decoder import LinearDecoder
from .errors import ContractViolation, ConvergenceFailure, DataFormatError
from .quant import FixedPointFormat, quantization_health
from .rng import Xoshiro256pp, derive_seed
from .subspace import fit


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for data errors
    def error(self, message):
        raise UsageError(message)


_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``. A ``--config`` file's values become the defaults of the
    command being run and ``argv`` is parsed again, so argparse converts each
    value with its flag's own type and an explicit flag still wins."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    try:
        values = fileio.parse_config(args.config)
    except OSError as exc:
        raise UsageError(f"cannot read config file {args.config}: {exc.strerror}") from exc
    except DataFormatError as exc:
        raise UsageError(str(exc)) from exc
    # argparse has no public list of a parser's actions
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    flags = {
        option[2:]: action
        for action in command._actions
        if not action.required and action.dest not in ("help", "config")
        for option in action.option_strings
        if option.startswith("--")
    }
    defaults = {}
    for key, value in values.items():
        action = flags.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r}: not an optional flag of {args.command}")
        if action.nargs == 0:  # a switch takes no type
            if value.lower() not in _SWITCH_VALUES:
                raise UsageError(f"bad config value for {key}: {value!r}")
            value = _SWITCH_VALUES[value.lower()]
        defaults[action.dest] = value
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- gen


def _cmd_gen(args) -> int:
    # every file's arrays are made before the first write, so a refused flag
    # value writes nothing
    try:
        task = datagen.make_task(
            class_count=args.classes,
            dim=args.dim,
            mean_radius=args.radius,
            within_class_std=args.std,
            seed=args.seed,
        )
        test_z, test_y = datagen.gen_source(task, args.target_per_class, stream=1)
        files = {
            "source_train.latf": datagen.gen_source(task, args.per_class, stream=0),
            "source_test.latf": (test_z, test_y),
        }
        source_mean = task.class_means.mean(axis=0)
        for spec in datagen.preset_shifts(args.dim, args.severity, args.seed, std=args.std):
            shifted = datagen.apply_shift(test_z, source_mean, spec)
            files[f"target_{spec.label.replace('-', '_')}.latf"] = (shifted, test_y)
        for features, labels in files.values():
            fileio.check_features(features, labels)
    except ContractViolation as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataFormatError(f"{out_dir}: cannot make directory: {exc.strerror}") from exc
    for name, (features, labels) in files.items():
        fileio.write_features(out_dir / name, features, labels)
    print(f"wrote source and target feature files to {out_dir}")
    return 0


# ---------------------------------------------------------------- fit


def _subsample(features, labels, count, seed):
    n = features.shape[0]
    if count >= n:
        return features, labels, n
    # seeded Fisher-Yates so the subsample is reproducible everywhere
    rng = Xoshiro256pp(derive_seed(seed, 0xF17))
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    keep = np.sort(idx[:count])
    return features[keep], labels[keep], count


def _empirical_decoder(features, labels):
    present = np.unique(labels)  # sorted, so the labels are 0..C-1 iff the last is C-1
    classes = present.size
    if classes < 2:
        raise DataFormatError("need at least 2 classes to build a decoder")
    if present[-1] != classes - 1:
        raise DataFormatError(f"labels must be 0..C-1 with every class present; got "
                              f"{classes} distinct labels up to {int(present[-1])}")
    means = np.empty((classes, features.shape[1]))
    sq_sum = 0.0
    for c in range(classes):
        rows = features[labels == c]
        means[c] = rows.mean(axis=0)
        sq_sum += float(np.sum((rows - means[c]) ** 2))
    var = sq_sum / (features.shape[0] * features.shape[1])
    if var <= 0.0:
        raise DataFormatError("zero within-class variance; decoder undefined")
    return LinearDecoder.from_class_means(means, var)


def _cmd_fit(args) -> int:
    features, labels = fileio.read_features(args.source)
    if labels is None:
        raise UsageError("fit requires a labeled source file")
    n_used = features.shape[0]
    if args.n is not None:
        if args.n < 2:
            raise UsageError("--n must be >= 2")
        features, labels, n_used = _subsample(features, labels, args.n, args.seed)
    k, k_max = args.k, min(n_used - 1, features.shape[1])
    if not 1 <= k <= k_max:
        raise UsageError(f"k={k} not in [1, min(N-1, D)={k_max}]")

    subspace = fit(features, k)
    decoder = _empirical_decoder(features, labels)
    meta = {
        "k": k,
        "source_count": n_used,
        "seed": args.seed,
        "config_hash": fileio.fit_config_hash(args.source, k, n_used, args.seed),
        "rank_deficient": subspace.rank_deficient,
    }
    artifact = fileio.ModelArtifact(subspace=subspace, decoder=decoder, meta=meta)
    fileio.write_artifact(args.out, artifact)
    note = " (rank-deficient spectrum)" if subspace.rank_deficient else ""
    print(f"fitted k={k} on {n_used} samples -> {args.out}{note}")
    return 0


# ---------------------------------------------------------------- adapt


def _build_adaptation_config(args, artifact_k) -> AdaptationConfig:
    k = artifact_k if args.k is None else args.k
    if not 1 <= k <= artifact_k:
        raise UsageError(f"k={k} not in [1, {artifact_k}] of the artifact")
    if args.mode == "fixed" and args.fmt is None:
        raise UsageError("--mode fixed requires --fmt (e.g. 8b4)")
    try:
        return AdaptationConfig(
            k=k,
            n=args.n,
            population=args.lambda_,
            sigma0=args.sigma0,
            seed=args.seed,
            mode=args.mode,
            fixed_format=FixedPointFormat.parse(args.fmt) if args.mode == "fixed" else None,
            binary_alpha=args.alpha,
            binary_feedback=args.binary_feedback,
        )
    except ContractViolation as exc:
        raise UsageError(str(exc)) from exc


def _records(batch, labels) -> list[report.SampleRecord]:
    """One report row per batch row; a failed row keeps only its error name."""
    records = []
    for i, (result, wall) in enumerate(zip(batch.results, batch.wall_ms)):
        true_label = int(labels[i]) if labels is not None else -1
        if result is None:
            name = type(batch.errors[i]).__name__
            outcome = (-1, float("nan"), -1, float("nan"), 0, f"error:{name}")
        else:
            base, adapted = result.baseline_prediction, result.prediction
            outcome = (base.predicted_class, base.entropy, adapted.predicted_class,
                       adapted.entropy, result.evaluations, "ok")
        records.append(report.SampleRecord(i, true_label, *outcome, wall))
    return records


def _load(args):
    """The artifact, target features and target labels of adapt and sweep."""
    artifact = fileio.read_artifact(args.artifact)
    features, labels = fileio.read_features(args.target)
    if features.shape[1] != artifact.subspace.dim:
        raise UsageError(
            f"target dimension {features.shape[1]} does not match artifact "
            f"dimension {artifact.subspace.dim}"
        )
    return artifact, features, labels


def _cmd_adapt(args) -> int:
    out = Path(args.out)
    if out.suffix == ".txt":  # the summary is written to out.with_suffix(".txt")
        raise UsageError(f"--out {out} is also the path of its summary; use another suffix")
    artifact, features, labels = _load(args)
    cfg = _build_adaptation_config(args, artifact.subspace.k)
    subspace = artifact.subspace.truncated(cfg.k)

    batch = adapt_batch(features, artifact.decoder, subspace, cfg)
    records = _records(batch, labels)
    report.write_csv(out, records)
    summary = report.summarize(records)
    fmt_note = ""
    if cfg.mode == "fixed":
        fmt_note = f" fmt={cfg.fixed_format}"
    text = report.summary_text(
        summary, header=f"mode={cfg.mode}{fmt_note} k={cfg.k} samples={len(records)}"
    )
    if cfg.mode == "fixed":
        totals = {"saturations": 0, "sigma_clamps": 0, "eig_clamps": 0}
        for result in batch.results:
            if result is not None:
                for key in totals:
                    totals[key] += result.quant_warnings[key]
        text += (
            f"saturation events: {totals['saturations']} "
            f"(sigma clamps: {totals['sigma_clamps']}, "
            f"eigenvalue clamps: {totals['eig_clamps']})\n"
        )
        params = CmaEsParams.defaults(cfg.k, population=cfg.population)
        text += quantization_health(params, cfg.fixed_format) + "\n"
    with fileio.atomic_open(out.with_suffix(".txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------- sweep

# a sweep row is the key of its cell, then the summary of the cell's run
_SWEEP_KEY = ["k", "n", "fmt", "seed", "sigma0"]
_SWEEP_STATS = [f.name for f in dataclasses.fields(report.Summary)
                if f.name not in ("labeled", "mean_wall_ms")]
_SWEEP_COLUMNS = _SWEEP_KEY + _SWEEP_STATS


def _grid(text: str) -> list[str]:
    """The entries of a comma-separated grid flag."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty grid: {text!r}")
    return items


def _int_grid(text: str) -> list[int]:
    return [int(part) for part in _grid(text)]


def _grid_mode(token: str) -> tuple[str, Optional[FixedPointFormat]]:
    """Mode and fixed-point format of a ``--fmt-grid`` entry; ``<xby>`` is
    short for mode ``fixed`` in that format."""
    if token in MODES and token != "fixed":
        return token, None
    try:
        return "fixed", FixedPointFormat.parse(token)
    except ContractViolation as exc:
        raise UsageError(
            f"bad --fmt-grid entry {token!r}: expected none, ted, qted-v1 or a format like 8b4"
        ) from exc


def _sweep_configs(args, artifact_k):
    """The configuration of every grid cell, keyed by ``(k, n, fmt token)``.

    Every cell is checked here, before any runs: a bad grid value is a usage
    error, never an error row that a resumed sweep would then skip.
    """
    configs = {}
    for k in args.k_grid:
        if not 1 <= k <= artifact_k:
            raise UsageError(f"--k-grid entry {k} not in [1, {artifact_k}] of the artifact")
        for n in args.n_grid:
            for token in args.fmt_grid:
                mode, fmt = _grid_mode(token)
                try:
                    configs[k, n, token] = AdaptationConfig(
                        k=k, n=n, sigma0=args.sigma0, seed=args.seed, mode=mode, fixed_format=fmt
                    )
                except ContractViolation as exc:
                    raise UsageError(f"sweep cell k={k} n={n} {token}: {exc}") from exc
    return configs


def _read_done_cells(path: Path) -> set[tuple[str, ...]]:
    """Cells already in an existing sweep file, keyed like the rows to write.

    A final line left without its newline by an interrupted write is cut,
    but only once the whole lines are known to be a sweep file; a file with
    no whole line at all has no header to check and is left as it is.
    """
    data = fileio.read_bytes(path)
    cut = data.rfind(b"\n") + 1
    if data and not cut:
        raise DataFormatError(f"{path}: not a sweep file: no complete header line")
    try:
        rows = list(csv.reader(io.StringIO(data[:cut].decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: not a sweep file: {exc}") from exc
    if rows and rows[0] != _SWEEP_COLUMNS:
        raise DataFormatError(f"{path}: not a sweep file, header is {rows[0]}")
    if cut < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(cut)
    return {tuple(row[: len(_SWEEP_KEY)]) for row in rows[1:]}


def _cmd_sweep(args) -> int:
    artifact, features, labels = _load(args)
    configs = _sweep_configs(args, artifact.subspace.k)

    out = Path(args.out)
    done = _read_done_cells(out) if out.exists() else set()
    write_header = not out.exists() or out.stat().st_size == 0
    with open(out, "a", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(_SWEEP_COLUMNS)
        for (k, n, fmt_token), cfg in configs.items():
            key = [k, n, fmt_token, args.seed, repr(args.sigma0)]
            if tuple(map(str, key)) in done:
                continue
            batch = adapt_batch(features, artifact.decoder, artifact.subspace.truncated(k), cfg)
            s = report.summarize(_records(batch, labels))
            writer.writerow(key + [report.cell(getattr(s, name)) for name in _SWEEP_STATS])
            fh.flush()
    print(f"sweep results in {out}")
    return 0


# ---------------------------------------------------------------- report


def _cmd_report(args) -> int:
    try:
        records = report.read_csv(args.report)
    except (ValueError, OSError, csv.Error) as exc:
        raise DataFormatError(str(exc)) from exc
    summary = report.summarize(records)
    text = report.summary_text(summary, header=f"report: {args.report}")
    if args.out:
        with fileio.atomic_open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    # the one declaration of each option's type and default; a --config
    # file only replaces defaults (see _parse_args)
    parser = _Parser(prog="latentadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic source/target feature files")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--classes", type=int, default=10)
    p_gen.add_argument("--dim", type=int, default=64)
    p_gen.add_argument("--radius", type=float, default=4.0)
    p_gen.add_argument("--std", type=float, default=1.0)
    p_gen.add_argument("--per-class", type=int, default=200)
    p_gen.add_argument("--target-per-class", type=int, default=20)
    p_gen.add_argument("--severity", type=float, default=1.0)
    p_gen.set_defaults(func=_cmd_gen)

    p_fit = sub.add_parser("fit", help="fit subspace and decoder from a source file")
    p_fit.add_argument("source")
    p_fit.add_argument("--k", type=int, default=16)
    p_fit.add_argument("--n", type=int, help="subsample the source to N rows")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_adapt = sub.add_parser("adapt", help="adapt a target file against an artifact")
    p_adapt.add_argument("artifact")
    p_adapt.add_argument("target")
    p_adapt.add_argument("--mode", choices=MODES, default="ted")
    p_adapt.add_argument("--k", type=int, help="default: the k of the artifact")
    p_adapt.add_argument("--n", type=int, default=8)
    p_adapt.add_argument("--lambda", type=int, dest="lambda_")
    p_adapt.add_argument("--fmt")
    p_adapt.add_argument("--alpha", type=float)
    p_adapt.add_argument("--binary-feedback", action="store_true")
    p_adapt.add_argument("--out", required=True, help="per-sample CSV path")
    p_adapt.set_defaults(func=_cmd_adapt)

    p_sweep = sub.add_parser("sweep", help="grid of adapt runs, one CSV row per cell")
    p_sweep.add_argument("artifact")
    p_sweep.add_argument("target")
    p_sweep.add_argument("--k-grid", type=_int_grid, default="16")
    p_sweep.add_argument("--n-grid", type=_int_grid, default="8")
    p_sweep.add_argument("--fmt-grid", type=_grid, default="ted",
                         help="comma list of none|ted|qted-v1|<xby>")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    for p in (p_adapt, p_sweep):
        p.add_argument("--sigma0", type=float, default=1.0)
    for p in (p_gen, p_fit, p_adapt, p_sweep):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key = value file of defaults for the optional flags")

    p_rep = sub.add_parser("report", help="recompute the summary of a per-sample CSV")
    p_rep.add_argument("report")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ContractViolation, DataFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceFailure as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
