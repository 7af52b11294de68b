import csv
import hashlib
import os
import warnings

import numpy as np
import pytest

from latentadapt import fileio, linalg, report
from latentadapt.cli import _parse_args, build_parser, main

GEN_ARGS = [
    "gen",
    "--classes", "4",
    "--dim", "16",
    "--per-class", "40",
    "--target-per-class", "10",
    "--severity", "1.0",
    "--seed", "5",
]


@pytest.fixture()
def workdir(tmp_path):
    out = tmp_path / "data"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    art = tmp_path / "model.lama"
    assert main(["fit", str(out / "source_train.latf"), "--k", "4", "--out", str(art)]) == 0
    return tmp_path, out, art


def test_gen_writes_expected_files_deterministically(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(GEN_ARGS + ["--out", str(out1)]) == 0
    assert main(GEN_ARGS + ["--out", str(out2)]) == 0
    names = [
        "source_train.latf",
        "source_test.latf",
        "target_mean_only.latf",
        "target_cov_only.latf",
        "target_combined.latf",
    ]
    for name in names:
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    features, labels = fileio.read_features(out1 / "source_train.latf")
    assert features.shape == (160, 16)
    np.testing.assert_array_equal(labels, np.repeat(np.arange(4), 40))


def test_gen_zero_severity_targets_equal_source_test(tmp_path):
    out = tmp_path / "z"
    args = [a if a != "1.0" else "0.0" for a in GEN_ARGS]
    assert main(args + ["--out", str(out)]) == 0
    base = (out / "source_test.latf").read_bytes()
    for name in ("target_mean_only.latf", "target_cov_only.latf", "target_combined.latf"):
        assert (out / name).read_bytes() == base


def test_fit_is_byte_stable_and_checks_k(workdir):
    tmp_path, out, art = workdir
    again = tmp_path / "model2.lama"
    assert main(["fit", str(out / "source_train.latf"), "--k", "4", "--out", str(again)]) == 0
    assert art.read_bytes() == again.read_bytes()
    huge_k = tmp_path / "model3.lama"
    assert main(
        ["fit", str(out / "source_train.latf"), "--k", "100", "--out", str(huge_k)]
    ) == 1


@pytest.mark.parametrize("k", ["0", "-1"])
def test_fit_k_outside_one_to_min_n_minus_1_d_is_a_usage_error(workdir, capsys, k):
    # k <= 0 used to reach subspace.fit and exit 2, a data error, for a usage mistake
    tmp_path, out, _ = workdir
    art = tmp_path / "bad_k.lama"
    assert main(["fit", str(out / "source_train.latf"), "--k", k, "--out", str(art)]) == 1
    assert "not in [1, min(N-1, D)=16]" in capsys.readouterr().err
    assert not art.exists()


def test_fit_orthonormal_basis(workdir):
    _, _, art = workdir
    model = fileio.read_artifact(art)
    gram = model.subspace.basis.T @ model.subspace.basis
    assert np.max(np.abs(gram - np.eye(model.subspace.k))) < 1e-8


def test_fit_subsample_flag(workdir):
    tmp_path, out, _ = workdir
    sub_art = tmp_path / "sub.lama"
    assert main(
        ["fit", str(out / "source_train.latf"), "--k", "4", "--n", "80",
         "--out", str(sub_art)]
    ) == 0
    model = fileio.read_artifact(sub_art)
    assert model.meta["source_count"] == 80
    assert model.subspace.source_count == 80


def test_adapt_mode_none_is_passthrough(workdir):
    tmp_path, out, art = workdir
    rep = tmp_path / "none.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "none", "--out", str(rep)]
    ) == 0
    for r in report.read_csv(rep):
        assert r.adapted_class == r.noadapt_class
        assert r.adapted_entropy == r.noadapt_entropy
        assert r.evaluations == 1
    assert rep.with_suffix(".txt").exists()


def test_adapt_mode_ted_improves_on_shift(workdir):
    tmp_path, out, art = workdir
    rep = tmp_path / "ted.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "ted", "--n", "6", "--seed", "5", "--out", str(rep)]
    ) == 0
    records = report.read_csv(rep)
    assert all(r.adapted_entropy <= r.noadapt_entropy for r in records)
    assert all(r.evaluations == 6 * 8 + 1 for r in records)  # lambda(k=4) = 8


def test_adapt_fixed_mode_records_format_and_saturation_counts(workdir):
    tmp_path, out, art = workdir
    rep = tmp_path / "fx.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "fixed", "--fmt", "8b4", "--n", "3", "--out", str(rep)]
    ) == 0
    text = rep.with_suffix(".txt").read_text()
    assert "fmt=8b4" in text
    assert "saturation events:" in text


def test_adapt_fixed_mode_reports_quantization_health(workdir, capsys):
    tmp_path, out, art = workdir
    rep = tmp_path / "fx.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "fixed", "--fmt", "8b4", "--n", "2", "--out", str(rep)]
    ) == 0
    # at 8b4 and k=4 the rank-mu rate vanishes and the weights lose 1/8
    line = "strategy constants at 0 or 1: c_mu->0 (recombination weight sum: 0.875)\n"
    text = rep.with_suffix(".txt").read_text()
    assert text.endswith(line)
    assert capsys.readouterr().out.endswith(line)
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "fixed", "--fmt", "32b8", "--n", "2", "--out", str(rep)]
    ) == 0
    assert "strategy constants at 0 or 1: none" in rep.with_suffix(".txt").read_text()


def test_adapt_lambda_flag_controls_budget(workdir):
    tmp_path, out, art = workdir
    rep = tmp_path / "lam.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "ted", "--n", "2", "--lambda", "4", "--out", str(rep)]
    ) == 0
    assert all(r.evaluations == 2 * 4 + 1 for r in report.read_csv(rep))


def test_adapt_binary_feedback_flag(workdir):
    tmp_path, out, art = workdir
    rep = tmp_path / "bf.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "qted-v1", "--n", "2", "--binary-feedback", "--out", str(rep)]
    ) == 0
    records = report.read_csv(rep)
    assert all(r.adapted_entropy <= r.noadapt_entropy for r in records)


def test_fit_subsample_adapted_accuracy_stays_close(tmp_path):
    # frozen fixture: halving the source count leaves adapted accuracy intact
    out = tmp_path / "data"
    assert main(
        ["gen", "--classes", "4", "--dim", "16", "--per-class", "40",
         "--target-per-class", "25", "--severity", "1.0", "--seed", "5",
         "--out", str(out)]
    ) == 0
    adapted = {}
    for name, extra in (("full", []), ("sub", ["--n", "80"])):
        art = tmp_path / f"{name}.lama"
        assert main(
            ["fit", str(out / "source_train.latf"), "--k", "4", "--out", str(art)]
            + extra
        ) == 0
        rep = tmp_path / f"{name}.csv"
        assert main(
            ["adapt", str(art), str(out / "target_combined.latf"),
             "--mode", "ted", "--n", "6", "--seed", "5", "--out", str(rep)]
        ) == 0
        adapted[name] = report.summarize(report.read_csv(rep)).accuracy_adapted
    assert adapted["full"] == 96.0  # frozen at first measurement
    assert adapted["sub"] >= adapted["full"] - 2.0


def test_adapt_usage_errors(workdir):
    tmp_path, out, art = workdir
    rep = tmp_path / "r.csv"
    target = str(out / "target_combined.latf")
    assert main(["adapt", str(art), target, "--mode", "fixed", "--out", str(rep)]) == 1
    assert main(["adapt", str(art), target, "--k", "9", "--out", str(rep)]) == 1

    # dimension mismatch between artifact and target
    other = tmp_path / "other"
    assert main(
        ["gen", "--classes", "3", "--dim", "8", "--per-class", "10",
         "--target-per-class", "4", "--seed", "1", "--out", str(other)]
    ) == 0
    assert main(
        ["adapt", str(art), str(other / "target_combined.latf"), "--out", str(rep)]
    ) == 1


@pytest.mark.parametrize("flags", [
    ["--sigma0", "nan"], ["--sigma0", "inf"], ["--sigma0", "-1"],
    ["--mode", "qted-v1", "--alpha", "nan"], ["--mode", "qted-v1", "--alpha", "inf"],
], ids=["sigma0-nan", "sigma0-inf", "sigma0-negative", "alpha-nan", "alpha-inf"])
def test_adapt_non_finite_sigma0_or_alpha_is_a_usage_error(workdir, flags):
    tmp_path, out, art = workdir
    rep = tmp_path / "r.csv"
    target = str(out / "target_combined.latf")
    assert main(["adapt", str(art), target, *flags, "--out", str(rep)]) == 1
    assert not rep.exists()


def _statuses(path):
    with open(path, newline="") as fh:
        return {row["status"] for row in csv.DictReader(fh)}


def test_a_step_size_that_overflows_fails_each_row_alone(workdir, capsys):
    # far 1-bit points fed back make each row's step-size factor overflow:
    # every row fails with its own error, nothing is printed, and the run ends
    tmp_path, out, art = workdir
    rep = tmp_path / "r.csv"
    target = str(out / "target_combined.latf")
    flags = ["--mode", "qted-v1", "--binary-feedback", "--alpha", "1e6", "--sigma0", "1e-3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["adapt", str(art), target, *flags, "--out", str(rep)]) == 0
    assert capsys.readouterr().err == ""
    assert _statuses(rep) == {"error:ConvergenceFailure"}


@pytest.mark.parametrize("mode", ["ted", "qted-v1"])
def test_a_largest_finite_sigma0_fails_each_row_on_its_step_size(workdir, mode, capsys):
    tmp_path, out, art = workdir
    rep = tmp_path / "r.csv"
    target = str(out / "target_combined.latf")
    capsys.readouterr()
    # the candidates overflow before the step size does, without a warning
    assert main(["adapt", str(art), target, "--mode", mode, "--sigma0", "1.7e308",
                 "--out", str(rep)]) == 0
    assert _statuses(rep) == {"error:ConvergenceFailure"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5"])
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["gen", "fit", "adapt", "sweep"])
def test_a_seed_outside_0_to_2_64_is_a_usage_error_before_any_file_is_read(
        tmp_path, capsys, command, via, seed):
    missing = str(tmp_path / "missing")  # read first, it would be a data error
    argv = {"gen": ["gen"], "fit": ["fit", missing], "adapt": ["adapt", missing, missing],
            "sweep": ["sweep", missing, missing]}[command]
    if via == "flag":
        argv += ["--seed", seed]
    else:
        (tmp_path / "run.cfg").write_text(f"seed = {seed}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert f"seed must be an integer in [0, 2^64), got {seed!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_largest_seed_is_a_seed():
    args = _parse_args(["gen", "--out", "data", "--seed", str(2 ** 64 - 1)])
    assert args.seed == 2 ** 64 - 1


def test_adapt_reads_config_file_with_flag_override(workdir):
    tmp_path, out, art = workdir
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = ted\nn = 2\nseed = 9\n")
    rep1 = tmp_path / "c1.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--config", str(cfg), "--out", str(rep1)]
    ) == 0
    records = report.read_csv(rep1)
    assert all(r.evaluations == 2 * 8 + 1 for r in records)

    rep2 = tmp_path / "c2.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--config", str(cfg), "--n", "3", "--out", str(rep2)]
    ) == 0
    assert all(r.evaluations == 3 * 8 + 1 for r in report.read_csv(rep2))


def test_bad_data_exit_code(workdir, tmp_path):
    _, out, art = workdir
    broken = tmp_path / "broken.latf"
    broken.write_bytes(b"garbage")
    assert main(["adapt", str(art), str(broken), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["fit", str(tmp_path / "missing.latf"), "--out", str(tmp_path / "m.lama")]) == 2


@pytest.mark.parametrize("which", ["adapt-artifact", "adapt-target", "fit-source", "sweep-out"])
def test_a_directory_given_as_an_input_file_is_a_data_error(workdir, capsys, which):
    # each used to end in an IsADirectoryError traceback
    tmp_path, out, art = workdir
    folder = tmp_path / "folder"
    folder.mkdir()
    target = str(out / "target_combined.latf")
    argv = {
        "adapt-artifact": ["adapt", str(folder), target, "--out", str(tmp_path / "r.csv")],
        "adapt-target": ["adapt", str(art), str(folder), "--out", str(tmp_path / "r.csv")],
        "fit-source": ["fit", str(folder), "--out", str(tmp_path / "m.lama")],
        "sweep-out": _sweep_args(art, out, folder),
    }[which]
    listing = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"data error: {folder}: cannot read")
    assert sorted(os.listdir(tmp_path)) == listing
    assert not any(folder.iterdir())


@pytest.mark.parametrize("which", ["gen-file", "fit-dir", "adapt-dir", "report-dir"])
def test_a_write_target_that_cannot_be_written_is_a_data_error(workdir, capsys, which):
    # gen used to die with FileExistsError, the others with IsADirectoryError
    tmp_path, out, art = workdir
    rep = tmp_path / "r.csv"
    if which == "report-dir":
        assert main(["adapt", str(art), str(out / "target_combined.latf"), "--n", "2",
                     "--out", str(rep)]) == 0
        capsys.readouterr()
    target = tmp_path / "taken"
    if which == "gen-file":
        target.write_bytes(b"a file")
    else:
        target.mkdir()
    argv = {
        "gen-file": GEN_ARGS,
        "fit-dir": ["fit", str(out / "source_train.latf"), "--k", "2"],
        "adapt-dir": ["adapt", str(art), str(out / "target_combined.latf"), "--n", "2"],
        "report-dir": ["report", str(rep)],
    }[which]
    listing = sorted(os.listdir(tmp_path))
    assert main(argv + ["--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {target}: cannot ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == listing
    if which != "gen-file":
        assert not any(target.iterdir())


def test_adapt_out_that_is_its_own_summary_path_is_a_usage_error(workdir, capsys):
    # the summary goes to --out with the suffix .txt: it used to overwrite the report
    tmp_path, out, art = workdir
    rep = tmp_path / "r.txt"
    assert main(["adapt", str(art), str(out / "target_combined.latf"), "--out", str(rep)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: --out {rep} is also the path")
    assert not rep.exists()


@pytest.mark.parametrize("flags", [
    ["--severity", "-1"], ["--severity", "nan"], ["--severity", "inf"],
    ["--radius", "nan"], ["--std", "nan"], ["--std", "inf"],
], ids=["severity-negative", "severity-nan", "severity-inf", "radius-nan", "std-nan", "std-inf"])
def test_gen_refuses_a_bad_shape_value_before_any_write(tmp_path, capsys, flags):
    # the severity used to be refused after the two source files were written,
    # with exit 2; a NaN radius or std used to fail at the first write
    out = tmp_path / "data"
    assert main(GEN_ARGS + flags + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_gen_refuses_features_beyond_float32_before_any_write(tmp_path, capsys):
    # finite in float64 but infinite once stored as float32: gen used to exit 0
    # with an overflow warning and write targets that adapt then refused
    out = tmp_path / "data"
    args = ["gen", "--severity", "1e300", "--classes", "3", "--dim", "8", "--per-class", "10",
            "--target-per-class", "4", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "float32" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["adapt", "sweep"])
def test_adapt_and_sweep_name_both_dimensions_of_a_mismatch(workdir, capsys, command):
    tmp_path, out, art = workdir
    other = tmp_path / "other"
    assert main(["gen", "--classes", "3", "--dim", "8", "--per-class", "10",
                 "--target-per-class", "4", "--out", str(other)]) == 0
    rep = tmp_path / "r.csv"
    assert main([command, str(art), str(other / "target_combined.latf"), "--out", str(rep)]) == 1
    assert "target dimension 8 does not match artifact dimension 16" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("labels", [[0, 0, 1, 1, 0, 0xFFFFFFFF], [0, 0, 2, 2, 0, 2]],
                         ids=["huge-label", "missing-class"])
def test_fit_labels_must_be_every_class_from_zero(tmp_path, capsys, labels):
    # a label of 2^32 - 1 used to size the class-mean table: a 128 GiB allocation
    src = tmp_path / "src.latf"
    features = np.arange(24, dtype=np.float64).reshape(6, 4) % 5
    fileio.write_features(src, features, np.array(labels, dtype=np.uint32))
    assert main(["fit", str(src), "--k", "2", "--out", str(tmp_path / "m.lama")]) == 2
    assert "labels must be 0..C-1 with every class present" in capsys.readouterr().err
    assert not (tmp_path / "m.lama").exists()


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"seed = 3\n\xff\xfe = 1\n")
    assert main(GEN_ARGS + ["--out", str(tmp_path / "data"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def _argv(workdir, command, name, flags=(), config=None):
    """Arguments that run ``command`` on the workdir task into ``name``, with
    ``flags`` and, if given, a config file of that text."""
    tmp_path, out, art = workdir
    target = str(out / "target_combined.latf")
    argv = {
        "gen": ["gen", "--classes", "3", "--dim", "8", "--per-class", "10",
                "--target-per-class", "4"],
        "fit": ["fit", str(out / "source_train.latf")],
        "adapt": ["adapt", str(art), target, "--seed", "5"],
        "sweep": ["sweep", str(art), target, "--k-grid", "2", "--n-grid", "2", "--seed", "5"],
    }[command] + list(flags)
    if config is not None:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    return argv + ["--out", str(tmp_path / name)]


def _run(workdir, command, name, flags=(), config=None):
    """What a successful run wrote, wall-clock times aside."""
    assert main(_argv(workdir, command, name, flags, config)) == 0
    dest = workdir[0] / name
    if dest.is_dir():
        return {p.name: p.read_bytes() for p in sorted(dest.iterdir())}
    return _report_digest(dest) if dest.suffix == ".csv" else dest.read_bytes()


@pytest.mark.parametrize("command, config, flags", [
    ("adapt", "n = 3", ["--n", "3"]),
    ("adapt", "sigma0 = 0.5", ["--sigma0", "0.5"]),
    ("adapt", "mode = fixed\nfmt = 8b4", ["--mode", "fixed", "--fmt", "8b4"]),
    ("adapt", "lambda = 4", ["--lambda", "4"]),
    ("adapt", "mode = qted-v1\nbinary-feedback = true", ["--mode", "qted-v1", "--binary-feedback"]),
    ("adapt", "mode = qted-v1\nbinary-feedback = false", ["--mode", "qted-v1"]),
    ("sweep", "fmt-grid = ted,8b4", ["--fmt-grid", "ted,8b4"]),
], ids=["int", "float", "string", "lambda", "switch-on", "switch-off", "grid"])
def test_a_config_value_acts_as_the_same_flag(workdir, command, config, flags):
    from_file = _run(workdir, command, "file.csv", config=config)
    assert from_file == _run(workdir, command, "flag.csv", flags=flags)


@pytest.mark.parametrize("command, config, flags, name", [
    ("gen", "seed = 6", ["--seed", "5"], "data"),
    ("fit", "k = 3", ["--k", "4"], "model.lama"),
    ("adapt", "n = 3", ["--n", "2"], "r.csv"),
    ("sweep", "sigma0 = 0.5", ["--sigma0", "2.0"], "sweep.csv"),
])
def test_a_flag_beats_the_config_file_which_beats_the_default(workdir, command, config,
                                                               flags, name):
    from_file = _run(workdir, command, "file-" + name, config=config)
    assert from_file != _run(workdir, command, "none-" + name)
    from_flag = _run(workdir, command, "flag-" + name, flags=flags)
    assert from_flag != from_file
    assert _run(workdir, command, "both-" + name, flags=flags, config=config) == from_flag


@pytest.mark.parametrize("command, config, message", [
    ("adapt", "n = two", "argument --n: invalid int value: 'two'"),
    ("adapt", "binary-feedback = maybe", "bad config value for binary-feedback: 'maybe'"),
    ("adapt", "mode = bogus", "mode must be one of"),
    ("gen", "severity = high", "argument --severity: invalid float value: 'high'"),
])
def test_a_bad_config_value_is_a_usage_error_before_any_output(workdir, capsys, command,
                                                               config, message):
    assert main(_argv(workdir, command, "out", config=config)) == 1
    assert message in capsys.readouterr().err
    assert not (workdir[0] / "out").exists()


@pytest.mark.parametrize("command, key", [
    ("adapt", "sigma"), ("gen", "per_class"), ("adapt", "out"), ("fit", "config"),
    ("sweep", "help"), ("adapt", "artifact"), ("gen", "lambda"),
])
def test_a_config_key_that_is_not_an_optional_flag_is_a_usage_error(workdir, capsys,
                                                                    command, key):
    # a typo such as sigma for sigma0 used to be dropped silently
    assert main(_argv(workdir, command, "out", config=f"{key} = 3\n")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: unknown config key {key!r}")
    assert not (workdir[0] / "out").exists()


_POSITIONALS = {"gen": [], "fit": ["src.latf"], "adapt": ["m.lama", "t.latf"],
                "sweep": ["m.lama", "t.latf"]}


def test_every_optional_long_flag_is_a_config_key(tmp_path):
    # the one-declaration rule: a new flag needs no second entry to be read
    # from a config file, and the file's value is converted like the flag's
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    cfg = tmp_path / "run.cfg"
    checked = []
    for name, positionals in _POSITIONALS.items():
        for action in commands[name]._actions:
            flag = next((o for o in action.option_strings if o.startswith("--")), None)
            if flag is None or action.required or flag in ("--help", "--config"):
                continue
            value = "true" if action.nargs == 0 else action.choices[-1] if action.choices else "3"
            cfg.write_text(f"{flag[2:]} = {value}\n")
            argv = [name, *positionals, "--out", "o"]
            from_file = _parse_args(argv + ["--config", str(cfg)])
            from_flag = _parse_args(argv + ([flag] if action.nargs == 0 else [flag, value]))
            assert getattr(from_file, action.dest) == getattr(from_flag, action.dest), flag
            assert getattr(from_file, action.dest) != getattr(_parse_args(argv), action.dest)
            checked.append(f"{name} {flag}")
    assert {"adapt --lambda", "adapt --binary-feedback", "sweep --k-grid"} <= set(checked)


def test_usage_exit_code_for_unknown_command():
    assert main(["definitely-not-a-command"]) == 1


def test_sweep_grid_and_resume(workdir):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    args = [
        "sweep", str(art), str(out / "target_combined.latf"),
        "--k-grid", "2,4",
        "--n-grid", "2,3",
        "--fmt-grid", "ted,8b4",
        "--seed", "5",
        "--out", str(sweep_csv),
    ]
    assert main(args) == 0
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "k", "n", "fmt", "seed", "sigma0", "samples", "failed", "accuracy_noadapt",
        "accuracy_adapted", "mean_entropy_noadapt", "mean_entropy_adapted",
    ]
    assert len(rows) == 8
    assert all(r["failed"] == "0" for r in rows)

    # resumable: rerunning adds nothing and rewrites nothing
    before = sweep_csv.read_bytes()
    assert main(args) == 0
    assert sweep_csv.read_bytes() == before

    # widening the grid appends only the new cells
    wider = args[:]
    wider[wider.index("--fmt-grid") + 1] = "ted,8b4,qted-v1"
    assert main(wider) == 0
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12


def _sweep_args(art, out, sweep_csv, seed="5", fmt_grid="ted,8b4"):
    return ["sweep", str(art), str(out / "target_combined.latf"),
            "--k-grid", "2,4", "--n-grid", "2", "--fmt-grid", fmt_grid,
            "--seed", seed, "--out", str(sweep_csv)]


def test_sweep_resume_drops_a_torn_final_row(workdir):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    assert main(_sweep_args(art, out, sweep_csv)) == 0
    complete = sweep_csv.read_bytes()
    last_row = complete.rstrip(b"\r\n").rsplit(b"\n", 1)[1]
    # a crash in the middle of writing the last cell's row
    sweep_csv.write_bytes(complete[: len(complete) - len(last_row) // 2 - 2])
    assert main(_sweep_args(art, out, sweep_csv)) == 0
    assert sweep_csv.read_bytes() == complete


def test_sweep_resume_with_another_seed_runs_every_cell(workdir):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    assert main(_sweep_args(art, out, sweep_csv, seed="5")) == 0
    assert main(_sweep_args(art, out, sweep_csv, seed="6")) == 0
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["5"] * 4 + ["6"] * 4


@pytest.mark.parametrize("grid", ["ted,float", "binary", "fixed", "8x4"])
def test_sweep_unknown_grid_token_is_a_usage_error(workdir, grid):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    assert main(_sweep_args(art, out, sweep_csv, fmt_grid=grid)) == 1
    assert not sweep_csv.exists()


@pytest.mark.parametrize("flag, value", [
    ("--k-grid", "0"), ("--k-grid", "2,5"), ("--n-grid", "0"), ("--n-grid", "2,-1"),
    ("--sigma0", "0"), ("--sigma0", "nan"), ("--sigma0", "inf"),
])
def test_sweep_bad_grid_value_is_a_usage_error_before_any_cell(workdir, flag, value):
    # the artifact has k=4; a bad value used to give an error row that resume never retried
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    args = _sweep_args(art, out, sweep_csv)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    assert main(args) == 1
    assert not sweep_csv.exists()


def test_sweep_resume_with_another_sigma0_runs_every_cell(workdir):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    assert main(_sweep_args(art, out, sweep_csv) + ["--sigma0", "1.0"]) == 0
    assert main(_sweep_args(art, out, sweep_csv) + ["--sigma0", "0.5"]) == 0
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["sigma0"] for r in rows] == ["1.0"] * 4 + ["0.5"] * 4
    before = sweep_csv.read_bytes()
    assert main(_sweep_args(art, out, sweep_csv) + ["--sigma0", "0.5"]) == 0
    assert sweep_csv.read_bytes() == before


def test_sweep_resume_into_a_file_with_another_header_is_a_data_error(workdir):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    # a sweep file written before sigma0 became part of the key
    old = b"k,n,fmt,seed,samples,failed\n2,2,ted,5,40,0\n"
    sweep_csv.write_bytes(old)
    assert main(_sweep_args(art, out, sweep_csv)) == 2
    assert sweep_csv.read_bytes() == old


def test_sweep_single_cell_matches_adapt(workdir):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "one.csv"
    assert main(
        ["sweep", str(art), str(out / "target_combined.latf"),
         "--k-grid", "4", "--n-grid", "4", "--fmt-grid", "ted",
         "--seed", "5", "--out", str(sweep_csv)]
    ) == 0
    rep = tmp_path / "direct.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "ted", "--n", "4", "--seed", "5", "--out", str(rep)]
    ) == 0
    summary = report.summarize(report.read_csv(rep))
    with open(sweep_csv, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["accuracy_adapted"]) == summary.accuracy_adapted
    assert float(row["mean_entropy_adapted"]) == pytest.approx(
        summary.mean_entropy_adapted, abs=1e-12
    )


def test_a_failed_summary_write_keeps_the_previous_summary(workdir, monkeypatch):
    tmp_path, out, art = workdir
    rep = tmp_path / "r.csv"
    args = ["adapt", str(art), str(out / "target_combined.latf"),
            "--mode", "ted", "--n", "2", "--seed", "3", "--out", str(rep)]
    assert main(args) == 0
    summary = (tmp_path / "r.txt").read_bytes()
    listing = sorted(os.listdir(tmp_path))
    real_open = open

    def torn_open(path, *a, **kw):
        fh = real_open(path, *a, **kw)
        if os.path.basename(path).startswith(".r.txt"):
            fh.write("mode=")
            fh.close()
            raise OSError("disk full")
        return fh

    monkeypatch.setattr(fileio, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        main(args)
    assert (tmp_path / "r.txt").read_bytes() == summary
    assert sorted(os.listdir(tmp_path)) == listing


def test_report_command_recomputes_summary(workdir, capsys):
    tmp_path, out, art = workdir
    rep = tmp_path / "r.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"),
         "--mode", "ted", "--n", "2", "--seed", "3", "--out", str(rep)]
    ) == 0
    capsys.readouterr()
    assert main(["report", str(rep)]) == 0
    text = capsys.readouterr().out
    summary = report.summarize(report.read_csv(rep))
    assert f"accuracy adapted:  {summary.accuracy_adapted:.2f}%" in text


_REPORT_ROW = "0,1,1,0.5,1,0.25,9,ok,1.5"


@pytest.mark.parametrize("row, code", [
    (_REPORT_ROW, 0),
    (_REPORT_ROW.rsplit(",", 1)[0], 2),   # a field too few
    (_REPORT_ROW + ",7", 2),              # a field too many
    (_REPORT_ROW[:-3] + "x" * 200_000, 2),  # beyond the csv module's field limit
], ids=["whole", "short", "extra", "oversized-field"])
def test_report_command_checks_the_field_count_of_every_row(tmp_path, capsys, row, code):
    rep = tmp_path / "r.csv"
    rep.write_text(",".join(report.CSV_COLUMNS) + "\n" + _REPORT_ROW + "\n" + row + "\n")
    assert main(["report", str(rep)]) == code
    if code:
        assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("junk", [b"\xff\xfe\x00binary\n", b"\xff\xfe\x00binary\nno final newline",
                                  b"\xff\xfe\x00binary"],
                         ids=["whole-lines", "torn-last-line", "no-newline"])
def test_sweep_into_a_file_that_is_not_utf8_is_a_data_error(workdir, junk):
    tmp_path, out, art = workdir
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_bytes(junk)
    assert main(_sweep_args(art, out, sweep_csv)) == 2
    assert sweep_csv.read_bytes() == junk


def test_sweep_into_a_text_file_without_a_newline_leaves_it_alone(workdir):
    tmp_path, out, art = workdir
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"one line of notes")
    assert main(_sweep_args(art, out, notes)) == 2
    assert notes.read_bytes() == b"one line of notes"


def _report_digest(path):
    """sha256 of a report CSV with the wall-clock column left out."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the deterministic part of each mode's report on the workdir task,
# recorded at commit 9afcb67, before the float, 1-bit and fixed-point searches
# shared one driver and the CLI shared the batch runner
_REPORT_DIGESTS = [
    (["--mode", "none"],
     "33661636f24bd602d9b6016ca222a983b9a6e269de50f35b9e2c779e78b939a4"),
    (["--mode", "ted"],
     "75a446cfb6524a49fda48dbd94246a3ca619e9b1bcd4742979f6147f55e36d34"),
    (["--mode", "qted-v1"],
     "bf20f193082872498013f140b9a16bedf2ad74e1f4702d991ed1a3914af1639e"),
    (["--mode", "qted-v1", "--binary-feedback", "--alpha", "0.5"],
     "eb36a47120561ad4e324cf91a019b70e520073c1d210fc09170a64fd4f47340c"),
    (["--mode", "fixed", "--fmt", "8b4"],
     "3762132531fb5f43e3a1f369851d6c2a273daaa5d3da5078aee50c9b7b7405d4"),
    (["--mode", "fixed", "--fmt", "4b2"],
     "d3b9ba2498fca625c7fa00b0d1dde96fd47133d106a701eceb30c547fe27ee2f"),
    # recorded at commit f71bbc7, before the fixed-point step moved its scalar
    # registers to Python ints; c_1 and c_mu are not 0 here, so the
    # covariance adapts and its decomposition changes every generation
    (["--mode", "fixed", "--fmt", "16b8"],
     "263288620480f04c8c6905741448361ac39a8c3e0ecb9c14170454fbc6a00de1"),
]


def _adapt_workdir_task(workdir, mode_args):
    tmp_path, out, art = workdir
    rep = tmp_path / "digest.csv"
    assert main(
        ["adapt", str(art), str(out / "target_combined.latf"), *mode_args,
         "--n", "3", "--seed", "5", "--out", str(rep)]
    ) == 0
    return rep


@pytest.mark.parametrize(
    "mode_args, digest", _REPORT_DIGESTS,
    ids=["none", "ted", "qted-v1", "qted-v1-feedback", "fixed-8b4", "fixed-4b2", "fixed-16b8"],
)
def test_adapt_report_matches_recorded_digest(workdir, mode_args, digest):
    assert _report_digest(_adapt_workdir_task(workdir, mode_args)) == digest


# the fixed-mode summary's counts on the same task, recorded at commit f71bbc7
_SATURATION_LINES = [
    ("4b2", "saturation events: 728 (sigma clamps: 0, eigenvalue clamps: 0)"),
    ("8b4", "saturation events: 3 (sigma clamps: 0, eigenvalue clamps: 0)"),
    ("16b8", "saturation events: 0 (sigma clamps: 0, eigenvalue clamps: 0)"),
]


@pytest.mark.parametrize("fmt, line", _SATURATION_LINES, ids=[f for f, _ in _SATURATION_LINES])
def test_fixed_summary_counts_match_recorded(workdir, fmt, line):
    rep = _adapt_workdir_task(workdir, ["--mode", "fixed", "--fmt", fmt])
    lines = rep.with_suffix(".txt").read_text().splitlines()
    assert [x for x in lines if x.startswith("saturation events:")] == [line]


@pytest.mark.parametrize("case", ["unlabeled", "n-1", "one-class"])
def test_a_fit_that_cannot_give_a_model_is_refused(workdir, capsys, case):
    tmp_path, out, _ = workdir
    features = np.arange(24, dtype=np.float64).reshape(6, 4) % 5
    src, flags = tmp_path / "src.latf", []
    if case == "unlabeled":
        fileio.write_features(src, features)
    elif case == "one-class":
        fileio.write_features(src, features, np.zeros(6, dtype=np.uint32))
    else:
        src, flags = out / "source_train.latf", ["--n", "1"]
    code, message = {"unlabeled": (1, "usage error: fit requires a labeled source file"),
                     "n-1": (1, "usage error: --n must be >= 2"),
                     "one-class": (2, "data error: need at least 2 classes")}[case]
    art = tmp_path / "m.lama"
    capsys.readouterr()
    assert main(["fit", str(src), "--k", "2", *flags, "--out", str(art)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not art.exists()


def test_an_empty_k_grid_is_a_usage_error(workdir, capsys):
    tmp_path, out, art = workdir
    rep = tmp_path / "sweep.csv"
    argv = ["sweep", str(art), str(out / "target_combined.latf"), "--k-grid", ",",
            "--out", str(rep)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "empty grid" in err
    assert not rep.exists()


def test_a_convergence_failure_exits_3(workdir, capsys, monkeypatch):
    tmp_path, out, _ = workdir
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    art = tmp_path / "capped.lama"
    capsys.readouterr()
    assert main(["fit", str(out / "source_train.latf"), "--k", "4", "--out", str(art)]) == 3
    assert capsys.readouterr().err.startswith("convergence error: Jacobi sweep cap reached")
    assert not art.exists()
