import json
import os
import stat
import struct
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentadapt import datagen, fileio, report
from latentadapt.cli import main
from latentadapt.decoder import LinearDecoder
from latentadapt.errors import ContractViolation, DataFormatError
from latentadapt.subspace import PrincipalSubspace, fit


def test_feature_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    labels = np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.uint32)
    path = tmp_path / "x.latf"
    fileio.write_features(path, features, labels)
    back_f, back_l = fileio.read_features(path)
    assert back_f.tobytes() == features.tobytes()
    np.testing.assert_array_equal(back_l, labels)

    fileio.write_features(path, features, labels)
    second = path.read_bytes()
    fileio.write_features(path, features, labels)
    assert path.read_bytes() == second


def test_feature_file_without_labels(tmp_path):
    path = tmp_path / "x.latf"
    fileio.write_features(path, np.ones((3, 2)))
    features, labels = fileio.read_features(path)
    assert labels is None
    assert features.shape == (3, 2)


def test_feature_header_counts_match(tmp_path):
    path = tmp_path / "x.latf"
    fileio.write_features(path, np.zeros((4, 6)))
    blob = path.read_bytes()
    magic, version, n, d, flag = struct.unpack_from("<4sIIIB", blob, 0)
    assert magic == b"LATF"
    assert (version, n, d, flag) == (1, 4, 6, 0)


def test_feature_read_rejects_corruption(tmp_path):
    path = tmp_path / "x.latf"
    fileio.write_features(path, np.ones((2, 2)))
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.latf"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(DataFormatError):
        fileio.read_features(bad_magic)

    truncated = tmp_path / "trunc.latf"
    truncated.write_bytes(bytes(blob[:-3]))
    with pytest.raises(DataFormatError):
        fileio.read_features(truncated)

    nonfinite = tmp_path / "nan.latf"
    payload = np.full((2, 2), np.nan, dtype="<f4").tobytes()
    nonfinite.write_bytes(bytes(blob[:17]) + payload)
    with pytest.raises(DataFormatError):
        fileio.read_features(nonfinite)


def test_write_features_rejects_non_finite():
    with pytest.raises(ContractViolation):
        fileio.write_features("/tmp/never.latf", np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize("value", [3.5e38, -1e300])
def test_write_features_rejects_values_beyond_float32(tmp_path, value):
    path = tmp_path / "big.latf"
    with pytest.raises(ContractViolation, match="float32"):
        fileio.write_features(path, np.array([[value, 1.0]]))
    assert not path.exists()
    max32 = float(np.finfo(np.float32).max)
    fileio.write_features(path, np.array([[max32, -max32]]))
    assert fileio.read_features(path)[0].tolist() == [[max32, -max32]]


@pytest.mark.parametrize("labels, message", [
    ([0.5, 1.5], "labels must be an integer array, got dtype float64"),
    ([True, False], "labels must be an integer array, got dtype bool"),
    ([[0], [0, 1]], "labels must be an integer array"),
], ids=["float", "bool", "ragged"])
def test_write_features_refuses_labels_that_are_not_integers(tmp_path, labels, message):
    # float labels were truncated and bool ones read as 0/1, without a word
    path = tmp_path / "labeled.latf"
    with pytest.raises(ContractViolation) as info:
        fileio.write_features(path, np.ones((2, 2)), labels)
    assert str(info.value) == message
    assert not path.exists()


def test_artifact_roundtrip_bit_exact(tmp_path):
    task = datagen.make_task(class_count=4, dim=10, seed=3)
    source, _ = datagen.gen_source(task, 30)
    subspace = fit(source, 3)
    decoder = datagen.make_decoder(task)
    artifact = fileio.ModelArtifact(
        subspace=subspace,
        decoder=decoder,
        meta={"k": 3, "source_count": 120, "seed": 3, "config_hash": "abc"},
    )
    path = tmp_path / "model.lama"
    fileio.write_artifact(path, artifact)
    back = fileio.read_artifact(path)
    assert back.subspace.mean.tobytes() == subspace.mean.tobytes()
    assert back.subspace.basis.tobytes() == subspace.basis.tobytes()
    assert back.subspace.singular_values.tobytes() == subspace.singular_values.tobytes()
    assert back.subspace.source_count == subspace.source_count
    assert back.subspace.rank_deficient == subspace.rank_deficient
    assert back.decoder.weights.tobytes() == decoder.weights.tobytes()
    assert back.decoder.bias.tobytes() == decoder.bias.tobytes()
    assert back.meta == artifact.meta

    fileio.write_artifact(path, back)
    first = path.read_bytes()
    fileio.write_artifact(path, back)
    assert path.read_bytes() == first


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 9), data=st.data())
def test_any_artifact_shape_writes_reads_and_writes_the_same_bytes(dim, data):
    k = data.draw(st.integers(1, dim))
    classes = data.draw(st.integers(2, 6))  # a decoder needs two classes
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    artifact = fileio.ModelArtifact(
        subspace=PrincipalSubspace(rng.standard_normal(dim), basis,
                                   np.sort(rng.random(k))[::-1], int(rng.integers(1, 99)),
                                   bool(rng.integers(2))),
        decoder=LinearDecoder(rng.standard_normal((classes, dim)), rng.standard_normal(classes)),
        meta={"k": k},
    )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.lama"
        fileio.write_artifact(path, artifact)
        first = path.read_bytes()
        back = fileio.read_artifact(path)
        fileio.write_artifact(path, back)
        assert path.read_bytes() == first
    assert back.subspace.basis.shape == (dim, k)
    assert back.decoder.weights.tobytes() == artifact.decoder.weights.tobytes()
    assert back.subspace.rank_deficient == artifact.subspace.rank_deficient


def test_artifact_rejects_corruption(tmp_path):
    task = datagen.make_task(class_count=3, dim=6, seed=4)
    source, _ = datagen.gen_source(task, 20)
    artifact = fileio.ModelArtifact(
        subspace=fit(source, 2),
        decoder=datagen.make_decoder(task),
        meta={},
    )
    path = tmp_path / "model.lama"
    fileio.write_artifact(path, artifact)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.lama"
    bad.write_bytes(b"YYYY" + bytes(blob[4:]))
    with pytest.raises(DataFormatError):
        fileio.read_artifact(bad)

    short = tmp_path / "short.lama"
    short.write_bytes(bytes(blob[: len(blob) // 2]))
    with pytest.raises(DataFormatError):
        fileio.read_artifact(short)


def _artifact():
    task = datagen.make_task(class_count=3, dim=6, seed=4)
    source, _ = datagen.gen_source(task, 20)
    return fileio.ModelArtifact(
        subspace=fit(source, 2), decoder=datagen.make_decoder(task), meta={}
    )


def _written_artifact(tmp_path):
    path = tmp_path / "model.lama"
    fileio.write_artifact(path, _artifact())
    return bytearray(path.read_bytes())


# section table entries follow the 12-byte header: 16-byte name, u64 offset,
# u64 length; write_artifact orders them meta, subspace, decoder
_TABLE, _ENTRY = 12, 32


def test_artifact_non_utf8_section_name_is_a_format_error(tmp_path):
    blob = _written_artifact(tmp_path)
    blob[_TABLE] = 0xFF
    bad = tmp_path / "bad_name.lama"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="section name"):
        fileio.read_artifact(bad)


@pytest.mark.parametrize("index, name", [(1, "subspace"), (2, "decoder")])
def test_artifact_section_shorter_than_its_header_is_a_format_error(tmp_path, index, name):
    blob = _written_artifact(tmp_path)
    struct.pack_into("<Q", blob, _TABLE + _ENTRY * index + 24, 3)
    bad = tmp_path / f"short_{name}.lama"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match=f"truncated {name} section"):
        fileio.read_artifact(bad)


def _set_subspace_value(blob, index, value):
    """Overwrite float ``index`` of the subspace section (mean, basis, then
    singular values, after the 13-byte section header)."""
    (offset,) = struct.unpack_from("<Q", blob, _TABLE + _ENTRY + 16)
    struct.pack_into("<d", blob, offset + 13 + 8 * index, value)


# the fixture subspace has dim 6 and k 2: mean 0-5, basis 6-17, singular 18-19
@pytest.mark.parametrize(
    "index, value",
    [(6, 2.0), (6, 1e300), (7, 0.5), (0, float("nan")), (10, float("inf")), (19, float("nan"))],
    ids=["basis-scaled", "basis-overflows", "basis-skewed", "mean-nan", "basis-inf",
         "singular-nan"],
)
def test_artifact_with_a_corrupt_subspace_is_a_format_error(tmp_path, index, value):
    blob = _written_artifact(tmp_path)
    _set_subspace_value(blob, index, value)
    bad = tmp_path / "corrupt.lama"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="subspace"):
        fileio.read_artifact(bad)


def _degenerate_artifact(case):
    """The fixture artifact with an empty subspace or a meta section that is
    not a JSON object; write_artifact stores each as given."""
    good = _artifact()
    if case == "k0":
        empty = np.zeros((good.subspace.dim, 0))
        return fileio.ModelArtifact(
            PrincipalSubspace(good.subspace.mean, empty, np.zeros(0), 60), good.decoder, {}
        )
    if case == "dim0":
        return fileio.ModelArtifact(
            PrincipalSubspace(np.zeros(0), np.zeros((0, 0)), np.zeros(0), 60),
            LinearDecoder(np.zeros((3, 0)), np.zeros(3)),
            {},
        )
    return fileio.ModelArtifact(good.subspace, good.decoder, [1, 2])


_DEGENERATE = pytest.mark.parametrize(
    "case, message", [("k0", "empty subspace"), ("dim0", "empty subspace"),
                      ("meta-list", "not a JSON object")]
)


@_DEGENERATE
def test_artifact_with_an_empty_subspace_or_non_object_meta_is_a_format_error(
        tmp_path, case, message):
    path = tmp_path / "degenerate.lama"
    fileio.write_artifact(path, _degenerate_artifact(case))
    with pytest.raises(DataFormatError, match=message):
        fileio.read_artifact(path)


@_DEGENERATE
def test_adapt_on_an_empty_subspace_or_non_object_meta_exits_2(tmp_path, capsys, case, message):
    # a data problem: exit 2, not a usage error (1) nor a run on an unread meta (0)
    path = tmp_path / "degenerate.lama"
    fileio.write_artifact(path, _degenerate_artifact(case))
    target = tmp_path / "target.latf"
    fileio.write_features(target, np.ones((3, 6)), np.arange(3))
    assert main(["adapt", str(path), str(target), "--out", str(tmp_path / "r.csv")]) == 2
    assert message in capsys.readouterr().err


def test_meta_json_is_canonical(tmp_path):
    task = datagen.make_task(class_count=3, dim=6, seed=5)
    source, _ = datagen.gen_source(task, 20)
    base = dict(b=2, a=1)
    artifact = fileio.ModelArtifact(
        subspace=fit(source, 2), decoder=datagen.make_decoder(task), meta=base
    )
    p1, p2 = tmp_path / "m1.lama", tmp_path / "m2.lama"
    fileio.write_artifact(p1, artifact)
    artifact2 = fileio.ModelArtifact(
        subspace=artifact.subspace, decoder=artifact.decoder, meta=dict(a=1, b=2)
    )
    fileio.write_artifact(p2, artifact2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fit_config_hash_changes_with_inputs(tmp_path):
    path = tmp_path / "src.latf"
    fileio.write_features(path, np.ones((3, 2)))
    h1 = fileio.fit_config_hash(path, 2, 3, 0)
    h2 = fileio.fit_config_hash(path, 2, 3, 1)
    fileio.write_features(path, np.zeros((3, 2)))
    h3 = fileio.fit_config_hash(path, 2, 3, 0)
    assert h1 != h2
    assert h1 != h3


def test_parse_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# comment line
k = 16
mode=ted
seed = 42   # trailing comment
"""
    )
    assert fileio.parse_config(path) == {"k": "16", "mode": "ted", "seed": "42"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a pair\n")
    with pytest.raises(DataFormatError):
        fileio.parse_config(bad)
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("mode = t\xe9d\n".encode("latin-1"))
    with pytest.raises(DataFormatError, match="not UTF-8"):
        fileio.parse_config(latin1)


@pytest.mark.parametrize("reader", [fileio.read_features, fileio.read_artifact],
                         ids=["features", "artifact"])
def test_a_directory_is_a_data_error_and_a_missing_file_is_not_found(tmp_path, reader):
    # a directory used to raise IsADirectoryError, which the CLI printed as a traceback
    with pytest.raises(DataFormatError, match="cannot read"):
        reader(tmp_path)
    with pytest.raises(FileNotFoundError):
        reader(tmp_path / "missing")


# ---------------------------------------------------------------- atomic writes


class _TornFile:
    """A file whose writes stop halfway and fail, like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _tear_writes(monkeypatch):
    """Make every file that ``fileio`` opens fail halfway through a write."""
    real_open = open
    monkeypatch.setattr(fileio, "open", lambda *a, **kw: _TornFile(real_open(*a, **kw)),
                        raising=False)


_RECORD = report.SampleRecord(
    index=0, true_label=1, noadapt_class=1, noadapt_entropy=0.5, adapted_class=1,
    adapted_entropy=0.25, evaluations=97, status="ok", wall_ms=1.0,
)


@pytest.mark.parametrize("writer", [
    lambda path: fileio.write_features(path, np.ones((3, 2)), np.arange(3)),
    lambda path: fileio.write_artifact(path, _artifact()),
    lambda path: report.write_csv(path, [_RECORD, _RECORD]),
], ids=["features", "artifact", "report"])
def test_a_failed_write_leaves_the_previous_file_and_no_temporary(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous contents")
    _tear_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        writer(path)
    assert path.read_bytes() == b"previous contents"
    assert os.listdir(tmp_path) == ["out.bin"]
    monkeypatch.undo()
    writer(path)
    assert path.read_bytes() != b"previous contents"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_a_write_is_on_disk_before_it_replaces_the_target(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("previous contents")
    os.chmod(path, 0o640)
    events = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: events.append("fsync") or real_fsync(fd))
    monkeypatch.setattr(os, "replace",
                        lambda *a: events.append("replace") or real_replace(*a))
    report.write_csv(path, [_RECORD])
    assert events == ["fsync", "replace"]
    assert report.read_csv(path) == [_RECORD]
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640


def test_a_write_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "real.csv"
    target.write_text("old")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    report.write_csv(link, [_RECORD])
    assert link.is_symlink()
    assert report.read_csv(target) == [_RECORD]


def test_a_write_to_a_pipe_goes_straight_into_it(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    fileio.write_features(fifo, np.ones((3, 2)))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received[0][:4] == fileio.FEATURE_MAGIC
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe"]


# ---------------------------------------------------------------- hostile bytes


def _valid_files():
    """Bytes of a small valid feature file and a small valid artifact."""
    with tempfile.TemporaryDirectory() as d:
        features = Path(d) / "f.latf"
        fileio.write_features(features, np.linspace(-2, 2, 12).reshape(4, 3), np.arange(4))
        return features.read_bytes(), bytes(_written_artifact(Path(d)))


_LATF, _LAMA = _valid_files()


def _hostile(valid: bytes):
    """Arbitrary bytes, or a truncation, bit flips or an insertion of ``valid``."""
    n = len(valid)

    def flip(bits):
        out = bytearray(valid)
        for pos, bit in bits:
            out[pos] ^= 1 << bit
        return bytes(out)

    return st.one_of(
        st.binary(max_size=2 * n),
        st.integers(0, n - 1).map(lambda i: valid[:i]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 7)), min_size=1,
                 max_size=3).map(flip),
        st.tuples(st.integers(0, n), st.binary(min_size=1, max_size=16)).map(
            lambda t: valid[: t[0]] + t[1] + valid[t[0]:]
        ),
    )


def _loads_or_format_error(read, path, data):
    """``read`` either loads ``data`` or raises DataFormatError, silently."""
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(path)
        except DataFormatError:
            pass


_HOSTILE = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@_HOSTILE
@given(data=_hostile(_LATF))
def test_any_feature_file_bytes_load_or_raise_a_format_error(tmp_path, data):
    _loads_or_format_error(fileio.read_features, tmp_path / "h.latf", data)


@_HOSTILE
@given(data=_hostile(_LAMA))
def test_any_artifact_bytes_load_or_raise_a_format_error(tmp_path, data):
    _loads_or_format_error(fileio.read_artifact, tmp_path / "h.lama", data)


# examples the two properties above found, each failing before its fix


def test_feature_file_with_a_signalling_nan_is_a_silent_format_error(tmp_path):
    # a flipped payload bit made the float32 pattern 0x7f800001; widening it
    # to float64 warned "invalid value encountered in cast"
    blob = bytearray(_LATF)
    struct.pack_into("<I", blob, 17, 0x7F800001)  # first value, after the 17-byte header
    path = tmp_path / "snan.latf"
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="non-finite"):
            fileio.read_features(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_artifact_with_a_non_finite_decoder_weight_is_a_format_error(tmp_path, value):
    # a flipped exponent bit turned a weight non-finite; LinearDecoder then
    # raised ContractViolation out of read_artifact
    blob = bytearray(_LAMA)
    (offset,) = struct.unpack_from("<Q", blob, _TABLE + 2 * _ENTRY + 16)
    struct.pack_into("<d", blob, offset + 8, value)  # first weight, after the 8-byte header
    path = tmp_path / "bad.lama"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="decoder"):
        fileio.read_artifact(path)
