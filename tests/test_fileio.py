import json
import struct

import numpy as np
import pytest

from latentadapt import datagen, fileio
from latentadapt.decoder import LinearDecoder
from latentadapt.errors import ContractViolation, DataFormatError
from latentadapt.subspace import fit


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


def _written_artifact(tmp_path):
    task = datagen.make_task(class_count=3, dim=6, seed=4)
    source, _ = datagen.gen_source(task, 20)
    artifact = fileio.ModelArtifact(
        subspace=fit(source, 2), decoder=datagen.make_decoder(task), meta={}
    )
    path = tmp_path / "model.lama"
    fileio.write_artifact(path, artifact)
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
