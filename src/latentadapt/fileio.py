"""Binary file formats and the flat config format.

Feature files (magic ``LATF``) carry 32-bit floats, compact enough for
exported embeddings. Model artifacts (magic ``LAMA``) carry 64-bit floats in
a sectioned container so a reload reproduces the fitted structures bit for
bit. Both formats are little-endian and versioned.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .decoder import LinearDecoder
from .errors import ContractViolation, DataFormatError
from .subspace import PrincipalSubspace

FEATURE_MAGIC = b"LATF"
ARTIFACT_MAGIC = b"LAMA"
FORMAT_VERSION = 1

_FEATURE_HEADER = struct.Struct("<4sIIIB")
_ARTIFACT_HEADER = struct.Struct("<4sII")     # magic, version, section count
_SECTION_ENTRY = struct.Struct("<16sQQ")      # name, offset, length
_SUBSPACE_HEADER = struct.Struct("<IIIB")     # dim, k, source count, rank-deficient flag
_DECODER_HEADER = struct.Struct("<II")        # class count, dim
_ORTHONORMAL_ATOL = 1e-6  # on max |B^T B - I|; a fit reaches about 1e-14


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit it
    is flushed to disk and then replaces ``path`` in one step, on an exception
    it is removed. Readers see the old file or the new one, never a
    part-written one, also after a crash of the machine.

    The new file keeps the permission bits of the one it replaces, but it is
    a new inode: hard links to the old file keep the old contents.
    A symbolic link is followed, so its target is replaced and the link kept.
    A target that exists but is not a regular file, such as a pipe or a
    terminal, cannot be replaced and is written directly; one that cannot be
    opened for writing, such as a directory, is a data error.
    """
    target, path = path, Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        try:
            fh = open(path, mode, **kwargs)
        except OSError as exc:
            raise DataFormatError(f"{target}: cannot write: {exc.strerror}") from exc
        with fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_bytes(path: str | Path) -> bytes:
    """The contents of an input file. A path that exists but cannot be read,
    such as a directory, is a data error; a missing one raises
    ``FileNotFoundError``."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror}") from exc


def write_features(
    path: str | Path, features: np.ndarray, labels: Optional[np.ndarray] = None
) -> None:
    """Write an N x D float matrix (and optional labels) as a feature file."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.size == 0:
        raise ContractViolation("features must be a non-empty 2-d array")
    if not np.all(np.isfinite(features)):
        raise ContractViolation("features contain non-finite entries")
    n, d = features.shape
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ContractViolation("labels must have one entry per row")
        if np.any(labels < 0) or np.any(labels > 0xFFFFFFFF):
            raise ContractViolation("labels must fit in u32")
    payload = features.astype("<f4").tobytes()
    header = _FEATURE_HEADER.pack(
        FEATURE_MAGIC, FORMAT_VERSION, n, d, 1 if labels is not None else 0
    )
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(payload)
        if labels is not None:
            fh.write(labels.astype("<u4").tobytes())


def read_features(path: str | Path) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Read a feature file; rejects bad magic, truncation, and non-finite data."""
    blob = read_bytes(path)
    if len(blob) < _FEATURE_HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, n, d, label_flag = _FEATURE_HEADER.unpack_from(blob, 0)
    if magic != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if n == 0 or d == 0 or label_flag not in (0, 1):
        raise DataFormatError(f"{path}: invalid header fields")
    offset = _FEATURE_HEADER.size
    need = n * d * 4 + (n * 4 if label_flag else 0)
    if len(blob) != offset + need:
        raise DataFormatError(f"{path}: payload length mismatch")
    stored = np.frombuffer(blob, dtype="<f4", count=n * d, offset=offset)
    # checked before widening: casting a signalling NaN raises a warning
    if not np.all(np.isfinite(stored)):
        raise DataFormatError(f"{path}: non-finite feature values")
    features = stored.reshape(n, d).astype(np.float64)
    labels = None
    if label_flag:
        labels = np.frombuffer(
            blob, dtype="<u4", count=n, offset=offset + n * d * 4
        ).copy()
    return features, labels


@dataclass(frozen=True)
class ModelArtifact:
    """Fitted subspace and decoder plus the metadata of the fit."""

    subspace: PrincipalSubspace
    decoder: LinearDecoder
    meta: dict


def fit_config_hash(source_path: str | Path, k: int, n_used: int, seed: int) -> str:
    """Stable digest of the inputs that produced an artifact."""
    h = hashlib.sha256()
    h.update(Path(source_path).read_bytes())
    h.update(f"|k={k}|n={n_used}|seed={seed}".encode())
    return h.hexdigest()


def _f64_section(header: struct.Struct, values: tuple, arrays: tuple) -> bytes:
    """A section: its header, then each array as little-endian float64."""
    return header.pack(*values) + b"".join(a.astype("<f8").tobytes() for a in arrays)


def _read_f64_section(path, name: str, data: bytes, header: struct.Struct, shapes):
    """The header values and the arrays of a section written by
    :func:`_f64_section`; ``shapes`` maps the header values to the shape of
    each array. Each array is a fresh copy, not a view of ``data``."""
    if len(data) < header.size:
        raise DataFormatError(f"{path}: truncated {name} section")
    values = header.unpack_from(data, 0)
    shapes = shapes(*values)
    counts = [math.prod(shape) for shape in shapes]
    if len(data) != header.size + 8 * sum(counts):
        raise DataFormatError(f"{path}: {name} section length mismatch")
    arrays, offset = [], header.size
    for shape, count in zip(shapes, counts):
        arrays.append(np.frombuffer(data, "<f8", count, offset).reshape(shape).copy())
        offset += 8 * count
    return values, arrays


def write_artifact(path: str | Path, artifact: ModelArtifact) -> None:
    s = artifact.subspace
    d = artifact.decoder
    sections = [
        (b"meta", json.dumps(artifact.meta, sort_keys=True).encode()),
        (b"subspace", _f64_section(_SUBSPACE_HEADER,
                                   (s.dim, s.k, s.source_count, 1 if s.rank_deficient else 0),
                                   (s.mean, s.basis, s.singular_values))),
        (b"decoder", _f64_section(_DECODER_HEADER, (d.class_count, d.dim),
                                  (d.weights, d.bias))),
    ]
    offset = _ARTIFACT_HEADER.size + _SECTION_ENTRY.size * len(sections)
    blob = _ARTIFACT_HEADER.pack(ARTIFACT_MAGIC, FORMAT_VERSION, len(sections))
    for name, data in sections:
        blob += _SECTION_ENTRY.pack(name.ljust(16, b"\0"), offset, len(data))
        offset += len(data)
    blob += b"".join(data for _, data in sections)
    with atomic_open(path) as fh:
        fh.write(blob)


def read_artifact(path: str | Path) -> ModelArtifact:
    blob = read_bytes(path)
    if len(blob) < _ARTIFACT_HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, count = _ARTIFACT_HEADER.unpack_from(blob, 0)
    if magic != ARTIFACT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    sections: dict[str, bytes] = {}
    pos = _ARTIFACT_HEADER.size
    for _ in range(count):
        if pos + _SECTION_ENTRY.size > len(blob):
            raise DataFormatError(f"{path}: truncated section table")
        raw_name, offset, length = _SECTION_ENTRY.unpack_from(blob, pos)
        pos += _SECTION_ENTRY.size
        if offset + length > len(blob):
            raise DataFormatError(f"{path}: section out of bounds")
        try:
            name = raw_name.rstrip(b"\0").decode()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: bad section name {raw_name!r}") from exc
        sections[name] = blob[offset : offset + length]
    for required in ("meta", "subspace", "decoder"):
        if required not in sections:
            raise DataFormatError(f"{path}: missing section {required!r}")

    try:
        meta = json.loads(sections["meta"].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: bad meta section") from exc
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: meta section is not a JSON object")

    (dim, k, source_count, rank_flag), (mean, basis, singular) = _read_f64_section(
        path, "subspace", sections["subspace"], _SUBSPACE_HEADER,
        lambda dim, k, *_: [(dim,), (dim, k), (k,)])
    if dim == 0 or k == 0:
        raise DataFormatError(f"{path}: empty subspace (dim={dim}, k={k})")
    if not all(np.all(np.isfinite(a)) for a in (mean, basis, singular)):
        raise DataFormatError(f"{path}: non-finite subspace values")
    with np.errstate(all="ignore"):  # a corrupt basis may overflow the product
        deviation = np.max(np.abs(basis.T @ basis - np.eye(k)), initial=0.0)
    if not deviation <= _ORTHONORMAL_ATOL:
        raise DataFormatError(f"{path}: subspace basis is not orthonormal")
    subspace = PrincipalSubspace(
        mean=mean,
        basis=basis,
        singular_values=singular,
        source_count=source_count,
        rank_deficient=bool(rank_flag),
    )

    _, (weights, bias) = _read_f64_section(
        path, "decoder", sections["decoder"], _DECODER_HEADER, lambda c, dim: [(c, dim), (c,)])
    try:
        decoder = LinearDecoder(weights=weights, bias=bias)
    except ContractViolation as exc:
        raise DataFormatError(f"{path}: bad decoder section: {exc}") from exc
    if decoder.dim != subspace.dim:
        raise DataFormatError(f"{path}: decoder and subspace dimensions differ")
    return ModelArtifact(subspace=subspace, decoder=decoder, meta=meta)


def parse_config(path: str | Path) -> dict[str, str]:
    """Flat key=value UTF-8 config; '#' starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataFormatError(f"{path}:{lineno}: expected key=value")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values
