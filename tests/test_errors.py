"""The argument checks of ``latentadapt.errors`` and the public entries that
route their arguments through them."""

import warnings

import numpy as np
import pytest

from latentadapt import cmaes
from latentadapt.datagen import apply_shift, gen_source, identity_shift, make_task
from latentadapt.decoder import LinearDecoder, decode, fitness, shannon_entropy, softmax
from latentadapt.errors import ContractViolation, real_array
from latentadapt.fileio import write_features
from latentadapt.linalg import sym_eig, sym_eig_many
from latentadapt.quant import quantize_binary
from latentadapt.subspace import PrincipalSubspace, apply_correction, fit, project, reconstruct

_SUB = PrincipalSubspace(mean=np.zeros(3), basis=np.eye(3)[:, :2], singular_values=np.ones(2),
                         source_count=5)
_DEC = LinearDecoder(weights=np.eye(3), bias=np.zeros(3))
_PARAMS = cmaes.CmaEsParams.defaults(2)


def _tell(fitnesses):
    machine = cmaes.CmaEs(_PARAMS, 0)
    machine.ask()
    machine.tell(fitnesses)


# entry -> (the argument's name, a shape it takes, a call with x as that argument)
_ENTRIES = {
    "project": ("latent", (3,), lambda x, path: project(_SUB, x)),
    "reconstruct": ("coordinates", (2,), lambda x, path: reconstruct(_SUB, x)),
    "apply_correction": ("coordinates", (2,),
                         lambda x, path: apply_correction(_SUB, np.zeros(3), x)),
    "fitness": ("latent", (3,), lambda x, path: fitness(_DEC, _SUB, x, np.zeros(2))),
    "decode": ("latent", (3,), lambda x, path: decode(_DEC, x)),
    "softmax": ("logits", (3,), lambda x, path: softmax(x)),
    "shannon_entropy": ("probabilities", (3,), lambda x, path: shannon_entropy(x)),
    "LinearDecoder": ("weights", (3, 2), lambda x, path: LinearDecoder(x, np.zeros(3))),
    "write_features": ("features", (3, 2), lambda x, path: write_features(path, x)),
    "apply_shift": ("features", (3, 2),
                    lambda x, path: apply_shift(x, np.zeros(2), identity_shift(2))),
    "quantize_binary": ("p", (3,), lambda x, path: quantize_binary(x, 1.0)),
    "sym_eig": ("s", (2, 2), lambda x, path: sym_eig(x, 1)),
    "sym_eig_many": ("stack", (1, 2, 2), lambda x, path: sym_eig_many(x, 1)),
    "CmaEs.tell": ("fitnesses", (1, _PARAMS.population), lambda x, path: _tell(x)),
    "Search": ("baseline", (2,),
               lambda x, path: cmaes.Search(cmaes.CmaEs(_PARAMS, 0), np.sum, x)),
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_an_array_argument_that_is_not_real_numeric_is_refused_by_name(entry, tmp_path):
    name, shape, call = _ENTRIES[entry]
    bad = {"complex": np.zeros(shape) + 0j, "bool": np.zeros(shape, dtype=bool),
           "string": np.full(shape, "1"), "object": np.zeros(shape).astype(object),
           "ragged": [[1.0], [1.0, 2.0]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, never cast with a warning
        for kind, x in bad.items():
            with pytest.raises(ContractViolation) as info:
                call(x, tmp_path / "out.latf")
            tail = "" if kind == "ragged" else f", got dtype {x.dtype}"
            assert str(info.value) == f"{name} must be a real numeric array" + tail, kind
    assert not (tmp_path / "out.latf").exists()


def test_a_real_array_keeps_its_bits_and_checks_its_shape():
    x = np.array([0.1, -2.5, 3.0])
    assert real_array(x, "x") is x
    assert real_array(x, "x", (3,)) is x
    ints = np.array([[1, -2]], dtype=np.int16)
    assert real_array(ints, "x").tobytes() == ints.astype(np.float64).tobytes()
    with pytest.raises(ContractViolation) as info:
        real_array(x, "latent", (4,))
    assert str(info.value) == "latent must have shape (4,), got (3,)"


def _source():
    return np.arange(30, dtype=np.float64).reshape(10, 3) % 7


# a count or a seed of the wrong kind: (call, message)
_COUNTS = {
    "fit-k-float": (lambda: fit(_source(), 2.0), "k must be an integer, got 2.0"),
    "fit-k-bool": (lambda: fit(_source(), True), "k must be an integer, got True"),
    "truncated-float": (lambda: fit(_source(), 2).truncated(2.0),
                        "k must be an integer, got 2.0"),
    "truncated-bool": (lambda: fit(_source(), 2).truncated(True),
                       "k must be an integer, got True"),
    "seed-negative": (lambda: cmaes.CmaEs(_PARAMS, -1), "seed must be in [0, 2^64), got -1"),
    "seed-2^64": (lambda: cmaes.CmaEs(_PARAMS, [0, 2 ** 64]),
                  "seed must be in [0, 2^64), got 18446744073709551616"),
    "seed-float": (lambda: cmaes.CmaEs(_PARAMS, 1.5), "seed must be an integer, got 1.5"),
    "iterations-float": (lambda: cmaes.search(cmaes.CmaEs(_PARAMS, 0), np.sum, 2.5),
                         "iterations must be an integer, got 2.5"),
    "n_per_class-float": (lambda: gen_source(make_task(3, 4), 2.5),
                          "n_per_class must be an integer, got 2.5"),
    "class_count-float": (lambda: make_task(3.0, 4), "class_count must be an integer, got 3.0"),
    "dim-bool": (lambda: make_task(3, True), "dim must be an integer, got True"),
    "dimension-bool": (lambda: cmaes.CmaEsParams.defaults(True),
                       "dimension must be an integer, got True"),
    "dimension-float": (lambda: cmaes.CmaEsParams.defaults(4.0),
                        "dimension must be an integer, got 4.0"),
    "population-float": (lambda: cmaes.CmaEsParams.defaults(4, population=7.5),
                         "population must be an integer, got 7.5"),
}


@pytest.mark.parametrize("case", list(_COUNTS))
def test_a_count_or_a_seed_of_the_wrong_kind_is_refused(case):
    call, message = _COUNTS[case]
    with pytest.raises(ContractViolation) as info:
        call()
    assert str(info.value) == message


def test_a_numpy_integer_is_an_integer():
    task = make_task(np.int64(3), np.uint8(4))
    assert gen_source(task, np.int32(2))[0].tobytes() == gen_source(make_task(3, 4), 2)[0].tobytes()
    assert cmaes.CmaEsParams.defaults(np.int64(4), np.int16(7)).population == 7
    sub = fit(_source(), np.int64(2))
    assert sub.truncated(np.uint8(1)).k == 1
    assert [r.state() for r in cmaes.CmaEs(_PARAMS, np.uint64(2 ** 64 - 1)).rngs] \
        == [r.state() for r in cmaes.CmaEs(_PARAMS, 2 ** 64 - 1).rngs]
