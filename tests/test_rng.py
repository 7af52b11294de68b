from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentadapt import datagen, rng
from latentadapt.errors import ContractViolation
from latentadapt.rng import Xoshiro256pp, derive_seed, normals_many, splitmix64_at


def test_splitmix_outputs_are_64_bit_and_deterministic():
    values = [splitmix64_at(42, i) for i in range(8)]
    assert values == [splitmix64_at(42, i) for i in range(8)]
    assert all(0 <= v < 2 ** 64 for v in values)
    assert len(set(values)) == len(values)


def test_splitmix_random_access_matches_sequential_definition():
    # output i must equal mixing the state after i+1 additive advances
    gamma = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    seed = 123456789
    state = seed
    for i in range(20):
        state = (state + gamma) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        assert splitmix64_at(seed, i) == z


def test_derive_seed_distinct_across_indices_and_masters():
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_splitmix_rejects_negative_index():
    with pytest.raises(ValueError):
        splitmix64_at(1, -1)


def test_stream_determinism_and_seed_sensitivity():
    a = Xoshiro256pp(99)
    b = Xoshiro256pp(99)
    c = Xoshiro256pp(100)
    seq_a = [a.next_u64() for _ in range(64)]
    seq_b = [b.next_u64() for _ in range(64)]
    seq_c = [c.next_u64() for _ in range(64)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_uniform_range_and_moments():
    rng = Xoshiro256pp(5)
    xs = np.array([rng.random() for _ in range(50_000)])
    assert np.all((xs >= 0.0) & (xs < 1.0))
    assert abs(xs.mean() - 0.5) < 0.01
    assert abs(xs.var() - 1.0 / 12.0) < 0.005


def test_normal_moments_and_tails():
    rng = Xoshiro256pp(11)
    xs = rng.normals(100_000)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02
    # roughly 4.6% of mass beyond 2 sigma
    frac = np.mean(np.abs(xs) > 2.0)
    assert 0.035 < frac < 0.056


def test_normals_stream_is_replayable_and_clone_is_independent():
    rng = Xoshiro256pp(3)
    first = rng.normals(17)
    np.testing.assert_array_equal(first, Xoshiro256pp(3).normals(17))
    clone = rng.clone()
    assert clone.state() == rng.state()
    np.testing.assert_array_equal(rng.normals(9), clone.normals(9))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2 ** 64 - 1),
    st.integers(0, 3),
    st.integers(0, 40),
    st.integers(0, 40),
)
def test_normals_equal_sequential_normal_calls(seed, warmup, a, b):
    # an odd warm-up leaves a spare pending when the batch calls start
    batched = Xoshiro256pp(seed)
    single = Xoshiro256pp(seed)
    for _ in range(warmup):
        assert batched.normal() == single.normal()
    got = np.concatenate([batched.normals(a), batched.normals(b)])
    want = np.array([single.normal() for _ in range(a + b)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (a + b,)
    assert got.tobytes() == want.tobytes()
    assert batched.state() == single.state()


@pytest.mark.parametrize("kernel", ["lanes", "loop"])
@pytest.mark.parametrize("count", [0, 1, rng._LANES_MIN - 1, rng._LANES_MIN, 200])
@settings(max_examples=8, deadline=None)
@given(master=st.integers(0, 2 ** 64 - 1),
       sizes=st.lists(st.sampled_from([0, 1, 2, 21, 192]), min_size=1, max_size=4))
def test_normals_many_equals_each_generator_drawing_alone(kernel, count, master, sizes):
    # each kernel at every lane count: the count only picks the faster one;
    # repeated odd sizes carry a spare from one call into the next
    gens = [Xoshiro256pp(derive_seed(master, i)) for i in range(count)]
    alone = [g.clone() for g in gens]
    lanes, draw_lanes = [], rng._draw_lanes
    with mock.patch.object(rng, "_LANES_MIN", 1 if kernel == "lanes" else count + 1), \
            mock.patch.object(rng, "_draw_lanes",
                              lambda g, out: lanes.append(len(g)) or draw_lanes(g, out)):
        for n in sizes:
            got = normals_many(gens, n)
            want = np.array([g.normals(n) for g in alone]).reshape(count, n)
            assert got.dtype == np.float64 and got.shape == (count, n)
            assert got.tobytes() == want.tobytes()
            states = [g.state() for g in gens]
            assert states == [g.state() for g in alone]
            assert all(type(spare) in (float, type(None)) for _, spare in states)
    drew = count > 0 and any(sizes)
    assert lanes == ([count] * sum(n > 0 for n in sizes) if kernel == "lanes" and drew else [])


@pytest.mark.parametrize("lanes_min", [1, 3])
def test_normals_many_refuses_generators_of_mixed_spare_parity(lanes_min):
    gens = [Xoshiro256pp(seed) for seed in range(2)]
    gens[0].normal()  # leaves a spare pending in the first generator only
    before = [g.state() for g in gens]
    with mock.patch.object(rng, "_LANES_MIN", lanes_min), pytest.raises(ContractViolation):
        normals_many(gens, 4)
    assert [g.state() for g in gens] == before


def test_a_long_lockstep_draw_runs_in_chunks_of_rounds_and_equals_each_stream():
    # 667 pairs a lane take about 849 rounds, more than one chunk holds
    gens = [Xoshiro256pp(derive_seed(8, i)) for i in range(rng._LANES_MIN)]
    alone = [g.clone() for g in gens]
    for n in (1333, 1333):
        got = normals_many(gens, n)
        assert got.tobytes() == np.array([g.normals(n) for g in alone]).tobytes()
        assert [g.state() for g in gens] == [g.state() for g in alone]


def _long_kernel(lanes=rng._LONG_LANES, rounds=rng._LONG_ROUNDS):
    """Send every draw through the long kernel, with the given block shape."""
    return mock.patch.multiple(rng, _LONG_MIN=0, _LONG_LANES=lanes, _LONG_ROUNDS=rounds)


@pytest.mark.parametrize("lanes, rounds", [(rng._LONG_LANES, rng._LONG_ROUNDS), (3, 2), (256, 1)])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), warmup=st.integers(0, 3),
       sizes=st.lists(st.one_of(st.sampled_from([0, 1, 2, 3, 4]), st.integers(0, 400)),
                      min_size=2, max_size=3))
def test_a_long_draw_equals_as_many_normal_calls(lanes, rounds, seed, warmup, sizes):
    # an odd warm-up leaves a spare pending; consecutive odd sizes carry one
    # from one draw into the next
    drawn, single = Xoshiro256pp(seed), Xoshiro256pp(seed)
    for _ in range(warmup):
        assert drawn.normal() == single.normal()
    for n in sizes:
        with _long_kernel(lanes, rounds):
            got = drawn.normals(n)
        want = np.array([single.normal() for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert drawn.state() == single.state()
        assert all(type(w) is int for w in drawn.state()[0])


def test_a_block_short_of_pairs_is_followed_by_one_from_where_it_ends(monkeypatch):
    # blocks of 2 lanes of 4 rounds hold about 6 pairs, far fewer than 51
    monkeypatch.setattr(rng, "_LONG_MIN", 0)
    monkeypatch.setattr(rng, "_LONG_LANES", 2)
    monkeypatch.setattr(rng, "_LONG_ROUNDS", 4)
    rng._jump_table(4)  # built before the blocks are counted
    blocks, run_rounds = [], rng._run_rounds
    monkeypatch.setattr(rng, "_run_rounds",
                        lambda words, r: blocks.append(words.shape[1]) or run_rounds(words, r))
    drawn, single = Xoshiro256pp(5), Xoshiro256pp(5)
    single.normal()  # leaves the spare the long draw starts from
    drawn.normal()
    got = drawn.normals(101)
    assert got.tobytes() == np.array([single.normal() for _ in range(101)]).tobytes()
    assert drawn.state() == single.state()
    assert len(blocks) > 1 and set(blocks) == {2}


def test_the_jump_table_jumps_as_many_rounds_as_the_generator_steps():
    g = Xoshiro256pp(9)
    words = np.array(g._s, dtype=np.uint64)
    for _ in range(2 * 3):
        g.next_u64()
    assert rng._jump(rng._jump_table(3), words).tolist() == g._s


def test_gen_draws_by_the_long_kernel_in_bounded_blocks_and_a_search_by_the_loop(monkeypatch):
    calls, blocks = [], []
    draw_long, run_rounds = rng._draw_long, rng._run_rounds
    rng._jump_table(rng._LONG_ROUNDS)  # built before the blocks are counted
    monkeypatch.setattr(rng, "_draw_long", lambda g, out: calls.append(out.size) or draw_long(g, out))
    monkeypatch.setattr(rng, "_run_rounds",
                        lambda words, r: blocks.append((words.shape[1], r)) or run_rounds(words, r))
    task = datagen.make_task(10, 64, seed=14)
    source, _ = datagen.gen_source(task, 200)  # the harness's source_train draw
    Xoshiro256pp(derive_seed(14, 0)).normals(192)  # one generation of a k = 16 search
    assert calls == [128_000]
    # each block keeps at most (2 * _LONG_ROUNDS + 1) x 4 x _LONG_LANES words
    assert blocks and all(lanes <= rng._LONG_LANES and r == rng._LONG_ROUNDS
                          for lanes, r in blocks)
    monkeypatch.setattr(rng, "_LONG_MIN", 10 ** 9)
    assert datagen.gen_source(task, 200)[0].tobytes() == source.tobytes()
