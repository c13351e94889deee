import numpy as np
import pytest

from smoothscore import channel
from smoothscore.streams import spawn_tree


def states(streams):
    return [[g.bit_generator.state for g in block] for block in streams]


def numpy_tree(rng, children, grandchildren):
    return [child.spawn(grandchildren) for child in rng.spawn(children)]


def map_trials_streams(rng, trials):
    """The (trial count, generator states) of every block that
    ``channel._map_trials`` hands its block function."""
    seen = []

    def block_fn(n, *streams):
        seen.append((n, [g.bit_generator.state for g in streams]))
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)

    channel._map_trials(block_fn, rng, trials)
    return seen


def counter(rng):
    return rng.bit_generator.seed_seq.n_children_spawned


class TestSpawnTree:
    @pytest.mark.parametrize("seed", [0, 2**64 + 3, 2**128 + 5])
    @pytest.mark.parametrize("trials", [1, 256, 257])
    def test_block_streams_equal_numpy_spawn(self, seed, trials):
        got = map_trials_streams(np.random.default_rng(seed), trials)
        rng = np.random.default_rng(seed)
        blocks = -(-trials // channel.BLOCK_TRIALS)
        want = states(numpy_tree(rng, blocks, 3))
        assert [n for n, _ in got] == [min(channel.BLOCK_TRIALS, trials - lo)
                                       for lo in range(0, trials, channel.BLOCK_TRIALS)]
        assert [s for _, s in got] == want

    @pytest.mark.parametrize("make", [
        lambda: np.random.default_rng(np.random.SeedSequence([5, 2**40, 7, 9, 11])),
        lambda: np.random.default_rng([3, 1]),
        lambda: np.random.default_rng(7).spawn(3)[2],              # key prefix (2,)
        lambda: np.random.default_rng(2**70).spawn(2)[1].spawn(4)[3],  # key prefix (1, 3)
        lambda: np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2**40,))),
    ], ids=["list-entropy", "short-list", "child", "grandchild", "two-word-key"])
    def test_any_seed_sequence_matches_numpy(self, make):
        got, want = make(), make()
        assert states(spawn_tree(got, 5, 3)) == states(numpy_tree(want, 5, 3))
        assert counter(got) == counter(want) == 5

    def test_calls_in_a_row_advance_the_counter_as_numpy(self):
        got, want = np.random.default_rng(11), np.random.default_rng(11)
        for trials in (300, 1, 600):
            assert [s for _, s in map_trials_streams(got, trials)] == states(
                numpy_tree(want, -(-trials // channel.BLOCK_TRIALS), 3))
            assert counter(got) == counter(want)
        assert counter(got) == 2 + 1 + 3
        # The next child spawned from either generator is the same.
        assert got.spawn(1)[0].bit_generator.state == want.spawn(1)[0].bit_generator.state

    def test_streams_draw_numpy_values(self):
        got = spawn_tree(np.random.default_rng(4), 2, 3)
        want = numpy_tree(np.random.default_rng(4), 2, 3)
        for a, b in zip(got, want):
            assert [g.standard_normal(3).tolist() for g in a] == [
                g.standard_normal(3).tolist() for g in b]

    def test_other_bit_generators_fall_back_to_numpy(self):
        got = np.random.Generator(np.random.Philox(3))
        want = np.random.Generator(np.random.Philox(3))
        blocks = list(spawn_tree(got, 2, 3))
        assert all(type(g.bit_generator) is np.random.Philox for block in blocks for g in block)
        # Philox states hold arrays, so the streams are compared by their draws.
        assert [[g.integers(2**63, size=4).tolist() for g in block] for block in blocks] == [
            [g.integers(2**63, size=4).tolist() for g in block] for block in numpy_tree(want, 2, 3)]
        assert counter(got) == counter(want) == 2

    def test_other_pool_sizes_fall_back_to_numpy(self):
        def make():
            return np.random.Generator(np.random.PCG64(np.random.SeedSequence(8, pool_size=8)))

        got, want = make(), make()
        assert states(spawn_tree(got, 3, 3)) == states(numpy_tree(want, 3, 3))
        assert counter(got) == counter(want) == 3

    def test_streams_made_without_a_seed_sequence_cannot_spawn(self):
        rng = np.random.default_rng(0)
        stream = next(spawn_tree(rng, 1, 3))[0]
        with pytest.raises(TypeError):
            list(spawn_tree(stream, 1, 3))
