import concurrent.futures
import threading

import numpy as np
import pytest
from conftest import Collector
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import bsdelab.stochastic
from bsdelab.generators import ZeroGen
from bsdelab.solver import RegressionBasis, TerminalCondition, solve_backward
from bsdelab.stochastic import (
    DrivingPaths,
    FiniteMarkMeasure,
    StreamKey,
    TimeGrid,
    _MAX_STEPS,
    _open_uniforms,
    _poisson_cdf_table,
    compensated_increment,
    jump_norm2,
    poisson_counts,
    simulate_paths,
)


def unit_marks():
    return FiniteMarkMeasure(atoms=[[1.0]], weights=[1.0])


def node_stores(paths):
    """Every node of ``paths``, read through its node iterator: Brownian
    nodes (N + 1, n, d) and count nodes (N + 1, n, J)."""
    w, counts = zip(*paths.nodes())
    return np.stack(w), np.stack(counts)


def step_increments(paths):
    """Every step's increments, read a segment at a time: (N, n, d) and (N, n, J)."""
    k, dw, dk = paths.stride, [], []
    for i in range(paths.grid.n_steps):
        segment = paths.segment(i // k)
        dw.append(segment.brownian_increments(i))
        dk.append(segment.jump_increments(i))
    return np.stack(dw), np.stack(dk)


class TestValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            TimeGrid.uniform(1.0, 0)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.5, 1.0]))

    def test_nonincreasing_nodes_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    @pytest.mark.parametrize("nodes", [[0.0, 1.0, np.inf], [0.0, np.nan, 1.0]], ids=["inf-node", "nan-node"])
    def test_grid_nodes_must_be_finite(self, nodes):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array(nodes))

    def test_marks_require_positive_weights(self):
        with pytest.raises(ValueError):
            FiniteMarkMeasure(atoms=[[1.0], [2.0]], weights=[1.0, 0.0])

    def test_marks_require_distinct_atoms(self):
        with pytest.raises(ValueError):
            FiniteMarkMeasure(atoms=[[1.0], [1.0]], weights=[1.0, 2.0])

    def test_total_mass(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [2.0]], weights=[0.5, 1.5])
        assert marks.total_mass == pytest.approx(2.0)

    def test_simulate_rejects_bad_counts(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            simulate_paths(grid, unit_marks(), brownian_dim=0, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            simulate_paths(grid, unit_marks(), brownian_dim=1, n_paths=0, seed=1)

    @pytest.mark.parametrize(
        "name,value,error,match",
        [
            ("path_offset", 2.5, TypeError, "path_offset must be an integer, got 2.5"),
            ("path_offset", -1, ValueError, "path_offset must be at least 0, got -1"),
            ("n_paths", 10.0, TypeError, "n_paths must be an integer, got 10.0"),
            ("brownian_dim", 1.0, TypeError, "brownian_dim must be an integer, got 1.0"),
            ("brownian_dim", "2", TypeError, "brownian_dim must be an integer, got '2'"),
        ],
    )
    def test_simulate_names_an_argument_that_is_not_a_count(self, name, value, error, match):
        args = {"brownian_dim": 1, "n_paths": 10, "path_offset": 0, name: value}
        with pytest.raises(error, match=match):
            simulate_paths(TimeGrid.uniform(1.0, 4), unit_marks(), seed=1, **args)

    def test_numpy_integer_counts_are_accepted(self):
        grid = TimeGrid.uniform(1.0, 4)
        paths = simulate_paths(grid, unit_marks(), np.int64(2), np.uint16(30), 1, path_offset=np.int32(5))
        assert type(paths.path_offset) is int and paths.path_offset == 5
        same = simulate_paths(grid, unit_marks(), 2, 30, 1, path_offset=5)
        assert paths.brownian.tobytes() == same.brownian.tobytes()


class TestStreamKey:
    def test_draws_in_open_interval(self):
        u = StreamKey(42).uniforms(0, 0, 10_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_identical_key_identical_draws(self):
        a = StreamKey(7).uniforms(3, 1, 256)
        b = StreamKey(7).uniforms(3, 1, 256)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-0.5, 1.9, 3.0])
    def test_a_float_seed_is_refused_rather_than_truncated(self, seed):
        # int(seed) ran -0.5 as seed 0 and 1.9 as seed 1, bit for bit
        with pytest.raises(TypeError):
            StreamKey(seed)
        with pytest.raises(TypeError):
            simulate_paths(TimeGrid.uniform(1.0, 2), unit_marks(), 1, 10, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7)], ids=["int64", "uint64", "int32"])
    def test_numpy_integer_seeds_key_the_python_integers_streams(self, seed):
        key = StreamKey(seed)
        assert type(key.master_seed) is int and key.master_seed == 7
        assert key.uniforms(3, 1, 64).tobytes() == StreamKey(7).uniforms(3, 1, 64).tobytes()

    def test_distinct_channels_decorrelated(self):
        a = StreamKey(7).uniforms(3, 1, 50_000)
        b = StreamKey(7).uniforms(3, 2, 50_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    @given(offset=st.integers(min_value=0, max_value=37), n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_offset_matches_full_stream_slice(self, offset, n):
        full = StreamKey(99).uniforms(5, 2, offset + n)
        part = StreamKey(99).uniforms(5, 2, n, offset=offset)
        assert np.array_equal(full[offset:], part)

    def test_top_words_stay_below_one(self):
        # the 2048 words whose top 53 bits are all set once gave exactly 1.0
        edge = np.array([2**64 - 1, 2**64 - 2**11, 2**64 - 2**10], dtype=np.uint64)
        u = _open_uniforms(edge)
        assert np.all(u == np.nextafter(1.0, 0.0))
        assert np.all(np.isfinite(ndtri(u)))
        assert _open_uniforms(np.array([0, 2**64 - 2**11 - 1], dtype=np.uint64)).tolist() == [
            2.0**-54, 1.0 - 2.0**-52,
        ]

    def test_other_words_keep_their_bits(self):
        raw = np.random.default_rng(3).integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        raw = raw[(raw >> np.uint64(11)) != 2**53 - 1]
        formula = ((raw >> np.uint64(11)) + 0.5) * 2.0**-53
        assert _open_uniforms(raw).tobytes() == formula.tobytes()

    def test_uniforms_equal_the_unsigned_formula_on_streams_and_edge_words(self):
        # the words are read as int64 after the shift: exact, as they are below 2^53
        edges = np.array([0, 2**64 - 1, (2**53 - 1) << 11, 1 << 63, (1 << 63) - 1], dtype=np.uint64)
        streams = [StreamKey(5)._raw(step, channel, 997, step) for step in range(4) for channel in range(5)]
        for raw in (edges, *streams):
            formula = np.minimum(((raw >> np.uint64(11)) + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0))
            assert _open_uniforms(raw.copy()).tobytes() == formula.tobytes()

    def test_raw_words_equal_a_fresh_philox_on_every_thread(self):
        # each thread reuses one generator and sets its state; the words are
        # those of a Philox built from the stream's key and advanced to offset
        def reference(step, channel, count, offset):
            key = np.array([2024, (step << 32) ^ channel], dtype=np.uint64)
            bg = np.random.Philox(key=key)
            bg.advance(offset // 4)
            return bg.random_raw(count + offset % 4)[offset % 4 :]

        coordinates = [(s, c, 50 + s, o) for s in (0, 3, 2**20) for c in (0, 1, 6) for o in (0, 1, 3, 4, 5, 1001)]

        def words(part):
            return [StreamKey(2024)._raw(*xyz).tobytes() for xyz in part]

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            drawn = [w for part in pool.map(words, (coordinates[::2], coordinates[1::2])) for w in part]
        want = [reference(*xyz).tobytes() for xyz in coordinates[::2] + coordinates[1::2]]
        assert drawn == want


class TestPoissonInversion:
    def test_matches_pmf(self):
        # chi-square against the exact pmf, oracle recurrence p_{k+1} = p_k * mu / (k+1)
        mean = 0.7
        n = 200_000
        u = StreamKey(11).uniforms(0, 0, n)
        counts = poisson_counts(u, mean)
        kmax = counts.max()
        pmf = [np.exp(-mean)]
        for k in range(kmax + 1):
            pmf.append(pmf[-1] * mean / (k + 1))
        observed = np.bincount(counts, minlength=kmax + 1)
        expected = np.asarray(pmf[: kmax + 1]) * n
        keep = expected > 5
        chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
        assert chi2 < 3.0 * keep.sum()

    def test_zero_mean_like_limit(self):
        u = StreamKey(3).uniforms(0, 0, 1000)
        assert np.all(poisson_counts(u, 1e-12) == 0)

    @pytest.mark.parametrize("mean", [0.02, 0.5, 3.0, 240.0])
    def test_equals_a_search_over_every_uniform(self, mean):
        # rows below P(X = 0) skip the search; at 240 the sum stalls a few
        # ulps below 1, the table ends at its first repeated value, index
        # 378, and the uniforms at or above that sum are capped to it
        cdf = _poisson_cdf_table(mean)
        u = np.concatenate([StreamKey(5).uniforms(0, 0, 50_000), cdf, np.nextafter(cdf, 0.0)])
        full = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)
        counts = poisson_counts(u, mean)
        assert counts.dtype == np.int32
        assert np.array_equal(counts, full)
        assert (counts == 0).any()
        if mean > 100.0:
            assert cdf.shape[0] == 379 and cdf[-1] == cdf[-2] and 1.0 - cdf[-1] > 1e-16
            assert (counts == 378).any()

    @pytest.mark.parametrize("mean,stall", [(0.02, 8), (240.0, 378)])
    def test_a_stalled_sum_ends_the_table_at_its_first_repeat(self, mean, stall):
        # the presets' 0.02 once built 401 entries, the last 394 equal
        cdf = _poisson_cdf_table(mean)
        assert cdf.shape[0] == stall + 1 and cdf[-1] == cdf[-2] and len(set(cdf[:-1])) == stall
        assert poisson_counts(np.array([cdf[-1], np.nextafter(1.0, 0.0)]), mean).tolist() == [stall, stall]

    @pytest.mark.parametrize("mean", [380.0, 800.0])
    def test_a_mean_beyond_its_table_raises(self, mean):
        # 400 terms hold too little of Poisson(380); at 800, exp(-mean)
        # underflows and every term is 0.  Both once gave 400 on every path.
        with pytest.raises(ValueError, match=f"Poisson mean {mean} needs more than 400 terms"):
            _poisson_cdf_table(mean)
        with pytest.raises(ValueError, match=f"Poisson mean {mean}"):
            poisson_counts(StreamKey(5).uniforms(0, 0, 100), mean)

    def test_simulation_names_the_step_and_atom_of_a_mean_beyond_its_table(self):
        marks = FiniteMarkMeasure([[1.0]], [1000.0])
        with pytest.raises(ValueError, match="step 0, atom 0: Poisson mean 1000.0"):
            simulate_paths(TimeGrid.uniform(1.0, 1), marks, 1, 20_000, 1)


class TestHandBuiltBundle:
    """A bundle built by hand passes node values that match its grid and marks.

    Seven paths on a six-node grid, so that a path axis in the place of the
    node axis, or the other way round, cannot pass.
    """

    def build(self, brownian, count_nodes):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        return DrivingPaths(TimeGrid.uniform(1.0, 5), marks, brownian, count_nodes)

    def test_matching_arrays_are_accepted(self):
        paths = self.build(np.zeros((6, 7, 2)), np.zeros((6, 7, 2), dtype=np.int64))
        assert paths.n_paths == 7 and paths.brownian_dim == 2
        # built by hand, every node is stored: one segment per step, and
        # nothing to rebuild
        assert paths.stride == 1 and paths.stored_nodes == [0, 1, 2, 3, 4, 5]
        assert paths.n_segments == 5
        segment = paths.segment(4)
        assert (segment.first, segment.last) == (4, 5)
        assert segment.jump_increments(4).shape == (7, 2)
        assert all(np.shares_memory(a, paths.brownian) for a in (segment.node(4)[0], segment.node(5)[0]))
        assert len(list(paths.nodes())) == 6

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64])
    def test_any_integer_count_dtype_is_accepted(self, dtype):
        nodes = np.cumsum(np.ones((6, 7, 2), dtype=dtype), axis=0, dtype=dtype)
        paths = self.build(np.zeros((6, 7, 2)), nodes)
        assert paths.count_nodes.dtype == dtype
        assert np.array_equal(paths.segment(2).jump_increments(2), np.ones((7, 2)))

    def test_a_segment_or_node_outside_the_bundle_is_refused(self):
        paths = self.build(np.zeros((6, 7, 2)), np.zeros((6, 7, 2), dtype=np.int64))
        with pytest.raises(IndexError, match="segment 5 out of range for 5 segments"):
            paths.segment(5)
        with pytest.raises(IndexError, match=r"node 3 is not in segment \[1, 2\]"):
            paths.segment(1).node(3)

    @pytest.mark.parametrize(
        "brownian,count_nodes,match",
        [
            (np.zeros((9, 7, 2)), np.zeros((9, 7, 2), dtype=np.int64), r"brownian must have shape \(6, n_paths, d\)"),
            (np.zeros((6, 7)), np.zeros((6, 7, 2), dtype=np.int64), r"brownian must have shape \(6, n_paths, d\)"),
            (np.zeros((6, 7, 2)), np.zeros((5, 7, 2), dtype=np.int64), r"count_nodes must have shape \(6, 7, 2\)"),
            (np.zeros((6, 7, 2)), np.zeros((6, 9, 2), dtype=np.int64), r"count_nodes must have shape \(6, 7, 2\)"),
            (np.zeros((6, 7, 2)), np.zeros((6, 7, 3), dtype=np.int64), r"count_nodes must have shape \(6, 7, 2\)"),
            (np.zeros((6, 7, 2)), np.zeros((6, 7, 2)), "count_nodes must have an integer dtype"),
        ],
        ids=["nodes-off-the-grid", "no-brownian-axis", "count-nodes-off-the-grid", "other-path-count",
             "other-atom-count", "float-counts"],
    )
    def test_arrays_off_the_grid_or_marks_are_refused(self, brownian, count_nodes, match):
        with pytest.raises(ValueError, match=match):
            self.build(brownian, count_nodes)


class TestSimulation:
    def test_reproducible_bitwise(self):
        grid = TimeGrid.uniform(1.0, 8)
        a = simulate_paths(grid, unit_marks(), 2, 500, seed=123)
        b = simulate_paths(grid, unit_marks(), 2, 500, seed=123)
        assert np.array_equal(a.brownian, b.brownian)
        assert np.array_equal(a.count_nodes, b.count_nodes)

    def test_chunked_generation_concatenates(self):
        grid = TimeGrid.uniform(1.0, 5)
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        full = simulate_paths(grid, marks, 2, 300, seed=5)
        head = simulate_paths(grid, marks, 2, 120, seed=5)
        tail = simulate_paths(grid, marks, 2, 180, seed=5, path_offset=120)
        assert np.array_equal(full.brownian[:, :120], head.brownian)
        assert np.array_equal(full.brownian[:, 120:], tail.brownian)
        assert np.array_equal(full.count_nodes[:, :120], head.count_nodes)
        assert np.array_equal(full.count_nodes[:, 120:], tail.count_nodes)

    def test_brownian_moments(self):
        grid = TimeGrid.uniform(1.0, 4)
        paths = simulate_paths(grid, unit_marks(), 1, 100_000, seed=17)
        w_T = paths.brownian[-1, :, 0]
        assert abs(w_T.mean()) < 0.02
        assert abs(w_T.var() - 1.0) < 0.02

    def test_unit_rate_counts_mean(self):
        # E N_T = T * n(E) = 1 for the unit atom on [0, 1]
        grid = TimeGrid.uniform(1.0, 10)
        paths = simulate_paths(grid, unit_marks(), 1, 100_000, seed=29)
        total = paths.count_nodes[-1, :, 0]
        assert abs(total.mean() - 1.0) < 0.02

    def test_count_nodes_cumulative(self):
        grid = TimeGrid.uniform(2.0, 6)
        paths = simulate_paths(grid, unit_marks(), 1, 50, seed=1)
        _, steps = step_increments(paths)
        _, count_nodes = node_stores(paths)
        assert np.all(steps >= 0)
        assert np.array_equal(count_nodes[1:], np.cumsum(steps, axis=0))
        assert np.all(count_nodes[0] == 0)

    def test_jump_increments_are_the_streams_poisson_counts_bit_for_bit(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.4, 0.45, 1.2]))
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0], [2.0]], weights=[1.0, 0.5, 3.0])
        paths = simulate_paths(grid, marks, 2, 400, seed=33, path_offset=7)
        key, h = StreamKey(33), grid.steps
        for i in range(4):
            steps = paths.segment(i // paths.stride).jump_increments(i)
            assert steps.shape == (400, 3) and steps.dtype == np.int32
            for j in range(3):
                want = poisson_counts(key.uniforms(i, 2 + j, 400, offset=7), h[i] * marks.weights[j])
                assert steps[:, j].tobytes() == want.tobytes()

    def test_per_step_accumulation_matches_cumsum_bytes(self):
        grid = TimeGrid.uniform(1.0, 7)
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        paths = simulate_paths(grid, marks, 2, 300, seed=21)
        key, h = StreamKey(21), grid.steps
        dW = np.stack([
            np.stack([np.sqrt(h[i]) * key.normals(i, c, 300) for c in range(2)], axis=1)
            for i in range(7)
        ])
        W = np.zeros((8, 300, 2))
        np.cumsum(dW, axis=0, out=W[1:])
        brownian, count_nodes = node_stores(paths)
        assert brownian.tobytes() == W.tobytes()
        jumps = np.stack([
            np.stack([poisson_counts(key.uniforms(i, 2 + j, 300), h[i] * marks.weights[j])
                      for j in range(2)], axis=1)
            for i in range(7)
        ])
        counts = np.zeros((8, 300, 2), dtype=np.int32)
        np.cumsum(jumps, axis=0, out=counts[1:])
        assert count_nodes.tobytes() == counts.tobytes()
        # N = 7 stores nodes 0, 3, 6 and 7
        assert paths.stored_nodes == [0, 3, 6, 7]
        assert paths.brownian.tobytes() == W[[0, 3, 6, 7]].tobytes()
        assert paths.count_nodes.tobytes() == counts[[0, 3, 6, 7]].tobytes()

    def test_a_grid_whose_counts_could_overflow_int32_is_refused(self):
        # each step adds at most 400 jumps per atom to a node
        assert _MAX_STEPS == (2**31 - 1) // 400
        grid = TimeGrid.uniform(1.0, _MAX_STEPS + 1)
        with pytest.raises(ValueError, match=f"grid has {_MAX_STEPS + 1} steps; int32 jump counts hold at most {_MAX_STEPS}"):
            simulate_paths(grid, unit_marks(), 1, 1, seed=6)

    def test_state_concatenates_brownian_and_counts(self):
        # the design reads a node's two blocks as the state (W, N) side by side
        grid = TimeGrid.uniform(1.0, 3)
        paths = simulate_paths(grid, unit_marks(), 2, 10, seed=4)
        w, counts = paths.segment(1).node(2)
        assert w.shape == (10, 2) and counts.shape == (10, 1)
        state = np.concatenate([w, counts.astype(float)], axis=1)
        basis = RegressionBasis(2)
        assert basis.design_matrix(w, counts).tobytes() == basis.design_matrix(state).tobytes()


def reference_bundle(grid, marks, d, n_paths, seed, path_offset):
    """The bundle built on one thread, step by step, from the keyed draws:
    Brownian nodes, jump counts per step and count nodes."""
    key, h = StreamKey(seed), grid.steps
    N, J = grid.n_steps, marks.n_atoms
    W = np.zeros((N + 1, n_paths, d))
    counts = np.empty((N, n_paths, J), dtype=np.int32)
    nodes = np.zeros((N + 1, n_paths, J), dtype=np.int32)
    for i in range(N):
        for c in range(d):
            W[i + 1, :, c] = W[i, :, c] + np.sqrt(h[i]) * key.normals(i, c, n_paths, path_offset)
        for j in range(J):
            u = key.uniforms(i, d + j, n_paths, path_offset)
            counts[i, :, j] = poisson_counts(u, h[i] * marks.weights[j])
            nodes[i + 1, :, j] = nodes[i, :, j] + counts[i, :, j]
    return W, counts, nodes


class TestTwoThreadDraw:
    """The draw splits its paths between this thread and one worker, and
    stores every k-th node; the bundle must not depend on the split, and a
    node rebuilt from the node before it must equal the drawn one."""

    @pytest.mark.parametrize(
        "nodes,d,weights,n_paths,offset",
        [
            ([0.0, 0.1, 0.15, 0.4, 0.45, 0.8, 1.3, 2.0], 2, [1.0, 0.5], 301, 0),
            ([0.0, 0.3, 0.35, 1.0, 1.6], 1, [2.0], 64, 17),
            ([0.0, 0.7], 2, [1.0, 3.0], 50, 9),
            ([0.0, 0.2, 0.5, 0.9], 1, [0.5, 4.0], 1, 1000),
        ],
        ids=["odd-steps-d2-J2", "offset", "one-step", "one-path"],
    )
    def test_bundle_equals_a_one_thread_reference_bit_for_bit(self, nodes, d, weights, n_paths, offset):
        grid = TimeGrid(np.array(nodes))
        atoms = [[float(k + 1)] for k in range(len(weights))]
        marks = FiniteMarkMeasure(atoms, weights)
        paths = simulate_paths(grid, marks, d, n_paths, seed=41, path_offset=offset)
        brownian, count_nodes = node_stores(paths)
        _, jumps = step_increments(paths)
        for got, want in zip(
            (brownian, jumps, count_nodes),
            reference_bundle(grid, marks, d, n_paths, 41, offset),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize(
        "n_steps,stride,stored",
        [(1, 1, [0, 1]), (2, 2, [0, 2]), (9, 3, [0, 3, 6, 9]), (7, 3, [0, 3, 6, 7]), (50, 8, [*range(0, 50, 8), 50])],
        ids=["one-step", "k-steps", "k-squared-steps", "not-a-multiple-of-k", "presets"],
    )
    def test_every_rebuilt_node_equals_a_full_store_reference_bit_for_bit(self, n_steps, stride, stored):
        # d = 2, J = 2, a grid of uneven steps, paths 17 to 17 + 120 of the streams
        grid = TimeGrid(np.cumsum([0.0] + [0.05 + 0.01 * (i % 4) for i in range(n_steps)]))
        marks = FiniteMarkMeasure([[1.0], [-1.0]], [1.5, 0.5])
        paths = simulate_paths(grid, marks, 2, 120, seed=43, path_offset=17)
        assert paths.stride == stride and paths.stored_nodes == stored
        W, counts, nodes = reference_bundle(grid, marks, 2, 120, 43, 17)
        assert paths.brownian.tobytes() == W[stored].tobytes()
        assert paths.count_nodes.tobytes() == nodes[stored].tobytes()
        walked = list(paths.nodes())
        assert len(walked) == n_steps + 1
        for i, (w, k) in enumerate(walked):
            assert w.tobytes() == W[i].tobytes() and k.tobytes() == nodes[i].tobytes(), i
        for s in range(paths.n_segments):
            segment = paths.segment(s)
            assert (segment.first, segment.last) == (stored[s], stored[s + 1])
            for i in range(segment.first, segment.last + 1):
                w, k = segment.node(i)
                assert w.tobytes() == W[i].tobytes() and k.tobytes() == nodes[i].tobytes(), (s, i)
            for i in range(segment.first, segment.last):
                assert segment.jump_increments(i).tobytes() == counts[i].tobytes(), (s, i)
                assert segment.brownian_increments(i).tobytes() == (W[i + 1] - W[i]).tobytes(), (s, i)

    def test_a_segment_rebuilds_in_order_and_refuses_a_released_node(self):
        grid = TimeGrid.uniform(1.0, 9)
        paths = simulate_paths(grid, unit_marks(), 1, 50, seed=47)
        W, _ = node_stores(paths)
        stores = iter([(np.empty((50, 1)), np.empty((50, 1), dtype=np.int32)) for _ in range(2)])
        segment = paths.segment(1, out=stores)
        assert (segment.first, segment.last) == (3, 6) and not segment.complete
        # node 5 is read first: nodes 4 and 5 are rebuilt, into the given stores
        assert segment.node(5)[0].tobytes() == W[5].tobytes()
        assert segment.complete and next(stores, None) is None
        w4, _ = segment.release(4)
        assert w4.tobytes() == W[4].tobytes()
        with pytest.raises(ValueError, match="node 4 was released"):
            segment.node(4)
        with pytest.raises(IndexError, match=r"node 6 is not rebuilt in segment \[3, 6\]"):
            segment.release(6)
        assert segment.jump_increments(5).shape == (50, 1)

    def test_an_error_on_the_worker_surfaces_and_leaves_no_thread(self, monkeypatch):
        # the worker draws the second half of the paths; its draw of atom 1
        # at step 2 fails, while this thread's half draws every step
        threads = set()
        original = bsdelab.stochastic.poisson_counts

        def failing_on_the_worker(u, mean):
            if threading.current_thread() is not threading.main_thread():
                threads.add(threading.current_thread())
                if mean > 0.5:
                    raise ValueError(f"Poisson mean {mean} refused")
            return original(u, mean)

        monkeypatch.setattr(bsdelab.stochastic, "poisson_counts", failing_on_the_worker)
        grid = TimeGrid(np.array([0.0, 0.001, 0.002, 1.0]))
        marks = FiniteMarkMeasure([[1.0], [-1.0]], [1e-3, 1.0])
        with pytest.raises(ValueError, match=r"step 2, atom 1: Poisson mean 0\.998 refused"):
            simulate_paths(grid, marks, 1, 200, seed=3)
        assert len(threads) == 1
        # the conftest guard fails the test if the worker outlived the call


class TestLayout:
    def test_per_step_slices_are_contiguous_with_time_major_shapes(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        paths = simulate_paths(TimeGrid.uniform(1.0, 5), marks, 2, 40, seed=3)
        # k = 3: nodes 0, 3 and 5 are stored
        assert paths.brownian.shape == (3, 40, 2)
        assert paths.count_nodes.shape == (3, 40, 2)
        for w, counts in paths.nodes():
            assert w.shape == (40, 2) and w.flags.c_contiguous
            assert counts.shape == (40, 2) and counts.flags.c_contiguous
        for i in range(5):
            segment = paths.segment(i // 3)
            assert segment.jump_increments(i).shape == (40, 2)
            assert segment.jump_increments(i).flags.c_contiguous
            assert segment.brownian_increments(i).flags.c_contiguous

    def test_solution_steps_are_contiguous_with_time_major_shapes(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        paths = simulate_paths(TimeGrid.uniform(1.0, 4), marks, 2, 1000, seed=8)
        terminal = TerminalCondition(
            fn=lambda w, k: np.stack([w[:, 0], k[:, 1].astype(float)], axis=1), state_dim=2
        )
        stores, handed = Collector(), []

        def on_node(i, ys, zs, us):
            handed.extend(ys if zs is None else (*ys, *zs, *us))
            stores(i, ys, zs, us)

        on_node.reads_integrands = True
        solve_backward(ZeroGen(2, 2, marks), terminal, paths, on_node=on_node)
        assert stores.y[0].shape == (5, 1000, 2)
        assert stores.z[0].shape == (4, 1000, 2, 2)
        assert stores.u[0].shape == (4, 1000, 2, 2)
        assert len(handed) == 5 + 2 * 4
        for block in handed:
            assert block.flags.c_contiguous


class TestCompensation:
    def test_point_values(self):
        marks = FiniteMarkMeasure(atoms=[[1.0]], weights=[2.0])
        assert compensated_increment(np.array([0]), 0.1, marks)[0] == pytest.approx(-0.2)
        assert compensated_increment(np.array([3]), 1.0, unit_marks())[0] == pytest.approx(2.0)

    def test_compensated_mean_near_zero(self):
        grid = TimeGrid.uniform(1.0, 5)
        marks = FiniteMarkMeasure(atoms=[[1.0], [2.0]], weights=[1.0, 3.0])
        paths = simulate_paths(grid, marks, 1, 100_000, seed=13)
        h = grid.steps[2]
        comp = compensated_increment(paths.segment(0).jump_increments(2), h, marks)
        # per-atom MC error is ~ sqrt(h n_j / n_paths)
        bound = 4.0 * np.sqrt(h * marks.weights / 100_000)
        assert np.all(np.abs(comp.mean(axis=0)) < bound)

    @given(k=st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_compensation_is_affine_in_counts(self, k):
        marks = FiniteMarkMeasure(atoms=[[1.0]], weights=[1.5])
        out = compensated_increment(np.array([k]), 0.25, marks)
        assert out[0] == pytest.approx(k - 0.25 * 1.5)


class TestJumpNorm:
    def test_single_atom_vector_value(self):
        assert jump_norm2(np.array([[3.0, 4.0]]), unit_marks()) == pytest.approx(25.0)

    def test_weighted_sum(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [2.0]], weights=[2.0, 0.5])
        u = np.array([1.0, 4.0])
        assert jump_norm2(u, marks) == pytest.approx(2.0 * 1.0 + 0.5 * 16.0)

    @given(
        scale=st.floats(min_value=0.0, max_value=10.0),
        a=st.floats(min_value=-5, max_value=5),
        b=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_scaling(self, scale, a, b):
        marks = FiniteMarkMeasure(atoms=[[1.0], [2.0]], weights=[1.0, 2.0])
        u = np.array([a, b])
        assert jump_norm2(scale * u, marks) == pytest.approx(scale**2 * jump_norm2(u, marks))
