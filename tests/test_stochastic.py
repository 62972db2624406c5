import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import bsdelab.stochastic
from bsdelab.generators import ZeroGen
from bsdelab.solver import TerminalCondition, solve_backward
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
        assert paths.jump_increments(4).shape == (7, 2)
        assert paths.state(5).shape == (7, 4)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64])
    def test_any_integer_count_dtype_is_accepted(self, dtype):
        nodes = np.cumsum(np.ones((6, 7, 2), dtype=dtype), axis=0, dtype=dtype)
        paths = self.build(np.zeros((6, 7, 2)), nodes)
        assert paths.count_nodes.dtype == dtype
        assert np.array_equal(paths.jump_increments(2), np.ones((7, 2)))

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
        steps = np.stack([paths.jump_increments(i) for i in range(6)])
        assert np.all(steps >= 0)
        assert np.array_equal(paths.count_nodes[1:], np.cumsum(steps, axis=0))
        assert np.all(paths.count_nodes[0] == 0)

    def test_jump_increments_are_the_streams_poisson_counts_bit_for_bit(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.4, 0.45, 1.2]))
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0], [2.0]], weights=[1.0, 0.5, 3.0])
        paths = simulate_paths(grid, marks, 2, 400, seed=33, path_offset=7)
        key, h = StreamKey(33), grid.steps
        for i in range(4):
            steps = paths.jump_increments(i)
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
        assert paths.brownian.tobytes() == W.tobytes()
        jumps = np.stack([
            np.stack([poisson_counts(key.uniforms(i, 2 + j, 300), h[i] * marks.weights[j])
                      for j in range(2)], axis=1)
            for i in range(7)
        ])
        counts = np.zeros((8, 300, 2), dtype=np.int32)
        np.cumsum(jumps, axis=0, out=counts[1:])
        assert paths.count_nodes.tobytes() == counts.tobytes()

    def test_a_grid_whose_counts_could_overflow_int32_is_refused(self):
        # each step adds at most 400 jumps per atom to a node
        assert _MAX_STEPS == (2**31 - 1) // 400
        grid = TimeGrid.uniform(1.0, _MAX_STEPS + 1)
        with pytest.raises(ValueError, match=f"grid has {_MAX_STEPS + 1} steps; int32 jump counts hold at most {_MAX_STEPS}"):
            simulate_paths(grid, unit_marks(), 1, 1, seed=6)

    def test_state_concatenates_brownian_and_counts(self):
        grid = TimeGrid.uniform(1.0, 3)
        paths = simulate_paths(grid, unit_marks(), 2, 10, seed=4)
        s = paths.state(2)
        assert s.shape == (10, 3)
        assert np.array_equal(s[:, :2], paths.brownian[2])
        assert np.array_equal(s[:, 2], paths.count_nodes[2, :, 0].astype(float))


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
    """The draw splits its steps, and its two cumulative sums, between this
    thread and one worker; the bundle must not depend on the split."""

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
        jumps = np.stack([paths.jump_increments(i) for i in range(grid.n_steps)])
        for got, want in zip(
            (paths.brownian, jumps, paths.count_nodes),
            reference_bundle(grid, marks, d, n_paths, 41, offset),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_an_error_on_the_worker_surfaces_and_leaves_no_thread(self, monkeypatch):
        # three steps: this thread draws steps 0 and 1, the worker step 2,
        # whose width makes atom 1's mean about 1000
        threads = {}
        original = bsdelab.stochastic.poisson_counts

        def recorded(u, mean):
            threads[float(mean)] = threading.current_thread()
            return original(u, mean)

        monkeypatch.setattr(bsdelab.stochastic, "poisson_counts", recorded)
        grid = TimeGrid(np.array([0.0, 0.001, 0.002, 1000.0]))
        marks = FiniteMarkMeasure([[1.0], [-1.0]], [1e-3, 1.0])
        with pytest.raises(ValueError, match=r"step 2, atom 1: Poisson mean 999\.998"):
            simulate_paths(grid, marks, 1, 200, seed=3)
        big = max(threads)
        assert big > 900.0 and threads[big] is not threading.main_thread()
        assert threads[0.001 * 1e-3] is threading.main_thread()
        # the conftest guard fails the test if the worker outlived the call


class TestLayout:
    def test_per_step_slices_are_contiguous_with_time_major_shapes(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        paths = simulate_paths(TimeGrid.uniform(1.0, 5), marks, 2, 40, seed=3)
        assert paths.brownian.shape == (6, 40, 2)
        assert paths.count_nodes.shape == (6, 40, 2)
        for i in range(6):
            assert paths.brownian[i].flags.c_contiguous
            assert paths.count_nodes[i].flags.c_contiguous
            assert paths.state(i).flags.c_contiguous
            assert paths.state(i).shape == (40, 4)
        for i in range(5):
            assert paths.jump_increments(i).shape == (40, 2)
            assert paths.jump_increments(i).flags.c_contiguous

    def test_solution_steps_are_contiguous_with_time_major_shapes(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        paths = simulate_paths(TimeGrid.uniform(1.0, 4), marks, 2, 1000, seed=8)
        terminal = TerminalCondition(
            fn=lambda w, k: np.stack([w[:, 0], k[:, 1].astype(float)], axis=1), state_dim=2
        )
        sol = solve_backward(ZeroGen(2, 2, marks), terminal, paths, keep=("y", "z", "u"))
        assert sol.y.shape == (5, 1000, 2)
        assert sol.z.shape == (4, 1000, 2, 2)
        assert sol.u.shape == (4, 1000, 2, 2)
        for i in range(5):
            assert sol.y[i].flags.c_contiguous
        for i in range(4):
            assert sol.z[i].flags.c_contiguous
            assert sol.u[i].flags.c_contiguous


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
        comp = compensated_increment(paths.jump_increments(2), h, marks)
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
