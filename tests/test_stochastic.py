import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelab.generators import ZeroGen
from bsdelab.solver import TerminalCondition, solve_backward
from bsdelab.stochastic import (
    DrivingPaths,
    FiniteMarkMeasure,
    StreamKey,
    TimeGrid,
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

    @pytest.mark.parametrize("mean", [0.02, 0.5, 3.0, 380.0])
    def test_equals_a_search_over_every_uniform(self, mean):
        # rows below P(X = 0) skip the search; the table stops at 400 at a
        # large mean, where the search is capped
        cdf = _poisson_cdf_table(mean)
        u = np.concatenate([StreamKey(5).uniforms(0, 0, 50_000), cdf, np.nextafter(cdf, 0.0)])
        full = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)
        counts = poisson_counts(u, mean)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, full)
        assert (counts == 0).any()
        if mean > 100.0:
            assert cdf.shape[0] == 401 and (counts == 400).sum() > 5_000


class TestSimulation:
    def test_reproducible_bitwise(self):
        grid = TimeGrid.uniform(1.0, 8)
        a = simulate_paths(grid, unit_marks(), 2, 500, seed=123)
        b = simulate_paths(grid, unit_marks(), 2, 500, seed=123)
        assert np.array_equal(a.brownian, b.brownian)
        assert np.array_equal(a.jump_counts, b.jump_counts)

    def test_chunked_generation_concatenates(self):
        grid = TimeGrid.uniform(1.0, 5)
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        full = simulate_paths(grid, marks, 2, 300, seed=5)
        head = simulate_paths(grid, marks, 2, 120, seed=5)
        tail = simulate_paths(grid, marks, 2, 180, seed=5, path_offset=120)
        assert np.array_equal(full.brownian[:120], head.brownian)
        assert np.array_equal(full.brownian[120:], tail.brownian)
        assert np.array_equal(full.jump_counts[120:], tail.jump_counts)

    def test_brownian_moments(self):
        grid = TimeGrid.uniform(1.0, 4)
        paths = simulate_paths(grid, unit_marks(), 1, 100_000, seed=17)
        w_T = paths.brownian[:, -1, 0]
        assert abs(w_T.mean()) < 0.02
        assert abs(w_T.var() - 1.0) < 0.02

    def test_unit_rate_counts_mean(self):
        # E N_T = T * n(E) = 1 for the unit atom on [0, 1]
        grid = TimeGrid.uniform(1.0, 10)
        paths = simulate_paths(grid, unit_marks(), 1, 100_000, seed=29)
        total = paths.count_nodes[:, -1, 0]
        assert abs(total.mean() - 1.0) < 0.02

    def test_count_nodes_cumulative(self):
        grid = TimeGrid.uniform(2.0, 6)
        paths = simulate_paths(grid, unit_marks(), 1, 50, seed=1)
        recon = np.cumsum(paths.jump_counts, axis=1)
        assert np.array_equal(paths.count_nodes[:, 1:, :], recon)
        assert np.all(paths.count_nodes[:, 0, :] == 0)

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
        assert paths.brownian.tobytes() == W.transpose(1, 0, 2).tobytes()
        counts = np.zeros((8, 300, 2), dtype=np.int64)
        np.cumsum(paths.jump_counts.transpose(1, 0, 2), axis=0, out=counts[1:])
        assert paths.count_nodes.tobytes() == counts.transpose(1, 0, 2).tobytes()

    def test_state_concatenates_brownian_and_counts(self):
        grid = TimeGrid.uniform(1.0, 3)
        paths = simulate_paths(grid, unit_marks(), 2, 10, seed=4)
        s = paths.state(2)
        assert s.shape == (10, 3)
        assert np.array_equal(s[:, :2], paths.brownian[:, 2, :])
        assert np.array_equal(s[:, 2], paths.count_nodes[:, 2, 0].astype(float))


class TestLayout:
    def test_per_step_slices_are_contiguous_with_path_major_shapes(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        paths = simulate_paths(TimeGrid.uniform(1.0, 5), marks, 2, 40, seed=3)
        assert paths.brownian.shape == (40, 6, 2)
        assert paths.jump_counts.shape == (40, 5, 2)
        assert paths.count_nodes.shape == (40, 6, 2)
        for i in range(6):
            assert paths.brownian[:, i].flags.c_contiguous
            assert paths.count_nodes[:, i].flags.c_contiguous
            assert paths.state(i).flags.c_contiguous
            assert paths.state(i).shape == (40, 4)
        for i in range(5):
            assert paths.jump_counts[:, i].flags.c_contiguous

    def test_solution_steps_are_contiguous_with_path_major_shapes(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
        paths = simulate_paths(TimeGrid.uniform(1.0, 4), marks, 2, 1000, seed=8)
        terminal = TerminalCondition(
            fn=lambda w, k: np.stack([w[:, 0], k[:, 1].astype(float)], axis=1), state_dim=2
        )
        sol = solve_backward(ZeroGen(2, 2, marks), terminal, paths)
        assert sol.y.shape == (1000, 5, 2)
        assert sol.z.shape == (1000, 4, 2, 2)
        assert sol.u.shape == (1000, 4, 2, 2)
        for i in range(5):
            assert sol.y[:, i].flags.c_contiguous
        for i in range(4):
            assert sol.z[:, i].flags.c_contiguous
            assert sol.u[:, i].flags.c_contiguous


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
        comp = compensated_increment(paths.jump_counts[:, 2, :], h, marks)
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
