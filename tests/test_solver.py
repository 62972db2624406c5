import concurrent.futures
import math
import threading
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import Collector
from scipy.linalg import expm

import bsdelab.stochastic
from bsdelab.generators import AffineGen, ScaledJumpGen, ZeroGen
from bsdelab.solver import (
    RegressionBasis,
    SolverError,
    TerminalCondition,
    DeviationCurves,
    _StepRegression,
    _monomial_powers,
    solve_backward,
    solve_backward_many,
)
from bsdelab.stochastic import DrivingPaths, FiniteMarkMeasure, TimeGrid, simulate_paths


def unit_marks():
    return FiniteMarkMeasure([[1.0]], [1.0])


def simulate(n_paths=20_000, n_steps=20, seed=7, d=1, marks=None):
    grid = TimeGrid.uniform(1.0, n_steps)
    return simulate_paths(grid, marks or unit_marks(), d, n_paths, seed)


@contextmanager
def warnings_ignored():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def node_stores(paths):
    """Every node of ``paths``, read through its node iterator: Brownian
    nodes (N + 1, n, d) and count nodes (N + 1, n, J)."""
    w, counts = zip(*paths.nodes())
    return np.stack(w), np.stack(counts)


def brownian_terminal():
    return TerminalCondition(fn=lambda w, k: w[:, 0], state_dim=1)


def count_terminal():
    return TerminalCondition(fn=lambda w, k: k[:, 0].astype(float), state_dim=1)


def constant_terminal(value):
    return TerminalCondition(fn=lambda w, k: np.full(w.shape[0], value), state_dim=1)


class TestZeroDriver:
    def test_recovers_brownian_martingale(self):
        paths = simulate()
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        stores = Collector()
        sol = solve_backward(gen, brownian_terminal(), paths, on_node=stores)
        # Y_t = W_t lies in the basis span, so the fit is exact up to MC noise
        err = stores.y[0][..., 0] - node_stores(paths)[0][..., 0]
        assert np.sqrt(np.mean(err**2)) < 0.05
        assert abs(sol.y0[0]) < 3.0 * max(sol.y0_se[0], 1e-3)
        z_means = stores.z[0][..., 0, 0].mean(axis=1)
        assert np.all(np.abs(z_means - 1.0) < 0.15)
        assert np.sqrt(np.mean(stores.u[0]**2)) < 0.15

    def test_recovers_compensated_count_martingale(self):
        paths = simulate(seed=9)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        stores = Collector()
        solve_backward(gen, count_terminal(), paths, on_node=stores)
        horizon = paths.grid.horizon
        truth = node_stores(paths)[1][..., 0] + (horizon - paths.grid.nodes)[:, None]
        err = stores.y[0][..., 0] - truth
        assert np.sqrt(np.mean(err**2)) < 0.05
        u_means = stores.u[0][..., 0, 0].mean(axis=1)
        assert np.all(np.abs(u_means - 1.0) < 0.2)

    def test_quadratic_payoff_in_span(self):
        paths = simulate(seed=11)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        term = TerminalCondition(fn=lambda w, k: w[:, 0] ** 2, state_dim=1)
        stores = Collector(integrands=False)
        solve_backward(gen, term, paths, on_node=stores)
        horizon = paths.grid.horizon
        truth = node_stores(paths)[0][..., 0] ** 2 + (horizon - paths.grid.nodes)[:, None]
        err = stores.y[0][..., 0] - truth
        assert np.sqrt(np.mean(err**2)) < 0.08


class TestLinearJumpScenarios:
    def test_half_strength_jump_driver(self):
        paths = simulate(n_paths=40_000, n_steps=25, seed=13)
        stores = Collector(integrands=False)
        sol = solve_backward(ScaledJumpGen(0.5), count_terminal(), paths, on_node=stores)
        assert sol.y0[0] == pytest.approx(0.5, abs=0.03)
        # closed form Y_t = N_t + (T - t)/2 holds pathwise
        i = 10
        t = paths.grid.nodes[i]
        truth = node_stores(paths)[1][i, :, 0] + 0.5 * (1.0 - t)
        assert np.sqrt(np.mean((stores.y[0][i, :, 0] - truth) ** 2)) < 0.05

    def test_double_strength_jump_driver(self):
        paths = simulate(n_paths=40_000, n_steps=25, seed=17)
        sol = solve_backward(ScaledJumpGen(2.0), count_terminal(), paths)
        assert sol.y0[0] == pytest.approx(-1.0, abs=0.05)

    def test_zero_terminal_stays_exactly_zero(self):
        paths = simulate(n_paths=5_000, n_steps=10, seed=19)
        stores = Collector()
        solve_backward(ScaledJumpGen(2.0), constant_terminal(0.0), paths, on_node=stores)
        assert np.all(stores.y[0] == 0.0)
        assert np.all(stores.z[0] == 0.0)
        assert np.all(stores.u[0] == 0.0)


class TestModes:
    def test_explicit_and_implicit_match_their_recursions(self):
        n_steps, a, c = 20, -0.5, 3.0
        paths = simulate(n_paths=2_500, n_steps=n_steps, seed=23)
        gen = AffineGen(
            np.array([[a]]),
            np.zeros((1, 1, 1)),
            np.zeros((1, 1, 1)),
            drift=[0.0],
            brownian_dim=1,
            marks=unit_marks(),
        )
        h = 1.0 / n_steps
        explicit = solve_backward(gen, constant_terminal(c), paths, mode="explicit")
        implicit = solve_backward(gen, constant_terminal(c), paths, mode="implicit")
        assert explicit.y0[0] == pytest.approx(c * (1.0 + h * a) ** n_steps, abs=1e-9)
        assert implicit.y0[0] == pytest.approx(c / (1.0 - h * a) ** n_steps, abs=1e-9)
        # both are first-order consistent with c * exp(a)
        assert abs(explicit.y0[0] - implicit.y0[0]) < 0.05
        for y0 in (explicit.y0[0], implicit.y0[0]):
            assert abs(y0 - c * np.exp(a)) < 0.03

    def test_implicit_requires_contraction(self):
        paths = simulate(n_paths=500, n_steps=2, seed=29)
        with pytest.raises(SolverError, match="contraction"):
            solve_backward(ScaledJumpGen(3.0), count_terminal(), paths, mode="implicit")

    def test_unknown_mode_rejected(self):
        paths = simulate(n_paths=500, n_steps=2, seed=29)
        with pytest.raises(ValueError, match="mode"):
            solve_backward(ScaledJumpGen(0.5), count_terminal(), paths, mode="midpoint")


def closed_form_linear(a_matrix, terminal, paths):
    """Solution for the linear driver f(y) = A y: its stores y, z and u,
    and its y0.

    Runs a zero-driver pass and rescales it by the matrix exponential
    exp(A (T - t)); the martingale integrands scale the same way.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    m = a_matrix.shape[0]
    zero = ZeroGen(state_dim=m, brownian_dim=paths.brownian_dim, marks=paths.marks)
    stores = Collector()
    sol = solve_backward(zero, terminal, paths, on_node=stores)
    (y,), (z,), (u,) = stores.y, stores.z, stores.u
    horizon = sol.times[-1]
    for i, t in enumerate(sol.times):
        scale = expm(a_matrix * (horizon - t))
        y[i] = y[i] @ scale.T
        if i < sol.times.shape[0] - 1:
            z[i] = np.einsum("kl,nld->nkd", scale, z[i])
            u[i] = np.einsum("kl,njl->njk", scale, u[i])
    return SimpleNamespace(y=y, z=z, u=u, y0=y[0].mean(axis=0))


class TestLinearClosedForm:
    def test_scalar_exponential_scaling(self):
        paths = simulate(n_paths=2_000, n_steps=10, seed=31)
        sol = closed_form_linear(np.array([[0.7]]), constant_terminal(3.0), paths)
        assert sol.y0[0] == pytest.approx(3.0 * np.exp(0.7), abs=1e-9)

    def test_zero_matrix_reduces_to_plain_conditional_expectation(self):
        paths = simulate(n_paths=5_000, n_steps=10, seed=37)
        base = Collector()
        solve_backward(
            ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks()),
            brownian_terminal(),
            paths,
            on_node=base,
        )
        lin = closed_form_linear(np.zeros((1, 1)), brownian_terminal(), paths)
        assert np.allclose(lin.y, base.y[0])
        assert np.allclose(lin.z, base.z[0])

    def test_matches_backward_scheme_to_first_order(self):
        paths = simulate(n_paths=40_000, n_steps=40, seed=41)
        a = np.array([[0.6]])
        gen = AffineGen(
            a, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), [0.0], brownian_dim=1, marks=unit_marks()
        )
        scheme = solve_backward(gen, brownian_terminal(), paths)
        closed = closed_form_linear(a, brownian_terminal(), paths)
        # O(h) scheme bias plus MC noise
        assert abs(scheme.y0[0] - closed.y0[0]) < 0.05

    def test_martingale_integrands_scaled(self):
        paths = simulate(n_paths=20_000, n_steps=10, seed=43)
        a = np.array([[1.0]])
        closed = closed_form_linear(a, brownian_terminal(), paths)
        t = paths.grid.nodes[:-1]
        expected = np.exp(1.0 - t)
        z_means = closed.z[..., 0, 0].mean(axis=1)
        assert np.all(np.abs(z_means - expected) < 0.2)


def design_features(seed, n_live):
    """3000 rows of ``n_live`` live features of mixed scales, the last one
    counts, with a dead (zero-variance) feature after the first."""
    rng = np.random.default_rng(seed)
    live = rng.normal(size=(3000, n_live)) * [1.0, 3.0, 0.2][:n_live]
    live[:, -1] = rng.poisson(0.7, size=3000)
    return np.insert(live, 1, 2.5, axis=1)


def column_loop(features, degree, factor_by_factor):
    """The design built one column at a time from 1.0, each factor
    recomputed, in ascending feature order: a power k as k factors, or else
    as ``**``.  The statistics are reductions over feature-major rows, as in
    the basis."""
    rows = np.ascontiguousarray(features.T)
    std = rows.std(axis=1)
    live = std > 0.0
    centered = (features[:, live] - rows.mean(axis=1)[live]) / std[live]
    powers = _monomial_powers(int(live.sum()), degree)
    design = np.ones((features.shape[0], powers.shape[0]))
    for col, p in enumerate(powers):
        for feat_idx in np.nonzero(p)[0]:
            if factor_by_factor:
                for _ in range(p[feat_idx]):
                    design[:, col] *= centered[:, feat_idx]
            else:
                design[:, col] *= centered[:, feat_idx] ** p[feat_idx]
    return design


class TestRegressionMachinery:
    def test_step_zero_design_collapses_to_constant(self):
        paths = simulate(n_paths=3_000, n_steps=5, seed=47)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        stores = Collector(integrands=False)
        sol = solve_backward(gen, brownian_terminal(), paths, on_node=stores)
        first = sol.regression[0]
        assert first.step == 0
        assert first.rank == 1
        assert first.condition == pytest.approx(1.0)
        assert np.ptp(stores.y[0][0, :, 0]) < 1e-14

    def test_exactly_collinear_columns_reduced_not_fatal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=400)
        design = np.stack([np.ones(400), x, 2.0 * x], axis=1)
        reg = _StepRegression(design, step=3)
        assert reg.diagnostics.rank == 2
        fitted = reg.fit((3.0 + x)[:, None])
        assert np.allclose(fitted[:, 0], 3.0 + x, atol=1e-10)

    def test_near_collinear_columns_raise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=400)
        design = np.stack([np.ones(400), x, x * (1.0 + 1e-13 * rng.normal(size=400))], axis=1)
        with pytest.raises(SolverError, match="step 3"):
            _StepRegression(design, step=3)

    @pytest.mark.parametrize("condition", [1e8, 1e11], ids=["1e8", "1e11"])
    def test_ill_conditioned_design_below_the_cap_fits_like_extended_precision(self, condition):
        # 20k rows: several QR chunks and fit chunks, each with a remainder
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("no extended-precision long double on this platform")
        rng = np.random.default_rng(11)
        n, p = 20_000, 6
        q, _ = np.linalg.qr(rng.normal(size=(n, p)))
        v, _ = np.linalg.qr(rng.normal(size=(p, p)))
        s = np.geomspace(1.0, 1.0 / condition, p) * math.sqrt(n)
        design = np.asfortranarray((q * s) @ v.T)
        in_span = design @ rng.normal(size=p)
        noisy = in_span + rng.normal(size=n)
        targets = np.stack([in_span, noisy], axis=1)
        # reference: the projection onto the design's columns, orthonormalized
        # by Gram-Schmidt twice in long double
        basis = design.astype(np.longdouble)
        for k in range(p):
            for _ in range(2):
                basis[:, k] -= basis[:, :k] @ (basis[:, :k].T @ basis[:, k])
            basis[:, k] /= np.sqrt(basis[:, k] @ basis[:, k])
        reference = basis @ (basis.T @ targets.astype(np.longdouble))

        reg = _StepRegression(design, step=3)
        assert reg.diagnostics.rank == p
        assert reg.diagnostics.condition == pytest.approx(condition, rel=1e-3)
        error = np.abs(reg.fit(targets) - reference).max(axis=0) / np.abs(targets).max(axis=0)
        # a target in the column space is its own fit, and a fit with an
        # orthonormal basis meets it to rounding level at any condition; a
        # basis orthonormal only to condition * eps misses it by about that
        assert error[0] < 1e-12
        # a residual's fit is as sensitive as the least-squares problem
        assert error[1] < condition * np.finfo(float).eps

    def test_underpowered_jump_regression_warns(self):
        paths = simulate(n_paths=50, n_steps=50, seed=53)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        with pytest.warns(UserWarning, match="underpowered"):
            solve_backward(gen, count_terminal(), paths)

    def test_terminal_shape_mismatch_rejected(self):
        paths = simulate(n_paths=500, n_steps=2, seed=59)
        bad = TerminalCondition(fn=lambda w, k: np.zeros((w.shape[0], 3)), state_dim=2)
        gen = ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks())
        with pytest.raises(ValueError, match="terminal"):
            solve_backward(gen, bad, paths)

    def test_terminal_of_another_state_dimension_rejected(self):
        # a one-component payoff once broadcast over both components of the driver
        paths = simulate(n_paths=500, n_steps=4, seed=59)
        gen = ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks())
        with pytest.raises(ValueError, match="terminal and driver disagree on the state dimension"):
            solve_backward(gen, brownian_terminal(), paths)

    @pytest.mark.parametrize(
        "marks",
        [FiniteMarkMeasure([[1.0]], [5.0]), FiniteMarkMeasure([[2.0]], [1.0])],
        ids=["other-weight", "other-atom"],
    )
    def test_driver_marks_other_than_the_bundles_rejected(self, marks):
        # the u targets are scaled by the bundle's weights, so a driver that
        # integrates against other marks was solved to a wrong value
        paths = simulate(n_paths=500, n_steps=4, seed=59)
        with pytest.raises(ValueError, match=r"path bundle and driver disagree on the marks \(atoms and weights\)"):
            solve_backward(ScaledJumpGen(0.5, marks), count_terminal(), paths)
        fine = (ScaledJumpGen(0.5), count_terminal())
        with pytest.raises(ValueError, match="driver of problem 1 disagree on the marks"):
            solve_backward_many([fine, (ScaledJumpGen(0.5, marks), count_terminal())], paths)

    def test_non_finite_terminal_payoff_rejected_with_row_count(self):
        paths = simulate(n_paths=500, n_steps=2, seed=59)

        def payoff(w, k):
            out = w[:, 0].copy()
            out[[3, 70]] = [np.nan, np.inf]
            return out

        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        with pytest.raises(ValueError, match="non-finite values on 2 of 500 paths"):
            solve_backward(gen, TerminalCondition(payoff, 1), paths)

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_non_finite_driver_value_names_the_step(self, mode):
        class NanLate(ZeroGen):
            def _eval(self, t, y, z, u):
                out = np.zeros_like(y)
                if t >= 0.5:
                    out[0] = np.nan
                return out

        paths = simulate(n_paths=500, n_steps=4, seed=61)
        gen = NanLate(state_dim=1, brownian_dim=1, marks=unit_marks())
        with pytest.raises(SolverError, match="non-finite values at step 3 on 1 paths"):
            solve_backward(gen, brownian_terminal(), paths, mode=mode)

    def test_basis_degree_validation(self):
        with pytest.raises(ValueError):
            RegressionBasis(-1)

    def test_a_float_degree_is_refused_at_construction(self):
        with pytest.raises(TypeError):
            RegressionBasis(2.5)
        with pytest.raises(TypeError):
            RegressionBasis(2.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int32])
    def test_numpy_integer_degrees_are_accepted(self, dtype):
        basis = RegressionBasis(dtype(2))
        assert type(basis.degree) is int and basis == RegressionBasis(2)
        features = np.random.default_rng(3).normal(size=(500, 2))
        assert basis.design_matrix(features).tobytes() == RegressionBasis(2).design_matrix(features).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_state_value_is_refused_naming_the_step(self, bad):
        # a non-finite feature has a non-finite std, which must not read as
        # a dead (zero-variance) feature and be dropped
        paths = simulate(n_paths=4_000, n_steps=3, seed=83)
        brownian, count_nodes = node_stores(paths)
        brownian[1, 3, 0] = bad
        by_hand = DrivingPaths(
            grid=paths.grid, marks=paths.marks, brownian=brownian, count_nodes=count_nodes
        )
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        before = threading.active_count()
        with pytest.raises(ValueError, match="state at step 1: state feature 0 is not finite"):
            solve_backward(gen, brownian_terminal(), by_hand)
        assert threading.active_count() == before

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n_live", [1, 2, 3])
    def test_design_matrix_matches_the_column_loop(self, degree, n_live):
        features = design_features(degree + 10 * n_live, n_live)
        design = RegressionBasis(degree).design_matrix(features)
        expected = column_loop(features, degree, factor_by_factor=True)
        assert design.shape == expected.shape
        assert design.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_live", [1, 2, 3])
    def test_columns_up_to_degree_two_equal_the_power_reference(self, n_live):
        # x**2 is x*x and x**1 is x, so the columns of degree <= 2 keep the
        # bytes of a design built with powers
        features = design_features(40 + n_live, n_live)
        design = RegressionBasis(4).design_matrix(features)
        expected = column_loop(features, 4, factor_by_factor=False)
        low = _monomial_powers(n_live, 4).sum(axis=1) <= 2
        assert low.sum() == (n_live + 1) * (n_live + 2) // 2
        assert design[:, low].tobytes() == np.ascontiguousarray(expected[:, low]).tobytes()

    @pytest.mark.parametrize("n_live", [1, 2, 3])
    def test_higher_degree_columns_are_the_exact_product_to_rounding(self, n_live):
        # two or three roundings of a product of standardized floats: within
        # 4 eps of the exact product of the same floats
        features = design_features(50 + n_live, n_live)[:300]
        design = RegressionBasis(4).design_matrix(features)
        powers = _monomial_powers(n_live, 4)
        # the degree-1 columns are the standardized features themselves
        standardized = design[:, 1 : n_live + 1]
        eps = np.finfo(float).eps
        for col in np.flatnonzero(powers.sum(axis=1) >= 3):
            for row in range(features.shape[0]):
                exact = Fraction(1)
                for feat_idx, k in enumerate(powers[col]):
                    exact *= Fraction(standardized[row, feat_idx]) ** int(k)
                got = Fraction(design[row, col])
                assert abs(got - exact) <= 4 * eps * abs(exact), (col, row)

    def test_standardized_columns_match_an_fsum_reference(self):
        # the state (W, N) of a 200k-path bundle; a sum that adds row after
        # row is off by about 1e-12 in the std of the count feature
        rng = np.random.default_rng(31)
        n = 200_000
        w, counts = rng.normal(size=n), rng.poisson(0.6, size=n).astype(float)
        design = RegressionBasis(1).design_matrix(np.stack([w, counts], axis=1))
        for col, x in ((1, w), (2, counts)):
            mean = math.fsum(x) / n
            std = math.sqrt(math.fsum((x - mean) ** 2) / n)
            expected = (x - mean) / std
            assert np.max(np.abs(design[:, col] - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_design_bytes_do_not_depend_on_the_feature_layout(self):
        rng = np.random.default_rng(41)
        wide = np.empty((5000, 6))
        wide[:, 0] = rng.normal(size=5000)
        wide[:, 2] = rng.poisson(0.7, size=5000)
        wide[:, 4] = 3.0 * rng.normal(size=5000)
        features = np.ascontiguousarray(wide[:, ::2])
        basis = RegressionBasis(2)
        expected = basis.design_matrix(features)
        layouts = {"F": np.asfortranarray(features), "strided view": wide[:, ::2]}
        for name, same in layouts.items():
            assert np.array_equal(same, features)
            assert basis.design_matrix(same).tobytes() == expected.tobytes(), name

    def test_ill_conditioned_middle_step_raises_there_and_leaves_no_thread(self, monkeypatch):
        # step 4 is built ahead on the worker thread while step 5 is driven;
        # its error must surface only when the loop reaches it
        paths = simulate(n_paths=2_000, n_steps=10, seed=71)
        bad_state = node_stores(paths)[0][4]
        original = RegressionBasis.design_matrix

        def near_collinear_at_step_4(self, *blocks):
            design = np.array(original(self, *blocks), order="F")
            if np.array_equal(blocks[0], bad_state):
                noise = np.random.default_rng(1).normal(size=design.shape[0])
                design[:, -1] = design[:, 1] * (1.0 + 1e-13 * noise)
            return design

        driven = []

        class Recording(ZeroGen):
            def _eval(self, t, y, z, u):
                driven.append(round(float(np.max(t)) * 10))
                return np.zeros_like(y)

        monkeypatch.setattr(RegressionBasis, "design_matrix", near_collinear_at_step_4)
        gen = Recording(state_dim=1, brownian_dim=1, marks=unit_marks())
        before = threading.active_count()
        with pytest.raises(SolverError, match="design at step 4 is ill conditioned"):
            solve_backward(gen, brownian_terminal(), paths)
        assert threading.active_count() == before
        assert driven == [9, 8, 7, 6, 5]


def lockstep_problems():
    marks = unit_marks()
    affine = AffineGen(
        a=[[-0.3, 0.2], [0.1, 0.4]],
        b=[[[0.5], [0.0]], [[0.2], [-0.3]]],
        c=[[[0.3, 0.0], [0.1, -0.2]]],
        drift=[0.1, -0.2],
        brownian_dim=1,
        marks=marks,
    )
    pair = TerminalCondition(
        fn=lambda w, k: np.stack([w[:, 0], k[:, 0] - w[:, 0] ** 2], axis=1), state_dim=2
    )
    return [
        (ScaledJumpGen(2.0), count_terminal()),
        (ZeroGen(state_dim=1, brownian_dim=1, marks=marks), constant_terminal(0.0)),
        (affine, pair),
    ]


class TestCheckpointedBundle:
    """A drawn bundle stores every k-th node and the pass rebuilds the rest
    a segment at a time; a bundle built by hand stores every node."""

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 7, 9, 10, 12, 16, 17, 26])
    def test_pass_on_a_drawn_bundle_equals_the_pass_on_every_node_bit_for_bit(self, n_steps):
        # N = 1, k, k^2 and other N; the pass holds k rebuilt nodes, and
        # a schedule that asked for more would fail on an empty pool
        # d = 2, J = 2, uneven steps, paths 17 to 17 + 3000 of the streams
        d, marks, problems = layout_problems("affine")
        grid = TimeGrid(np.cumsum([0.0] + [0.05 + 0.02 * (i % 3) for i in range(n_steps)]))
        paths = simulate_paths(grid, marks, d, 3_000, seed=61, path_offset=17)
        brownian, count_nodes = node_stores(paths)
        dense = DrivingPaths(grid=grid, marks=marks, brownian=brownian, count_nodes=count_nodes)
        assert dense.stride == 1 and paths.stride == math.isqrt(n_steps - 1) + 1
        drawn_stores, stored_stores = Collector(), Collector()
        with np.errstate(all="ignore"), warnings_ignored():
            drawn = solve_backward_many(problems, paths, on_node=drawn_stores)
            stored = solve_backward_many(problems, dense, on_node=stored_stores)
        for name in ("y", "z", "u"):
            for mine, theirs in zip(getattr(drawn_stores, name), getattr(stored_stores, name)):
                assert mine.tobytes() == theirs.tobytes(), name
        for sol, ref in zip(drawn, stored):
            for name in ("y0", "y0_se"):
                assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
            assert (sol.seconds["redraw"] > 0.0) == (paths.stride > 1)

    def test_an_error_while_rebuilding_surfaces_and_leaves_no_thread(self, monkeypatch):
        # step 5 is the one step 0.15 wide; its draw is made again when the
        # pass rebuilds segment 1 (nodes 4 to 8, k = 4), and fails then
        grid = TimeGrid(np.cumsum([0.0] + [0.15 if i == 5 else 0.1 for i in range(10)]))
        paths = simulate_paths(grid, unit_marks(), 1, 2_000, seed=67)
        original = bsdelab.stochastic.poisson_counts

        def refused_at_step_5(u, mean):
            if abs(mean - 0.15) < 1e-9:
                raise ValueError("refused")
            return original(u, mean)

        monkeypatch.setattr(bsdelab.stochastic, "poisson_counts", refused_at_step_5)
        before = threading.active_count()
        with pytest.raises(ValueError, match="jump draw at step 5, atom 0: refused"):
            solve_backward(ScaledJumpGen(2.0), count_terminal(), paths)
        assert threading.active_count() == before
        # the conftest guard fails the test if the worker outlived the call

    def test_a_driver_that_reads_neither_integrand_fits_its_y_targets_only(self, monkeypatch):
        widths = []
        original = _StepRegression.fit

        def recorded(self, targets):
            widths.append(targets.shape[1])
            return original(self, targets)

        monkeypatch.setattr(_StepRegression, "fit", recorded)
        marks = unit_marks()
        paths = simulate(n_paths=2_000, n_steps=4, seed=71)
        problems = [(ScaledJumpGen(2.0), count_terminal()), (ZeroGen(1, 1, marks), constant_terminal(0.0))]
        # m (1 + d + J) = 3 targets for the jump driver, which reads u; y alone for the zero driver
        bare = Collector(integrands=False)
        sols = solve_backward_many(problems, paths, on_node=bare)
        assert widths == [3, 1] * 4
        assert bare.z[1] is None and bare.u[1] is None and bare.u[0].shape == (4, 2_000, 1, 1)
        # a callback that reads integrands has them fitted whatever the driver reads, with the same y
        widths.clear()
        stores = Collector()
        read = solve_backward_many(problems, paths, on_node=stores)
        assert widths == [3, 3] * 4
        assert np.all(stores.u[1] == 0.0)
        for sol, ref in zip(sols, read):
            assert np.allclose(sol.y0, ref.y0, rtol=0.0, atol=1e-15)


class TestLockstep:
    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_equals_separate_solves_bit_for_bit(self, mode):
        paths = simulate(n_paths=4_000, n_steps=10, seed=83)
        problems = lockstep_problems()
        stores = Collector()
        together = solve_backward_many(problems, paths, mode=mode, on_node=stores)
        assert len(together) == len(problems)
        for k, ((gen, terminal), sol) in enumerate(zip(problems, together)):
            own = Collector()
            alone = solve_backward(gen, terminal, paths, mode=mode, on_node=own)
            for name in ("y", "z", "u"):
                assert getattr(stores, name)[k].tobytes() == getattr(own, name)[0].tobytes(), name
            for name in ("y0", "y0_se"):
                assert getattr(sol, name).tobytes() == getattr(alone, name).tobytes(), name
            assert sol.regression == alone.regression
            assert sol.mode == mode and sol.paths is paths

    @pytest.mark.parametrize("reader", ["none", "values", "integrands", "truthy"])
    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_a_reader_moves_no_bit_of_a_problem_whose_driver_reads_its_integrands(self, mode, reader):
        # the jump and affine drivers read their integrands, so the pass fits
        # them whatever reads the nodes: no reader, a reader of the values
        # alone and one whose reads_integrands is merely truthy see the bits
        # of a reader of integrands.  The zero driver's z and u are fitted
        # only when read; its y fit then shares one product with them
        paths = simulate(n_paths=4_000, n_steps=10, seed=83)
        problems = lockstep_problems()
        ref = Collector()
        refs = solve_backward_many(problems, paths, mode=mode, on_node=ref)
        stores = None if reader == "none" else Collector(reader != "values")
        if reader == "truthy":
            stores.reads_integrands = 1
        sols = solve_backward_many(problems, paths, mode=mode, on_node=stores)
        for k, ((gen, _), sol, own) in enumerate(zip(problems, sols, refs)):
            assert ref.z[k].shape == (10, 4_000, gen.state_dim, 1)
            assert ref.u[k].shape == (10, 4_000, 1, gen.state_dim)
            assert (sol.n_paths, sol.state_dim) == (4_000, gen.state_dim)
            if stores is not None and reader == "values" and k == 1:
                assert stores.z[k] is None and stores.u[k] is None
            if k == 1:
                continue
            for name in ("y0", "y0_se"):
                assert getattr(sol, name).tobytes() == getattr(own, name).tobytes(), name
            assert sol.regression == own.regression
            if stores is not None:
                for name in ("y", "z", "u"):
                    assert getattr(stores, name)[k].tobytes() == getattr(ref, name)[k].tobytes(), name

    @pytest.mark.parametrize("attribute", [None, False, True], ids=["absent", "false", "true"])
    def test_the_pass_fits_the_integrands_its_drivers_or_its_callback_read(self, attribute):
        # the jump driver reads u and the affine one z and u; the zero
        # driver's are fitted only for a callback that says it reads them
        paths = simulate(n_paths=1_000, n_steps=4, seed=83)
        fitted = []

        def on_node(i, ys, zs, us):
            if zs is not None:
                fitted.append(([z is not None for z in zs], [u is not None for u in us]))

        if attribute is not None:
            on_node.reads_integrands = attribute
        solve_backward_many(lockstep_problems(), paths, on_node=on_node)
        want = [True, bool(attribute), True]
        assert fitted == [(want, want)] * 4

    @pytest.mark.parametrize("integrands", [False, True], ids=["y", "integrands"])
    def test_node_callback_sees_each_node_once_in_pass_order_read_only(self, integrands):
        # the jump driver reads u and the affine one z and u, so the pass
        # fits their integrands; the zero driver's only for a callback that
        # reads them
        paths = simulate(n_paths=2_000, n_steps=6, seed=83)
        problems = lockstep_problems()
        stores = Collector(integrands)
        sols = solve_backward_many(problems, paths, on_node=stores)
        seen = []

        def on_node(i, ys, zs, us):
            assert len(ys) == len(problems)
            blocks = list(ys)
            if i == 6:
                assert zs is None and us is None
            else:
                assert len(zs) == len(us) == len(problems)
                assert (zs[1] is None, us[1] is None) == (not integrands, not integrands)
                blocks += [b for b in (*zs, *us) if b is not None]
            for block in blocks:
                assert not block.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    block[0] = 0.0
            steps = [] if zs is None else [
                None if z is None else (z.tobytes(), u.tobytes()) for z, u in zip(zs, us)
            ]
            seen.append((i, [y.tobytes() for y in ys], steps))

        on_node.reads_integrands = integrands
        again = solve_backward_many(problems, paths, on_node=on_node)
        assert [i for i, _, _ in seen] == list(range(6, -1, -1))
        for i, nodes, steps in seen:
            assert nodes == [y[i].tobytes() for y in stores.y], i
            for k, step in enumerate(steps):
                if step is None:
                    assert stores.z[k] is None and stores.u[k] is None
                else:
                    assert step == (stores.z[k][i].tobytes(), stores.u[k][i].tobytes()), (i, k)
        for sol, ref in zip(again, sols):
            assert sol.y0.tobytes() == ref.y0.tobytes() and sol.y0_se.tobytes() == ref.y0_se.tobytes()

    def test_integrands_read_on_the_worker_are_not_overwritten_by_the_next_step(self, monkeypatch):
        # the driver's sleep lets the worker build the next design before the
        # step is done, so a node's call goes to the worker; the call then
        # sleeps before it copies, while this thread runs the next step,
        # which writes that step's integrands.  The z and u rings are two
        # deep, so it writes the other block
        class Slow(ZeroGen):
            def _eval(self, t, y, z, u):
                time.sleep(0.02)
                return np.zeros_like(y)

        marks = unit_marks()
        problems = [(ScaledJumpGen(2.0), count_terminal()), (Slow(1, 1, marks), brownian_terminal())]
        paths = simulate(n_paths=2_000, n_steps=8, seed=89)
        late, threads = Collector(), []

        def sleep_then_copy(i, ys, zs, us):
            threads.append(threading.current_thread())
            time.sleep(0.05)
            late(i, ys, zs, us)

        sleep_then_copy.reads_integrands = True
        solve_backward_many(problems, paths, on_node=sleep_then_copy)
        assert any(thread is not threading.current_thread() for thread in threads)
        # the reference copies at once on this thread: a pass that finds its
        # worker never done hands every node on this thread, before the next step
        at_once = Collector()
        monkeypatch.setattr(concurrent.futures.Future, "done", lambda self: False)
        solve_backward_many(problems, paths, on_node=at_once)
        for name in ("y", "z", "u"):
            for mine, theirs in zip(getattr(late, name), getattr(at_once, name)):
                assert mine.tobytes() == theirs.tobytes(), name

    def test_node_callback_error_ends_the_pass(self):
        paths = simulate(n_paths=1_000, n_steps=6, seed=83)
        seen = []

        def on_node(i, ys, zs, us):
            seen.append(i)
            if i == 4:
                raise ValueError("node 4 refused")

        before = threading.active_count()
        with pytest.raises(ValueError, match="node 4 refused"):
            solve_backward_many(lockstep_problems(), paths, on_node=on_node)
        assert seen == [6, 5, 4]
        assert threading.active_count() == before

    def test_node_n_is_refused_on_this_thread_before_the_second_step(self, monkeypatch):
        designs, threads = [], []
        original = RegressionBasis.design_matrix

        def counted(self, *blocks):
            designs.append([b.shape for b in blocks])
            return original(self, *blocks)

        def refuse(i, ys, zs, us):
            threads.append(threading.current_thread())
            raise ValueError(f"node {i} refused")

        monkeypatch.setattr(RegressionBasis, "design_matrix", counted)
        paths = simulate(n_paths=2_000, n_steps=6, seed=89)
        with pytest.raises(ValueError, match="node 6 refused"):
            solve_backward_many(lockstep_problems(), paths, on_node=refuse)
        # only the first step's design, built ahead, was made
        assert len(designs) == 1
        assert threads == [threading.current_thread()]

    def test_one_design_per_step_for_every_problem(self, monkeypatch):
        calls = []
        original = RegressionBasis.design_matrix

        def counted(self, *blocks):
            calls.append([b.shape for b in blocks])
            return original(self, *blocks)

        monkeypatch.setattr(RegressionBasis, "design_matrix", counted)
        paths = simulate(n_paths=2_000, n_steps=6, seed=89)
        solve_backward_many(lockstep_problems(), paths)
        assert len(calls) == 6

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_non_finite_driver_names_the_step_and_the_problem(self, mode):
        class NanLate(ZeroGen):
            def _eval(self, t, y, z, u):
                out = np.zeros_like(y)
                if t >= 0.5:
                    out[0] = np.nan
                return out

        paths = simulate(n_paths=500, n_steps=4, seed=61)
        problems = [
            (ScaledJumpGen(0.5), count_terminal()),
            (NanLate(state_dim=1, brownian_dim=1, marks=unit_marks()), brownian_terminal()),
        ]
        with pytest.raises(
            SolverError, match="driver of problem 1 returned non-finite values at step 3 on 1 paths"
        ):
            solve_backward_many(problems, paths, mode=mode)

    def test_per_problem_checks_name_the_problem(self):
        paths = simulate(n_paths=500, n_steps=4, seed=67)
        fine = (ScaledJumpGen(0.5), count_terminal())
        with pytest.raises(SolverError, match="problem 1 is not a contraction"):
            solve_backward_many(
                [fine, (ScaledJumpGen(5.0), count_terminal())], paths, mode="implicit"
            )
        wide = ZeroGen(state_dim=1, brownian_dim=2, marks=unit_marks())
        with pytest.raises(ValueError, match="problem 1 disagree on the Brownian dimension"):
            solve_backward_many([fine, (wide, count_terminal())], paths)
        pair = ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks())
        with pytest.raises(ValueError, match="terminal and driver of problem 1 disagree on the state dimension"):
            solve_backward_many([fine, (pair, count_terminal())], paths)
        with pytest.raises(ValueError, match="no problems"):
            solve_backward_many([], paths)


def layout_problems(case):
    if case == "scaled-jump":
        return 1, unit_marks(), [(ScaledJumpGen(2.0), count_terminal())]
    marks = FiniteMarkMeasure([[1.0], [-0.5]], [1.0, 0.7])
    affine = AffineGen(
        a=[[-0.3, 0.2], [0.1, 0.4]],
        b=[[[0.5, 0.1], [0.0, -0.2]], [[0.2, 0.0], [-0.3, 0.1]]],
        c=[[[0.3, 0.0], [0.1, -0.2]], [[0.0, 0.2], [-0.1, 0.1]]],
        drift=[0.1, -0.2],
        brownian_dim=2,
        marks=marks,
    )
    pair = TerminalCondition(
        fn=lambda w, k: np.stack([w[:, 0] + k[:, 1], k[:, 0] - w[:, 1] ** 2], axis=1),
        state_dim=2,
    )
    return 2, marks, [(affine, pair)]


class TestLayout:
    @pytest.mark.parametrize("case", ["scaled-jump", "affine"])
    def test_path_major_bundle_gives_the_same_bits(self, case):
        # the simulator stores its bundle time-major and contiguous; one built
        # by hand from path-major memory, viewed with the time-major shapes,
        # must solve to the same bytes
        d, marks, problems = layout_problems(case)
        paths = simulate(n_paths=3_000, n_steps=8, seed=97, d=d, marks=marks)
        brownian, count_nodes = (
            np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1) for a in node_stores(paths)
        )
        by_hand = DrivingPaths(grid=paths.grid, marks=marks, brownian=brownian, count_nodes=count_nodes)
        for a in (by_hand.brownian, by_hand.count_nodes):
            assert not a.flags.c_contiguous and a.swapaxes(0, 1).flags.c_contiguous
        for i in range(paths.grid.n_steps):
            assert np.array_equal(
                by_hand.segment(i).jump_increments(i), paths.segment(i // paths.stride).jump_increments(i)
            )
        hand_stores, drawn_stores = Collector(), Collector()
        sols = solve_backward_many(problems, by_hand, on_node=hand_stores)
        refs = solve_backward_many(problems, paths, on_node=drawn_stores)
        values = [(sol.y0, ref.y0) for sol, ref in zip(sols, refs)]
        values += [(sol.y0_se, ref.y0_se) for sol, ref in zip(sols, refs)]
        for name in ("y", "z", "u"):
            values += zip(getattr(hand_stores, name), getattr(drawn_stores, name))
        for mine, theirs in values:
            assert mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()


def zero_driver_pair(gen, paths, *also):
    """The :class:`DeviationCurves` of ``gen`` against the zero driver, both
    with the count payoff, solved in one pass; ``also`` are further node
    reducers, each fed the same nodes."""
    zero = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
    curves = DeviationCurves(paths.grid, paths.marks)

    def on_node(i, ys, zs, us):
        for reduce in (curves, *also):
            reduce(i, ys, zs, us)

    on_node.reads_integrands = True
    solve_backward_many([(gen, count_terminal()), (zero, count_terminal())], paths, on_node=on_node)
    return curves


def designs_made(monkeypatch):
    """The design matrices built from now on, each as its blocks' shapes."""
    designs = []
    original = RegressionBasis.design_matrix

    def counted(self, *blocks):
        designs.append([b.shape for b in blocks])
        return original(self, *blocks)

    monkeypatch.setattr(RegressionBasis, "design_matrix", counted)
    return designs


class TestDeviationDiagnostics:
    def test_linear_jump_driver_curve(self):
        paths = simulate(n_paths=30_000, n_steps=25, seed=61)
        curves = zero_driver_pair(ScaledJumpGen(0.5), paths)
        # value gap follows ((T - t)/2)^2; martingale integrands coincide
        for idx in (0, 5, 12):
            t = curves.times[idx]
            assert curves.value_gap[idx] == pytest.approx(
                (0.5 * (1.0 - t)) ** 2, rel=0.15, abs=1e-3
            )
        assert curves.z_tail[0] < 0.01
        assert curves.u_tail[0] < 0.01
        assert 0.15 < curves.linear_bound < 0.35

    def test_everything_vanishes_at_horizon(self):
        paths = simulate(n_paths=5_000, n_steps=8, seed=67)
        curves = zero_driver_pair(ScaledJumpGen(0.5), paths)
        assert curves.value_gap[-1] == 0.0
        assert curves.z_tail[-1] == 0.0
        assert curves.u_tail[-1] == 0.0
        assert curves.total[-1] == 0.0

    def test_zero_driver_has_zero_curve(self):
        paths = simulate(n_paths=5_000, n_steps=8, seed=71)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        curves = zero_driver_pair(gen, paths)
        assert np.allclose(curves.total, 0.0)
        assert curves.linear_bound == 0.0

    def test_curves_equal_the_whole_store_formula_bit_for_bit(self):
        # the formula over whole (N + 1) x n stores, as it read before the
        # curves became a reducer, on the nodes of the same pass
        paths = simulate(n_paths=5_000, n_steps=12, seed=73)
        stores = Collector()
        curves = zero_driver_pair(ScaledJumpGen(0.5), paths, stores)
        (y, base_y), (z, base_z), (u, base_u) = stores.y, stores.z, stores.u
        h = paths.grid.steps
        value_gap = np.mean(np.sum((y - base_y) ** 2, axis=2), axis=1)
        z_step = np.mean(np.sum((z - base_z) ** 2, axis=(2, 3)), axis=1) * h
        w = paths.marks.weights[None, None, :, None]
        u_step = np.mean(np.sum(w * (u - base_u) ** 2, axis=(2, 3)), axis=1) * h

        def tail(per_step):
            out = np.zeros(h.shape[0] + 1)
            out[:-1] = np.cumsum(per_step[::-1])[::-1]
            return out

        z_tail, u_tail = tail(z_step), tail(u_step)
        total = value_gap + z_tail + u_tail
        remaining = paths.grid.nodes[-1] - paths.grid.nodes[:-1]
        assert z_tail[0] > 0.0 and u_tail[0] > 0.0
        assert curves.times.tobytes() == paths.grid.nodes.tobytes()
        want = {"value_gap": value_gap, "z_tail": z_tail, "u_tail": u_tail, "total": total}
        for name, values in want.items():
            assert getattr(curves, name).tobytes() == values.tobytes(), name
        assert curves.linear_bound == float(np.max(total[:-1] / remaining))

    def test_solves_nothing(self, monkeypatch):
        # the curves reduce the nodes they are handed: fed a pass's collected
        # stores with no pass running, they equal the curves that pass fed
        paths = simulate(n_paths=2_000, n_steps=6, seed=73)
        stores = Collector()
        streamed = zero_driver_pair(ScaledJumpGen(0.5), paths, stores)

        def refuse(*args, **kwargs):
            raise AssertionError("the curves ran a backward pass")

        monkeypatch.setattr("bsdelab.solver.solve_backward_many", refuse)
        monkeypatch.setattr("bsdelab.solver.solve_backward", refuse)
        fed = DeviationCurves(paths.grid, paths.marks)
        for i in range(6, -1, -1):
            steps = (None, None) if i == 6 else (tuple(z[i] for z in stores.z), tuple(u[i] for u in stores.u))
            fed(i, tuple(y[i] for y in stores.y), *steps)
        for name in ("value_gap", "z_tail", "u_tail", "total"):
            assert getattr(fed, name).tobytes() == getattr(streamed, name).tobytes(), name
        assert fed.linear_bound == streamed.linear_bound and streamed.total[0] > 0.0

    def test_rejects_a_base_it_cannot_compare_at_node_n(self, monkeypatch):
        paths = simulate(n_paths=1_000, n_steps=4, seed=79)
        sol = (ScaledJumpGen(0.5), count_terminal())
        wide = (
            ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks()),
            TerminalCondition(fn=lambda w, k: np.zeros((w.shape[0], 2)), state_dim=2),
        )
        shifted = (ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks()), constant_terminal(1.0))
        designs = designs_made(monkeypatch)
        for base, match in ((wide, "state dimension"), (shifted, "terminal data")):
            designs.clear()
            with pytest.raises(ValueError, match=match):
                solve_backward_many([sol, base], paths, on_node=DeviationCurves(paths.grid, paths.marks))
            # only the first step's design, built ahead, was made
            assert len(designs) == 1, match
        assert zero_driver_pair(ScaledJumpGen(0.5), paths).total[-1] == 0.0

    def test_refuses_solutions_without_integrands(self):
        # a callback that feeds the curves but does not say it reads
        # integrands leaves the zero driver's unfitted: the first step ends
        # the pass
        paths = simulate(n_paths=1_000, n_steps=4, seed=79)
        zero = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        for gen in (ScaledJumpGen(0.5), zero):
            problems = [(gen, count_terminal()), (zero, count_terminal())]
            curves, seen = DeviationCurves(paths.grid, paths.marks), []

            def fan_out(i, ys, zs, us):
                seen.append(i)
                curves(i, ys, zs, us)

            with pytest.raises(ValueError, match="reads_integrands is true"):
                solve_backward_many(problems, paths, on_node=fan_out)
            assert seen == [4, 3]
