import numpy as np
import pytest

from bsdelab.generators import AffineGen, ScaledJumpGen, ZeroGen
from bsdelab.solver import (
    RegressionBasis,
    SolverError,
    TerminalCondition,
    _StepRegression,
    apriori_diagnostics,
    closed_form_linear,
    solve_backward,
)
from bsdelab.stochastic import FiniteMarkMeasure, TimeGrid, simulate_paths


def unit_marks():
    return FiniteMarkMeasure([[1.0]], [1.0])


def simulate(n_paths=20_000, n_steps=20, seed=7, d=1, marks=None):
    grid = TimeGrid.uniform(1.0, n_steps)
    return simulate_paths(grid, marks or unit_marks(), d, n_paths, seed)


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
        sol = solve_backward(gen, brownian_terminal(), paths)
        # Y_t = W_t lies in the basis span, so the fit is exact up to MC noise
        err = sol.y[:, :, 0] - paths.brownian[:, :, 0]
        assert np.sqrt(np.mean(err**2)) < 0.05
        assert abs(sol.y0[0]) < 3.0 * max(sol.y0_se[0], 1e-3)
        z_means = sol.z[:, :, 0, 0].mean(axis=0)
        assert np.all(np.abs(z_means - 1.0) < 0.15)
        assert np.sqrt(np.mean(sol.u**2)) < 0.15

    def test_recovers_compensated_count_martingale(self):
        paths = simulate(seed=9)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        sol = solve_backward(gen, count_terminal(), paths)
        horizon = paths.grid.horizon
        truth = paths.count_nodes[:, :, 0] + (horizon - paths.grid.nodes)[None, :]
        err = sol.y[:, :, 0] - truth
        assert np.sqrt(np.mean(err**2)) < 0.05
        u_means = sol.u[:, :, 0, 0].mean(axis=0)
        assert np.all(np.abs(u_means - 1.0) < 0.2)

    def test_quadratic_payoff_in_span(self):
        paths = simulate(seed=11)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        term = TerminalCondition(fn=lambda w, k: w[:, 0] ** 2, state_dim=1)
        sol = solve_backward(gen, term, paths)
        horizon = paths.grid.horizon
        truth = paths.brownian[:, :, 0] ** 2 + (horizon - paths.grid.nodes)[None, :]
        err = sol.y[:, :, 0] - truth
        assert np.sqrt(np.mean(err**2)) < 0.08


class TestLinearJumpScenarios:
    def test_half_strength_jump_driver(self):
        paths = simulate(n_paths=40_000, n_steps=25, seed=13)
        sol = solve_backward(ScaledJumpGen(0.5), count_terminal(), paths)
        assert sol.y0[0] == pytest.approx(0.5, abs=0.03)
        # closed form Y_t = N_t + (T - t)/2 holds pathwise
        i = 10
        t = paths.grid.nodes[i]
        truth = paths.count_nodes[:, i, 0] + 0.5 * (1.0 - t)
        assert np.sqrt(np.mean((sol.y[:, i, 0] - truth) ** 2)) < 0.05

    def test_double_strength_jump_driver(self):
        paths = simulate(n_paths=40_000, n_steps=25, seed=17)
        sol = solve_backward(ScaledJumpGen(2.0), count_terminal(), paths)
        assert sol.y0[0] == pytest.approx(-1.0, abs=0.05)

    def test_zero_terminal_stays_exactly_zero(self):
        paths = simulate(n_paths=5_000, n_steps=10, seed=19)
        sol = solve_backward(ScaledJumpGen(2.0), constant_terminal(0.0), paths)
        assert np.all(sol.y == 0.0)
        assert np.all(sol.z == 0.0)
        assert np.all(sol.u == 0.0)


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


class TestLinearClosedForm:
    def test_scalar_exponential_scaling(self):
        paths = simulate(n_paths=2_000, n_steps=10, seed=31)
        sol = closed_form_linear(np.array([[0.7]]), constant_terminal(3.0), paths)
        assert sol.y0[0] == pytest.approx(3.0 * np.exp(0.7), abs=1e-9)

    def test_zero_matrix_reduces_to_plain_conditional_expectation(self):
        paths = simulate(n_paths=5_000, n_steps=10, seed=37)
        base = solve_backward(
            ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks()), brownian_terminal(), paths
        )
        lin = closed_form_linear(np.zeros((1, 1)), brownian_terminal(), paths)
        assert np.allclose(lin.y, base.y)
        assert np.allclose(lin.z, base.z)

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
        z_means = closed.z[:, :, 0, 0].mean(axis=0)
        assert np.all(np.abs(z_means - expected) < 0.2)


class TestRegressionMachinery:
    def test_step_zero_design_collapses_to_constant(self):
        paths = simulate(n_paths=3_000, n_steps=5, seed=47)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        sol = solve_backward(gen, brownian_terminal(), paths)
        first = sol.regression[0]
        assert first.step == 0
        assert first.rank == 1
        assert first.condition == pytest.approx(1.0)
        assert np.ptp(sol.y[:, 0, 0]) < 1e-14

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


class TestDeviationDiagnostics:
    def test_linear_jump_driver_curve(self):
        paths = simulate(n_paths=30_000, n_steps=25, seed=61)
        sol = solve_backward(ScaledJumpGen(0.5), count_terminal(), paths)
        curves = apriori_diagnostics(sol, count_terminal())
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
        sol = solve_backward(ScaledJumpGen(0.5), count_terminal(), paths)
        curves = apriori_diagnostics(sol, count_terminal())
        assert curves.value_gap[-1] == 0.0
        assert curves.z_tail[-1] == 0.0
        assert curves.u_tail[-1] == 0.0
        assert curves.total[-1] == 0.0

    def test_zero_driver_has_zero_curve(self):
        paths = simulate(n_paths=5_000, n_steps=8, seed=71)
        gen = ZeroGen(state_dim=1, brownian_dim=1, marks=unit_marks())
        sol = solve_backward(gen, count_terminal(), paths)
        curves = apriori_diagnostics(sol, count_terminal())
        assert np.allclose(curves.total, 0.0)
        assert curves.linear_bound == 0.0
