import itertools

import numpy as np
import pytest
from conftest import Collector

from bsdelab.generators import (
    AffineGen,
    ProjectionDriftGen,
    ScaledJumpGen,
    ZeroGen,
    dependency_probe,
    evaluate,
    verify_lipschitz,
)
from bsdelab.geometry import Ball, Box, FinitePointSet, PsdCone, sym_to_vec
from bsdelab.solver import RegressionBasis, TerminalCondition, solve_backward
from bsdelab.stochastic import FiniteMarkMeasure, TimeGrid, jump_norm2, simulate_paths


def unit_marks():
    return FiniteMarkMeasure(atoms=[[1.0]], weights=[1.0])


class TestEvaluation:
    def test_zero_driver(self):
        gen = ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks())
        out = evaluate(gen, 0.3, [1.0, -2.0], [[0.5], [0.1]], [[1.0, 2.0]])
        assert np.array_equal(out, np.zeros(2))

    def test_scaled_jump_point_value(self):
        gen = ScaledJumpGen(0.5)
        out = evaluate(gen, 0.0, [3.0], [[0.0]], [[1.0]])
        assert out[0] == pytest.approx(-0.5)

    def test_projection_drift_vanishes_on_body(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        gen = ProjectionDriftGen(ball, brownian_dim=2, marks=unit_marks())
        inside = evaluate(gen, 0.0, [0.3, 0.1], np.zeros((2, 2)), np.zeros((1, 2)))
        outside = evaluate(gen, 0.0, [2.0, 0.0], np.zeros((2, 2)), np.zeros((1, 2)))
        assert np.allclose(inside, 0.0)
        assert np.allclose(outside, [1.0, 0.0])

    def test_projection_drift_refuses_a_body_that_is_not_convex(self):
        # nearest-point maps of nonconvex sets expand distances, so the
        # declared bound 2 would be false
        with pytest.raises(ValueError, match="convex body, got FinitePointSet"):
            ProjectionDriftGen(FinitePointSet([[-1.0], [1.0]]), brownian_dim=1, marks=unit_marks())

    def test_affine_contractions(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [2.0]], weights=[1.0, 2.0])
        m, d = 2, 2
        a = np.array([[1.0, 2.0], [0.0, -1.0]])
        b = np.zeros((m, m, d))
        b[0, 1, 1] = 3.0
        c = np.zeros((2, m, m))
        c[1, 0, 0] = 4.0
        gen = AffineGen(a, b, c, drift=[0.5, -0.5], brownian_dim=d, marks=marks)
        y = np.array([1.0, 1.0])
        z = np.array([[0.0, 0.0], [0.0, 2.0]])
        u = np.array([[0.0, 0.0], [1.5, 0.0]])
        out = evaluate(gen, 0.0, y, z, u)
        # component 0: (y0 + 2 y1) + 3 z[1,1] + 4 u[atom1, comp0] + 0.5
        assert out[0] == pytest.approx(3.0 + 6.0 + 6.0 + 0.5)
        assert out[1] == pytest.approx(-1.0 - 0.5)

    def test_time_dependent_drift(self):
        gen = AffineGen(
            np.zeros((1, 1)),
            np.zeros((1, 1, 1)),
            np.zeros((1, 1, 1)),
            drift=lambda t: np.array([2.0 * t]),
            brownian_dim=1,
            marks=unit_marks(),
        )
        assert evaluate(gen, 0.25, [0.0], [[0.0]], [[0.0]])[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("drift", [lambda t: np.ones(3), lambda t: 1.0], ids=["length-3", "scalar"])
    def test_callable_drift_of_another_shape_rejected_at_every_time(self, drift):
        # m = 2: a length-3 or scalar drift once broadcast, or paired its
        # values with the wrong rows, depending on how t was given
        gen = AffineGen(np.eye(2), np.zeros((2, 2, 1)), np.zeros((1, 2, 2)), drift, 1, unit_marks())
        y, z, u = np.zeros((4, 2)), np.zeros((4, 2, 1)), np.zeros((4, 1, 2))
        for t in (0.5, np.array([0.1, 0.2, 0.3, 0.4])):
            with pytest.raises(ValueError, match=r"drift at t = 0\.\d must have shape \(2,\), got"):
                gen(t, y, z, u)

    @pytest.mark.parametrize(
        "build",
        [
            lambda mk: AffineGen(1.0, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), [0.0], 1, mk),
            lambda mk: AffineGen(np.zeros((2, 3)), np.zeros((2, 2, 1)), np.zeros((1, 2, 2)), [0, 0], 1, mk),
            lambda mk: AffineGen(np.zeros((0, 0)), np.zeros((0, 0, 1)), np.zeros((1, 0, 0)), [], 1, mk),
            lambda mk: AffineGen(np.zeros((1, 1)), np.zeros((1, 1, 0)), np.zeros((1, 1, 1)), [0.0], 0, mk),
            lambda mk: ZeroGen(0, 1, mk),
            lambda mk: ZeroGen(1, 0, mk),
            lambda mk: ZeroGen(-1, 1, mk),
            lambda mk: ZeroGen(1, -1, mk),
            lambda mk: ProjectionDriftGen(Ball(center=[0.0], radius=1.0), 0, mk),
        ],
        ids=["scalar-a", "oblong-a", "empty-a", "affine-no-brownian", "zero-state", "zero-brownian",
             "negative-state", "negative-brownian", "projection-no-brownian"],
    )
    def test_non_square_state_coefficient_and_dimensions_below_one_rejected(self, build):
        with pytest.raises(ValueError, match="m x m with m >= 1|must be at least 1"):
            build(unit_marks())

    def test_shape_mismatch_rejected(self):
        gen = ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks())
        with pytest.raises(ValueError, match="shape"):
            gen(0.0, np.zeros((5, 3)), np.zeros((5, 2, 1)), np.zeros((5, 1, 2)))
        with pytest.raises(ValueError, match="shape"):
            gen(0.0, np.zeros((5, 2)), np.zeros((5, 2, 2)), np.zeros((5, 1, 2)))


class TestPerRowTimes:
    def _inputs(self, gen, n, seed):
        rng = np.random.default_rng(seed)
        m, d, j = gen.state_dim, gen.brownian_dim, gen.marks.n_atoms
        # repeated times, as in a climb round that shares one sample's t
        t = np.repeat(rng.uniform(0.0, 1.0, size=n // 3 + 1), 3)[:n]
        return t, rng.normal(size=(n, m)) * 3.0, rng.normal(size=(n, m, d)), rng.normal(size=(n, j, m))

    def _drivers(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]], weights=[1.0, 0.5])
        rng = np.random.default_rng(7)
        coeffs = (rng.normal(size=(2, 2)), rng.normal(size=(2, 2, 1)), rng.normal(size=(2, 2, 2)))
        return {
            "affine-callable-drift": AffineGen(
                *coeffs, drift=lambda t: np.array([np.sin(3.0 * t), t * t]), brownian_dim=1, marks=marks
            ),
            "affine-constant-drift": AffineGen(*coeffs, drift=[0.3, -0.2], brownian_dim=1, marks=marks),
            "projection-drift": ProjectionDriftGen(Ball(center=[0.0, 0.0], radius=1.0), 1, marks),
            "scaled-jump": ScaledJumpGen(0.7),
            "zero": ZeroGen(2, 1, marks),
        }

    @pytest.mark.parametrize("name", ["affine-callable-drift", "affine-constant-drift",
                                      "projection-drift", "scaled-jump", "zero"])
    def test_time_array_matches_per_row_scalar_calls(self, name):
        gen = self._drivers()[name]
        t, y, z, u = self._inputs(gen, 31, seed=11)
        out = gen(t, y, z, u)
        rows = np.stack([gen(float(t[i]), y[i : i + 1], z[i : i + 1], u[i : i + 1])[0] for i in range(len(t))])
        assert out.tobytes() == rows.tobytes()

    def test_callable_drift_called_once_per_distinct_time(self):
        seen = []

        def drift(t):
            seen.append(t)
            return np.array([t, -t])

        marks = unit_marks()
        gen = AffineGen(np.eye(2), np.zeros((2, 2, 1)), np.zeros((1, 2, 2)), drift, 1, marks)
        t, y, z, u = self._inputs(gen, 12, seed=3)
        gen(t, y, z, u)
        assert sorted(seen) == sorted(set(t.tolist()))
        assert all(type(s) is float for s in seen)

    def test_affine_rows_do_not_depend_on_the_batch(self):
        # BLAS picks gemv for one row and gemm for many; the driver must not
        gen = self._drivers()["affine-constant-drift"]
        _, y, z, u = self._inputs(gen, 30, seed=5)
        out = gen(0.4, y, z, u)
        alone = np.stack([gen(0.4, y[i : i + 1], z[i : i + 1], u[i : i + 1])[0] for i in range(30)])
        assert out.tobytes() == alone.tobytes()

    def test_affine_rows_do_not_depend_on_the_batch_on_raw_sym_to_vec_rows(self):
        # matrix states as the matrix sampler and climb hand them on
        rng = np.random.default_rng(13)
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]], weights=[1.0, 0.5])
        gen = AffineGen(
            rng.normal(size=(3, 3)), rng.normal(size=(3, 3, 1)), rng.normal(size=(2, 3, 3)),
            drift=[0.3, -0.2, 0.1], brownian_dim=1, marks=marks,
        )

        def sym(*lead):
            g = rng.normal(size=lead + (2, 2))
            return sym_to_vec(g + np.swapaxes(g, -1, -2))

        n = 40
        y, z, u = sym(n), sym(n)[:, :, None], sym(n, 2)
        out = gen(0.4, y, z, u)
        alone = np.stack([gen(0.4, y[i : i + 1], z[i : i + 1], u[i : i + 1])[0] for i in range(n)])
        assert out.tobytes() == alone.tobytes()

    def test_time_array_of_wrong_shape_rejected(self):
        gen = ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks())
        with pytest.raises(ValueError, match="driver time t"):
            gen(np.zeros(4), np.zeros((5, 2)), np.zeros((5, 2, 1)), np.zeros((5, 1, 2)))


def _every_block(gen, t, y, z, u):
    """Reference affine value: every block contracted, all-zero or not."""
    out = np.einsum("kl,nl->nk", gen.a, y)
    out += np.einsum("kij,nij->nk", gen.b, z)
    out += np.einsum("jkl,njl->nk", gen.c, u)
    return out + gen._drift_at(t)


class TestLiveBlocks:
    """``AffineGen`` contracts only its blocks with a nonzero entry."""

    @pytest.mark.parametrize("m,d,j", [(1, 1, 1), (2, 1, 1), (3, 2, 2)])
    def test_skipped_zero_blocks_keep_every_bit(self, m, d, j):
        rng = np.random.default_rng(100 * m + 10 * d + j)
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]][:j], weights=[1.0, 0.5][:j])
        n = 12
        t_rows = np.repeat(rng.uniform(0.0, 1.0, size=4), 3)
        y, z, u = rng.normal(size=(n, m)), rng.normal(size=(n, m, d)), rng.normal(size=(n, j, m))
        # rows with every input zero, and rows with one input block zero
        y[:2], z[:2], u[:2] = 0.0, 0.0, 0.0
        y[2], z[3], u[4] = 0.0, 0.0, 0.0
        full = (rng.normal(size=(m, m)), rng.normal(size=(m, m, d)), rng.normal(size=(j, m, m)))
        if m > 1:
            for coef in full:
                coef[..., 0, :] = 0.0  # a zero row within a live block
        drifts = (np.zeros(m), rng.normal(size=m), lambda t: np.sin(t + np.arange(m)))
        checked = 0
        for live in itertools.product((False, True), repeat=3):
            coefs = [c if keep else np.zeros_like(c) for c, keep in zip(full, live)]
            for drift in drifts:
                gen = AffineGen(*coefs, drift=drift, brownian_dim=d, marks=marks)
                assert len(gen._live) == sum(live)
                for t in (0.3, t_rows):
                    out = gen(t, y, z, u)
                    assert out.tobytes() == _every_block(gen, t, y, z, u).tobytes()
                    checked += 1
                empty = gen(t_rows[:0], y[:0], z[:0], u[:0])
                assert empty.shape == (0, m)
        assert checked == 8 * 3 * 2

    def test_linear_drivers_have_no_evaluation_of_their_own(self):
        for cls in (ZeroGen, ScaledJumpGen):
            assert issubclass(cls, AffineGen)
            assert "__init__" in vars(cls) and "_eval" not in vars(cls) and "lipschitz" not in vars(cls)

    def test_scaled_jump_is_minus_scale_times_the_first_atom(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]], weights=[1.0, 0.5])
        gen = ScaledJumpGen(1.7, marks)
        assert isinstance(gen, AffineGen)
        assert gen._live == [(2, "jkl,njl->nk", gen.c)] and not gen._drift_live
        rng = np.random.default_rng(29)
        n = 50
        u = rng.normal(size=(n, 2, 1))
        u[:5] = 0.0
        out = gen(rng.uniform(size=n), rng.normal(size=(n, 1)), rng.normal(size=(n, 1, 1)), u)
        assert np.array_equal(out, -1.7 * u[:, 0])
        # where u = 0 the product -1.7 * u is -0.0; the contraction sums from +0.0
        assert not np.signbit(out[:5]).any()

    def test_zero_driver_contracts_nothing(self):
        gen = ZeroGen(2, 2, unit_marks())
        assert gen._live == [] and not gen._drift_live and gen.lipschitz == 0.0
        out = gen(0.1, np.full((3, 2), -1.0), np.ones((3, 2, 2)), np.ones((3, 1, 2)))
        assert out.tobytes() == np.zeros((3, 2)).tobytes()


class RowByRowProjectionDrift(ProjectionDriftGen):
    """Reference driver: projects one row at a time, each as a one-row batch."""

    def _eval(self, t, y, z, u):
        return y - np.array([self.body.project_batch(row[None])[0] for row in y])


class TestBatchedProjectionDrift:
    def test_backward_solve_matches_row_by_row_driver_bytes(self):
        disc = Ball(center=[0.0, 0.0], radius=1.0)
        paths = simulate_paths(TimeGrid.uniform(1.0, 10), unit_marks(), 1, 2000, seed=5)
        # terminal points straddle the circle, so both projection branches run
        terminal = TerminalCondition(
            lambda w, n: np.stack([1.3 * np.cos(w[:, 0]) + 0.2 * n[:, 0], np.sin(w[:, 0])], axis=1),
            state_dim=2,
        )
        stores = [Collector(), Collector()]
        batched, reference = (
            solve_backward(gen_cls(disc, 1, unit_marks()), terminal, paths, basis=RegressionBasis(2), on_node=kept)
            for gen_cls, kept in zip((ProjectionDriftGen, RowByRowProjectionDrift), stores)
        )
        assert batched.y0.tobytes() == reference.y0.tobytes()
        for name in ("y", "z", "u"):
            mine, theirs = (getattr(kept, name)[0] for kept in stores)
            assert mine.tobytes() == theirs.tobytes(), name

    def test_psd_cone_bundle_matches_pointwise_evaluation(self):
        cone = PsdCone(2)
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]], weights=[1.0, 0.5])
        gen = ProjectionDriftGen(cone, brownian_dim=1, marks=marks)
        rng = np.random.default_rng(83)
        n = 300
        y = rng.uniform(-3.0, 3.0, size=(n, cone.dim))
        y[:3] = [sym_to_vec(np.diag([1.0, 0.0])), np.zeros(3), sym_to_vec(-np.eye(2))]
        z = rng.normal(size=(n, cone.dim, 1))
        u = rng.normal(size=(n, 2, cone.dim))
        out = gen(0.4, y, z, u)
        pointwise = np.stack([evaluate(gen, 0.4, y[i], z[i], u[i]) for i in range(n)])
        assert np.array_equal(out, pointwise)
        reference = RowByRowProjectionDrift(cone, brownian_dim=1, marks=marks)
        assert np.array_equal(out, reference(0.4, y, z, u))


def _dense_affine():
    rng = np.random.default_rng(7)
    marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[0.5, 2.0])
    m, d = 3, 2
    return AffineGen(
        rng.normal(size=(m, m)),
        rng.normal(size=(m, m, d)),
        rng.normal(size=(2, m, m)),
        drift=rng.normal(size=m),
        brownian_dim=d,
        marks=marks,
    )


class TestLipschitz:
    def test_zero_driver_passes_with_zero_estimate(self):
        gen = ZeroGen(state_dim=2, brownian_dim=1, marks=unit_marks())
        report = verify_lipschitz(gen, n_pairs=200, seed=1)
        assert report.passed
        assert report.estimate == 0.0

    def test_scaled_jump_estimate_tight_from_below(self):
        gen = ScaledJumpGen(2.0)
        report = verify_lipschitz(gen, n_pairs=2000, seed=2)
        assert report.passed
        assert 1.9 <= report.estimate <= 2.0 + 1e-9

    def test_subunit_weight_inflates_constant(self):
        marks = FiniteMarkMeasure(atoms=[[1.0]], weights=[0.25])
        gen = ScaledJumpGen(1.0, marks=marks)
        # intensity norm shrinks u by sqrt(0.25), so the ratio doubles
        assert gen.lipschitz == pytest.approx(2.0)
        report = verify_lipschitz(gen, n_pairs=2000, seed=3)
        assert report.passed

    def test_scaled_jump_bound_is_tight_above_unit_weight(self):
        # the intensity norm weighs u by sqrt(4) = 2, so |f| grows at half
        # the rate of that norm; max(1, 1/sqrt(n_1)) would declare 1
        marks = FiniteMarkMeasure(atoms=[[1.0]], weights=[4.0])
        gen = ScaledJumpGen(1.0, marks=marks)
        assert gen.lipschitz == 0.5
        report = verify_lipschitz(gen, n_pairs=2000, seed=3)
        assert report.passed
        assert report.estimate >= 0.475

    def test_projection_drift_within_declared_bound(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        gen = ProjectionDriftGen(ball, brownian_dim=1, marks=unit_marks())
        report = verify_lipschitz(gen, n_pairs=500, seed=4)
        assert report.passed
        assert report.estimate <= 2.0 + 1e-9

    def test_affine_norm_bound_holds(self):
        report = verify_lipschitz(_dense_affine(), n_pairs=3000, seed=8)
        assert report.passed

    def test_estimates_keep_their_bits(self):
        # pinned from the pair-by-pair loop: the batched probe draws the
        # same values in the same order and measures the same gaps
        # (the jump pairs' ratio reads the u gap as (u1 + du) - u1, not du)
        ball = ProjectionDriftGen(Ball(center=[0.0, 0.0], radius=1.0), brownian_dim=1, marks=unit_marks())
        assert verify_lipschitz(ball, n_pairs=500, seed=4).estimate == 0.9999841491794597
        assert verify_lipschitz(ScaledJumpGen(1.5), n_pairs=300, seed=1).estimate == 1.5000000000024813
        assert verify_lipschitz(_dense_affine(), n_pairs=3000, seed=8).estimate == 3.6377332898176222

    def test_no_pairs_give_a_zero_estimate(self):
        # the two driver calls see empty batches, per-row times included
        gen = AffineGen(
            np.eye(1), np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
            drift=lambda t: np.array([t]), brownian_dim=1, marks=unit_marks(),
        )
        report = verify_lipschitz(gen, n_pairs=0)
        assert report.estimate == 0.0 and report.passed

    def test_underdeclared_bound_fails(self):
        gen = ScaledJumpGen(2.0)
        gen.lipschitz = 1.0
        report = verify_lipschitz(gen, n_pairs=500, seed=9)
        assert not report.passed


class TestDependencyProbe:
    def test_scaled_jump_depends_only_on_first_atom(self):
        report = dependency_probe(ScaledJumpGen(1.5))
        assert report.y_slots[0] == frozenset()
        assert report.z_slots[0] == frozenset()
        assert report.u_slots[0] == frozenset({(0, 0)})
        assert not report.time

    def test_zero_driver_depends_on_nothing(self):
        gen = ZeroGen(state_dim=2, brownian_dim=2, marks=unit_marks())
        report = dependency_probe(gen)
        for k in range(2):
            assert report.y_slots[k] == frozenset()
            assert report.z_slots[k] == frozenset()
            assert report.u_slots[k] == frozenset()

    def test_affine_structure_recovered(self):
        marks = unit_marks()
        m, d = 2, 2
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.zeros((m, m, d))
        b[0, 0, 1] = 1.0
        b[1, 1, 0] = 1.0
        c = np.zeros((1, m, m))
        c[0, 1, 1] = 1.0
        gen = AffineGen(a, b, c, drift=[0.0, 0.0], brownian_dim=d, marks=marks)
        report = dependency_probe(gen)
        assert report.y_slots[0] == frozenset({1})
        assert report.y_slots[1] == frozenset()
        assert report.z_slots[0] == frozenset({(0, 1)})
        assert report.z_slots[1] == frozenset({(1, 0)})
        assert report.z_rows(0) == frozenset({0})
        assert report.u_slots[0] == frozenset()
        assert report.u_slots[1] == frozenset({(0, 1)})
        assert report.u_components(1) == frozenset({1})

    def test_time_dependence_flagged(self):
        gen = AffineGen(
            np.zeros((1, 1)),
            np.zeros((1, 1, 1)),
            np.zeros((1, 1, 1)),
            drift=lambda t: np.array([t]),
            brownian_dim=1,
            marks=unit_marks(),
        )
        assert dependency_probe(gen).time

    def test_draw_dependent_reports_keep_their_slots(self):
        # pinned from the point-by-point loop: which slots move depends on
        # where the probe's base points and steps fall
        box = Box(np.full(3, -4.5), np.full(3, 4.5))
        clipped = ProjectionDriftGen(box, brownian_dim=1, marks=unit_marks())
        late = AffineGen(
            np.zeros((1, 1)), np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
            drift=lambda t: np.array([max(t - 1.2, 0.0)]), brownian_dim=1, marks=unit_marks(),
        )
        slots = [dependency_probe(clipped, seed=seed).y_slots for seed in (0, 1, 2)]
        assert slots == [
            (frozenset(), frozenset({1}), frozenset({2})),
            (frozenset({0}), frozenset({1}), frozenset({2})),
            (frozenset(), frozenset(), frozenset({2})),
        ]
        assert [dependency_probe(late, seed=seed).time for seed in (0, 1, 2)] == [True, False, True]


def built_in_drivers():
    """Every built-in driver kind, with each pattern of live z and u blocks."""
    marks = FiniteMarkMeasure(atoms=[[1.0], [-1.0]], weights=[1.0, 0.5])
    m, d = 2, 2
    a = np.array([[0.3, -0.1], [0.2, 0.0]])
    b = np.zeros((m, m, d))
    b[1, 0, 1] = 0.4
    c = np.zeros((2, m, m))
    c[1, 0, 1] = -0.7
    none_b, none_c = np.zeros_like(b), np.zeros_like(c)
    return {
        "zero": ZeroGen(m, d, marks),
        "scaled-jump": ScaledJumpGen(1.5),
        "affine-y": AffineGen(a, none_b, none_c, [0.1, 0.0], d, marks),
        "affine-z": AffineGen(a, b, none_c, [0.0, 0.0], d, marks),
        "affine-u": AffineGen(np.zeros((m, m)), none_b, c, lambda t: np.array([t, 0.0]), d, marks),
        "affine-zu": AffineGen(a, b, c, [0.0, 0.0], d, marks),
        "drift-ball": ProjectionDriftGen(Ball([0.0, 0.0], 1.0), d, marks),
        "drift-psd": ProjectionDriftGen(PsdCone(2), 1, unit_marks()),
        "drift-box": ProjectionDriftGen(Box([-1.0, 0.0], [1.0, 2.0]), d, marks),
    }


class TestDeclaredReads:
    @pytest.mark.parametrize("name", list(built_in_drivers()))
    def test_declared_reads_match_the_dependency_probe(self, name):
        gen = built_in_drivers()[name]
        report = dependency_probe(gen)
        m = gen.state_dim
        assert type(gen.reads_z) is bool and type(gen.reads_u) is bool
        assert gen.reads_z == any(report.z_slots[k] for k in range(m))
        assert gen.reads_u == any(report.u_slots[k] for k in range(m))


class TestDeclaredBounds:
    def test_scaled_jump_constant_with_unit_weight(self):
        assert ScaledJumpGen(2.0).lipschitz == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_scaled_jump_scale_must_be_finite(self, scale):
        with pytest.raises(ValueError, match="finite"):
            ScaledJumpGen(scale)

    @pytest.mark.parametrize("name", ["a", "b", "c", "drift"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_affine_coefficients_must_be_finite(self, name, bad):
        coefs = {"a": np.zeros((2, 2)), "b": np.zeros((2, 2, 1)), "c": np.zeros((1, 2, 2)),
                 "drift": np.zeros(2)}
        coefs[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"coefficient {name} must be finite"):
            AffineGen(**coefs, brownian_dim=1, marks=unit_marks())

    def test_affine_bound_dominates_sampled_ratios(self):
        rng = np.random.default_rng(11)
        marks = FiniteMarkMeasure(atoms=[[1.0]], weights=[0.5])
        gen = AffineGen(
            rng.normal(size=(2, 2)),
            rng.normal(size=(2, 2, 1)),
            rng.normal(size=(1, 2, 2)),
            drift=[0.0, 0.0],
            brownian_dim=1,
            marks=marks,
        )
        for _ in range(300):
            du = rng.normal(size=(1, 2))
            df = evaluate(gen, 0.0, [0.0, 0.0], np.zeros((2, 1)), du) - evaluate(
                gen, 0.0, [0.0, 0.0], np.zeros((2, 1)), np.zeros((1, 2))
            )
            denom = np.sqrt(jump_norm2(du, marks))
            assert np.linalg.norm(df) <= gen.lipschitz * denom * (1 + 1e-9)
