import dataclasses

import numpy as np
import pytest
from conftest import Collector
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _random_affine_pair
from test_geometry import bodies_for_properties

import bsdelab.conditions
from bsdelab.conditions import (
    ComparisonPathReport,
    ConditionSampler,
    ConditionVerdict,
    SampleBatch,
    StackedGenerator,
    ViabilityPathReport,
    check_comparison_m1,
    check_comparison_matrix,
    check_comparison_multidim,
    check_structural,
    check_viability_condition,
    check_viability_empirical,
    comparison_lhs_rhs,
    empirical_comparison,
    matrix_lhs_rhs,
    stacked_reduction,
    viability_lhs_rhs,
)
from bsdelab.conditions import (
    _REFINE_ROUNDS,
    _SLOTS,
    _ComparisonInequality,
    _QuadraticClause,
    _ViabilityInequality,
    _monotone_gaps,
    _run_certification,
)
from bsdelab.generators import AffineGen, Generator, ProjectionDriftGen, ScaledJumpGen, ZeroGen
from bsdelab.geometry import (
    Ball, Box, FinitePointSet, HalfspaceIntersection, OrthantProduct, PsdCone, sym_to_vec, vec_to_sym,
)
from bsdelab.solver import RegressionBasis, TerminalCondition, solve_backward, solve_backward_many
from bsdelab.stochastic import FiniteMarkMeasure, TimeGrid, simulate_paths

MARKS1 = FiniteMarkMeasure([[1.0]], [1.0])
MARKS2 = FiniteMarkMeasure([[1.0], [-1.0]], [1.0, 0.5])


def _affine_m2(a=None, b=None, c=None, drift=None):
    m = 2
    a = np.zeros((m, m)) if a is None else np.asarray(a, float)
    b = np.zeros((m, m, 1)) if b is None else np.asarray(b, float)
    c = np.zeros((1, m, m)) if c is None else np.asarray(c, float)
    drift = np.zeros(m) if drift is None else np.asarray(drift, float)
    return AffineGen(a, b, c, drift, brownian_dim=1, marks=MARKS1)


# ---------------------------------------------------------------------------
# pointwise formula values


def test_viability_values_on_ball_point():
    ball = Ball(np.zeros(2), 1.0)
    gen = ZeroGen(2, 2, MARKS2)
    sample = SampleBatch(
        t=np.array([0.3]), y=np.array([[2.0, 0.0]]), z=np.eye(2)[None], u=np.zeros((1, 2, 2))
    )
    (lhs,), (rhs,) = viability_lhs_rhs(gen, ball, sample, constant=5.0)
    # Hessian at radius 2 is diag(2, 1); columns give 2 + 1, distance^2 is 1
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(3.0 + 5.0, abs=1e-12)


def test_comparison_values_on_jump_pair():
    g = ScaledJumpGen(2.0)
    eps, du = 0.01, 2.0
    sample = SampleBatch(
        t=np.array([0.0]),
        y=np.array([[-eps]]),
        z=np.array([[[0.5]]]),
        u=np.array([[[du]]]),
        y_prime=np.array([[0.3]]),
        z_prime=np.array([[[0.5]]]),
        u_prime=np.array([[[0.0]]]),
    )
    (lhs,), (rhs,) = comparison_lhs_rhs(g, g, sample, constant=7.0)
    assert lhs == pytest.approx(8.0 * eps * du, rel=1e-12)
    assert rhs == pytest.approx(4.0 * eps * du - 2.0 * eps**2 + 7.0 * eps**2, rel=1e-12)


def test_matrix_values_on_diagonal_point():
    zero = ZeroGen(3, 1, MARKS1)
    y = sym_to_vec(np.diag([1.0, -0.4]))
    sample = SampleBatch(
        t=np.zeros(1), y=y[None], z=np.zeros((1, 3, 1)), u=np.zeros((1, 1, 3)),
        y_prime=np.zeros((1, 3)), z_prime=np.zeros((1, 3, 1)), u_prime=np.zeros((1, 1, 3)),
    )
    (lhs,), (rhs,) = matrix_lhs_rhs(zero, zero, 2, sample, constant=3.0)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(3.0 * 0.16, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_comparison_right_side_never_negative(seed):
    g = ScaledJumpGen(1.3)
    samples = ConditionSampler(1, 1, 1, seed).pair(5)
    _, rhs0 = comparison_lhs_rhs(g, g, samples, constant=0.0)
    assert np.all(rhs0 >= -1e-12)


# ---------------------------------------------------------------------------
# viability certification


def test_projection_drift_certified_on_ball():
    ball = Ball(np.zeros(2), 1.0)
    gen = ProjectionDriftGen(ball, brownian_dim=2, marks=MARKS2)
    verdict = check_viability_condition(gen, ball, n_samples=1500, seed=0)
    assert verdict.certified
    assert 4.0 - 1e-9 <= verdict.constant <= 4.01


def test_projection_drift_certified_on_box():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    gen = ProjectionDriftGen(box, brownian_dim=2, marks=MARKS2)
    verdict = check_viability_condition(gen, box, n_samples=1500, seed=3)
    assert verdict.certified
    assert verdict.constant <= 4.01


def test_projection_drift_certified_on_psd_cone():
    cone = PsdCone(2)
    gen = ProjectionDriftGen(cone, brownian_dim=1, marks=MARKS1)
    verdict = check_viability_condition(gen, cone, n_samples=1200, seed=0)
    assert verdict.certified
    assert 4.0 - 1e-9 <= verdict.constant <= 4.01


def test_projection_drift_certified_on_polygon():
    # the criterion-6 polygon: five facets, one of them oblique
    polygon = HalfspaceIntersection(
        normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
        offsets=[1.5, 1.5, 1.0, 1.2, 1.8],
    )
    gen = ProjectionDriftGen(polygon, brownian_dim=2, marks=MARKS2)
    verdict = check_viability_condition(gen, polygon, n_samples=400, seed=0)
    assert not verdict.falsified or verdict.replay()["violated"]
    assert verdict.certified, verdict.detail
    assert 4.0 - 1e-9 <= verdict.constant <= 4.01


def test_zero_driver_certified_with_zero_constant():
    ball = Ball(np.zeros(2), 1.0)
    verdict = check_viability_condition(ZeroGen(2, 2, MARKS2), ball, n_samples=800, seed=2)
    assert verdict.certified
    assert verdict.constant == pytest.approx(0.0, abs=1e-12)


def test_outward_push_falsified_with_replayable_witness():
    ball = Ball(np.zeros(2), 1.0)
    gen = AffineGen(
        np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
        np.array([1.0, 0.0]), brownian_dim=2, marks=MARKS2,
    )
    verdict = check_viability_condition(gen, ball, n_samples=1500, seed=1)
    assert verdict.falsified
    assert verdict.margin > 1e-9
    replay = verdict.replay()
    assert replay["violated"]
    assert replay["lhs"] > replay["rhs"] + 1e-9


def test_undersized_constant_cap_reports_inconclusive_not_falsified():
    # the projection drift needs constant 4; a cap of 2 is a search
    # limitation, not a counterexample
    ball = Ball(np.zeros(2), 1.0)
    gen = ProjectionDriftGen(ball, brownian_dim=2, marks=MARKS2)
    verdict = check_viability_condition(gen, ball, n_samples=1000, seed=5, c_max=2.0)
    assert verdict.outcome == "inconclusive"
    assert verdict.constant > 2.0


# ---------------------------------------------------------------------------
# scalar comparison


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0])
def test_scalar_comparison_certifies_dominated_jump_scales(scale):
    g = ScaledJumpGen(scale)
    verdict = check_comparison_m1(g, g, n_samples=1500, seed=0)
    assert verdict.certified


@pytest.mark.parametrize("scale", [1.5, 2.0])
def test_scalar_comparison_falsifies_oversized_jump_scales(scale):
    g = ScaledJumpGen(scale)
    verdict = check_comparison_m1(g, g, n_samples=1500, seed=0)
    assert verdict.falsified
    assert verdict.replay()["violated"]


def test_scalar_comparison_sharpens_the_sampled_row_once():
    # the smallest sampled gap is sharpened by scaling its jump gap by 2, 4
    # and 8; the scales do not compound
    g = ScaledJumpGen(2.0)
    verdict = check_comparison_m1(g, g, n_samples=1500, seed=0)
    samples = ConditionSampler(1, 1, 1, seed=0).pair(1500, jumps="ordered")
    sampled = samples.take([int(np.argmin(_monotone_gaps(g, g, samples)))])
    witness = verdict.witness
    assert np.allclose(witness.u - witness.u_prime, 8.0 * (sampled.u[0] - sampled.u_prime[0]), rtol=1e-12, atol=0.0)
    assert verdict.replay()["violated"]


def test_scalar_comparison_rejects_multidimensional_drivers():
    gen = _affine_m2()
    with pytest.raises(ValueError, match="one-dimensional"):
        check_comparison_m1(gen, gen)


def test_comparison_rejects_mismatched_noise():
    with pytest.raises(ValueError, match="same noise"):
        check_comparison_m1(ScaledJumpGen(0.5, MARKS1), ScaledJumpGen(0.5, FiniteMarkMeasure([[2.0]], [1.0])))


# ---------------------------------------------------------------------------
# multidimensional comparison


@pytest.mark.parametrize("scale,expected", [(0.5, "certified"), (1.0, "certified"), (2.0, "falsified")])
def test_multidim_comparison_matches_jump_threshold(scale, expected):
    g = ScaledJumpGen(scale)
    verdict = check_comparison_multidim(g, g, n_samples=1500, seed=0, c_max=50.0)
    assert verdict.outcome == expected
    assert not verdict.falsified or verdict.replay()["violated"]


def test_multidim_certified_constant_is_modest_for_half_scale():
    g = ScaledJumpGen(0.5)
    verdict = check_comparison_multidim(g, g, n_samples=1500, seed=0, c_max=50.0)
    assert verdict.certified
    assert verdict.constant <= 2.0 + 1e-9


def test_multidim_falsifies_negative_state_coupling():
    f2 = _affine_m2(a=[[0.0, 0.5], [0.5, 0.0]])
    f1 = _affine_m2(a=[[0.0, -2.0], [0.5, 0.0]], drift=[0.5, 0.5])
    verdict = check_comparison_multidim(f1, f2, n_samples=1500, seed=4, c_max=500.0)
    assert verdict.falsified
    assert verdict.replay()["violated"]


def test_multidim_certifies_dominating_shift():
    base = dict(a=[[-0.3, 0.2], [0.1, -0.5]], b=np.zeros((2, 2, 1)), c=np.zeros((1, 2, 2)))
    f2 = _affine_m2(**base)
    f1 = _affine_m2(**base, drift=[0.7, 0.2])
    verdict = check_comparison_multidim(f1, f2, n_samples=1500, seed=6, c_max=500.0)
    assert verdict.certified


# ---------------------------------------------------------------------------
# structural sufficient conditions


def _structural_base():
    a = [[-0.3, 0.2], [0.1, -0.5]]
    b = np.zeros((2, 2, 1))
    b[0, 0, 0], b[1, 1, 0] = 0.7, -0.4
    c = np.zeros((1, 2, 2))
    c[0, 0, 0], c[0, 1, 1] = -0.5, 0.3
    return a, b, c


def test_structural_certifies_diagonal_monotone_driver():
    a, b, c = _structural_base()
    report = check_structural(_affine_m2(a, b, c), n_samples=800, seed=0)
    assert report.passed
    assert report.diagonal_z
    assert report.monotone.certified
    assert report.quadratic.certified
    assert report.quadratic_implied


def test_structural_flags_off_diagonal_z_dependence():
    a, b, c = _structural_base()
    b = b.copy()
    b[0, 1, 0] = 0.5
    report = check_structural(_affine_m2(a, b, c), n_samples=800, seed=0)
    assert report.outcome == "falsified"
    assert not report.diagonal_z
    assert (0, (1, 0)) in report.offending_z_slots


def test_structural_flags_oversized_jump_coefficient():
    a, b, c = _structural_base()
    c = c.copy()
    c[0, 0, 0] = -2.0
    report = check_structural(_affine_m2(a, b, c), n_samples=800, seed=0)
    assert report.outcome == "falsified"
    assert report.monotone.falsified
    assert report.monotone.replay()["violated"]


def test_structural_takes_the_largest_stream_seed():
    # its quadratic-clause sampler is seeded one above the probe's seed,
    # wrapped to 64 bits
    a, b, c = _structural_base()
    assert check_structural(_affine_m2(a, b, c), n_samples=800, seed=2**64 - 1).passed
    c = np.array(c)
    c[0, 0, 0] = -2.0
    report = check_structural(_affine_m2(a, b, c), n_samples=800, seed=2**64 - 1)
    assert report.outcome == "falsified"
    assert report.monotone.replay()["violated"]


def test_structural_flags_negative_state_coupling():
    a, b, c = _structural_base()
    a = np.array(a)
    a[0, 1] = -1.0
    report = check_structural(_affine_m2(a, b, c), n_samples=800, seed=0)
    assert report.outcome == "falsified"
    assert report.monotone.falsified
    assert report.monotone.replay()["violated"]


@pytest.mark.parametrize("alpha", [2.0, 1.5, 0.7, 0.5, 0.4])
def test_quadratic_clause_shrinks_the_negative_part(alpha):
    # the clause's weight is d2 to the orthant, so a shrink scales only the
    # negative entries of y
    batch = ConditionSampler(2, 1, 1, seed=3).pair(4000, jumps="reversed")
    shrunk = _QuadraticClause(_affine_m2(*_structural_base())).shrink(batch, alpha)
    assert shrunk.y.tobytes() == np.where(batch.y < 0.0, alpha * batch.y, batch.y).tobytes()


# ---------------------------------------------------------------------------
# matrix comparison


def test_matrix_comparison_certifies_identical_zero_drivers():
    zero = ZeroGen(3, 1, MARKS1)
    verdict = check_comparison_matrix(zero, zero, side=2, n_samples=800, seed=0)
    assert verdict.certified
    assert verdict.constant <= 1e-9


def test_matrix_comparison_falsifies_opposing_constant_drifts():
    shape = (np.zeros((3, 3)), np.zeros((3, 3, 1)), np.zeros((1, 3, 3)))
    f1 = AffineGen(*shape, sym_to_vec(-np.eye(2)), brownian_dim=1, marks=MARKS1)
    f2 = AffineGen(*shape, sym_to_vec(np.eye(2)), brownian_dim=1, marks=MARKS1)
    verdict = check_comparison_matrix(f1, f2, side=2, n_samples=800, seed=0)
    assert verdict.falsified
    assert verdict.replay()["violated"]


def test_matrix_comparison_certifies_shifted_identity_driver():
    shape = (np.eye(3), np.zeros((3, 3, 1)), np.zeros((1, 3, 3)))
    f1 = AffineGen(*shape, sym_to_vec(0.5 * np.eye(2)), brownian_dim=1, marks=MARKS1)
    f2 = AffineGen(*shape, np.zeros(3), brownian_dim=1, marks=MARKS1)
    verdict = check_comparison_matrix(f1, f2, side=2, n_samples=800, seed=0)
    assert verdict.certified
    assert verdict.constant <= 1e-9


def test_matrix_comparison_validates_flattened_dimension():
    zero = ZeroGen(4, 1, MARKS1)
    with pytest.raises(ValueError, match="flattened dimension 3"):
        check_comparison_matrix(zero, zero, side=2)


# ---------------------------------------------------------------------------
# comparison as viability of the difference, against hand-derived formulas


def _componentwise_reference(f1, f2, b, constant):
    """The orthant comparison inequality derived component by component:
    (lhs, rhs, weight, defined) per row."""
    y = b.y
    neg = np.maximum(-y, 0.0)
    is_neg = y < 0.0
    val1 = f1(b.t, np.maximum(y, 0.0) + b.y_prime, b.z, b.u)
    val2 = f2(b.t, b.y_prime, b.z_prime, b.u_prime)
    lhs = -4.0 * np.sum(neg * (val1 - val2), axis=1)
    dz = b.z - b.z_prime
    zterm = 2.0 * np.sum(np.where(is_neg[:, :, None], dz**2, 0.0), axis=(1, 2))
    du = b.u - b.u_prime  # (n, n_atoms, m)
    shifted_neg = np.maximum(-(y[:, None, :] + du), 0.0)
    w = f1.marks.weights[:, None]
    neg_atoms = np.broadcast_to(is_neg[:, None, :], du.shape)
    pos_term = 2.0 * np.sum(np.where(neg_atoms, 0.0, w * shifted_neg**2), axis=(1, 2))
    # per-component convexity gaps of x -> (x^-)^2
    inner = shifted_neg**2 - neg[:, None, :] ** 2 - 2.0 * y[:, None, :] * du
    neg_term = 2.0 * np.sum(np.where(neg_atoms, w * np.maximum(inner, 0.0), 0.0), axis=(1, 2))
    weight = np.sum(neg * neg, axis=1)
    rhs = zterm + constant * weight + pos_term + neg_term
    return lhs, rhs, weight, np.ones(len(b), dtype=bool)


def _semidefinite_reference(f1, f2, side, b, constant):
    """The semidefinite comparison inequality from the spectral split of y:
    (lhs, rhs, weight, defined) per row."""
    cone = PsdCone(side)
    w_eig, q = np.linalg.eigh(vec_to_sym(b.y, side))
    qt = np.swapaxes(q, -1, -2)
    y_pos = sym_to_vec((q * np.maximum(w_eig, 0.0)[:, None, :]) @ qt)
    y_neg = sym_to_vec((q * np.maximum(-w_eig, 0.0)[:, None, :]) @ qt)
    val1 = f1(b.t, y_pos + b.y_prime, b.z, b.u)
    val2 = f2(b.t, b.y_prime, b.z_prime, b.u_prime)
    lhs = -4.0 * np.sum(y_neg * (val1 - val2), axis=1)
    hess, defined = cone.hess_dist2_batch(b.y)
    dz = b.z - b.z_prime
    zterm = np.maximum(0.0, np.einsum("nid,nij,njd->n", dz, hess, dz))
    w2 = np.sum(y_neg * y_neg, axis=1)
    jump = np.zeros(len(b))
    for j in range(f1.marks.n_atoms):
        du = b.u[:, j] - b.u_prime[:, j]
        gap = cone.dist2_batch(b.y + du) - w2 + 2.0 * np.sum(y_neg * du, axis=1)
        jump += f1.marks.weights[j] * np.maximum(0.0, gap)
    return lhs, zterm + constant * w2 + 2.0 * jump, cone.dist2_batch(b.y), defined


def _assert_matches_reference(ineq, reference, batch):
    for constant in (0.0, 7.5):
        got, want = ineq.evaluate(batch, constant), reference(batch, constant)
        for name, g, w in zip(("lhs", "rhs", "weight"), got, want):
            gap = np.abs(g - w) / np.maximum(1.0, np.abs(w))
            assert gap.max() <= 1e-12, (name, gap.max())
        assert np.array_equal(got[3], want[3])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_componentwise_comparison_is_orthant_viability_of_the_difference(seed):
    rng = np.random.default_rng(seed)
    f1, f2 = _random_affine(rng, 3, 2, MARKS2), _random_affine(rng, 3, 2, MARKS2)
    batch = ConditionSampler(3, 2, MARKS2.n_atoms, seed).pair(2000)
    ineq = _ComparisonInequality(f1, f2, OrthantProduct(3, 0))
    _assert_matches_reference(ineq, lambda b, c: _componentwise_reference(f1, f2, b, c), batch)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semidefinite_comparison_is_cone_viability_of_the_difference(seed):
    rng = np.random.default_rng(seed)
    f1, f2 = _random_affine(rng, 3, 1, MARKS2), _random_affine(rng, 3, 1, MARKS2)
    batch = ConditionSampler(3, 1, MARKS2.n_atoms, seed).matrix(2, 2000)
    ineq = _ComparisonInequality(f1, f2, PsdCone(2))
    _assert_matches_reference(ineq, lambda b, c: _semidefinite_reference(f1, f2, 2, b, c), batch)


# ---------------------------------------------------------------------------
# stacked reduction


def test_stacked_generator_evaluates_difference_system():
    g1 = ScaledJumpGen(2.0)
    g2 = ScaledJumpGen(0.5)
    stacked = StackedGenerator(g1, g2)
    assert stacked.state_dim == 2
    assert stacked.lipschitz == pytest.approx(np.sqrt(2.0) * g1.lipschitz + 2.0 * g2.lipschitz)
    y = np.array([[0.3, -0.2]])
    z = np.array([[[0.1], [0.4]]])
    u = np.array([[[2.0, 1.0]]])
    out = stacked(0.0, y, z, u)
    # second block: -0.5 * u2(1); first block: -2 (u1 + u2)(1) minus that
    assert out[0, 1] == pytest.approx(-0.5)
    assert out[0, 0] == pytest.approx(-2.0 * 3.0 + 0.5)


def test_stacked_reduction_builds_matching_orthant():
    stacked, body = stacked_reduction(ScaledJumpGen(1.0), ScaledJumpGen(1.0))
    assert isinstance(body, OrthantProduct)
    assert body.n_plus == 1 and body.n_free == 1
    assert body.dim == stacked.state_dim


@pytest.mark.parametrize("scale,expected", [(0.5, "certified"), (2.0, "falsified")])
def test_stacked_viability_agrees_with_comparison_threshold(scale, expected):
    g = ScaledJumpGen(scale)
    stacked, orthant = stacked_reduction(g, g)
    verdict = check_viability_condition(stacked, orthant, n_samples=1500, seed=3, c_max=500.0)
    assert verdict.outcome == expected
    assert not verdict.falsified or verdict.replay()["violated"]


def test_stacked_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="state dimension"):
        StackedGenerator(ScaledJumpGen(1.0), ZeroGen(2, 1, MARKS1))


# ---------------------------------------------------------------------------
# empirical path checks


def test_empirical_viability_reports_two_point_excursion():
    grid = TimeGrid.uniform(1.0, 10)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=3000, seed=12)
    target = FinitePointSet(np.array([[-1.0], [1.0]]))
    terminal = TerminalCondition(lambda w, n: np.where(w[:, :1] >= 0, 1.0, -1.0), 1)
    report, sol = check_viability_empirical(ZeroGen(1, 1, MARKS1), terminal, target, paths)
    assert report.mean_distance.shape == (11,)
    assert report.mean_distance[-1] == pytest.approx(0.0, abs=1e-12)
    assert report.max_mean_distance >= 0.9
    assert report.max_mean_distance > 0.05
    assert sol.times.shape == (11,) and sol.n_paths == 3000 and sol.y0.shape == (1,)


def test_empirical_viability_rejects_terminal_outside_target():
    grid = TimeGrid.uniform(1.0, 5)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=200, seed=3)
    terminal = TerminalCondition(lambda w, n: 10.0 * w[:, :1], 1)
    with pytest.raises(ValueError, match="leaves the target set"):
        check_viability_empirical(
            ZeroGen(1, 1, MARKS1), terminal, Ball(np.zeros(1), 1.0), paths
        )


def test_empirical_comparison_keeps_shifted_terminal_gap():
    grid = TimeGrid.uniform(1.0, 10)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=3000, seed=12)
    g = ScaledJumpGen(0.5)
    hi = TerminalCondition(lambda w, n: n[:, :1] + 1.0, 1)
    lo = TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1)
    report, sol1, sol2 = empirical_comparison(g, g, hi, lo, paths)
    assert isinstance(report, ComparisonPathReport)
    assert report.min_gap > 0.5
    assert report.violation_fraction.max() == 0.0
    assert report.gap_at_zero[0] == pytest.approx(1.0, abs=0.1)


def test_empirical_comparison_identical_inputs_gap_is_exactly_zero():
    grid = TimeGrid.uniform(1.0, 6)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=700, seed=9)
    g = ScaledJumpGen(0.5)
    term = TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1)
    report, _, _ = empirical_comparison(g, g, term, term, paths)
    assert report.min_gap == 0.0
    assert np.all(report.min_gap_per_time == 0.0)


def test_empirical_comparison_rejects_unordered_terminals():
    grid = TimeGrid.uniform(1.0, 6)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=700, seed=9)
    g = ScaledJumpGen(0.5)
    hi = TerminalCondition(lambda w, n: n[:, :1] + 1.0, 1)
    lo = TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1)
    with pytest.raises(ValueError, match="not ordered"):
        empirical_comparison(g, g, lo, hi, paths)


_REPORT_FIELDS = {
    ViabilityPathReport: ("times", "mean_distance", "max_mean_distance"),
    ComparisonPathReport: ("times", "min_gap", "min_gap_per_time", "violation_fraction", "gap_at_zero"),
}


def _assert_same_report(a, b):
    assert type(a) is type(b)
    for name in _REPORT_FIELDS[type(a)]:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _spy_passes(monkeypatch):
    """The backward passes the empirical checkers make, each as its problem
    count."""
    passes = []
    original = bsdelab.conditions.solve_backward_many

    def spied(problems, *args, **kwargs):
        passes.append(len(problems))
        return original(problems, *args, **kwargs)

    monkeypatch.setattr(bsdelab.conditions, "solve_backward_many", spied)
    return passes


def _fed_from_stores(report, problems, paths):
    """``report`` fed node by node, in pass order, from the whole y stores
    of ``problems``, each solved alone and collected."""
    stores = []
    for gen, terminal in problems:
        collector = Collector(integrands=False)
        solve_backward(gen, terminal, paths, on_node=collector)
        stores.append(collector.y[0])
    for i in range(paths.grid.n_steps, -1, -1):
        report(i, tuple(y[i] for y in stores), None, None)
    return report


def test_empirical_checkers_make_one_pass(monkeypatch):
    grid = TimeGrid.uniform(1.0, 6)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=700, seed=9)
    passes = _spy_passes(monkeypatch)
    sign = TerminalCondition(lambda w, n: np.where(w[:, :1] >= 0, 1.0, -1.0), 1)
    target = FinitePointSet(np.array([[-1.0], [1.0]]))
    report, sol = check_viability_empirical(ZeroGen(1, 1, MARKS1), sign, target, paths)
    assert passes == [1]
    assert report.mean_distance[-1] == 0.0 and sol.n_paths == 700
    g = ScaledJumpGen(0.5)
    hi = TerminalCondition(lambda w, n: n[:, :1] + 1.0, 1)
    lo = TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1)
    report, sol1, sol2 = empirical_comparison(g, g, hi, lo, paths)
    assert passes == [1, 2]
    assert report.min_gap > 0.5 and sol1.paths is sol2.paths is paths


def _refused_at_node_n(check, match):
    """Run ``check(basis)`` and expect it refused at node N: the pass builds
    only the design of its first step, ahead, and solves no step."""
    designs = []

    class CountedBasis(RegressionBasis):
        def design_matrix(self, *blocks):
            designs.append([b.shape for b in blocks])
            return super().design_matrix(*blocks)

    with pytest.raises(ValueError, match=match):
        check(CountedBasis())
    assert len(designs) == 1


def test_empirical_checkers_refuse_bad_terminal_data_at_node_n():
    grid = TimeGrid.uniform(1.0, 10)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=2_000, seed=3)
    zero = ZeroGen(1, 1, MARKS1)
    outside = TerminalCondition(lambda w, n: 10.0 * w[:, :1], 1)
    _refused_at_node_n(
        lambda basis: check_viability_empirical(zero, outside, Ball(np.zeros(1), 1.0), paths, basis),
        "leaves the target set",
    )
    hi = TerminalCondition(lambda w, n: n[:, :1] + 1.0, 1)
    lo = TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1)
    _refused_at_node_n(lambda basis: empirical_comparison(zero, zero, lo, hi, paths, basis), "not ordered")


def test_empirical_comparison_refuses_mismatched_state_dimensions_before_solving(monkeypatch):
    grid = TimeGrid.uniform(1.0, 6)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=700, seed=9)
    passes = _spy_passes(monkeypatch)
    one = TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1)
    two = TerminalCondition(lambda w, n: np.zeros((w.shape[0], 2)), 2)
    with pytest.raises(ValueError, match="drivers must share the state dimension"):
        empirical_comparison(ZeroGen(2, 1, MARKS1), ZeroGen(1, 1, MARKS1), two, one, paths)
    assert passes == []


def test_viability_wrapper_is_solve_then_report():
    grid = TimeGrid.uniform(1.0, 10)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=3000, seed=12)
    target = FinitePointSet(np.array([[-1.0], [1.0]]))
    terminal = TerminalCondition(lambda w, n: np.where(w[:, :1] >= 0, 1.0, -1.0), 1)
    gen = ZeroGen(1, 1, MARKS1)
    report, _ = check_viability_empirical(gen, terminal, target, paths)
    direct = _fed_from_stores(ViabilityPathReport(target, paths.grid.nodes), [(gen, terminal)], paths)
    _assert_same_report(report, direct)


def test_viability_report_checks_the_solved_terminal_values():
    grid = TimeGrid.uniform(1.0, 5)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=600, seed=3)
    terminal = TerminalCondition(lambda w, n: 10.0 * w[:, :1], 1)
    report = ViabilityPathReport(Ball(np.zeros(1), 1.0), paths.grid.nodes)
    with pytest.raises(ValueError, match="leaves the target set"):
        _fed_from_stores(report, [(ZeroGen(1, 1, MARKS1), terminal)], paths)


def test_comparison_wrapper_is_solve_then_report():
    grid = TimeGrid.uniform(1.0, 10)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=3000, seed=12)
    g = ScaledJumpGen(2.0)
    zero = ZeroGen(1, 1, MARKS1)
    counts = TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1)
    nil = TerminalCondition(lambda w, n: np.zeros((w.shape[0], 1)), 1)
    report, _, _ = empirical_comparison(g, zero, counts, nil, paths)
    direct = _fed_from_stores(ComparisonPathReport(paths.grid.nodes), [(g, counts), (zero, nil)], paths)
    _assert_same_report(report, direct)
    assert report.violation_fraction.max() > 0.0


def test_comparison_report_rejects_mismatched_state_dimensions_at_node_n():
    grid = TimeGrid.uniform(1.0, 6)
    paths = simulate_paths(grid, MARKS1, brownian_dim=1, n_paths=700, seed=9)
    one = (ZeroGen(1, 1, MARKS1), TerminalCondition(lambda w, n: 1.0 * n[:, :1], 1))
    two = (ZeroGen(2, 1, MARKS1), TerminalCondition(lambda w, n: np.zeros((w.shape[0], 2)), 2))
    _refused_at_node_n(
        lambda basis: solve_backward_many([one, two], paths, basis, on_node=ComparisonPathReport(grid.nodes)),
        "solutions must share the state dimension",
    )


# ---------------------------------------------------------------------------
# batched evaluation


def _random_affine(rng, m, d, marks, drift=None):
    drift = rng.normal(size=m) if drift is None else drift
    return AffineGen(
        rng.normal(size=(m, m)), rng.normal(size=(m, m, d)), rng.normal(size=(marks.n_atoms, m, m)),
        drift, brownian_dim=d, marks=marks,
    )


def _viability_case(name, gen, body, rng):
    sampler = ConditionSampler(body.dim, gen.brownian_dim, gen.marks.n_atoms, seed=5)
    samples = sampler.viability(body, 60)
    # the last rows sit on the body's boundary, where the Hessian is undefined
    edge = body.project_batch(rng.uniform(-6.0, 6.0, size=(8, body.dim)))
    y = np.concatenate([samples.y[:-8], edge])
    return name, _ViabilityInequality(gen, body), dataclasses.replace(samples, y=y)


def _viability_cases():
    rng = np.random.default_rng(17)
    cases = []
    for body in bodies_for_properties():
        drivers = [
            ProjectionDriftGen(body, brownian_dim=2, marks=MARKS2),
            _random_affine(rng, body.dim, 2, MARKS2, drift=lambda t, m=body.dim: np.full(m, np.cos(t))),
        ]
        for gen in drivers:
            name = f"viability-{type(body).__name__}-{type(gen).__name__}"
            cases.append(_viability_case(name, gen, body, rng))
    stacked, orthant = stacked_reduction(_random_affine(rng, 2, 1, MARKS1), _random_affine(rng, 2, 1, MARKS1))
    cases.append(_viability_case("viability-stacked", stacked, orthant, rng))
    return cases


def _comparison_cases():
    rng = np.random.default_rng(19)
    pair = ConditionSampler(2, 1, 1, seed=8)
    f1, f2 = _random_affine(rng, 2, 1, MARKS1), _random_affine(rng, 2, 1, MARKS1)
    cone = PsdCone(2)
    singular = np.array([sym_to_vec(np.diag([1.0, 0.0])), np.zeros(3)])
    matrix = ConditionSampler(3, 1, 1, seed=9).matrix(2, 40)
    matrix = dataclasses.replace(matrix, y=np.concatenate([matrix.y[:-2], singular]))
    g1, g2 = _random_affine(rng, 3, 1, MARKS1), _random_affine(rng, 3, 1, MARKS1)
    return [
        ("comparison-affine", _ComparisonInequality(f1, f2, OrthantProduct(2, 0)), pair.pair(60)),
        (
            "comparison-scaled-jump",
            _ComparisonInequality(ScaledJumpGen(2.0), ScaledJumpGen(0.5), OrthantProduct(1, 0)),
            ConditionSampler(1, 1, 1, seed=2).pair(60),
        ),
        ("quadratic", _QuadraticClause(f1), pair.pair(60, jumps="reversed")),
        ("matrix", _ComparisonInequality(g1, g2, cone), matrix),
    ]


INEQUALITY_CASES = _viability_cases() + _comparison_cases()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,ineq,batch", INEQUALITY_CASES, ids=[c[0] for c in INEQUALITY_CASES])
def test_batch_evaluation_equals_one_row_calls_bit_for_bit(name, ineq, batch):
    excess, weight, defined = ineq.excess_weight(batch)
    rows = [ineq.excess_weight(batch.take([i])) for i in range(len(batch))]
    assert excess.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
    assert weight.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()
    assert np.array_equal(defined, np.concatenate([r[2] for r in rows]))
    if name.startswith(("viability", "matrix")) and "Halfspace" not in name:
        assert 0 < defined.sum() < len(batch), "cases should include undefined Hessians"
    # the single-point entry points are one-row calls of the same code
    constant = 3.0
    lhs, rhs = ineq.lhs_rhs(batch.take(np.flatnonzero(defined)), constant)
    for k, i in enumerate(np.flatnonzero(defined)):
        assert ineq.lhs_rhs(batch.take([i]), constant) == (lhs[k], rhs[k])
    if not defined.all():
        with pytest.raises(ValueError, match="Hessian undefined"):
            ineq.lhs_rhs(batch, constant)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,ineq,batch", INEQUALITY_CASES, ids=[c[0] for c in INEQUALITY_CASES])
def test_mutate_of_a_batch_stacks_its_one_row_calls_bit_for_bit(name, ineq, batch):
    s = batch.take(np.arange(6))
    # gaps with different numbers of nonzero slots: row 1 closes one z slot,
    # row 2 its whole u gap (viability gaps are measured from 0)
    s.z[1].flat[0] = 0.0 if s.z_prime is None else s.z_prime[1].flat[0]
    s.u[2] = 0.0 if s.u_prime is None else s.u_prime[2]
    trials, owner = ineq.mutate(s)
    rows = [ineq.mutate(s.take([i])) for i in range(len(s))]
    assert all(not row_owner.any() for _, row_owner in rows)
    assert np.array_equal(owner, np.repeat(np.arange(len(s)), [len(t) for t, _ in rows]))
    assert len(set(np.bincount(owner))) > 1, "segments should differ in length"
    for f in dataclasses.fields(trials):
        got, want = getattr(trials, f.name), [getattr(t, f.name) for t, _ in rows]
        if got is None:
            assert all(w is None for w in want) and name.startswith("viability")
            continue
        want = np.concatenate(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name


def test_point_functions_agree_with_batch_rows():
    gen = ProjectionDriftGen(Ball(np.zeros(2), 1.0), brownian_dim=2, marks=MARKS2)
    ineq = _ViabilityInequality(gen, gen.body)
    batch = ConditionSampler(2, 2, 2, seed=4).viability(gen.body, 20)
    lhs, rhs = ineq.lhs_rhs(batch, 2.0)
    for i in range(len(batch)):
        (row_lhs,), (row_rhs,) = viability_lhs_rhs(gen, gen.body, batch.take([i]), 2.0)
        assert (row_lhs, row_rhs) == (lhs[i], rhs[i])


def test_sample_batch_round_trips_points():
    batch = ConditionSampler(2, 1, 2, seed=1).pair(5)
    rows = batch.take([3, 1])
    for name in ("t", "y", "z", "u", "y_prime", "z_prime", "u_prime"):
        assert np.array_equal(getattr(rows, name), getattr(batch, name)[[3, 1]]), name
    rows.y[0] = 99.0
    assert not (batch.y == 99.0).any(), "take copies its rows"
    viability = ConditionSampler(2, 1, 1, seed=1).viability(Ball(np.zeros(2), 1.0), 3)
    assert viability.y_prime is None and viability.take([2, 0]).y_prime is None


class _NanOutsideGen(Generator):
    """Drift that returns NaN on rows whose first state coordinate exceeds 3."""

    def __init__(self):
        self.state_dim, self.brownian_dim, self.marks, self.lipschitz = 2, 1, MARKS1, 1.0

    def _eval(self, t, y, z, u):
        return np.where(y[:, :1] > 3.0, np.nan, y)


_BALL2 = Ball(np.zeros(2), 1.0)
# each public certifier on a small problem it decides, called with keywords
CERTIFIERS = {
    "viability": lambda **kw: check_viability_condition(
        ProjectionDriftGen(_BALL2, 1, MARKS1), _BALL2, **kw
    ),
    "comparison-m1": lambda **kw: check_comparison_m1(ScaledJumpGen(0.5), ScaledJumpGen(0.5), **kw),
    "comparison-multidim": lambda **kw: check_comparison_multidim(_affine_m2(), _affine_m2(), **kw),
    "structural": lambda **kw: check_structural(_affine_m2(), **kw),
    "matrix": lambda **kw: check_comparison_matrix(
        ZeroGen(3, 1, MARKS1), ZeroGen(3, 1, MARKS1), side=2, **kw
    ),
}


@pytest.mark.parametrize("name", list(CERTIFIERS))
@pytest.mark.parametrize("n_samples", [0, -5])
def test_certifiers_refuse_a_budget_below_one_sample(name, n_samples):
    # an empty budget read as "inconclusive" or failed deep in the engine
    with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n_samples}"):
        CERTIFIERS[name](n_samples=n_samples)
    assert CERTIFIERS[name](n_samples=1).outcome in ("certified", "falsified", "inconclusive")


@pytest.mark.parametrize("name", list(CERTIFIERS))
def test_certifiers_refuse_a_float_seed(name):
    # the sampler's stream key once truncated it, so 1.9 ran as seed 1
    with pytest.raises(TypeError):
        CERTIFIERS[name](n_samples=10, seed=1.9)


@pytest.mark.parametrize("name", [name for name in CERTIFIERS if name != "comparison-m1"])
@pytest.mark.parametrize("c_max", [-1.0, np.nan, np.inf])
def test_capped_certifiers_refuse_a_negative_or_non_finite_cap(name, c_max):
    # a NaN cap failed with IndexError in the climb, -1 read as inconclusive
    with pytest.raises(ValueError, match="c_max must be finite and nonnegative"):
        CERTIFIERS[name](n_samples=50, c_max=c_max)
    assert CERTIFIERS[name](n_samples=50, c_max=0.0).outcome in ("certified", "inconclusive")


def test_engine_rejects_non_finite_evaluations():
    ball = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match=r"initial sweep: \d+ of 300 defined evaluations") as err:
        check_viability_condition(_NanOutsideGen(), ball, n_samples=300, seed=0)
    assert "non-finite" in str(err.value)


# ---------------------------------------------------------------------------
# sampler and verdict plumbing


def test_sampler_is_deterministic_per_seed():
    ball = Ball(np.zeros(2), 1.0)
    push = AffineGen(
        np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
        np.array([1.0, 0.0]), brownian_dim=2, marks=MARKS2,
    )
    for gen in (ProjectionDriftGen(ball, brownian_dim=2, marks=MARKS2), push):
        v1 = check_viability_condition(gen, ball, n_samples=400, seed=42)
        v2 = check_viability_condition(gen, ball, n_samples=400, seed=42)
        assert v1.to_dict() == v2.to_dict()
    assert v1.falsified and v1.witness is not None


def _assert_same_batch(a, b):
    assert len(a) == len(b)
    for name in ("t", *_SLOTS):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


# (state dimension, draw); PsdCone(2) and 2 x 2 matrices flatten to dimension 3
SAMPLER_DRAWS = {
    "viability-ball": (2, lambda s, n: s.viability(Ball(np.zeros(2), 1.0), n)),
    "viability-psd": (3, lambda s, n: s.viability(PsdCone(2), n)),
    "pair": (2, lambda s, n: s.pair(n)),
    "pair-ordered": (2, lambda s, n: s.pair(n, jumps="ordered")),
    "pair-reversed": (2, lambda s, n: s.pair(n, jumps="reversed")),
    "matrix": (3, lambda s, n: s.matrix(2, n)),
}


@pytest.mark.parametrize("m,draw", SAMPLER_DRAWS.values(), ids=SAMPLER_DRAWS.keys())
def test_sample_budgets_are_prefix_stable(m, draw):
    full = draw(ConditionSampler(m, 1, 2, seed=11), 4000)
    head = draw(ConditionSampler(m, 1, 2, seed=11), 2000)
    _assert_same_batch(full.take(np.arange(2000)), head)


def test_verdict_depends_on_the_budget_only_through_the_samples():
    ball = Ball(np.zeros(2), 1.0)
    gen = ProjectionDriftGen(ball, brownian_dim=2, marks=MARKS2)
    verdict = check_viability_condition(gen, ball, n_samples=300, seed=3)
    samples = ConditionSampler(2, 2, 2, seed=3).viability(ball, 600).take(np.arange(300))
    again = _run_certification(_ViabilityInequality(gen, ball), samples, 100.0)
    assert verdict.to_dict() == again.to_dict()


def test_pair_sampler_refuses_an_unknown_jump_ordering():
    for jumps in ("sorted", "", None, True):
        with pytest.raises(ValueError, match="jumps must be one of 'free', 'ordered', 'reversed'"):
            ConditionSampler(2, 1, 1, seed=0).pair(10, jumps=jumps)


def test_structural_ordered_and_reversed_draws_differ():
    sampler = ConditionSampler(2, 1, 1, seed=1)
    ordered = sampler.pair(500, jumps="ordered")
    reversed_ = sampler.pair(500, jumps="reversed")
    for name in ("t", "y", "y_prime"):
        a, b = getattr(ordered, name), getattr(reversed_, name)
        assert not np.any((a == b).reshape(len(a), -1).all(axis=1)), name
    for name in ("z", "z_prime", "u_prime"):  # rows of zeroed blocks may agree
        assert not np.array_equal(getattr(ordered, name), getattr(reversed_, name)), name
    assert np.all(ordered.u >= ordered.u_prime) and np.all(reversed_.u <= reversed_.u_prime)
    # each kind is one stream: a second draw of the same kind repeats it
    _assert_same_batch(sampler.pair(500, jumps="ordered"), ordered)


def test_sampler_concentrates_near_boundary():
    ball = Ball(np.zeros(3), 1.0)
    sampler = ConditionSampler(3, 1, 1, seed=0)
    samples = sampler.viability(ball, 600)
    dists = ball.dist_batch(samples.y)
    near = np.sum((dists > 0.0) & (dists <= 0.1 + 1e-12))
    # about 15% land just outside within the boundary width (half of the
    # 30% boundary draws), plus strays from the bulk
    assert near >= 0.08 * len(samples)


def test_ordered_jump_sampler_respects_ordering():
    samples = ConditionSampler(2, 1, 2, seed=1).pair(50, jumps="ordered")
    assert np.all(samples.u >= samples.u_prime - 1e-15)


def test_sample_ranges_bound_draws():
    # y and y' are drawn on [-5, 5], z, u and their primes on [-3, 3]
    samples = ConditionSampler(2, 2, 1, seed=3).pair(400)
    boxes = {"y": 5.0, "y_prime": 5.0, "z": 3.0, "u": 3.0, "z_prime": 3.0, "u_prime": 3.0}
    for name, box in boxes.items():
        largest = np.abs(getattr(samples, name)).max()
        assert 0.9 * box < largest <= box, name


CRITERION_10_BUDGETS = (1500, 2000)


def _criterion_10_verdicts(rng_seed, n_pairs, budgets=CRITERION_10_BUDGETS):
    """(pair index, expected outcome, direct verdict, stacked verdict) for
    the first criterion-10 pairs drawn at ``rng_seed``, with the sample
    budgets (direct, stacked), by default criterion 10's."""
    rng = np.random.default_rng(rng_seed)
    for i in range(n_pairs):
        sound = i % 2 == 0
        f1, f2 = _random_affine_pair(rng, sound)
        direct = check_comparison_multidim(f1, f2, n_samples=budgets[0], seed=100 + i, c_max=500.0)
        stacked, orthant = stacked_reduction(f1, f2)
        reduced = check_viability_condition(stacked, orthant, n_samples=budgets[1], seed=200 + i, c_max=500.0)
        yield i, "certified" if sound else "falsified", direct, reduced


# small budgets leave the climb more to find: without the z slot moves,
# stacked pairs 9 and 13 at rng seed 11 and 7 and 13 at rng seed 12 go wrong
@pytest.mark.parametrize(
    "rng_seed,budgets",
    [(8, CRITERION_10_BUDGETS), (9, CRITERION_10_BUDGETS), (11, (300, 400)), (12, (300, 400))],
    ids=["8", "9", "11-small-budget", "12-small-budget"],
)
def test_both_routes_match_the_construction_beyond_criterion_10s_seed(rng_seed, budgets):
    for i, expect, direct, reduced in _criterion_10_verdicts(rng_seed, 20, budgets):
        for route, verdict in (("direct", direct), ("stacked", reduced)):
            assert verdict.outcome == expect, f"pair {i} {route}: {verdict.outcome}"
            assert not verdict.falsified or verdict.replay()["violated"], f"pair {i} {route}: no replay"


def test_verdict_profile_counts_the_sweep_climb_and_descent():
    (_, _, certified, certified_stacked), (_, _, falsified, falsified_stacked) = _criterion_10_verdicts(7, 2)
    assert certified.certified and falsified.falsified
    for verdict in (certified, falsified):
        profile = verdict.to_dict()["profile"]
        assert set(profile) == {"sweep", "climb", "descent"}
        assert profile["sweep"] == {"evaluations": 1, "rows": 1500, "accepted": 0}
        # one evaluation per lock-step round serves every live candidate
        assert 0 < profile["climb"]["evaluations"] <= _REFINE_ROUNDS
        assert profile["climb"]["accepted"] <= 8 * profile["climb"]["evaluations"]
        assert profile["descent"]["evaluations"] <= 84
    # the candidates climb as they did one after another: same rows, same moves
    climbs = [(v.profile["climb"]["rows"], v.profile["climb"]["accepted"])
              for v in (certified, falsified, certified_stacked, falsified_stacked)]
    assert climbs == [(1314, 64), (1324, 64), (1916, 64), (1908, 64)]
    # a falsification halves the weight at each step down to 1e-10
    assert falsified.profile["descent"]["depth"] > 0
    assert certified.profile["descent"] == {"evaluations": 0, "rows": 0, "accepted": 0, "depth": 0}


def test_verdict_serialization_round_trip():
    ball = Ball(np.zeros(2), 1.0)
    gen = AffineGen(
        np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
        np.array([1.0, 0.0]), brownian_dim=2, marks=MARKS2,
    )
    verdict = check_viability_condition(gen, ball, n_samples=800, seed=1)
    payload = verdict.to_dict()
    assert payload["outcome"] == "falsified"
    assert verdict.replay()["violated"]
    assert isinstance(payload["witness"]["y"], list)
    assert payload["margin"] > 0.0


def test_replay_requires_witness():
    verdict = ConditionVerdict(outcome="certified", constant=0.0)
    with pytest.raises(ValueError, match="no witness"):
        verdict.replay()


def _falsified_viability():
    ball = Ball(np.zeros(2), 1.0)
    push = AffineGen(
        np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
        np.array([1.0, 0.0]), brownian_dim=2, marks=MARKS2,
    )
    verdict = check_viability_condition(push, ball, n_samples=800, seed=1)
    return verdict, lambda w: viability_lhs_rhs(push, ball, w, 100.0)


def _falsified_comparison():
    rng = np.random.default_rng(7)
    _random_affine_pair(rng, True)
    f1, f2 = _random_affine_pair(rng, False)
    verdict = check_comparison_multidim(f1, f2, n_samples=1500, seed=101, c_max=500.0)
    return verdict, lambda w: comparison_lhs_rhs(f1, f2, w, 500.0)


def _falsified_matrix():
    shape = (np.zeros((3, 3)), np.zeros((3, 3, 1)), np.zeros((1, 3, 3)))
    f1 = AffineGen(*shape, sym_to_vec(-np.eye(2)), brownian_dim=1, marks=MARKS1)
    f2 = AffineGen(*shape, sym_to_vec(np.eye(2)), brownian_dim=1, marks=MARKS1)
    verdict = check_comparison_matrix(f1, f2, side=2, n_samples=800, seed=0)
    return verdict, lambda w: matrix_lhs_rhs(f1, f2, 2, w, 500.0)


def _falsified_m1():
    g = ScaledJumpGen(2.0)
    verdict = check_comparison_m1(g, g, n_samples=1500, seed=0)
    return verdict, lambda w: (-_monotone_gaps(g, g, w)[:, 0], np.zeros(1))


def _falsified_monotone():
    a, b, c = _structural_base()
    c = c.copy()
    c[0, 0, 0] = -2.0
    gen = _affine_m2(a, b, c)
    verdict = check_structural(gen, n_samples=800, seed=0).monotone
    return verdict, lambda w: (-_monotone_gaps(gen, gen, w).min(axis=1), np.zeros(1))


FALSIFIED = {
    "viability": _falsified_viability,
    "comparison": _falsified_comparison,
    "matrix": _falsified_matrix,
    "m1": _falsified_m1,
    "structural-monotone": _falsified_monotone,
}


@pytest.mark.parametrize("falsify", FALSIFIED.values(), ids=FALSIFIED.keys())
def test_falsified_witness_is_a_one_row_batch_that_replays(falsify):
    verdict, lhs_rhs = falsify()
    witness = verdict.witness
    assert verdict.falsified and isinstance(witness, SampleBatch) and len(witness) == 1
    (lhs,), (rhs,) = lhs_rhs(witness)
    assert verdict.replay() == {"lhs": lhs, "rhs": rhs, "violated": True}
    assert (verdict.witness_lhs, verdict.witness_rhs) == (lhs, rhs)
    # the record holds the row as plain numbers, t first, then every slot
    record = verdict.to_dict()["witness"]
    assert list(record) == ["t", *_SLOTS] and record["t"] == witness.t[0]
    for name in _SLOTS:
        value = getattr(witness, name)
        assert record[name] == (None if value is None else value[0].tolist()), name
