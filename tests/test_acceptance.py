"""End-to-end acceptance gate: ten numbered criteria, one test each.

Each test pins seeds, states its tolerance inline, and records the
measured values for the terminal summary (see conftest.py).  Frozen
expected values come from closed forms: a unit-rate counting process
N with driver -c*N has value N_t + (1 - c)(s - t) for horizon s, and
P(N_{0.5} = 0) = exp(-0.5) ~ 0.6065.
"""

import time

import numpy as np
import pytest
from conftest import record_criterion

from bsdelab.conditions import (
    check_comparison_m1,
    check_comparison_multidim,
    check_viability_condition,
    check_viability_empirical,
    empirical_comparison,
    stacked_reduction,
)
from bsdelab.generators import AffineGen, ProjectionDriftGen, ScaledJumpGen, ZeroGen
from bsdelab.geometry import (
    Ball,
    Box,
    FinitePointSet,
    HalfspaceIntersection,
    OrthantProduct,
    PsdCone,
    QuadSpec,
    jump_defect,
    mollified_dist2,
    sym_to_vec,
    vec_to_sym,
)
from bsdelab.solver import (
    RegressionBasis,
    TerminalCondition,
    apriori_diagnostics,
    solve_backward,
)
from bsdelab.stochastic import FiniteMarkMeasure, TimeGrid, simulate_paths

UNIT_MARKS = FiniteMarkMeasure([[1.0]], [1.0])


def _count_terminal():
    return TerminalCondition(
        lambda w, n: n[:, 0], state_dim=1, description="jump count at the horizon"
    )


def _zero_terminal():
    return TerminalCondition(
        lambda w, n: np.zeros(w.shape[0]), state_dim=1, description="zero payoff"
    )


@pytest.fixture(scope="module")
def count_payoff_run():
    """Pinned 200k-path bundle with the half-scaled jump driver solved on it."""
    grid = TimeGrid.uniform(1.0, 50)
    start = time.perf_counter()
    paths = simulate_paths(grid, UNIT_MARKS, brownian_dim=1, n_paths=200_000, seed=2024)
    terminal = _count_terminal()
    sol = solve_backward(
        ScaledJumpGen(0.5), terminal, paths, basis=RegressionBasis(degree=2)
    )
    elapsed = time.perf_counter() - start
    return paths, terminal, sol, elapsed


def test_criterion_01_half_scaled_jump_driver_value(count_payoff_run):
    paths, terminal, sol, elapsed = count_payoff_run
    err = abs(float(sol.y0[0]) - 0.5)
    assert err <= 0.02, f"time-zero value off by {err:.4f}"
    assert elapsed <= 60.0, f"solve took {elapsed:.1f}s"

    # zero driver with zero terminal data must reproduce zero bitwise
    small = simulate_paths(TimeGrid.uniform(1.0, 50), UNIT_MARKS, 1, 6000, seed=5)
    zero_sol = solve_backward(
        ZeroGen(1, 1, UNIT_MARKS), _zero_terminal(), small, basis=RegressionBasis(degree=2)
    )
    assert np.all(zero_sol.y == 0.0)
    record_criterion(1, f"|Y0 - 0.5| = {err:.5f} <= 0.02 in {elapsed:.1f}s; zero run exact")


def test_criterion_02_double_scaled_jump_value_and_violations(count_payoff_run):
    paths, terminal, _, _ = count_payoff_run
    report, sol, _ = empirical_comparison(
        ScaledJumpGen(2.0),
        ZeroGen(1, 1, UNIT_MARKS),
        terminal,
        _zero_terminal(),
        paths,
        basis=RegressionBasis(degree=2),
    )
    err = abs(float(sol.y0[0]) + 1.0)
    assert err <= 0.02, f"time-zero value off by {err:.4f}"
    idx = int(np.argmin(np.abs(report.times - 0.5)))
    frac = float(report.violation_fraction[idx])
    assert abs(frac - 0.6065) <= 0.03, f"violation fraction {frac:.4f} at t=0.5"
    record_criterion(
        2, f"|Y0 + 1| = {err:.5f} <= 0.02; violation fraction {frac:.4f} in 0.6065 +/- 0.03"
    )


def test_criterion_03_scalar_comparison_separation():
    outcomes = {}
    for c in (0.0, 0.5, 1.0, 1.5, 2.0):
        gen = ScaledJumpGen(c)
        verdict = check_comparison_m1(gen, gen, n_samples=1500, seed=0)
        outcomes[c] = verdict.outcome
        if c <= 1.0:
            assert verdict.certified, f"scale {c}: {verdict.outcome}"
        else:
            assert verdict.falsified, f"scale {c}: {verdict.outcome}"
            replayed = verdict.replay()
            assert replayed["violated"], f"scale {c}: witness does not replay"
    record_criterion(3, "certified at scales {0, 0.5, 1}; replayable witness at {1.5, 2}")


def test_criterion_04_ball_drift_certificate_and_path_distance():
    ball = Ball(np.zeros(2), 1.0)
    gen = ProjectionDriftGen(ball, 1, UNIT_MARKS)
    verdict = check_viability_condition(gen, ball, n_samples=4000, seed=0, c_max=4.01)
    assert verdict.certified, verdict.detail
    assert verdict.constant <= 4.01, f"constant {verdict.constant}"

    grid = TimeGrid.uniform(1.0, 50)
    paths = simulate_paths(grid, UNIT_MARKS, brownian_dim=1, n_paths=100_000, seed=7)
    terminal = TerminalCondition(
        lambda w, n: np.stack([np.cos(w[:, 0]), np.sin(w[:, 0])], axis=1),
        state_dim=2,
        description="unit circle point driven by the terminal Brownian value",
    )
    report, _ = check_viability_empirical(
        gen, terminal, ball, paths, basis=RegressionBasis(degree=4)
    )
    assert report.max_mean_distance <= 0.05, f"max mean distance {report.max_mean_distance:.4f}"
    record_criterion(
        4,
        f"certified constant {verdict.constant:.3f} <= 4.01; "
        f"max mean distance {report.max_mean_distance:.4f} <= 0.05",
    )


def test_criterion_05_two_point_target_excursion():
    target = FinitePointSet([[-1.0], [1.0]])
    grid = TimeGrid.uniform(1.0, 20)
    paths = simulate_paths(grid, UNIT_MARKS, brownian_dim=1, n_paths=20_000, seed=11)
    terminal = TerminalCondition(
        lambda w, n: np.where(w[:, 0] >= 0.0, 1.0, -1.0),
        state_dim=1,
        description="sign of the terminal Brownian value",
    )
    report, _ = check_viability_empirical(
        ZeroGen(1, 1, UNIT_MARKS), terminal, target, paths, tolerance=0.9
    )
    assert report.max_mean_distance >= 0.9, f"max mean distance {report.max_mean_distance:.4f}"
    record_criterion(5, f"max mean distance {report.max_mean_distance:.4f} >= 0.9")


def _eigs_3x3(mat: np.ndarray) -> np.ndarray:
    """Closed-form (trigonometric) eigenvalues of a symmetric 3x3 matrix."""
    q = np.trace(mat) / 3.0
    b = mat - q * np.eye(3)
    p2 = float(np.sum(b * b)) / 6.0
    if p2 < 1e-30:
        return np.full(3, q)
    p = np.sqrt(p2)
    c = b / p
    det_c = (
        c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1])
        - c[0, 1] * (c[1, 0] * c[2, 2] - c[1, 2] * c[2, 0])
        + c[0, 2] * (c[1, 0] * c[2, 1] - c[1, 1] * c[2, 0])
    )
    phi = np.arccos(np.clip(det_c / 2.0, -1.0, 1.0)) / 3.0
    return q + 2.0 * p * np.cos(phi + np.array([0.0, -2.0, 2.0]) * np.pi / 3.0)


def _criterion_06_closed_form_cases():
    """The ball, box and orthant of criterion 6, each with its exact oracle."""
    ball = Ball(np.array([0.3, -0.2, 0.5]), 1.7)
    box = Box(np.array([-1.0, -0.5, 0.2]), np.array([1.2, 0.8, 1.9]))
    orthant = OrthantProduct(n_plus=2, n_free=2)

    def ball_oracle(p):
        v = p.astype(np.longdouble) - ball.center.astype(np.longdouble)
        nrm = np.sqrt(np.sum(v * v))
        if nrm <= ball.radius:
            return p.astype(np.longdouble), np.longdouble(0.0)
        proj = ball.center.astype(np.longdouble) + v * (np.longdouble(ball.radius) / nrm)
        return proj, (nrm - np.longdouble(ball.radius)) ** 2

    def box_oracle(p):
        q = p.astype(np.longdouble)
        proj = np.clip(q, box.lower.astype(np.longdouble), box.upper.astype(np.longdouble))
        gap = np.maximum(box.lower - q, 0.0) + np.maximum(q - box.upper, 0.0)
        return proj, np.sum(gap * gap)

    def orthant_oracle(p):
        q = p.astype(np.longdouble)
        proj = q.copy()
        proj[:2] = np.maximum(proj[:2], 0.0)
        clipped = np.minimum(q[:2], 0.0)
        return proj, np.sum(clipped * clipped)

    return [
        ("ball", ball, 3, ball_oracle),
        ("box", box, 3, box_oracle),
        ("orthant", orthant, 4, orthant_oracle),
    ]


def test_criterion_06_projection_oracles():
    rng = np.random.default_rng(42)
    tol = 1e-9
    details = []

    # closed-form bodies: re-derive the minimizer by hand in extended
    # precision (exact oracle), for the scalar and the batched projection
    for name, body, dim, oracle in _criterion_06_closed_form_cases():
        pts = rng.uniform(-3.0, 3.0, size=(1000, dim))
        batch = body.project_batch(pts)
        err = 0.0
        for p, p_batch in zip(pts, batch):
            ref_proj, ref_d2 = oracle(p)
            ref_proj = ref_proj.astype(float)
            err = max(
                err,
                float(np.abs(body.project(p) - ref_proj).max()),
                float(np.abs(p_batch - ref_proj).max()),
                abs(body.dist2(p) - float(ref_d2)),
            )
        assert err <= tol, f"{name} oracle gap {err:.3e}"
        details.append((name, err))

    # PSD cone: certify the nearest-matrix characterization — both parts
    # positive semidefinite (Cholesky with a tolerance shift), orthogonal
    # product, and the distance matching the residual norm; closed-form
    # eigenvalues cross-check the distance at their conditioning limit
    def psd_within(mat, shift):
        try:
            np.linalg.cholesky(mat + shift * np.eye(mat.shape[0]))
            return True
        except np.linalg.LinAlgError:
            return False

    cone = PsdCone(3)
    psd_err = 0.0
    # same draws as one 6-vector per loop pass
    vecs = rng.uniform(-3.0, 3.0, size=(1000, 6))
    for vec, batch_vec in zip(vecs, cone.project_batch(vecs)):
        mat = vec_to_sym(vec, 3)
        d2 = cone.dist2(vec)
        scale = 1.0 + float(np.sum(mat * mat))
        for proj_vec in (cone.project(vec), batch_vec):
            proj = vec_to_sym(proj_vec, 3)
            residual = proj - mat
            psd_err = max(
                psd_err,
                abs(d2 - float(np.sum(residual * residual))),
                abs(float(np.sum(proj * residual))) / scale,
            )
            assert psd_within(proj, tol * (1.0 + np.abs(proj).max()))
            assert psd_within(residual, tol * (1.0 + np.abs(residual).max()))
        lam = _eigs_3x3(mat)
        closed_form_gap = abs(d2 - float(np.sum(np.minimum(lam, 0.0) ** 2)))
        assert closed_form_gap <= 1e-6, f"closed-form distance gap {closed_form_gap:.3e}"
    assert psd_err <= tol, f"psd split error {psd_err:.3e}"
    details.append(("psd", psd_err))

    # polygon: grid argmin oracle at pitch 0.005, tolerance twice the pitch
    poly = HalfspaceIntersection(
        normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
        offsets=[1.5, 1.5, 1.0, 1.2, 1.8],
    )
    pitch = 0.005
    axis = np.arange(-1.6, 1.6 + pitch / 2, pitch)
    gx, gy = np.meshgrid(axis, axis)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    feasible = nodes[np.all(nodes @ poly.normals.T <= poly.offsets + 1e-12, axis=1)]
    queries = rng.uniform(-3.0, 3.0, size=(1000, 2))
    poly_err = 0.0
    for q in queries:
        best = feasible[np.argmin(np.sum((feasible - q) ** 2, axis=1))]
        poly_err = max(poly_err, float(np.linalg.norm(poly.project(q) - best)))
    assert poly_err <= 2 * pitch, f"polygon projection error {poly_err:.4f}"
    details.append(("polygon", poly_err))

    summary = ", ".join(f"{name} {err:.1e}" for name, err in details)
    record_criterion(6, f"max oracle gaps: {summary}")


def test_criterion_06_external_solver_cross_check():
    """Criterion 6's closed-form projections against an external conic solver."""
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(42)
    for name, body, dim, _ in _criterion_06_closed_form_cases():
        # the first 100 of the oracle test's 1000 points
        pts = rng.uniform(-3.0, 3.0, size=(1000, dim))[:100]
        param = cp.Parameter(dim)
        x = cp.Variable(dim)
        if name == "ball":
            constraints = [cp.norm(x - body.center) <= body.radius]
        elif name == "box":
            constraints = [x >= body.lower, x <= body.upper]
        else:
            constraints = [x[:2] >= 0]
        problem = cp.Problem(cp.Minimize(cp.sum_squares(x - param)), constraints)
        solver_err = 0.0
        for p in pts:
            param.value = p
            problem.solve(
                solver=cp.CLARABEL, tol_gap_abs=1e-12, tol_gap_rel=1e-12, tol_feas=1e-12
            )
            solver_err = max(solver_err, float(np.abs(x.value - body.project(p)).max()))
        assert solver_err <= 1e-6, f"{name} external solver gap {solver_err:.3e}"


def test_criterion_07_jump_defect_nonnegative():
    rng = np.random.default_rng(7)
    bodies = [
        Ball(np.array([0.2, -0.1, 0.4]), 1.3),
        Box(np.array([-1.0, -1.0, -0.5]), np.array([0.8, 1.2, 1.0])),
        OrthantProduct(n_plus=2, n_free=1),
        PsdCone(2),
    ]
    worst = np.inf
    for _ in range(10_000):
        body = bodies[int(rng.integers(len(bodies)))]
        n_atoms = int(1 + rng.integers(3))
        marks = FiniteMarkMeasure(
            rng.uniform(-1.0, 1.0, size=(n_atoms, 1)),
            rng.uniform(0.2, 2.0, size=n_atoms),
        )
        y = rng.uniform(-3.0, 3.0, size=3)
        u = rng.uniform(-2.0, 2.0, size=(n_atoms, 3))
        worst = min(worst, jump_defect(body, y, u, marks))
    assert worst >= -1e-12, f"defect dipped to {worst:.3e}"
    record_criterion(7, f"smallest defect over 10^4 draws: {worst:.2e} >= -1e-12")


def test_criterion_08_mollified_distance_bounds():
    rng = np.random.default_rng(3)
    tol = 1e-9
    checked = 0
    for body in (Ball(np.array([0.1, -0.3]), 1.1), Box(np.array([-1.0, -0.6]), np.array([0.9, 1.1]))):
        for _ in range(200):
            x = rng.uniform(-2.5, 2.5, size=2)
            delta = float(rng.uniform(0.05, 0.5))
            res = mollified_dist2(body, x, delta, quad=QuadSpec(nodes_per_axis=9))
            assert not res.low_confidence
            reach = body.dist(x) + delta
            assert -tol <= res.value <= reach**2 + tol
            assert np.linalg.norm(res.gradient) <= 2.0 * reach + tol
            eigs = np.linalg.eigvalsh(res.hessian)
            assert eigs.min() >= -tol and eigs.max() <= 2.0 + tol
            checked += 1
    record_criterion(8, f"{checked} (x, delta) draws obey value/gradient/curvature bounds")


def test_criterion_09_deviation_curve_shape(count_payoff_run):
    _, terminal, sol, _ = count_payoff_run
    curves = apriori_diagnostics(sol, terminal)
    t = curves.times
    expected = 0.25 * (1.0 - t) ** 2
    early = t <= 0.8
    rel = np.abs(curves.value_gap[early] - expected[early]) / expected[early]
    assert rel.max() <= 0.10, f"relative error {rel.max():.3f}"
    assert curves.linear_bound <= 0.3, f"fitted slope {curves.linear_bound:.3f}"
    record_criterion(
        9,
        f"curve matches 0.25(1-t)^2 within {rel.max():.1%} for t <= 0.8; "
        f"fitted slope {curves.linear_bound:.3f} <= 0.3",
    )


def _random_affine_pair(rng, sound):
    """Affine driver pair; unsound pairs break one off-diagonal coupling."""
    m = 2
    a = rng.uniform(-1.0, 1.0, (m, m))
    a[0, 1] = abs(a[0, 1])
    a[1, 0] = abs(a[1, 0])
    b = np.zeros((m, m, 1))
    b[0, 0, 0] = rng.uniform(-1, 1)
    b[1, 1, 0] = rng.uniform(-1, 1)
    c = np.zeros((1, m, m))
    c[0, 0, 0] = rng.uniform(-0.95, 1.0)
    c[0, 1, 1] = rng.uniform(-0.95, 1.0)
    shift = rng.uniform(0.0, 1.0, m)
    reference = AffineGen(a, b, c, np.zeros(m), 1, UNIT_MARKS)
    if sound:
        return AffineGen(a, b, c, shift, 1, UNIT_MARKS), reference
    kind = int(rng.integers(3))
    a2, b2, c2 = a.copy(), b.copy(), c.copy()
    if kind == 0:
        a2[0, 1] = -2.0
    elif kind == 1:
        b2[0, 1, 0] = 1.5
    else:
        c2[0, 0, 0] = -2.5
    return AffineGen(a2, b2, c2, shift, 1, UNIT_MARKS), reference


def test_criterion_10_reduction_coherence():
    rng = np.random.default_rng(7)
    agree = correct = 0
    certified_pairs = []
    for i in range(100):
        sound = i % 2 == 0
        f1, f2 = _random_affine_pair(rng, sound)
        direct = check_comparison_multidim(f1, f2, n_samples=1500, seed=100 + i, c_max=500.0)
        stacked, orthant = stacked_reduction(f1, f2)
        reduced = check_viability_condition(
            stacked, orthant, n_samples=2000, seed=200 + i, c_max=500.0
        )
        expect = "certified" if sound else "falsified"
        for verdict in (direct, reduced):
            assert not verdict.falsified or verdict.replay()["violated"], f"pair {i}: no replay"
        agree += direct.outcome == reduced.outcome
        correct += (direct.outcome == expect) + (reduced.outcome == expect)
        if direct.certified and reduced.certified:
            certified_pairs.append((f1, f2))
    assert agree == 100, f"routes agree on {agree}/100 pairs"

    # certified verdicts must be consistent with solved-path behavior
    grid = TimeGrid.uniform(1.0, 20)
    paths = simulate_paths(grid, UNIT_MARKS, brownian_dim=1, n_paths=2500, seed=77)
    low = TerminalCondition(
        lambda w, n: np.stack([np.tanh(w[:, 0]), np.tanh(w[:, 0] + 0.5 * n[:, 0])], axis=1),
        state_dim=2,
        description="bounded payoff",
    )
    high = TerminalCondition(
        lambda w, n: low(w, n) + 0.3, state_dim=2, description="dominating payoff"
    )
    basis = RegressionBasis(degree=2)
    agreeing = 0
    worst = np.inf
    for f1, f2 in certified_pairs:
        report, _, _ = empirical_comparison(f1, f2, high, low, paths, basis=basis)
        worst = min(worst, report.min_gap)
        agreeing += report.min_gap >= -0.02
    fraction = agreeing / len(certified_pairs)
    assert fraction >= 0.95, f"only {fraction:.0%} of certified pairs kept ordered paths"
    record_criterion(
        10,
        f"routes agree 100/100 ({correct}/200 individually correct); "
        f"{agreeing}/{len(certified_pairs)} certified pairs ordered (worst gap {worst:.3f})",
    )
