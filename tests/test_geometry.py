import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelab.geometry import (
    Ball,
    Box,
    ConvexBody,
    FinitePointSet,
    HalfspaceIntersection,
    MollifiedResult,
    OrthantProduct,
    PsdCone,
    QuadSpec,
    jump_defect,
    jump_defect_batch,
    mollified_dist2,
    spectral_split,
    sym_to_vec,
    vec_to_sym,
)
from bsdelab.geometry import _bump, _quad_nodes
from bsdelab.stochastic import FiniteMarkMeasure


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteMarkMeasure([[1.0]], [math.nan]),
        lambda: FiniteMarkMeasure([[1.0]], [math.inf]),
        lambda: FiniteMarkMeasure([[math.nan]], [1.0]),
        lambda: FiniteMarkMeasure([[1.0], [math.inf]], [1.0, 1.0]),
        lambda: Ball(np.zeros(2), math.nan),
        lambda: Ball(np.zeros(2), math.inf),
        lambda: Ball([0.0, math.nan], 1.0),
        lambda: Box([math.nan, 0.0], [1.0, 1.0]),
        lambda: Box([0.0, 0.0], [1.0, math.nan]),
        lambda: FinitePointSet([[0.0, 1.0], [math.nan, 0.0]]),
        lambda: FinitePointSet([[0.0, math.inf]]),
    ],
    ids=[
        "nan-weight", "inf-weight", "nan-atom", "inf-atom", "nan-radius", "inf-radius",
        "nan-centre", "nan-lower", "nan-upper", "nan-point", "inf-point",
    ],
)
def test_constructors_refuse_non_finite_inputs(build):
    with pytest.raises(ValueError, match="finite|NaN"):
        build()


def test_half_infinite_box_is_a_body():
    box = Box([0.0, -math.inf], [math.inf, 1.0])
    assert box.dist(np.array([-1.0, 3.0])) == pytest.approx(math.sqrt(5.0))


def fd_gradient(f, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = eps
        out[i] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return out


def fd_hessian_of_grad(g, x, eps=1e-5):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        out[:, j] = (g(x + e) - g(x - e)) / (2.0 * eps)
    return (out + out.T) / 2.0


def triangle():
    return HalfspaceIntersection(
        normals=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], offsets=[2.0, 1.5, 1.0]
    )


def bodies_for_properties():
    return [
        Ball(center=[0.5, -0.25], radius=1.5),
        Box(lower=[-1.0, 0.0, -2.0], upper=[1.0, 2.0, -1.0]),
        OrthantProduct(2, 1),
        triangle(),
        PsdCone(2),
    ]


class TestProjectionPointValues:
    def test_ball_outside(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        assert np.allclose(ball.project([2.0, 0.0]), [1.0, 0.0])
        assert ball.dist2([2.0, 0.0]) == pytest.approx(1.0)

    def test_ball_inside_identity(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        x = np.array([0.3, -0.2])
        assert np.array_equal(ball.project(x), x)
        assert ball.dist2(x) == 0.0

    def test_orthant_product(self):
        orth = OrthantProduct(2, 1)
        assert np.allclose(orth.project([-1.0, 2.0, 3.0]), [0.0, 2.0, 3.0])
        assert orth.dist2([-1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_box_clipping(self):
        box = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        assert np.allclose(box.project([2.0, -3.0]), [1.0, -1.0])
        assert box.dist2([2.0, -3.0]) == pytest.approx(1.0 + 4.0)

    def test_single_halfspace_closed_form(self):
        half = HalfspaceIntersection(normals=[[3.0, 4.0]], offsets=[5.0])
        x = np.array([6.0, 3.0])
        viol = (3.0 * 6.0 + 4.0 * 3.0 - 5.0) / 25.0
        expected = x - viol * np.array([3.0, 4.0])
        assert np.allclose(half.project(x), expected, atol=1e-12)

    def test_halfspace_box_agrees_with_box(self):
        square = HalfspaceIntersection(
            normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            offsets=[1.0, 1.0, 1.0, 1.0],
        )
        box = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        rng = np.random.default_rng(31)
        for _ in range(60):
            x = rng.uniform(-4.0, 4.0, size=2)
            assert np.allclose(square.project(x), box.project(x), atol=1e-10)
            assert square.dist2(x) == pytest.approx(box.dist2(x), abs=1e-10)

    def test_far_points_keep_their_accuracy_on_a_random_polytope(self):
        rng = np.random.default_rng(17)
        normals = rng.normal(size=(20, 6))
        poly = HalfspaceIntersection(normals, np.abs(rng.normal(size=20)) + 0.5)
        xs = rng.normal(size=(200, 6)) * 1e3
        ps = poly.project_batch(xs)
        # an unscaled least-distance solve leaves violations near 1e-8 |x| here
        excess = (ps @ normals.T - poly.offsets).max(axis=1)
        assert np.all(excess <= 1e-13 * np.linalg.norm(xs, axis=1))
        # nearest: the obtuse-angle inequality against feasible points
        ks = np.array([poly.sample_point(rng) for _ in range(20)])
        steps, spokes = xs - ps, ks[:, None, :] - ps[None, :, :]
        cosines = np.sum(steps * spokes, axis=2) / (
            np.linalg.norm(steps, axis=1) * np.linalg.norm(spokes, axis=2)
        )
        assert cosines.max() <= 1e-9

    def test_infeasible_halfspaces_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            HalfspaceIntersection(normals=[[1.0], [-1.0]], offsets=[-1.0, -1.0])

    def test_psd_projection_clips_spectrum(self):
        cone = PsdCone(2)
        v = sym_to_vec(np.diag([1.0, -2.0]))
        proj = vec_to_sym(cone.project(v), 2)
        assert np.allclose(proj, np.diag([1.0, 0.0]))
        assert cone.dist2(v) == pytest.approx(4.0)


class TestProjectionProperties:
    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_idempotent_and_member(self, body):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.uniform(-4.0, 4.0, size=body.dim)
            p = body.project(x)
            assert body.contains(p, tol=1e-8)
            assert np.allclose(body.project(p), p, atol=1e-8)

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_obtuse_angle_inequality(self, body):
        rng = np.random.default_rng(23)
        for _ in range(40):
            x = rng.uniform(-4.0, 4.0, size=body.dim)
            p = body.project(x)
            for _ in range(5):
                k = body.sample_point(rng)
                assert (x - p) @ (k - p) <= 1e-10 * max(1.0, np.linalg.norm(x))

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_projection_is_nearest_among_samples(self, body):
        rng = np.random.default_rng(37)
        for _ in range(30):
            x = rng.uniform(-4.0, 4.0, size=body.dim)
            d = body.dist(x)
            for _ in range(5):
                k = body.sample_point(rng)
                assert d <= np.linalg.norm(x - k) + 1e-9

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_gradient_matches_projection_form_and_fd(self, body):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 15:
            x = rng.uniform(-4.0, 4.0, size=body.dim)
            p = body.project(x)
            g = body.grad_dist2(x)
            assert np.allclose(g, 2.0 * (x - p), atol=1e-9)
            # keep clear of kinks so the FD stencil stays on one smooth piece
            if abs(np.linalg.norm(x - p)) < 0.05:
                continue
            fd = fd_gradient(body.dist2, x)
            assert np.allclose(g, fd, rtol=1e-4, atol=1e-5)
            checked += 1

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_batch_distance_matches_scalar(self, body):
        rng = np.random.default_rng(43)
        xs = rng.uniform(-4.0, 4.0, size=(25, body.dim))
        batch = body.dist2_batch(xs)
        single = np.array([body.dist2(x) for x in xs])
        assert np.allclose(batch, single, atol=1e-12)


def batch_edge_rows(body):
    """Rows where a projection formula switches branch, for each body kind."""
    if isinstance(body, Ball):
        units = np.vstack([np.eye(body.dim), -np.eye(body.dim)])
        # the centre, and points exactly on the sphere along each axis
        return np.vstack([body.center, body.center + body.radius * units])
    if isinstance(body, Box):
        return np.vstack([body.lower, body.upper, np.where([1, 0, 1], body.lower, 5.0)])
    if isinstance(body, OrthantProduct):
        return np.array([[0.0, -0.0, 1.0], [0.0, 3.0, -2.0], [-1.0, 0.0, 0.0]])
    if isinstance(body, PsdCone):
        g = np.arange(1.0, body.side + 1.0)
        singular = [np.zeros((body.side, body.side)), np.outer(g, g), -np.outer(g, g)]
        if body.side > 1:
            singular.append(np.diag(np.r_[1.0, np.zeros(body.side - 1)]))
        return np.array([sym_to_vec(m) for m in singular])
    if isinstance(body, HalfspaceIntersection):
        # a vertex and a point on a facet
        return np.array([[2.0, 1.5], [0.0, 1.5]])
    return body.points.copy()


BATCH_BODIES = bodies_for_properties() + [
    PsdCone(1),
    PsdCone(3),
    FinitePointSet(points=[[-1.0, 0.0], [1.0, 1.0], [0.0, -2.0]]),
]


class TestBatchProjection:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", BATCH_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_rows_match_scalar_projection_bit_for_bit(self, body):
        rng = np.random.default_rng(79)
        xs = np.vstack([
            batch_edge_rows(body),
            rng.uniform(-4.0, 4.0, size=(300, body.dim)),
            rng.normal(size=(30, body.dim)) * 1e3,
        ])
        expected = np.stack([body.project(x) for x in xs])
        assert np.array_equal(body.project_batch(xs), expected)
        # strided and Fortran-ordered views give the same rows
        assert np.array_equal(body.project_batch(xs[::3]), expected[::3])
        assert np.array_equal(body.project_batch(np.asfortranarray(xs)), expected)
        empty = body.project_batch(np.empty((0, body.dim)))
        assert empty.shape == (0, body.dim)

    @pytest.mark.parametrize("body", BATCH_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_returns_a_new_array(self, body):
        xs = np.zeros((2, body.dim))
        out = body.project_batch(xs)
        out += 1.0
        assert np.array_equal(xs, np.zeros((2, body.dim)))

    def test_psd_nan_row_rejected_like_scalar_projection(self):
        cone = PsdCone(2)
        xs = np.array([[1.0, 0.0, 1.0], [np.nan, 0.0, 1.0]])
        with pytest.raises(ValueError):
            cone.project(xs[1])
        with pytest.raises(ValueError, match="NaN"):
            cone.project_batch(xs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
    def test_psd_non_finite_entries_rejected_everywhere(self, bad):
        cone = PsdCone(2)
        xs = np.array([[1.0, 0.0, 1.0], [bad, 0.0, 1.0]])
        calls = {
            "spectral_split": lambda: spectral_split(vec_to_sym(xs[1], 2)),
            "project": lambda: cone.project(xs[1]),
            "dist2": lambda: cone.dist2(xs[1]),
            "contains": lambda: cone.contains(xs[1]),
            "hess_dist2": lambda: cone.hess_dist2(xs[1]),
            "project_batch": lambda: cone.project_batch(xs),
            "dist2_batch": lambda: cone.dist2_batch(xs),
            "hess_dist2_batch": lambda: cone.hess_dist2_batch(xs),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="non-finite"):
                call()
                pytest.fail(f"{name} accepted a {bad} entry")

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (1, 2, 2)])
    def test_wrong_row_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="rows of shape"):
            Ball(center=[0.0, 0.0], radius=1.0).project_batch(np.zeros(shape))

    @pytest.mark.parametrize("body", BATCH_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_wrong_shape_rejected_by_every_method(self, body):
        n = body.dim
        batch = ("project_batch", "dist2_batch", "dist_batch", "hess_dist2_batch")
        scalar = ("project", "dist2", "dist", "grad_dist2", "hess_dist2")
        calls = [(name, shape) for name in batch for shape in [(n,), (2, n + 1), (1, 2, n)]]
        # a point of the wrong length
        calls += [(name, (n + 1,)) for name in scalar]
        for name, shape in calls:
            if not hasattr(body, name):
                continue
            with pytest.raises(ValueError, match="rows of shape"):
                getattr(body, name)(np.zeros(shape))
                pytest.fail(f"{name} accepted shape {shape}")


def hessian_rows(body, rng):
    """Random points plus points where the Hessian of d2 is undefined."""
    edge = batch_edge_rows(body)
    if isinstance(body, (Ball, Box)):
        # projections of far points land on the sphere or on facets
        edge = np.vstack([edge, body.project_batch(rng.uniform(-6.0, 6.0, size=(10, body.dim)))])
    return np.vstack([edge, rng.uniform(-4.0, 4.0, size=(200, body.dim))])


HESSIAN_BODIES = bodies_for_properties() + [PsdCone(1), PsdCone(3)]


class TestBatchHessians:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", HESSIAN_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_rows_match_stacked_scalar_hessians(self, body):
        xs = hessian_rows(body, np.random.default_rng(89))
        mats, defined = body.hess_dist2_batch(xs)
        assert mats.shape == (xs.shape[0], body.dim, body.dim)
        assert defined.shape == (xs.shape[0],) and defined.dtype == bool
        for x, mat, ok in zip(xs, mats, defined):
            res = body.hess_dist2(x)
            assert res.defined == ok
            if ok:
                assert mat.tobytes() == res.matrix.tobytes()
            else:
                assert res.reason and np.all(mat == 0.0)
        # every body has a nonsmooth locus among the rows
        assert 0 < defined.sum() < xs.shape[0]
        empty, none = body.hess_dist2_batch(np.empty((0, body.dim)))
        assert empty.shape == (0, body.dim, body.dim) and none.shape == (0,)

    def test_undefined_reasons_name_the_locus(self):
        assert Ball(center=[0.0, 0.0], radius=1.0).hess_dist2([1.0, 0.0]).reason == "point on the sphere"
        assert "facet" in Box([0.0], [1.0]).hess_dist2([1.0]).reason
        assert "zero" in OrthantProduct(1, 1).hess_dist2([0.0, 3.0]).reason
        assert "eigenvalue" in PsdCone(2).hess_dist2(sym_to_vec(np.diag([1.0, 0.0]))).reason
        assert "zero multiplier" in triangle().hess_dist2([0.0, 1.5]).reason

    def test_polytope_undefined_on_the_kinks_and_exact_elsewhere(self):
        body = triangle()
        # the vertex (2, 1.5), a facet point, and a point outside the vertex
        # on the edge of the normal cone of x <= 2
        for x in ([2.0, 1.5], [0.0, 1.5], [3.0, 1.5]):
            assert not body.hess_dist2(x).defined, x
        assert np.array_equal(body.hess_dist2([0.0, 0.0]).matrix, np.zeros((2, 2)))
        assert np.allclose(body.hess_dist2([0.0, 3.0]).matrix, np.diag([0.0, 2.0]), atol=1e-15)
        # beyond the vertex, inside its normal cone, d2 = |x - v|^2
        assert np.allclose(body.hess_dist2([3.0, 2.5]).matrix, 2.0 * np.eye(2), atol=1e-15)


class TestHessians:
    def test_ball_interior_zero(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        res = ball.hess_dist2(np.array([0.2, 0.1]))
        assert res.defined
        assert np.allclose(res.matrix, 0.0)

    def test_ball_outside_closed_form(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        res = ball.hess_dist2(np.array([2.0, 0.0]))
        assert res.defined
        assert np.allclose(res.matrix, np.diag([2.0, 1.0]))

    def test_ball_boundary_undefined(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        res = ball.hess_dist2(np.array([1.0, 0.0]))
        assert not res.defined
        with pytest.raises(ValueError, match="undefined"):
            res.require()

    def test_box_facet_undefined_and_pinned_coordinate_smooth(self):
        box = Box(lower=[-1.0, 0.5], upper=[1.0, 0.5])
        assert not box.hess_dist2(np.array([1.0, 2.0])).defined
        res = box.hess_dist2(np.array([0.2, 2.0]))
        assert res.defined
        assert np.allclose(res.matrix, np.diag([0.0, 2.0]))

    def test_orthant_case_table(self):
        orth = OrthantProduct(2, 1)
        res = orth.hess_dist2(np.array([-1.0, 2.0, -3.0]))
        assert res.defined
        assert np.allclose(res.matrix, np.diag([2.0, 0.0, 0.0]))
        assert not orth.hess_dist2(np.array([0.0, 2.0, 1.0])).defined

    @pytest.mark.parametrize(
        "body",
        [Ball(center=[0.5, -0.25], radius=1.5), Box(lower=[-1.0, 0.0], upper=[1.0, 2.0]),
         OrthantProduct(2, 1), triangle()],
        ids=lambda b: type(b).__name__,
    )
    def test_fd_oracle_on_smooth_points(self, body):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 12:
            x = rng.uniform(-4.0, 4.0, size=body.dim)
            res = body.hess_dist2(x)
            if not res.defined:
                continue
            # stay away from the nonsmooth locus by a safe margin
            probe = [body.hess_dist2(x + dx).defined
                     for dx in 0.03 * np.vstack([np.eye(body.dim), -np.eye(body.dim)])]
            if not all(probe):
                continue
            fd = fd_hessian_of_grad(body.grad_dist2, x)
            assert np.allclose(res.matrix, fd, atol=1e-5)
            checked += 1

    def test_psd_fd_oracle_and_eigenvalue_range(self):
        cone = PsdCone(3)
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 10:
            g = rng.normal(size=(3, 3))
            mat = g + g.T
            if np.min(np.abs(np.linalg.eigvalsh(mat))) < 0.3:
                continue
            v = sym_to_vec(mat)
            res = cone.hess_dist2(v)
            assert res.defined
            fd = fd_hessian_of_grad(cone.grad_dist2, v)
            assert np.allclose(res.matrix, fd, atol=1e-6)
            eig = np.linalg.eigvalsh(res.matrix)
            assert eig.min() >= -1e-9 and eig.max() <= 2.0 + 1e-9
            checked += 1

    def test_psd_singular_matrix_undefined(self):
        cone = PsdCone(2)
        assert not cone.hess_dist2(sym_to_vec(np.diag([1.0, 0.0]))).defined

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_defined_hessians_bounded_by_two(self, body):
        rng = np.random.default_rng(61)
        for _ in range(30):
            x = rng.uniform(-4.0, 4.0, size=body.dim)
            res = body.hess_dist2(x)
            if res.defined:
                eig = np.linalg.eigvalsh(res.matrix)
                assert eig.min() >= -1e-6 and eig.max() <= 2.0 + 1e-6


class TestSymmetricEmbedding:
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_and_isometry(self, side, seed):
        rng = np.random.default_rng(seed)
        g1, g2 = rng.normal(size=(2, side, side))
        a, b = g1 + g1.T, g2 + g2.T
        assert np.allclose(vec_to_sym(sym_to_vec(a), side), a, atol=1e-12)
        assert sym_to_vec(a) @ sym_to_vec(b) == pytest.approx(np.trace(a @ b), abs=1e-9)

    def test_spectral_split_diagonal(self):
        parts = spectral_split(np.diag([1.0, -2.0]))
        assert np.allclose(parts.positive, np.diag([1.0, 0.0]))
        assert np.allclose(parts.negative, np.diag([0.0, 2.0]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_spectral_split_properties(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 3))
        mat = g + g.T
        parts = spectral_split(mat)
        assert np.allclose(parts.positive - parts.negative, mat, atol=1e-10)
        assert np.linalg.eigvalsh(parts.positive).min() >= -1e-10
        assert np.linalg.eigvalsh(parts.negative).min() >= -1e-10
        assert abs(np.trace(parts.positive @ parts.negative)) <= 1e-9

    @pytest.mark.parametrize("side", [1, 2, 3, 4])
    def test_stacked_embedding_matches_entrywise_loop(self, side):
        def loop_sym_to_vec(mat):
            return np.array([
                mat[i, i] if i == j else math.sqrt(2.0) * mat[i, j]
                for i in range(side) for j in range(i, side)
            ])

        def loop_vec_to_sym(vec):
            out = np.zeros((side, side))
            k = 0
            for i in range(side):
                for j in range(i, side):
                    out[i, j] = out[j, i] = vec[k] if i == j else vec[k] * (1.0 / math.sqrt(2.0))
                    k += 1
            return out

        rng = np.random.default_rng(side)
        g = rng.normal(size=(20, side, side))
        mats = g + np.swapaxes(g, 1, 2)
        vecs = np.stack([loop_sym_to_vec(m) for m in mats])
        assert np.array_equal(sym_to_vec(mats), vecs)
        assert np.array_equal(sym_to_vec(mats[0]), vecs[0])
        expected = np.stack([loop_vec_to_sym(v) for v in vecs])
        assert np.array_equal(vec_to_sym(vecs, side), expected)
        assert np.array_equal(vec_to_sym(vecs[0], side), expected[0])

    @pytest.mark.parametrize("lead", [(), (7,), (5, 3)])
    def test_embedding_is_c_ordered(self, lead):
        g = np.random.default_rng(3).normal(size=lead + (3, 3))
        vecs = sym_to_vec(g + np.swapaxes(g, -1, -2))
        assert vecs.shape == lead + (6,)
        assert vecs.flags.c_contiguous

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            spectral_split(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestJumpDefect:
    def test_hand_computed_value(self):
        # half line R_+, y = -1, jump to +1: d2 drops 1, gradient term is 4
        orth = OrthantProduct(1, 0)
        marks = FiniteMarkMeasure(atoms=[[1.0]], weights=[1.0])
        val = jump_defect(orth, np.array([-1.0]), np.array([[2.0]]), marks)
        assert val == pytest.approx(3.0)

    def test_zero_jump_zero_defect(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        marks = FiniteMarkMeasure(atoms=[[1.0]], weights=[2.0])
        assert jump_defect(ball, np.array([3.0, 0.0]), np.zeros((1, 2)), marks) == 0.0

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_nonnegative_for_convex_bodies(self, body):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]], weights=[1.0, 2.5])
        rng = np.random.default_rng(67)
        for _ in range(200):
            y = rng.uniform(-5.0, 5.0, size=body.dim)
            u = rng.uniform(-3.0, 3.0, size=(2, body.dim))
            assert jump_defect(body, y, u, marks) >= -1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_batch_matches_rows(self, body):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]], weights=[1.0, 2.5])
        rng = np.random.default_rng(71)
        ys = np.vstack([batch_edge_rows(body), rng.uniform(-5.0, 5.0, size=(80, body.dim))])
        us = rng.uniform(-3.0, 3.0, size=(ys.shape[0], 2, body.dim))
        us[::4] = 0.0
        batch = jump_defect_batch(body, ys, us, marks)
        rows = np.array([jump_defect(body, y, u, marks) for y, u in zip(ys, us)])
        assert batch.tobytes() == rows.tobytes()

    def test_batch_rejects_missing_atoms(self):
        marks = FiniteMarkMeasure(atoms=[[1.0], [-0.5]], weights=[1.0, 2.5])
        with pytest.raises(ValueError, match="one row per atom"):
            jump_defect_batch(OrthantProduct(1, 0), np.zeros((3, 1)), np.zeros((3, 1, 1)), marks)


def looped_mollified_dist2(body: ConvexBody, x, delta, quad) -> MollifiedResult:
    """``mollified_dist2`` with one scalar call per quadrature node, as the reference."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[0]
    nodes, base_w = _quad_nodes(dim, quad)
    kernel = _bump(np.sum(nodes * nodes, axis=1)) * base_w
    live = kernel > 0.0
    nodes_used = int(live.sum())
    mass = kernel[live].sum()
    low_confidence = nodes_used < 8 or mass <= 0.0
    pts = x - delta * nodes[live]
    kv = kernel[live]
    value = float(kv @ np.array([body.dist2(p) for p in pts]) / mass)
    gradient = kv @ np.array([body.grad_dist2(p) for p in pts]) / mass
    hess_sum = np.zeros((dim, dim))
    hess_mass = 0.0
    skipped = 0
    for weight, p in zip(kv, pts):
        res = body.hess_dist2(p)
        if res.defined:
            hess_sum += weight * res.matrix
            hess_mass += weight
        else:
            skipped += 1
    if hess_mass > 0.0:
        hessian = hess_sum / hess_mass
    else:
        hessian = np.zeros((dim, dim))
        low_confidence = True
    if skipped > 0.1 * nodes_used:
        low_confidence = True
    return MollifiedResult(value, gradient, hessian, low_confidence, nodes_used)


class TestMollifiedDistance:
    @pytest.mark.parametrize(
        "body",
        [Ball(center=[0.5, -0.25, 0.0, 1.0], radius=1.5),
         Box(lower=[-1.0, 0.0, -2.0, -0.5], upper=[1.0, 2.0, -1.0, 0.5]),
         OrthantProduct(2, 2), PsdCone(2)],
        ids=lambda b: f"{type(b).__name__}-{b.dim}",
    )
    def test_batched_matches_node_loop(self, body):
        rng = np.random.default_rng(83)
        quad = QuadSpec(mc_samples=1000, seed=3)
        xs = rng.uniform(-3.0, 3.0, size=(5, body.dim))
        # points on the boundary put quadrature nodes on the nonsmooth locus
        xs = np.vstack([xs, body.project_batch(xs[:2] * 3.0)])
        for x in xs:
            delta = rng.uniform(0.05, 0.8)
            got = mollified_dist2(body, x, delta, quad)
            ref = looped_mollified_dist2(body, x, delta, quad)
            assert abs(got.value - ref.value) <= 1e-12
            assert np.abs(got.gradient - ref.gradient).max() <= 1e-12
            assert np.abs(got.hessian - ref.hessian).max() <= 1e-12
            assert got.low_confidence == ref.low_confidence
            assert got.nodes_used == ref.nodes_used

    def test_bounds_hold_pointwise(self):
        bodies = [Ball(center=[0.0, 0.0], radius=1.0), Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])]
        rng = np.random.default_rng(71)
        for body in bodies:
            for _ in range(25):
                x = rng.uniform(-3.0, 3.0, size=2)
                delta = rng.uniform(0.05, 0.5)
                res = mollified_dist2(body, x, delta)
                dk = body.dist(x)
                assert -1e-12 <= res.value <= (dk + delta) ** 2 + 1e-9
                assert np.linalg.norm(res.gradient) <= 2.0 * (dk + delta) + 1e-9
                eig = np.linalg.eigvalsh(res.hessian)
                assert eig.min() >= -1e-9 and eig.max() <= 2.0 + 1e-9

    def test_converges_monotonically_outside(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        x = np.array([2.0, 0.5])
        errs = [mollified_dist2(ball, x, d).value - ball.dist2(x) for d in (0.2, 0.1, 0.05)]
        assert all(e >= 0.0 for e in errs)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_deep_interior_value_small(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        res = mollified_dist2(ball, np.array([0.1, 0.0]), 0.2)
        assert res.value <= 0.2**2 + 1e-12

    def test_monte_carlo_route_above_three_dims(self):
        orth = OrthantProduct(4, 0)
        x = np.array([-1.0, 0.5, -0.3, 2.0])
        res = mollified_dist2(orth, x, 0.3, QuadSpec(mc_samples=4000, seed=5))
        assert isinstance(res, MollifiedResult)
        assert abs(res.value - orth.dist2(x)) < 0.5
        assert res.value >= orth.dist2(x) - 1e-9

    def test_low_confidence_flag_for_tiny_budget(self):
        orth = OrthantProduct(4, 0)
        res = mollified_dist2(orth, np.zeros(4), 0.1, QuadSpec(mc_samples=4, seed=1))
        assert res.low_confidence

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            mollified_dist2(Ball(center=[0.0], radius=1.0), np.array([2.0]), 0.0)


class TestFinitePointSet:
    def test_two_point_target(self):
        target = FinitePointSet(points=[[-1.0], [1.0]])
        assert target.dist(np.array([0.0])) == pytest.approx(1.0)
        assert np.allclose(target.project(np.array([0.2])), [1.0])
        assert target.contains(np.array([-1.0]))

    def test_batch_matches_scalar(self):
        target = FinitePointSet(points=[[-1.0, 0.0], [1.0, 1.0]])
        rng = np.random.default_rng(73)
        xs = rng.uniform(-2.0, 2.0, size=(30, 2))
        batch = target.dist2_batch(xs)
        single = np.array([target.dist2(x) for x in xs])
        assert np.allclose(batch, single)
