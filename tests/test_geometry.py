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
        lambda: HalfspaceIntersection([[1.0, math.nan]], [1.0]),
        lambda: HalfspaceIntersection([[1.0, 0.0], [0.0, math.inf]], [1.0, 1.0]),
        lambda: HalfspaceIntersection([[1.0, 0.0]], [math.inf]),
        lambda: HalfspaceIntersection([[1.0, 0.0]], [math.nan]),
        lambda: HalfspaceIntersection(np.ones((2, 2, 2)), [1.0, 1.0]),
    ],
    ids=[
        "nan-weight", "inf-weight", "nan-atom", "inf-atom", "nan-radius", "inf-radius",
        "nan-centre", "nan-lower", "nan-upper", "nan-point", "inf-point",
        "nan-normal", "inf-normal", "inf-offset", "nan-offset", "3d-normals",
    ],
)
def test_constructors_refuse_non_finite_inputs(build):
    with pytest.raises(ValueError, match="finite|NaN"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ball([[0.0, 1.0], [1.0, 2.0]], 1.0),
        lambda: Ball(0.0, 1.0),
        lambda: Ball([], 1.0),
        lambda: Box([[0.0], [0.0]], [[1.0], [1.0]]),
        lambda: Box(0.0, 1.0),
        lambda: Box([], []),
    ],
    ids=["matrix-centre", "scalar-centre", "empty-centre", "matrix-bounds", "scalar-bounds",
         "empty-bounds"],
)
def test_ball_and_box_refuse_data_that_is_not_a_nonempty_vector(build):
    with pytest.raises(ValueError, match="nonempty vector"):
        build()


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"nodes_per_axis": 7.5}, TypeError),
        ({"nodes_per_axis": 7.0}, TypeError),
        ({"mc_samples": 1e3}, TypeError),
        ({"seed": 1.0}, TypeError),
        ({"seed": -1}, ValueError),
        ({"seed": 2**64}, ValueError),
        ({"nodes_per_axis": 1}, ValueError),
        ({"mc_samples": 0}, ValueError),
    ],
    ids=["fractional-nodes", "float-nodes", "float-samples", "float-seed", "negative-seed",
         "wide-seed", "one-node", "no-samples"],
)
def test_quad_spec_refuses_bad_budgets_at_construction(fields, error):
    with pytest.raises(error):
        QuadSpec(**fields)


def test_quad_spec_reads_numpy_integers_as_ints():
    quad = QuadSpec(nodes_per_axis=np.int64(5), mc_samples=np.int32(64), seed=np.uint64(3))
    assert all(type(v) is int for v in (quad.nodes_per_axis, quad.mc_samples, quad.seed))


@pytest.mark.parametrize(
    "build",
    [lambda: OrthantProduct(2.0, 0), lambda: OrthantProduct(1, 1.0), lambda: PsdCone(2.0),
     lambda: PsdCone(1.5)],
    ids=["orthant-float-plus", "orthant-float-free", "psd-float-side", "psd-fractional-side"],
)
def test_float_dimensions_refused_at_construction(build):
    with pytest.raises(TypeError):
        build()


def test_numpy_integer_dimensions_accepted_as_ints():
    orth, cone = OrthantProduct(np.int64(1), np.int32(1)), PsdCone(np.int64(2))
    assert type(orth.n_plus) is int and type(orth.n_free) is int and type(cone.side) is int
    assert np.array_equal(orth.project_batch([[-1.0, -2.0]]), [[0.0, -2.0]])
    assert cone.dim == 3 and cone.project_batch(np.zeros((1, 3))).shape == (1, 3)


def test_half_infinite_box_is_a_body():
    box = Box([0.0, -math.inf], [math.inf, 1.0])
    assert box.dist_batch(np.array([[-1.0, 3.0]]))[0] == pytest.approx(math.sqrt(5.0))


def fd_gradient(f_batch, x, eps=1e-6):
    """Central differences at ``x`` of a function of rows, one stencil row per axis."""
    steps = eps * np.eye(x.shape[0])
    return (f_batch(x + steps) - f_batch(x - steps)) / (2.0 * eps)


def fd_hessian_of_grad(grad_batch, x, eps=1e-5):
    steps = eps * np.eye(x.shape[0])
    out = ((grad_batch(x + steps) - grad_batch(x - steps)) / (2.0 * eps)).T
    return (out + out.T) / 2.0


def grad_dist2(body):
    """The gradient 2(x - project(x)) of d2, as a function of rows."""
    return lambda xs: 2.0 * (xs - body.project_batch(xs))


def hess_dist2(body, x):
    """The Hessian of d2 at one point, as a one-row batch: (matrix, defined)."""
    mats, defined = body.hess_dist2_batch(np.asarray(x, dtype=float)[None])
    return mats[0], bool(defined[0])


def within(body, ps, tol):
    """Which rows of ``ps`` meet the body's defining inequalities up to ``tol``."""
    if isinstance(body, Ball):
        return np.linalg.norm(ps - body.center, axis=1) <= body.radius + tol
    if isinstance(body, Box):
        return np.all((ps >= body.lower - tol) & (ps <= body.upper + tol), axis=1)
    if isinstance(body, OrthantProduct):
        return np.all(ps[:, : body.n_plus] >= -tol, axis=1)
    if isinstance(body, HalfspaceIntersection):
        return np.all(ps @ body.normals.T - body.offsets <= tol, axis=1)
    return np.linalg.eigvalsh(vec_to_sym(ps, body.side)).min(axis=1) >= -tol


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
        assert np.allclose(ball.project_batch([[2.0, 0.0]]), [[1.0, 0.0]])
        assert ball.dist2_batch([[2.0, 0.0]])[0] == pytest.approx(1.0)

    def test_ball_inside_identity(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        x = np.array([[0.3, -0.2]])
        assert np.array_equal(ball.project_batch(x), x)
        assert ball.dist2_batch(x)[0] == 0.0

    def test_orthant_product(self):
        orth = OrthantProduct(2, 1)
        assert np.allclose(orth.project_batch([[-1.0, 2.0, 3.0]]), [[0.0, 2.0, 3.0]])
        assert orth.dist2_batch([[-1.0, 2.0, 3.0]])[0] == pytest.approx(1.0)

    def test_box_clipping(self):
        box = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        assert np.allclose(box.project_batch([[2.0, -3.0]]), [[1.0, -1.0]])
        assert box.dist2_batch([[2.0, -3.0]])[0] == pytest.approx(1.0 + 4.0)

    def test_single_halfspace_closed_form(self):
        half = HalfspaceIntersection(normals=[[3.0, 4.0]], offsets=[5.0])
        x = np.array([6.0, 3.0])
        viol = (3.0 * 6.0 + 4.0 * 3.0 - 5.0) / 25.0
        expected = x - viol * np.array([3.0, 4.0])
        assert np.allclose(half.project_batch(x[None])[0], expected, atol=1e-12)

    def test_halfspace_box_agrees_with_box(self):
        square = HalfspaceIntersection(
            normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            offsets=[1.0, 1.0, 1.0, 1.0],
        )
        box = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        xs = np.random.default_rng(31).uniform(-4.0, 4.0, size=(60, 2))
        assert np.allclose(square.project_batch(xs), box.project_batch(xs), atol=1e-10)
        assert np.allclose(square.dist2_batch(xs), box.dist2_batch(xs), rtol=0.0, atol=1e-10)

    def test_far_points_keep_their_accuracy_on_a_random_polytope(self):
        rng = np.random.default_rng(17)
        normals = rng.normal(size=(20, 6))
        poly = HalfspaceIntersection(normals, np.abs(rng.normal(size=20)) + 0.5)
        xs = rng.normal(size=(200, 6)) * 1e3
        ps = poly.project_batch(xs)
        # an unscaled least-distance solve leaves violations near 1e-8 |x| here
        excess = (ps @ normals.T - poly.offsets).max(axis=1)
        assert np.all(excess <= 1e-13 * np.linalg.norm(xs, axis=1))
        # nearest: the obtuse-angle inequality against feasible points, the
        # projections of points near the origin (which lies inside)
        ks = poly.project_batch(rng.normal(size=(20, 6)))
        steps, spokes = xs - ps, ks[:, None, :] - ps[None, :, :]
        # cosines at most 1e-9, multiplied out so that a spoke of length 0 passes
        lengths = np.linalg.norm(steps, axis=1) * np.linalg.norm(spokes, axis=2)
        assert np.all(np.sum(steps * spokes, axis=2) <= 1e-9 * lengths)

    def test_infeasible_halfspaces_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            HalfspaceIntersection(normals=[[1.0], [-1.0]], offsets=[-1.0, -1.0])

    def test_psd_projection_clips_spectrum(self):
        cone = PsdCone(2)
        v = sym_to_vec(np.diag([1.0, -2.0]))
        proj = vec_to_sym(cone.project_batch(v[None])[0], 2)
        assert np.allclose(proj, np.diag([1.0, 0.0]))
        assert cone.dist2_batch(v[None])[0] == pytest.approx(4.0)


class TestProjectionProperties:
    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_idempotent_and_member(self, body):
        xs = np.random.default_rng(11).uniform(-4.0, 4.0, size=(40, body.dim))
        ps = body.project_batch(xs)
        assert within(body, ps, 1e-8).all()
        assert np.allclose(body.project_batch(ps), ps, atol=1e-8)

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_obtuse_angle_inequality(self, body):
        rng = np.random.default_rng(23)
        xs = rng.uniform(-4.0, 4.0, size=(40, body.dim))
        ps = body.project_batch(xs)
        # points of the body: projections of random points, some already inside
        ks = body.project_batch(rng.uniform(-4.0, 4.0, size=(200, body.dim)))
        inner = np.sum((xs - ps)[:, None, :] * (ks[None, :, :] - ps[:, None, :]), axis=2)
        assert np.all(inner <= 1e-10 * np.maximum(1.0, np.linalg.norm(xs, axis=1))[:, None])

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_projection_is_nearest_among_samples(self, body):
        rng = np.random.default_rng(37)
        xs = rng.uniform(-4.0, 4.0, size=(30, body.dim))
        ks = body.project_batch(rng.uniform(-4.0, 4.0, size=(150, body.dim)))
        gaps = np.linalg.norm(xs[:, None, :] - ks[None, :, :], axis=2)
        assert np.all(body.dist_batch(xs)[:, None] <= gaps + 1e-9)

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_gradient_matches_projection_form_and_fd(self, body):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 15:
            x = rng.uniform(-4.0, 4.0, size=body.dim)
            g = grad_dist2(body)(x[None])[0]
            # keep clear of kinks so the FD stencil stays on one smooth piece
            if abs(np.linalg.norm(g)) < 0.1:
                continue
            fd = fd_gradient(body.dist2_batch, x)
            assert np.allclose(g, fd, rtol=1e-4, atol=1e-5)
            checked += 1

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_batch_distance_matches_scalar(self, body):
        rng = np.random.default_rng(43)
        xs = rng.uniform(-4.0, 4.0, size=(25, body.dim))
        batch = body.dist2_batch(xs)
        single = np.array([body.dist2_batch(x[None])[0] for x in xs])
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


PROJECTING_BODIES = bodies_for_properties() + [PsdCone(1), PsdCone(3)]
# the finite target has distances only
BATCH_BODIES = PROJECTING_BODIES + [FinitePointSet(points=[[-1.0, 0.0], [1.0, 1.0], [0.0, -2.0]])]


class TestBatchProjection:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", BATCH_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_rows_match_scalar_projection_bit_for_bit(self, body):
        """Each row of a batch equals its one-row batch, bit for bit."""
        rng = np.random.default_rng(79)
        xs = np.vstack([
            batch_edge_rows(body),
            rng.uniform(-4.0, 4.0, size=(300, body.dim)),
            rng.normal(size=(30, body.dim)) * 1e3,
        ])
        primitives = ("dist2_batch", "dist_batch")
        if hasattr(body, "project_batch"):
            primitives = ("project_batch",) + primitives
        for name in primitives:
            primitive = getattr(body, name)
            expected = np.stack([primitive(x[None])[0] for x in xs])
            assert np.array_equal(primitive(xs), expected), name
            # strided and Fortran-ordered views give the same rows
            assert np.array_equal(primitive(xs[::3]), expected[::3]), name
            assert np.array_equal(primitive(np.asfortranarray(xs)), expected), name
            empty = primitive(np.empty((0, body.dim)))
            assert empty.shape == (0,) + expected.shape[1:], name

    @pytest.mark.parametrize("body", PROJECTING_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_returns_a_new_array(self, body):
        xs = np.zeros((2, body.dim))
        out = body.project_batch(xs)
        out += 1.0
        assert np.array_equal(xs, np.zeros((2, body.dim)))

    def test_psd_nan_row_rejected_like_scalar_projection(self):
        cone = PsdCone(2)
        xs = np.array([[1.0, 0.0, 1.0], [np.nan, 0.0, 1.0]])
        with pytest.raises(ValueError):
            cone.project_batch(xs[1:])
        with pytest.raises(ValueError, match="NaN"):
            cone.project_batch(xs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
    def test_psd_non_finite_entries_rejected_everywhere(self, bad):
        cone = PsdCone(2)
        xs = np.array([[1.0, 0.0, 1.0], [bad, 0.0, 1.0]])
        primitives = ("project_batch", "dist2_batch", "dist_batch", "hess_dist2_batch")
        # in a batch, and alone as a one-row batch
        for name in primitives:
            for rows in (xs, xs[1:]):
                with pytest.raises(ValueError, match="non-finite"):
                    getattr(cone, name)(rows)
                    pytest.fail(f"{name} accepted a {bad} entry in {len(rows)} rows")

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (1, 2, 2)])
    def test_wrong_row_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="rows of shape"):
            Ball(center=[0.0, 0.0], radius=1.0).project_batch(np.zeros(shape))

    @pytest.mark.parametrize("body", BATCH_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_wrong_shape_rejected_by_every_method(self, body):
        n = body.dim
        batch = ("project_batch", "dist2_batch", "dist_batch", "hess_dist2_batch")
        # a bare point, rows of the wrong length (one or two), a stack of batches
        shapes = [(n,), (1, n + 1), (2, n + 1), (1, 2, n)]
        calls = [(name, shape) for name in batch for shape in shapes]
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


HESSIAN_BODIES = PROJECTING_BODIES


class TestBatchHessians:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", HESSIAN_BODIES, ids=lambda b: f"{type(b).__name__}-{b.dim}")
    def test_rows_match_stacked_scalar_hessians(self, body):
        xs = hessian_rows(body, np.random.default_rng(89))
        mats, defined = body.hess_dist2_batch(xs)
        assert mats.shape == (xs.shape[0], body.dim, body.dim)
        assert defined.shape == (xs.shape[0],) and defined.dtype == bool
        for x, mat, ok in zip(xs, mats, defined):
            one, one_ok = hess_dist2(body, x)
            assert one_ok == ok
            assert mat.tobytes() == one.tobytes()
            if not ok:
                assert np.all(mat == 0.0)
        # every body has a nonsmooth locus among the rows
        assert 0 < defined.sum() < xs.shape[0]
        empty, none = body.hess_dist2_batch(np.empty((0, body.dim)))
        assert empty.shape == (0, body.dim, body.dim) and none.shape == (0,)

    def test_undefined_reasons_name_the_locus(self):
        """The Hessian is undefined on each body's nonsmooth locus."""
        loci = [
            (Ball(center=[0.0, 0.0], radius=1.0), [1.0, 0.0]),  # on the sphere
            (Box([0.0], [1.0]), [1.0]),  # a coordinate on a facet
            (OrthantProduct(1, 1), [0.0, 3.0]),  # a constrained coordinate at zero
            (PsdCone(2), sym_to_vec(np.diag([1.0, 0.0]))),  # a zero eigenvalue
            (triangle(), [0.0, 1.5]),  # a tight constraint with a zero multiplier
        ]
        for body, x in loci:
            mat, defined = hess_dist2(body, x)
            assert defined is False and np.all(mat == 0.0), type(body).__name__

    def test_polytope_undefined_on_the_kinks_and_exact_elsewhere(self):
        body = triangle()
        # the vertex (2, 1.5), a facet point, and a point outside the vertex
        # on the edge of the normal cone of x <= 2
        for x in ([2.0, 1.5], [0.0, 1.5], [3.0, 1.5]):
            assert not hess_dist2(body, x)[1], x
        assert np.array_equal(hess_dist2(body, [0.0, 0.0])[0], np.zeros((2, 2)))
        assert np.allclose(hess_dist2(body, [0.0, 3.0])[0], np.diag([0.0, 2.0]), atol=1e-15)
        # beyond the vertex, inside its normal cone, d2 = |x - v|^2
        assert np.allclose(hess_dist2(body, [3.0, 2.5])[0], 2.0 * np.eye(2), atol=1e-15)


class TestHessians:
    def test_ball_interior_zero(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        mat, defined = hess_dist2(ball, [0.2, 0.1])
        assert defined
        assert np.allclose(mat, 0.0)

    def test_ball_outside_closed_form(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        mat, defined = hess_dist2(ball, [2.0, 0.0])
        assert defined
        assert np.allclose(mat, np.diag([2.0, 1.0]))

    def test_ball_boundary_undefined(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        mat, defined = hess_dist2(ball, [1.0, 0.0])
        assert not defined
        assert np.all(mat == 0.0)

    def test_box_facet_undefined_and_pinned_coordinate_smooth(self):
        box = Box(lower=[-1.0, 0.5], upper=[1.0, 0.5])
        assert not hess_dist2(box, [1.0, 2.0])[1]
        mat, defined = hess_dist2(box, [0.2, 2.0])
        assert defined
        assert np.allclose(mat, np.diag([0.0, 2.0]))

    def test_orthant_case_table(self):
        orth = OrthantProduct(2, 1)
        mat, defined = hess_dist2(orth, [-1.0, 2.0, -3.0])
        assert defined
        assert np.allclose(mat, np.diag([2.0, 0.0, 0.0]))
        assert not hess_dist2(orth, [0.0, 2.0, 1.0])[1]

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
            mat, defined = hess_dist2(body, x)
            if not defined:
                continue
            # stay away from the nonsmooth locus by a safe margin
            probe = x + 0.03 * np.vstack([np.eye(body.dim), -np.eye(body.dim)])
            if not body.hess_dist2_batch(probe)[1].all():
                continue
            fd = fd_hessian_of_grad(grad_dist2(body), x)
            assert np.allclose(mat, fd, atol=1e-5)
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
            hess, defined = hess_dist2(cone, v)
            assert defined
            fd = fd_hessian_of_grad(grad_dist2(cone), v)
            assert np.allclose(hess, fd, atol=1e-6)
            eig = np.linalg.eigvalsh(hess)
            assert eig.min() >= -1e-9 and eig.max() <= 2.0 + 1e-9
            checked += 1

    def test_psd_singular_matrix_undefined(self):
        cone = PsdCone(2)
        assert not hess_dist2(cone, sym_to_vec(np.diag([1.0, 0.0])))[1]

    @pytest.mark.parametrize("body", bodies_for_properties(), ids=lambda b: type(b).__name__)
    def test_defined_hessians_bounded_by_two(self, body):
        mats, defined = body.hess_dist2_batch(np.random.default_rng(61).uniform(-4.0, 4.0, size=(30, body.dim)))
        eig = np.linalg.eigvalsh(mats[defined])
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

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_spectral_split_properties(self, seed):
        """S = P(S) - P(-S), both parts PSD and orthogonal (the PSD cone is self-dual)."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 3))
        mat = g + g.T
        positive, negative = vec_to_sym(PsdCone(3).project_batch(sym_to_vec(np.stack([mat, -mat]))), 3)
        assert np.allclose(positive - negative, mat, atol=1e-10)
        assert np.linalg.eigvalsh(positive).min() >= -1e-10
        assert np.linalg.eigvalsh(negative).min() >= -1e-10
        assert abs(np.trace(positive @ negative)) <= 1e-9

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
    """``mollified_dist2`` with one one-row batch per quadrature node, as the reference."""
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
    value = float(kv @ np.array([body.dist2_batch(p[None])[0] for p in pts]) / mass)
    gradient = kv @ np.array([grad_dist2(body)(p[None])[0] for p in pts]) / mass
    hess_sum = np.zeros((dim, dim))
    hess_mass = 0.0
    skipped = 0
    for weight, p in zip(kv, pts):
        mat, defined = hess_dist2(body, p)
        if defined:
            hess_sum += weight * mat
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
                dk = body.dist_batch(x[None])[0]
                assert -1e-12 <= res.value <= (dk + delta) ** 2 + 1e-9
                assert np.linalg.norm(res.gradient) <= 2.0 * (dk + delta) + 1e-9
                eig = np.linalg.eigvalsh(res.hessian)
                assert eig.min() >= -1e-9 and eig.max() <= 2.0 + 1e-9

    def test_converges_monotonically_outside(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        x = np.array([2.0, 0.5])
        errs = [mollified_dist2(ball, x, d).value - ball.dist2_batch(x[None])[0] for d in (0.2, 0.1, 0.05)]
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
        d2 = orth.dist2_batch(x[None])[0]
        assert abs(res.value - d2) < 0.5
        assert res.value >= d2 - 1e-9

    def test_low_confidence_flag_for_tiny_budget(self):
        orth = OrthantProduct(4, 0)
        res = mollified_dist2(orth, np.zeros(4), 0.1, QuadSpec(mc_samples=4, seed=1))
        assert res.low_confidence

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            mollified_dist2(Ball(center=[0.0], radius=1.0), np.array([2.0]), 0.0)

    @pytest.mark.parametrize(
        "x, delta",
        [([2.0], math.nan), ([2.0], math.inf), ([2.0], -1.0), ([math.nan], 0.1), ([math.inf], 0.1),
         ([2.0, 0.0], 0.1), ([[2.0]], 0.1)],
        ids=["nan-width", "inf-width", "negative-width", "nan-point", "inf-point", "long-point",
             "row-point"],
    )
    def test_non_finite_or_misshapen_input_rejected(self, x, delta):
        with pytest.raises(ValueError, match="width must be finite and positive|finite vector of length 1"):
            mollified_dist2(Ball(center=[0.0], radius=1.0), np.array(x), delta)


class TestFinitePointSet:
    def test_two_point_target(self):
        target = FinitePointSet(points=[[-1.0], [1.0]])
        assert np.allclose(target.dist_batch([[0.0], [0.2], [-1.0]]), [1.0, 0.8, 0.0])

    def test_batch_matches_scalar(self):
        target = FinitePointSet(points=[[-1.0, 0.0], [1.0, 1.0]])
        rng = np.random.default_rng(73)
        xs = rng.uniform(-2.0, 2.0, size=(30, 2))
        batch = target.dist2_batch(xs)
        single = np.array([target.dist2_batch(x[None])[0] for x in xs])
        assert np.allclose(batch, single)
