"""The array idioms the whole-stack scans rest on, pinned bit for bit.

The word-ball scans form images with one flat product instead of one
small product per matrix, reduce the (d, N) images along the stack axis
and invert Lorentz matrices by a sign-flipped transpose.  Each is exact
only because numpy and OpenBLAS round in a particular way, so each is
compared here, through the int64 view of its bits, with the literal
computation it replaces.  An update that breaks one of these
assumptions fails a test that names it, not only the pinned report
digest.
"""

import numpy as np
import pytest

from conftest import _load, j_inverse
from hypdecomp.doubling import _ray_hit, wall_lifts
from hypdecomp.group import (MATRIX_MATCH_TOL, GroupSpec, lorentz_inverse,
                             stack_product, validate_reflection)
from hypdecomp.matching import PAIR_TOL, _scale, greedy_deviation, stack_hits

FIXTURES = {"thrice_punctured_sphere": 6, "once_punctured_torus": 6,
            "figure3_surface": 5, "figure_eight_knot": 6}


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def random_stack(rng, n, d):
    """Entries of random sign and magnitude e^-20 to e^20, about one in
    five of them a zero of either sign."""
    A = rng.choice([-1.0, 1.0], (n, d, d)) * np.exp(rng.uniform(-20, 20,
                                                                (n, d, d)))
    zero = rng.random((n, d, d)) < 0.2
    A[zero] = np.copysign(0.0, A[zero])
    return A


@pytest.fixture(scope="module")
def balls():
    return {name: _load(name).group.word_ball(wb).matrices
            for name, wb in FIXTURES.items()}


class TestLorentzInverse:
    @pytest.mark.parametrize("d", [3, 4])
    def test_random_stacks_signed_zeros(self, rng, d):
        A = random_stack(rng, 200_000, d)
        assert np.signbit(A[A == 0]).any()
        assert_bitwise(lorentz_inverse(A), j_inverse(A))

    @pytest.mark.parametrize("d", [3, 4])
    def test_single_matrices(self, rng, d):
        for A in random_stack(rng, 50, d):
            assert_bitwise(lorentz_inverse(A), j_inverse(A))

    def test_no_negative_zero_left(self):
        A = np.full((3, 3), -0.0)
        assert not np.signbit(lorentz_inverse(A)).any()
        assert not np.signbit(j_inverse(A)).any()

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_balls(self, balls, name):
        assert_bitwise(lorentz_inverse(balls[name]), j_inverse(balls[name]))


class TestStackProduct:
    @pytest.mark.parametrize("d", [3, 4])
    def test_vector(self, rng, d):
        S = random_stack(rng, 100_000, d)
        v = random_stack(rng, 1, d)[0, 0]
        assert_bitwise(stack_product(S, v), (S @ v).T)
        assert stack_product(S, v).flags.c_contiguous

    @pytest.mark.parametrize("d", [3, 4])
    def test_matrix(self, rng, d):
        S = random_stack(rng, 100_000, d)
        T = random_stack(rng, 1, d)[0]
        assert_bitwise(stack_product(S, T), S @ T)

    @pytest.mark.parametrize("d", [3, 4])
    def test_row_subsets(self, rng, d):
        S = random_stack(rng, 50_000, d)
        v, T = rng.standard_normal(d), rng.standard_normal((d, d))
        for rows in (np.flatnonzero(rng.random(len(S)) < 0.3), [7],
                     np.arange(len(S))[::-3]):
            assert_bitwise(stack_product(S[rows], v), (S[rows] @ v).T)
            assert_bitwise(stack_product(S[rows], T), S[rows] @ T)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_balls(self, balls, name):
        S = balls[name]
        g = _load(name).group
        for x in [*g.cusp_reps, *g.reflections, *g.generators]:
            want = S @ x
            assert_bitwise(stack_product(S, x), want.T if x.ndim == 1
                           else want)

    def test_one_matrix_at_a_time(self, balls):
        S = balls["figure3_surface"]
        v = _load("figure3_surface").group.cusp_reps[0]
        assert_bitwise(stack_product(S, v), np.array([m @ v for m in S]).T)


# The scans on figure3_surface against one-matrix-at-a-time loops.

@pytest.fixture(scope="module")
def fig3_cells(report_fig3):
    dec = report_fig3.ep_decomposition
    return [np.array([op.point for op in cops]) for cops in dec.cell_points]


def loop_stack_hits(stack, src, dsts):
    """Every (t, e) with matrix e carrying ``src`` onto ``dsts[t]``: one
    centroid image and one greedy pairing per matrix."""
    images = np.array([m @ src.mean(axis=0) for m in stack])
    out = []
    for t, dst in enumerate(dsts):
        if dst.shape != src.shape:
            continue
        tol = PAIR_TOL * _scale(src, dst)
        goal = dst.mean(axis=0)
        for e, m in enumerate(stack):
            if (np.max(np.abs(images[e] - goal)) <= tol
                    and greedy_deviation(src @ m.T, dst) <= tol):
                out.append((t, e))
    return out


class TestScansAgainstLoops:
    def test_stack_hits_wall_lifts(self, spec_fig3, fig3_cells):
        lifts = wall_lifts(spec_fig3.group, FIXTURES["figure3_surface"])
        found = 0
        for coords in fig3_cells:
            got = list(stack_hits(lifts, coords, [coords]))
            assert got == loop_stack_hits(lifts, coords, [coords])
            found += len(got)
        assert found

    def test_stack_hits_mirror_cells(self, spec_fig3, balls, fig3_cells):
        ball = balls["figure3_surface"]
        tau = spec_fig3.group.reflections[0]
        for coords in fig3_cells[:4]:
            src = coords @ tau.T
            assert (list(stack_hits(ball, src, fig3_cells))
                    == loop_stack_hits(ball, src, fig3_cells))

    @pytest.mark.parametrize("cusp", [0, 1])
    def test_stabilizer_stack(self, cusp):
        g = _load("figure3_surface").group
        wb = FIXTURES["figure3_surface"]
        p = g.cusp_reps[cusp]
        want = [m for m in g.word_ball(wb).matrices
                if np.max(np.abs(m @ p - p)) <= 1e-8 * np.max(np.abs(p))]
        got = g.stabilizer_stack(cusp, wb)
        assert len(want) > 1
        assert_bitwise(got, np.array(want))

    def test_ray_hit(self, spec_fig3):
        g = spec_fig3.group
        ball = g.word_ball(4)

        def loop_ray_hit(q, vectors):
            ray_q = q / np.linalg.norm(q)
            for e, m in enumerate(ball.matrices):
                for j, v in enumerate(vectors):
                    img = m @ v
                    if np.linalg.norm(ray_q - img / np.linalg.norm(img)) < 1e-8:
                        return e, j
            return None

        for tau in g.reflections:
            for p in g.cusp_reps:
                hit = _ray_hit(ball, tau @ p, g.cusp_reps)
                assert hit is not None
                assert hit == loop_ray_hit(tau @ p, g.cusp_reps)
        # a ray in no cusp orbit
        q = np.array([np.sqrt(2.0), 1.0, 1.0])
        assert _ray_hit(ball, q, g.cusp_reps) == loop_ray_hit(q, g.cusp_reps)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_validate_reflection(self, shuffle):
        g = _load("figure3_surface").group
        if shuffle:
            # (b a b^-1, b, ...): neither reflection is certified at bound 4
            a, b, *rest = g.generators
            g = GroupSpec(g.dimension, [b @ a @ j_inverse(b), b, *rest],
                          g.reflections, g.cusp_reps)

        def loop_certified(tau, word_bound):
            ball = g.word_ball(word_bound).matrices
            for gen in g.generators:
                m = j_inverse(tau) @ gen @ tau
                tol = MATRIX_MATCH_TOL * max(1.0, float(np.max(np.abs(m))))
                if not any(np.max(np.abs(s - m)) <= tol for s in ball):
                    return False
            return True

        verdicts = [validate_reflection(tau, g, word_bound=4)
                    for tau in g.reflections]
        assert verdicts == [loop_certified(tau, 4) for tau in g.reflections]
        assert verdicts == [not shuffle] * 2
