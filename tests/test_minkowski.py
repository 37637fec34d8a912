import math

import numpy as np
import pytest

from conftest import load_tool, random_boost, random_hyperboloid
from hypdecomp.minkowski import (CausalClass, GeometryError, Model, ModelPoint,
                                 classify, hyperbolic_distance, is_isometry,
                                 lorentz_product, model_convert)

# the PSL(2) and reflection builders of the fixture generator
gen_fixtures = load_tool("gen_fixtures")
psl2_to_lorentz = gen_fixtures.psl2_to_lorentz
reflection_in_hyperplane = gen_fixtures.reflection_in_hyperplane

MODELS = [Model.HYPERBOLOID, Model.BALL, Model.HALFSPACE, Model.KLEIN]


class TestLorentzProduct:
    def test_basis_vector(self):
        assert lorentz_product([1, 0, 0], [1, 0, 0]) == -1.0

    def test_null_pair(self):
        assert lorentz_product([1, 1, 0], [1, -1, 0]) == -2.0

    def test_spacelike_unit(self):
        assert lorentz_product([0, 1, 0], [0, 1, 0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            lorentz_product([1, 0, 0], [1, 0, 0, 0])

    def test_bilinear_symmetric(self, rng):
        for _ in range(50):
            x, y, z = (rng.normal(size=4) for _ in range(3))
            a, b = rng.normal(size=2)
            lhs = lorentz_product(a * x + b * y, z)
            rhs = a * lorentz_product(x, z) + b * lorentz_product(y, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            assert abs(lorentz_product(x, y) - lorentz_product(y, x)) <= 1e-12


class TestClassify:
    def test_timelike(self):
        assert classify(np.array([2.0, 1.0, 0.0])) is CausalClass.TIMELIKE

    def test_lightlike(self):
        assert classify(np.array([1.0, 1.0, 0.0])) is CausalClass.LIGHTLIKE

    def test_spacelike(self):
        assert classify(np.array([0.0, 1.0, 0.0])) is CausalClass.SPACELIKE

    def test_zero(self):
        assert classify(np.zeros(3)) is CausalClass.ZERO

    def test_tolerance_band_is_relative(self):
        x = 1e6 * np.array([1.0, 1.0, 0.0])
        x[0] += 1e-6
        assert classify(x) is CausalClass.LIGHTLIKE


class TestIsIsometry:
    def test_identity(self):
        assert is_isometry(np.eye(3))

    def test_orthogonal_reflection(self):
        assert is_isometry(np.diag([1.0, 1.0, -1.0]))

    def test_sheet_swap_rejected(self):
        assert not is_isometry(np.diag([-1.0, 1.0, 1.0]))

    def test_non_square(self):
        with pytest.raises(GeometryError):
            is_isometry(np.ones((2, 3)))

    def test_product_preserved(self, rng):
        for n in (2, 3):
            A = random_boost(rng, n)
            assert is_isometry(A)
            for _ in range(20):
                x = random_hyperboloid(rng, n)
                y = random_hyperboloid(rng, n)
                assert abs(lorentz_product(A @ x, A @ y)
                           - lorentz_product(x, y)) < 1e-10


class TestReflection:
    def test_coordinate_reflection(self):
        R = reflection_in_hyperplane(np.array([0.0, 1.0, 0.0]))
        assert np.allclose(R, np.diag([1.0, -1.0, 1.0]))

    def test_normal_negated(self, rng):
        for _ in range(10):
            u = rng.normal(size=3)
            if lorentz_product(u, u) <= 0:
                continue
            R = reflection_in_hyperplane(u)
            assert np.max(np.abs(R @ u + u)) < 1e-10 * np.max(np.abs(u))

    def test_involution_on_random_vectors(self, rng):
        # sample 100 random timelike vectors through random spacelike normals
        worst = 0.0
        for _ in range(100):
            u = rng.normal(size=4)
            while lorentz_product(u, u) <= 0.1:
                u = rng.normal(size=4)
            R = reflection_in_hyperplane(u)
            x = random_hyperboloid(rng, 3)
            worst = max(worst, float(np.max(np.abs(R @ (R @ x) - x))))
        assert worst < 1e-12

    def test_rejects_timelike_normal(self):
        with pytest.raises(GeometryError):
            reflection_in_hyperplane(np.array([1.0, 0.0, 0.0]))


class TestPsl2:
    def test_identity(self):
        assert np.allclose(psl2_to_lorentz(np.eye(2)), np.eye(3))
        assert np.allclose(psl2_to_lorentz(np.eye(2, dtype=complex)), np.eye(4))

    def test_det_checked(self):
        with pytest.raises(GeometryError):
            psl2_to_lorentz(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_inverse_property(self, rng):
        done = 0
        while done < 20:
            m = rng.normal(size=(2, 2))
            det = np.linalg.det(m)
            if det < 0.1:
                continue
            m /= math.sqrt(det)
            minv = np.linalg.inv(m)
            prod = psl2_to_lorentz(m) @ psl2_to_lorentz(minv)
            assert np.max(np.abs(prod - np.eye(3))) < 1e-10
            done += 1

    def test_homomorphism(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a /= np.sqrt(np.linalg.det(a))
            b /= np.sqrt(np.linalg.det(b))
            lhs = psl2_to_lorentz(a @ b)
            rhs = psl2_to_lorentz(a) @ psl2_to_lorentz(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_boost_displacement(self):
        # diag(e^{1/2}, e^{-1/2}) translates distance 1 along its axis
        m = np.diag([math.exp(0.5), math.exp(-0.5)])
        A = psl2_to_lorentz(m)
        x = np.array([1.0, 0.0, 0.0])
        d = math.acosh(-lorentz_product(x, A @ x))
        assert abs(d - 1.0) < 1e-12


class TestModelConvert:
    def test_center_to_klein(self):
        p = ModelPoint(Model.HYPERBOLOID, [1.0, 0.0, 0.0])
        assert np.allclose(model_convert(p, Model.KLEIN).coords, [0.0, 0.0])

    def test_formula_substitution(self):
        p = ModelPoint(Model.HYPERBOLOID, [math.sqrt(2.0), 1.0, 0.0])
        out = model_convert(p, Model.KLEIN).coords
        assert np.allclose(out, [1.0 / math.sqrt(2.0), 0.0])

    def test_ball_origin_to_halfspace(self):
        p = ModelPoint(Model.BALL, [0.0, 0.0])
        assert np.allclose(model_convert(p, Model.HALFSPACE).coords, [0.0, 1.0])

    def test_invalid_source_rejected(self):
        with pytest.raises(GeometryError):
            model_convert(ModelPoint(Model.BALL, [1.5, 0.0]), Model.KLEIN)

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_trips(self, rng, n):
        # all ordered model pairs on 1000 random hyperboloid points
        pts = [random_hyperboloid(rng, n, radius=3.0) for _ in range(1000 // 2)]
        worst = 0.0
        for x in pts:
            for src in MODELS:
                start = model_convert(ModelPoint(Model.HYPERBOLOID, x), src)
                for dst in MODELS:
                    back = model_convert(model_convert(start, dst), src)
                    worst = max(worst, float(np.max(np.abs(back.coords
                                                           - start.coords))))
        assert worst < 1e-12

    def test_distance_model_independent(self, rng):
        # arccosh(-<x,y>) against the integrated ball-model metric
        for _ in range(5):
            x = random_hyperboloid(rng, 2, radius=1.2)
            y = random_hyperboloid(rng, 2, radius=1.2)
            d = hyperbolic_distance(x, y)
            if d < 1e-3:
                continue
            # unit-speed geodesic from x to y on the hyperboloid
            v = y + lorentz_product(x, y) * x
            v /= math.sqrt(lorentz_product(v, v))
            t = np.linspace(0.0, d, 30001)
            curve = (np.cosh(t)[:, None] * x + np.sinh(t)[:, None] * v)
            ball = curve[:, 1:] / (1.0 + curve[:, :1])
            seg = ball[1:] - ball[:-1]
            mid = 0.5 * (ball[1:] + ball[:-1])
            ds = 2.0 * np.linalg.norm(seg, axis=1) / (1.0 - np.sum(mid * mid, axis=1))
            assert abs(float(np.sum(ds)) - d) < 1e-8
