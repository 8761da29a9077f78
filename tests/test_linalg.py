"""The stacked linear algebra of the engine: unit-vector solves and inverses
(``demix``) and log-determinants (``engine``), one numpy call per stack of
frequency bins, with singular bins flagged or named."""

import numpy as np
import pytest

from tilrma import demix
from tilrma.engine import log_abs_det
from tilrma.errors import SingularMatrixError


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def cofactor_det_3x3(m):
    # independent oracle: direct cofactor expansion
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


class TestInvert:
    def test_identity(self):
        assert np.array_equal(demix.invert(np.eye(2)[None]), np.eye(2)[None])

    def test_diagonal(self):
        out = demix.invert(np.diag([2.0, 4.0])[None])[0]
        assert np.allclose(out, np.diag([0.5, 0.25]), atol=0)

    def test_random_3x3_product_is_identity(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 6, 3, 3) + 3.0 * np.eye(3)
        assert np.max(np.abs(m @ demix.invert(m) - np.eye(3))) <= 1e-10

    def test_singular_raises(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
        with pytest.raises(SingularMatrixError, match=r"^bin 1: "):
            demix.invert(stack)

    def test_double_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 20, 4, 4)
        m = m[np.linalg.cond(m) <= 1e6]
        back = demix.invert(demix.invert(m))
        assert np.max(np.abs(back - m)) <= 1e-8 * np.max(np.abs(m))


class TestSolveColumn:
    def test_identity(self):
        assert np.array_equal(demix.solve_unit(np.eye(3)[None], 2)[0], np.eye(3)[:, 2])

    def test_diagonal(self):
        out = demix.solve_unit(np.diag([2.0, 5.0])[None], 0)[0]
        assert np.allclose(out, [0.5, 0.0], atol=0)

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, 5, 4, 4)
        for n in range(4):
            v = demix.solve_unit(m, n)
            for i in range(5):
                resid = m[i] @ v[i] - np.eye(4)[:, n]
                assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v[i]) * np.linalg.norm(m[i])

    def test_singular_bins_come_back_nan(self):
        rng = np.random.default_rng(4)
        m = random_complex(rng, 4, 2, 2)
        m[1] = 0.0
        v = demix.solve_unit(m, 0)
        assert np.all(np.isnan(v[1]))
        assert np.all(np.isfinite(np.delete(v, 1, axis=0)))


class TestLogAbsDet:
    def test_identity_is_zero(self):
        for n in (1, 2, 5, 8):
            assert np.array_equal(log_abs_det(np.eye(n)[None]), [0.0])

    def test_diagonal(self):
        out = log_abs_det(np.diag([2.0, 4.0])[None])[0]
        assert out == pytest.approx(np.log(8.0), rel=1e-14)

    def test_random_vs_cofactor_oracle(self):
        rng = np.random.default_rng(17)
        m = random_complex(rng, 50, 3, 3)
        expected = [np.log(abs(cofactor_det_3x3(mat))) for mat in m]
        assert log_abs_det(m) == pytest.approx(expected, rel=1e-10)

    def test_product_rule(self):
        rng = np.random.default_rng(23)
        a = random_complex(rng, 30, 4, 4)
        b = random_complex(rng, 30, 4, 4)
        lhs = log_abs_det(a @ b)
        rhs = log_abs_det(a) + log_abs_det(b)
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(rhs)))

    def test_underflow_raises(self):
        with pytest.raises(SingularMatrixError):
            log_abs_det(np.zeros((1, 2, 2)))

    def test_first_singular_bin_is_named(self):
        rng = np.random.default_rng(29)
        m = random_complex(rng, 6, 2, 2)
        m[3] = [[1.0, 2.0], [2.0, 4.0]]
        m[5] = 0.0
        with pytest.raises(SingularMatrixError, match=r"^bin 3: "):
            log_abs_det(m)
