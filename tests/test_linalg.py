"""The stacked unit-vector solves and inverses of ``demix``: one numpy call
per stack of frequency bins, with singular bins flagged or named.

``engine.log_abs_det``, once tested here too, is tested in
``tests/test_engine.py``."""

import numpy as np
import pytest

from tilrma import demix
from tilrma.errors import SingularMatrixError


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
