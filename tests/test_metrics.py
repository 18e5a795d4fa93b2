import math

import numpy as np
import pytest

from frenet.metrics import psnr
from frenet.tensor import ConfigurationError, Tensor


class TestPsnr:
    def test_constant_offset_analytic(self):
        a = Tensor(np.zeros((1, 8, 8)))
        b = Tensor(np.full((1, 8, 8), 0.1))
        assert abs(psnr(a, b) - 20.0) < 1e-6

    def test_identical_inputs_report_infinity(self):
        a = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 8, 8)).astype(np.float32))
        assert psnr(a, a) == math.inf

    def test_seeded_noise_lands_near_forty_db(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.2, 0.8, (1, 64, 64)).astype(np.float32)
        b = (a + rng.normal(0.0, 0.01, a.shape)).astype(np.float32)
        value = psnr(Tensor(a), Tensor(b))
        assert abs(value - 40.0) < 0.2

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="mismatch"):
            psnr(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 4, 5))))

