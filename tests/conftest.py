import math

import numpy as np
import pytest
from hypothesis import settings

from ccarm import Configuration, default_parameters

# Derandomized, with no wall-clock deadline: the same examples on every run,
# however loaded the machine is.
settings.register_profile("ccarm", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("ccarm")


@pytest.fixture(scope="session")
def params():
    return default_parameters()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_configs(rng, count, theta_lo=0.05, theta_hi=math.pi - 0.05):
    thetas = rng.uniform(theta_lo, theta_hi, size=count)
    deltas = rng.uniform(-math.pi, math.pi, size=count)
    return [Configuration(float(t), float(d)) for t, d in zip(thetas, deltas)]
