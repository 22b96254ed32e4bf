import math

import numpy as np
import pytest

from invharm import NormalModes

# default parameter set used throughout: unit masses and frequencies,
# weak coupling, moderately squeezed initial states
BASE = dict(
    omega=1.0,
    lambda_sq=1.0,
    theta_c=math.pi / 64,
    m_s=1.0,
    m_e=1.0,
    hbar=1.0,
)


@pytest.fixture(scope="session")
def base_modes() -> NormalModes:
    return NormalModes(**BASE)


def rel_err(a: float, b: float, floor: float = 1.0) -> float:
    """Relative deviation floored at unit scale, so quantities that pass
    through zero do not produce spurious blowups."""
    return abs(a - b) / max(abs(a), abs(b), floor)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
