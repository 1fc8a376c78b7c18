import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

SQRT2 = math.sqrt(2.0)
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def gen():
    """tools/gen_derivs.py as a module: the sympy definitions of H, its plane
    polynomial P(x, s) and what is generated from them."""
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location("gen_derivs", ROOT / "tools" / "gen_derivs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def interior_points(rng, n, r_max=1.3):
    """Random phase-space points strictly inside the 4-ball of radius sqrt(2)."""
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    r = r_max * rng.random(n) ** 0.25
    return v * r[:, None]
