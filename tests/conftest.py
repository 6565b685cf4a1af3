import numpy as np
import pytest

from varwit import sep_bound_curve, spin1_moment_pairs


@pytest.fixture(scope="session")
def curve_noiseless():
    """Composed bound curve c(lambda) for ideal spin-1 measurements, 201 points."""
    x, y = spin1_moment_pairs(0.0)
    lams, values, _ = sep_bound_curve(x, y, num=201)
    return lams, values


@pytest.fixture(scope="session")
def curve_adapted_02():
    """Composed bound curve at spin-flip noise alpha = 0.2, 201 points."""
    x, y = spin1_moment_pairs(0.2)
    lams, values, _ = sep_bound_curve(x, y, num=201)
    return lams, values
