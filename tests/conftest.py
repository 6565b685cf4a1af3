import pytest

from varwit import sep_bound_curve, spin1_moment_pairs


@pytest.fixture(scope="session")
def certified_curves():
    """Composed bound curves c(lambda), 201 points, keyed by spin-flip noise alpha.

    Each entry is sep_bound_curve's (lams, values, certified) at its defaults.
    """
    return {
        alpha: sep_bound_curve(*spin1_moment_pairs(alpha), num=201)
        for alpha in (0.0, 0.2, 0.5, 1.0)
    }


@pytest.fixture(scope="session")
def curve_noiseless(certified_curves):
    """Composed bound curve c(lambda) for ideal spin-1 measurements, 201 points."""
    lams, values, _ = certified_curves[0.0]
    return lams, values


@pytest.fixture(scope="session")
def curve_adapted_02(certified_curves):
    """Composed bound curve at spin-flip noise alpha = 0.2, 201 points."""
    lams, values, _ = certified_curves[0.2]
    return lams, values
