import numpy as np
import pytest

from ghcs.measure import radial_rule
from ghcs import specfun
from ghcs.specfun import _ABS_FLOOR, _REL_TOL, ConvergenceError
from ghcs.states import Family, FamilyParams


def rel_err(got, ref, floor=1e-300):
    return abs(got - ref) / max(abs(ref), floor)


# The term-by-term reference for `specfun._sum_ratio_array`: the array
# summation reproduces this loop's values and stopping rule bit for bit.
def _sum_ratio_series(first_term, ratio):
    """Sum t0 + t1 + ... where t_{k+1} = t_k * ratio(k), within the
    budget `specfun._MAX_TERMS` as it reads at the call.

    Stops only after two consecutive terms fall below _REL_TOL relative
    to the running sum, so an accidental zero of an alternating term
    cannot end the summation early.
    """
    term = first_term
    total = term
    small = 0
    max_terms = specfun._MAX_TERMS
    for k in range(max_terms):
        term = term * ratio(k)
        total += term
        if abs(term) <= _REL_TOL * max(abs(total), _ABS_FLOOR):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"series did not converge within {max_terms} terms "
        f"(last |term| = {abs(term):.3e})"
    )


@pytest.fixture(scope="session")
def bessel_params():
    return FamilyParams(1, 0.5, Family.BESSEL)


@pytest.fixture(scope="session")
def jacobi_params():
    return FamilyParams(1, 0.5, Family.JACOBI)


@pytest.fixture(scope="session")
def bessel_rule(bessel_params):
    return radial_rule(bessel_params)


@pytest.fixture(scope="session")
def jacobi_rule(jacobi_params):
    return radial_rule(jacobi_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
