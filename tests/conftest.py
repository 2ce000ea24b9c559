import numpy as np
import pytest

from ghcs.measure import radial_rule
from ghcs.specfun import ConvergenceError, SeriesControl
from ghcs.states import Family, FamilyParams


def rel_err(got, ref, floor=1e-300):
    return abs(got - ref) / max(abs(ref), floor)


# The term-by-term reference for `specfun._sum_ratio_array`: the array
# summation reproduces this loop's values and stopping rule bit for bit.
def _sum_ratio_series(first_term, ratio, ctl: SeriesControl):
    """Sum t0 + t1 + ... where t_{k+1} = t_k * ratio(k).

    Stops only after two consecutive terms fall below rel_tol relative
    to the running sum, so an accidental zero of an alternating term
    cannot end the summation early.
    """
    term = first_term
    total = term
    small = 0
    for k in range(ctl.max_terms):
        term = term * ratio(k)
        total += term
        if abs(term) <= ctl.rel_tol * max(abs(total), ctl.abs_floor):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"series did not converge within {ctl.max_terms} terms "
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
