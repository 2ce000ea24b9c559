"""Known defects of the library that the workloads reach.

Each failed check is attributed to the first defect whose predicate
matches the op's inputs, the check's name and the sizes the check
measured (oracle.py); a failure no predicate matches is unexpected and
makes the run's result incorrect.  Every predicate is bounded both by the
region of inputs where the defect was found and by the largest error the
defect can cause there, so a larger error, or one elsewhere, is still
unexpected.  The inputs that reach these defects are drawn like any other:
they stay in the workloads and count as failed ops, so a fix shows as a
higher ok_ratio.
"""

from __future__ import annotations

from oracle import EPS

# the truncation step where a jacobi state first needs more than the 128
# terms every smaller label gets: |c_n|^2 ~ n |z|^(2n) for every (m, nu),
# and the 1e-12 tail target is met at n = 128 up to |z| ~ 0.885
JACOBI_LONG_RADIUS = 0.85
# Cauchy-Schwarz on the cross terms a truncation drops: at most
# sqrt(1e-12 tail of the shorter state) * sqrt(mass of the longer one)
TRUNCATION_BOUND = 1e-6
# worst idempotence residual of the jacobi m = 0 rule; 1.54e-6 at nu = 0.5
IDEMPOTENCE_DEFECT_MAX = 2e-6
# worst identity-moment error of the bessel rule at small b; 2.9e-7 at nu = 0.1
IDENTITY_DEFECT_MAX = 1e-6
# direct 0F1 summation loses up to ~28 eps times the cancellation factor
# (measured over 3072 grid points); 128 leaves headroom, not room for bugs
CANCELLATION_ULPS = 128.0
CANCELLATION_MIN = 1e6


def _jacobi_rule_idempotence(op, check, values, detail):
    # the jacobi Mellin-Barnes rule at m = 0 leaves idempotence residuals
    # just above 1e-6 for nu in (0.426, 0.514), peaking at nu = 0.5
    return (op["family"] == "jacobi" and op["m"] == 0 and 0.42 <= op["nu"] <= 0.52
            and check == "idempotence" and values["residual"] <= IDEMPOTENCE_DEFECT_MAX)


def _bessel_small_b_identity(op, check, values, detail):
    # the bessel rule misses the t^(2b-1) mass near 0 for small b, and
    # verify calls the stable error an identity violation (b <= 0.24 seen)
    return (op["family"] == "bessel" and op["m"] == 0 and op["nu"] <= 0.15
            and check == "identity_moments" and values["rel_error"] <= IDENTITY_DEFECT_MAX)


def _jacobi_number_moment_budget(op, check, values, detail):
    # number_moment's term budget runs out as x -> 1 (terms decay like n x^n);
    # first seen at x = 0.99818 on a grid over m, nu and x
    return (op["family"] == "jacobi" and op["x"] > 0.997 and check == "exception"
            and detail == "ConvergenceError: number_moment series did not converge")


def _density_static_cancellation(op, check, values, detail):
    # 0F1(b; conj(z) z0) summed directly loses everything to cancellation
    # at large opposite labels; the error stays within a few eps times the
    # cancellation factor
    return (op["family"] == "bessel" and check == "density_static"
            and values["cancellation"] >= CANCELLATION_MIN
            and values["rel_error"] <= CANCELLATION_ULPS * EPS * values["cancellation"])


def _overlap_shorter_truncation(op, check, values, detail):
    # overlap truncates both states at the shorter one's n_max, which drops
    # cross terms wherever the two labels get different truncations
    return (op["family"] == "jacobi" and check == "gram"
            and values["radius_max"] >= JACOBI_LONG_RADIUS
            and values["abs_error"] <= TRUNCATION_BOUND)


# (name, workload, predicate on (op inputs, check name, measured values, detail))
KNOWN_DEFECTS = (
    ("jacobi-rule-idempotence", "report-sweep", _jacobi_rule_idempotence),
    ("bessel-small-b-identity", "report-sweep", _bessel_small_b_identity),
    ("jacobi-number-moment-budget", "moment-scan", _jacobi_number_moment_budget),
    ("density-static-cancellation", "label-batch", _density_static_cancellation),
    ("overlap-shorter-truncation", "label-batch", _overlap_shorter_truncation),
)


def classify(workload: str, op: dict, check: str, values: dict, detail: str) -> str | None:
    """Name of the known defect behind this failed check, or None."""
    for name, wl, pred in KNOWN_DEFECTS:
        if wl == workload and pred(op, check, values, detail):
            return name
    return None
