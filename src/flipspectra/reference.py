"""Embedded reference data for flip-graph eigenvalues at desk scale.

The two tables hold three-decimal reference values: the smallest
eigenvalue is recorded rounded up (toward +inf), the second-largest
rounded down.  The n = 4 entry is the exact value for the single-edge
graph.  ``check_reference`` is the one judge of a computed value against
them.
"""

import math

# smallest adjacency eigenvalue of the flip graph of the n-gon
LAMBDA_MIN_TABLE = {
    4: -1.0,
    5: -1.618,
    6: -2.414,
    7: -3.177,
    8: -3.912,
    9: -4.667,
    10: -5.409,
    11: -6.157,
    12: -6.904,
}

# second-largest adjacency eigenvalue (rounded down)
LAMBDA_2_TABLE = {
    5: 0.618,
    6: 2.0,
    7: 3.231,
    8: 4.383,
    9: 5.488,
    10: 6.564,
    11: 7.622,
    12: 8.667,
}


def check_reference(kind: str, n: int, value: float) -> bool | None:
    """Whether a computed value rounds to its table entry; None without an entry.

    ``kind`` is "lambda_min" or "lambda_2".  lambda_min rounds up to its
    entry, so it lies at most 1e-3 below it; lambda_2 rounds down, so at
    most 1e-3 above.  Both sides allow 1e-6 for a value on a rounding
    boundary: lambda_2(6) = 2 computes as 2 - 2.2e-16.
    """
    ref = (LAMBDA_MIN_TABLE if kind == "lambda_min" else LAMBDA_2_TABLE).get(n)
    if ref is None:
        return None
    if kind == "lambda_min":
        return bool(ref - 1e-3 - 1e-6 <= value <= ref + 1e-6)
    return bool(ref - 1e-6 <= value <= ref + 1e-3 + 1e-6)


# computed chromatic numbers of the flip graph for small n
CHROMATIC_NUMBER_KNOWN = {5: 3, 6: 3, 7: 3, 8: 3, 9: 3, 10: 4}

# bracket for lim lambda_min / (n - 3): the upper constant is
# LAMBDA_MIN_TABLE[12] / 10 (the subadditive per-step rate), the lower one
# is the closed-form pentagon-collection constant.
LIMIT_UPPER_CONSTANT = LAMBDA_MIN_TABLE[12] / 10
LIMIT_LOWER_CONSTANT = -(5.0 + math.sqrt(5.0)) / 8.0

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Erratum: the spectrum of the 14-vertex hexagon flip graph as the source
# table lists it, kept unedited.  Its entry 1 - sqrt(2) (multiplicity 3) is
# a sign slip for sqrt(2) - 1: the listed multiset sums to 6 - 6*sqrt(2),
# but an adjacency spectrum sums to tr A = 0.  A6_SPECTRUM_CORRECTED is the
# graph's spectrum, the roots of its integer characteristic polynomial
# (x-3)(x-2)^2 x^2 (x+1)(x^2-3)(x^2+2x-1)^3.
A6_SPECTRUM_LISTED = sorted(
    [3.0, 2.0, 2.0, _SQRT3, 0.0, 0.0]
    + [1.0 - _SQRT2] * 3
    + [-1.0, -_SQRT3]
    + [-1.0 - _SQRT2] * 3,
    reverse=True,
)

A6_SPECTRUM_CORRECTED = sorted(
    [3.0, 2.0, 2.0, _SQRT3, 0.0, 0.0]
    + [_SQRT2 - 1.0] * 3
    + [-1.0, -_SQRT3]
    + [-1.0 - _SQRT2] * 3,
    reverse=True,
)
