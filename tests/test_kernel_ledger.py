"""Ledger of the measured accuracy of the ETD2 phi functions.

`_phi1` and `_phi2` are checked against an `np.longdouble` oracle: the
Taylor series below |z| = 2 and expm1 above, both in long double.  Errors
are counted in ulps of the oracle rounded to a double.  The long-double
oracle is fine enough only where its mantissa has 63 bits or more, as on
x86-64, so the module is skipped elsewhere.
"""

import math

import numpy as np
import pytest

from fracheat.semigroup import _phi1, _phi2

LD = np.longdouble
pytestmark = pytest.mark.skipif(
    np.finfo(LD).nmant < 63, reason="long double has fewer than 63 mantissa bits"
)

# bounds measured over the sweep below
PHI1_ULPS = 1
PHI2_ULPS = 2


def _oracle(z: np.ndarray, order: int) -> np.ndarray:
    """phi_order(z), order 1 or 2, in long double: sum z^k / (k + order)! for
    |z| < 2, where the remainder after 40 terms is below 2^40 / 41!, and
    (expm1(z) - [z if order 2]) / z^order beyond."""
    z = z.astype(LD)
    out = np.empty_like(z)
    small = np.abs(z) < 2
    acc = np.zeros_like(z[small])
    for k in reversed(range(40)):
        acc = acc * z[small] + LD(1) / LD(math.factorial(k + order))
    out[small] = acc
    zb = z[~small]
    out[~small] = (np.expm1(zb) - (zb if order == 2 else 0)) / zb**order
    return out


def _ulps(got: np.ndarray, z: np.ndarray, order: int) -> np.ndarray:
    want = _oracle(z, order).astype(float)
    return np.abs(got - want) / np.spacing(want)


def _sweep(z_max: float) -> np.ndarray:
    """z in [-z_max, 0]: a geometric sweep from 1e-12, an even one over the
    series ranges, and the neighbours of each branch point |z| = 1e-5 and 1."""
    edges = [np.nextafter(b, to) for b in (1e-5, 1.0) for to in (0.0, 2.0)]
    mags = np.concatenate([
        np.geomspace(1e-12, z_max, 4000),
        np.linspace(0.0, 2.0, 2001),
        [1e-5, 1.0, *edges],
    ])
    return -np.unique(mags)


def test_phi1_within_one_ulp():
    z = _sweep(1e6)
    assert np.max(_ulps(_phi1(z), z, 1)) <= PHI1_ULPS


def test_phi2_within_two_ulps():
    # past 1e6 the sweep is geometric only: 1e150 stays below the |z| where
    # z^2 overflows
    z = np.concatenate([_sweep(1e6), -np.geomspace(1e6, 1e150, 2000)])
    assert np.max(_ulps(_phi2(z), z, 2)) <= PHI2_ULPS
