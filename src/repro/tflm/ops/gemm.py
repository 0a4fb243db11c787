"""Exact integer GEMM on float64 BLAS.

NumPy's integer ``@`` has no BLAS path, so an int64 matmul runs several
times slower than the same product in float64.  Float64 holds every
integer of magnitude up to 2**53 exactly.  If ``K * max|a| * max|b|`` is
within that bound, every product and every partial sum of a length-K dot
product is such an integer, in whatever order BLAS adds them, so the
float64 result is the exact integer result.  The int8 kernels sit far
inside it: centred inputs are below 2**8 and filters at most 2**7 in
magnitude, so each product is below 2**15 and a fan-in would need to pass
2**38 to reach the bound.  :func:`int_matmul` checks the bound on every
call and raises instead of rounding.
"""

from __future__ import annotations

import numpy as np

EXACT_BOUND = 1 << 53


def _max_abs(array):
    return max(int(array.max(initial=0)), -int(array.min(initial=0)))


def int_matmul(a, b):
    """Exact ``a @ b`` of integer arrays, as int64.

    ``a`` is (..., K) and ``b`` is (K, M); the result is (..., M).
    Raises :class:`OverflowError` if ``K * max|a| * max|b|`` exceeds
    2**53, where float64 could round.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise TypeError(f"int_matmul needs integer operands, not "
                        f"{a.dtype} and {b.dtype}")
    k = a.shape[-1]
    if k * _max_abs(a) * _max_abs(b) > EXACT_BOUND:
        raise OverflowError(f"int_matmul operands exceed the float64 "
                            f"exactness bound (fan-in {k})")
    product = a.reshape(-1, k).astype(np.float64) @ b.astype(np.float64)
    return product.astype(np.int64).reshape(a.shape[:-1] + b.shape[1:])
