"""The limits every input is checked against, and the defaults of the
budgets and the distance methods.

`field_order(p, k)` (after `prime_power(q)` for the shorthand q) is the one
check on a field size, whether or not a field is built: `ci` and `profile`
make it and build none.  The budgets bound the points of X
(`DEFAULT_ENUM_BUDGET`) and the messages a distance search weighs
(`DEFAULT_CLASS_BUDGET`); `METHODS` are the routes of `mindist.min_distance`.
The module imports nothing of numpy, so the argument parser and the lattice
commands read it without loading numpy.
"""

from __future__ import annotations

import math

DEFAULT_MAX_Q = 2 ** 16
_DECIMAL_BITS = 14_000  # longest p^k formed, within the 4300 digits Python prints
DEFAULT_ENUM_BUDGET = 10 ** 8
DEFAULT_CLASS_BUDGET = 10 ** 7
METHODS = ("auto", "bruteforce", "isd", "formula")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def field_order(p: int, k: int) -> int:
    """q = p^k, once p and k pass the checks every field passes: integers,
    p prime, k >= 1, 3 <= q <= DEFAULT_MAX_Q.  Raises ValueError otherwise.

    The work is bounded for any p and k: primality is tested only on
    p <= DEFAULT_MAX_Q, by trial division up to 256 (a larger p fails the
    cap, prime or not), and p^k is formed only up to _DECIMAL_BITS bits (a
    longer one is far past the cap and is named "p^k")."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise ValueError("p and k must be integers")
    if p < 2 or (p <= DEFAULT_MAX_Q and not _is_prime(p)):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    if k * p.bit_length() > _DECIMAL_BITS:
        raise ValueError(f"q = {p}^{k} exceeds the cardinality cap {DEFAULT_MAX_Q}")
    q = p ** k
    if q < 3:
        raise ValueError("GF(2) is not supported; need q >= 3")
    if q > DEFAULT_MAX_Q:
        raise ValueError(f"q = {q} exceeds the cardinality cap {DEFAULT_MAX_Q}")
    return q


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; ValueError when q is not a prime power.  The
    field checks are field_order's.

    Trial division stops at 256 = sqrt(DEFAULT_MAX_Q), which finds the
    prime of every q within the cap; a larger q with no factor up to 256 is
    rejected for the cap, whether or not it is a prime power."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q = {q} is not a prime power >= 3")
    p = next((f for f in range(2, min(math.isqrt(q), 256) + 1) if q % f == 0), q)
    if p == q > DEFAULT_MAX_Q:
        raise ValueError(f"q = {q} exceeds the cardinality cap {DEFAULT_MAX_Q}")
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, k
