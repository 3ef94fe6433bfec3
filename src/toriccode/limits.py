"""The limits every input is checked against, and the defaults of the
budgets and the distance methods.

`field_order(p, k)` (after `prime_power(q)` for the shorthand q) is the one
check on a field size, whether or not a field is built: `ci` and `profile`
make it and build none.  The budgets bound the points of X
(`DEFAULT_ENUM_BUDGET`) and the messages a distance search weighs
(`DEFAULT_CLASS_BUDGET`); `METHODS` are the routes of `mindist.min_distance`.
`size_within` checks |X| against a budget from the orders of its cyclic
factors, and `is_power` compares |X| with a torus size on them.  The module
imports nothing of numpy, so the argument parser and the lattice commands
read it without loading numpy.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import BudgetExceededError

DEFAULT_MAX_Q = 2 ** 16
_DECIMAL_BITS = 14_000  # longest power formed and printed, within the 4300 digits Python prints
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
    longer one is far past the cap and is named "p^k", by power_value)."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise ValueError("p and k must be integers")
    if p < 2 or (p <= DEFAULT_MAX_Q and not _is_prime(p)):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    if k * p.bit_length() > _DECIMAL_BITS or p ** k > DEFAULT_MAX_Q:
        raise ValueError(f"q = {power_value({p: k})} exceeds the cardinality cap {DEFAULT_MAX_Q}")
    if p ** k < 3:
        raise ValueError("GF(2) is not supported; need q >= 3")
    return p ** k


def power_value(powers: dict[int, int]) -> int | str:
    """The product of b^e over the items of powers; or the text "b^e*...",
    with no power formed, when it may pass _DECIMAL_BITS bits, which
    Python would not print in decimal."""
    if sum(e * b.bit_length() for b, e in powers.items()) > _DECIMAL_BITS:
        return "*".join(f"{b}^{e}" for b, e in sorted(powers.items()))
    return math.prod(b ** e for b, e in powers.items())


def _prime_exponents(powers: dict[int, int]) -> Counter:
    """The product of b^e over the items of powers, each b <= DEFAULT_MAX_Q,
    as prime -> exponent, by trial division up to sqrt(b) <= 256."""
    exponents = Counter()
    for b, e in powers.items():
        for f in range(2, math.isqrt(b) + 1):
            while b % f == 0:
                b //= f
                exponents[f] += e
        if b > 1:
            exponents[b] += e
    return +exponents


def is_power(orders: dict[int, int], m: int, e: int) -> bool:
    """Whether prod o^c over the items of orders equals m^e, each o <= m
    (the orders of the cyclic factors of X divide m = q-1): compared by
    prime exponents, so no power is formed, however long."""
    return _prime_exponents(orders) == _prime_exponents({m: e})


def size_within(orders: dict[int, int], budget: int) -> int:
    """|X| = prod o^c over the items of orders, each order o >= 2, or
    BudgetExceededError when it passes the budget.  |X| >= 2^(sum c), so it
    does once sum c reaches the budget's bit length: no power past that is
    formed, and a long |X| is named as power_value names it."""
    if sum(orders.values()) < budget.bit_length():
        size = math.prod(o ** c for o, c in orders.items())
        if size <= budget:
            return size
    raise BudgetExceededError(f"|X| = {power_value(orders)} points > budget {budget}")


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
