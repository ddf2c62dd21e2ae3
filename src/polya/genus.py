"""A real quadratic field's unit norm, [N(u + 1)] and +-2 norm fact by genus
theory, with no walk, when the 4-rank of its narrow class group is 0: then
every ambiguous ideal in the principal genus is principal in the narrow
sense (Redei and Reichardt), and `_genus_invariants` reads all three off
Legendre symbols at the odd ramified primes.  Every other kernel takes the
walk of `forms`.  The module imports nothing from `quadratic` or `forms`,
so the walk stays an independent oracle for this route.
"""

from __future__ import annotations

import math

from .sqclass import IDENTITY, SquareClass


def _genus_invariants(d: int, ramified: tuple[int, ...]
                      ) -> tuple[int, SquareClass, bool] | None:
    """(norm, a_class, two_is_norm) of Q(sqrt(d)) by genus theory, for the
    primes that ramify in it, ascending, or None when the 4-rank r4 of its
    narrow class group Cl+ is positive.

    The generators are -1 and the t ramified primes: the odd primes of d,
    and 2 when d != 1 (mod 4).  By Hasse's theorem a signed product c of
    them is a norm from Q(sqrt(d)) iff every Hilbert symbol (c, d)_v is 1
    (J.-P. Serre, A Course in Arithmetic, ch. III).  Only a ramified prime
    can give -1: d > 0, and for d = 1 (mod 4) every generator is odd, so
    (c, d)_2 = 1.  The product formula drops one ramified prime, the
    smallest, so no 2-adic symbol is ever taken.  At an odd ramified p,
    (-1, d)_p = (-1|p), (q, d)_p = (q|p) for a generator q != p and
    (p, d)_p = (-(d/p)|p).  The norms among the products are the F2 kernel
    of the generators' symbol vectors.

    They number 2^(2 + r4) (L. Redei and H. Reichardt, J. reine angew. Math.
    170, 1934; P. Stevenhagen, "Redei-matrices and applications", LMS
    Lecture Note Ser. 215, 1995).  Send c > 0 to the ambiguous ideal of norm
    c and c < 0 to that ideal times (sqrt(d)): c is a norm iff the narrow
    class of its ideal lies in the principal genus, which is Cl+^2, and -d
    = N(sqrt(d)) is always a norm, so c and -d*c (up to squares) are sent
    to one ideal.  The 2^t ambiguous ideals fall 2 to 1 onto Cl+[2], which
    meets Cl+^2 in 2^r4 classes; so 2 * 2 * 2^r4 products are norms.  With
    exactly four, r4 = 0, the ideal of a norm c is principal in the narrow
    sense, and c is the norm of its generator:

    - N(u) = -1 iff -1 is a norm: then (sqrt(d)) has a generator of
      positive norm, and sqrt(d) is that generator times a unit of norm -1;
    - otherwise u + 1 is a rational times a generator of an ambiguous ideal
      that is not (1) (or u would be a square), and N(u + 1) > 0, so
      a_class is [e] for the one positive norm e > 1;
    - two_is_norm is d == 2 for N(u) = -1, as on the walk.  Otherwise the
      norms are 1, e, -d and -d*e up to squares, so 2 or -2 is a norm iff
      [e] is [2] or [2d]; for d = 1 (mod 4) 2 is no generator, and neither.

    Each symbol is Euler's criterion, one `pow` to the exponent (p - 1)/2,
    and a set of generators is a bit mask: bit 0 stands for -1, so the mask
    1 is -1 alone and the masks of positive products have bit 0 clear.
    """
    gens = (-1, *ramified)
    places = ramified[1:]
    pivots: dict[int, tuple[int, int]] = {}  # lowest bit -> (row, generators)
    kernel: list[int] = []
    for i, g in enumerate(gens):
        row = 0
        for bit, p in enumerate(places):
            if pow(-(d // p) if g == p else g, p >> 1, p) != 1:
                row |= 1 << bit
        which = 1 << i
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row, which
                break
            pivot, chosen = pivots[low]
            row ^= pivot
            which ^= chosen
        else:
            kernel.append(which)
    if len(kernel) != 2:
        return None
    k1, k2 = kernel
    norms = (k1, k2, k1 ^ k2)
    if 1 in norms:
        return -1, IDENTITY, d == 2
    # -d is a norm, so exactly one of the three is positive
    positive = next(m for m in norms if not m & 1)
    e = math.prod(g for i, g in enumerate(gens) if positive >> i & 1)
    return 1, SquareClass._known(1, e), e in (2, 2 * d if d % 2 else d // 2)
