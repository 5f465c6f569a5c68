"""Exact references for the solvers, in stdlib `decimal` only.

Each function takes the float inputs the library takes, converts them to
`Decimal` exactly and computes at DIGITS significant digits, so that its
answer carries no rounding of the library's float arithmetic. Answers are
`Decimal`s; a caller compares them with a float result after converting
that float exactly, `Decimal(x)`.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 60


def shared_uniform_criticals(b: float, m: float, ell_bar: float):
    """(pi_low, ell_prime, pi_prime) for losses uniform on [0, ell_bar]:
    (b-1)/m, the tangency loss (ell_bar + b - 1)/2, and the belief at which
    K = (1+m-b) pi/(1-pi) equals phi(l') = l'^2/ell_bar, where the shared
    uniform quadratic has its double root. ell_prime and pi_prime exist only
    for ell_bar > b - 1; both are None otherwise."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        b, m, big_l = Decimal(b), Decimal(m), Decimal(ell_bar)
        b1 = b - 1
        if big_l <= b1:
            return b1 / m, None, None
        ell_prime = (big_l + b1) / 2
        k_prime = ell_prime * ell_prime / big_l
        return b1 / m, ell_prime, k_prime / (1 + m - b + k_prime)


def shared_uniform_roots(b: float, m: float, ell_bar: float, pi: float):
    """Interior fixed points under losses uniform on [0, ell_bar], ascending:
    the roots in [0, ell_bar) of the shared uniform quadratic

        q(l) = l^2/ell_bar - l (1 + (b-1)/ell_bar) + K,  K = (1+m-b) pi/(1-pi),

    which is g = K - phi for uniform F. A double root is listed once. The low
    root is written 2 K ell_bar/(s + sqrt(disc)), s = ell_bar + b - 1, which
    does not cancel at small K. A root within DIGITS - 5 digits of ell_bar is
    the corner, and is not listed: at pi = (b-1)/m with ell_bar < b - 1 the
    low root is exactly ell_bar, and its rounding may land just below it."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        b, m, big_l, pi = Decimal(b), Decimal(m), Decimal(ell_bar), Decimal(pi)
        k = (1 + m - b) * pi / (1 - pi)
        s = big_l + b - 1
        disc = s * s - 4 * k * big_l
        if disc < 0:
            return []
        root = disc.sqrt()
        low, high = 2 * k * big_l / (s + root), (s + root) / 2
        corner = big_l * (1 - Decimal(10) ** (5 - DIGITS))
        return [x for x in sorted({low, high}) if x < corner]


def alpha_beta(b: float, m: float):
    """The exact cutoff coefficients (alpha, beta) of `solve_alpha_beta`:
    the solution of alpha = a (1 + ((b-1)/beta) log(1 + beta/alpha)) and
    beta = 1 - (a/beta) log(1 + beta/alpha), a = 1 + m - b, with beta in
    (0, 1). With alpha = a + (b-1) c and beta = 1 - c, both say
    c = (a/beta) log(1 + beta/alpha). The right side less c falls from
    a log(1 + 1/a) > 0 at c = 0 to a/m - 1 < 0 as c -> 1, so c is bisected
    on (0, 1) to DIGITS - 5 digits relative to c."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        b, m = Decimal(b), Decimal(m)
        b1, a = b - 1, 1 + m - b

        def excess(c):
            beta = 1 - c
            return a / beta * (1 + beta / (a + b1 * c)).ln() - c

        lo, hi = Decimal(0), Decimal(1)  # excess(lo) > 0 > excess(hi)
        while hi - lo > hi * Decimal(10) ** (5 - DIGITS):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        c = (lo + hi) / 2
        return a + b1 * c, 1 - c
