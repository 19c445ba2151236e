"""The hot kernels: floor scans of [mD], the Weyl search, section counts.

Everything here works on plain Python integers so results stay exact at
any size.  The rest of divpos reaches these functions through the
`divpos._kernels` package.

Conventions: a quadratic value is (N + M*sqrt(d)) / Q with N, M, Q
integers, Q > 0, and d a square-free integer >= 2 whenever M != 0.
"""

from math import isqrt


def sign_quad(N: int, M: int, d: int) -> int:
    """Exact sign of N + M*sqrt(d), decided by integer arithmetic only.

    When N and M have opposite signs the comparison reduces to N*N
    against M*M*d with the signs tracked; no radicals are evaluated.
    """
    if M == 0:
        return (N > 0) - (N < 0)
    if N == 0:
        return (M > 0) - (M < 0)
    sN = 1 if N > 0 else -1
    sM = 1 if M > 0 else -1
    if sN == sM:
        return sN
    lhs = N * N
    rhs = M * M * d
    if lhs == rhs:
        return 0  # unreachable for square-free d >= 2, kept for safety
    return sN if lhs > rhs else sM


def floor_sqrt_mult(M: int, d: int) -> int:
    """floor(M*sqrt(d)) for square-free d >= 2 (so M*sqrt(d) is irrational unless M = 0)."""
    if M == 0:
        return 0
    r = isqrt(M * M * d)
    return r if M > 0 else -r - 1


def floor_quad(N: int, M: int, d: int, Q: int) -> int:
    """floor((N + M*sqrt(d)) / Q) with Q > 0.

    Brackets M*sqrt(d) in [t, t+1) via integer square root, then fixes the
    remaining off-by-one with one exact sign test.
    """
    if M == 0:
        return N // Q
    t = floor_sqrt_mult(M, d)
    k = (N + t) // Q
    # value may still reach k+1 since the bracket has width 1/Q
    if sign_quad(N - (k + 1) * Q, M, d) >= 0:
        k += 1
    return k


def floor_multiples_rat(p: int, q: int, n: int, *, start: int = 0) -> list:
    """[floor(m*p/q) for m in start..start+n], q > 0."""
    return [(m * p) // q for m in range(start, start + n + 1)]


def floor_multiples_quad(N: int, M: int, d: int, Q: int, n: int, *, start: int = 0) -> list:
    """[floor(m*(N + M*sqrt(d))/Q) for m in start..start+n].

    Incremental: the first row is one floor_quad, and floor(m*x) is
    floor((m-1)*x) + floor(x) + carry with carry in {0, 1}, decided by one
    exact sign test per later row.  Avoids an integer square root per
    multiple; a one-row scan (n == 0) is that first floor_quad alone.
    """
    if M == 0:
        return floor_multiples_rat(N, Q, n, start=start)
    f1 = floor_quad(N, M, d, Q) if n else 0
    prev = floor_quad(start * N, start * M, d, Q)
    out = [prev]
    for m in range(start + 1, start + n + 1):
        cand = prev + f1
        # m*x >= cand+1 ?
        if sign_quad(m * N - (cand + 1) * Q, m * M, d) >= 0:
            cand += 1
        out.append(cand)
        prev = cand
    return out


def weyl_search(N: int, M: int, d: int, Q: int,
                eps_num: int, eps_den: int, k_start: int, k_max: int) -> int:
    """Least k in [k_start, k_max] with frac(k*x) < eps_num/eps_den, else -1.

    x = (N + M*sqrt(d))/Q must be irrational (M != 0, d >= 2 square-free);
    equidistribution of the fractional parts guarantees a hit for any
    positive epsilon, so -1 only means the cap was too small.
    """
    if k_start < 1:
        k_start = 1
    f1 = floor_quad(N, M, d, Q)
    prev = floor_quad((k_start - 1) * N, (k_start - 1) * M, d, Q) if k_start > 1 else 0
    for k in range(k_start, k_max + 1):
        cand = prev + f1
        if sign_quad(k * N - (cand + 1) * Q, k * M, d) >= 0:
            cand += 1
        # frac(k*x) < eps  <=>  eps_den*(k*x - cand) < eps_num
        if sign_quad(eps_den * (k * N - cand * Q) - eps_num * Q, eps_den * k * M, d) < 0:
            return k
        prev = cand
    return -1


def h0_hirzebruch(e: int, a: int, b: int) -> int:
    """Sections of a*C0 + b*f on the Hirzebruch surface F_e.

    Pushforward to P^1 splits the bundle into line bundles of degrees
    b - j*e for j = 0..a, so h0 = sum of max(0, b - j*e + 1); evaluated in
    closed form.  Zero when a < 0.
    """
    if a < 0:
        return 0
    if b < 0:
        return 0
    if e == 0:
        return (a + 1) * (b + 1)
    n = b // e
    if n > a:
        n = a
    return (n + 1) * (b + 1) - e * (n * (n + 1)) // 2


def h0_p2(n: int) -> int:
    """Sections of O(n) on the projective plane: monomial count."""
    if n < 0:
        return 0
    return (n + 1) * (n + 2) // 2
