"""50-digit reference for the Dicke-class tangles, written with mpmath alone.

Nothing here imports dicketangle: the values are re-derived from the closed
forms so that they can judge the package's outputs rather than echo them.

For the canonical state sum_r beta_r |N/2, N/2 - r> with overlap a (b =
sqrt(1 - a^2), evaluated at 50 digits from the exact binary value of the
float a), the amplitudes are, up to normalisation,

    beta_r ~ sqrt(N! (N-r)! / r!) a^(k-r) b^r / ((N-k)! (k-r)!),

the two-qubit marginal is fixed by six numbers A..F (sums of amplitude
products with pair-removal Clebsch-Gordan coefficients), and

    C2   = max(0, l1 - l2 - l3 - l4), l_i = |eig(rho (sy x sy))| descending,
    N2   = sum of |negative eigenvalues| of the partial transpose, doubled,
    C1^2 = 4 det rho1,  rho1 = [[A + D, B + E], [B + E, D + F]],
    tau  = C1^2 - (N-1) C2^2,   xi = C1^2 - (N-1) N2^2.

bench/compare.py prints the package's values next to these at chosen points.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

DPS = 50

# sigma_y x sigma_y is real: -1 on the outer antidiagonal, +1 on the inner one.
_SY_SY = ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))


@dataclass(frozen=True)
class RefMarginal:
    """A..F of the two-qubit marginal at 50 digits."""

    A: object
    B: object
    C: object
    D: object
    E: object
    F: object


@dataclass(frozen=True)
class RefRecord:
    """Reference marginal and tangles of one (N, k, a) point."""

    n: int
    k: int
    a: float
    marginal: RefMarginal
    c1_sq: object
    c2_sq: object
    n2: object
    tau: object
    xi: object


def _factorials(n: int) -> list:
    # 0!..n! by running product at the working precision (relative error ~ n ulp)
    out = [mp.mpf(1)]
    for i in range(1, n + 1):
        out.append(out[-1] * i)
    return out


def amplitudes(n: int, k: int, a: float) -> list:
    """Normalised beta_0..beta_k at the working precision."""
    a = mp.mpf(a)
    b = mp.sqrt((1 - a) * (1 + a))
    fact = _factorials(n)
    raw = [
        mp.sqrt(fact[n] * fact[n - r] / fact[r]) * a ** (k - r) * b**r / (fact[n - k] * fact[k - r])
        for r in range(k + 1)
    ]
    norm = mp.sqrt(mp.fsum(x * x for x in raw))
    return [x / norm for x in raw]


def _cg(n: int, r: int) -> tuple:
    denom = mp.mpf(n * (n - 1))
    plus = max(0, (n - r) * (n - r - 1))
    zero = 2 * r * (n - r)
    minus = max(0, r * (r - 1))
    return mp.sqrt(plus / denom), mp.sqrt(zero / denom), mp.sqrt(minus / denom)


def marginal(n: int, k: int, a: float) -> RefMarginal:
    """A..F from the closed-form sums (same formulas as the package documents)."""
    with mp.workdps(DPS):
        beta = amplitudes(n, k, a)
        cg = [_cg(n, r) for r in range(k + 1)]
        s = mp.sqrt(mp.mpf(1) / 2)
        A = mp.fsum(beta[r] ** 2 * cg[r][0] ** 2 for r in range(k + 1))
        B = s * mp.fsum(beta[r] * beta[r + 1] * cg[r][0] * cg[r + 1][1] for r in range(k))
        C = mp.fsum(beta[r] * beta[r + 2] * cg[r][0] * cg[r + 2][2] for r in range(k - 1))
        D = mp.fsum(beta[r] ** 2 * cg[r][1] ** 2 for r in range(1, k + 1)) / 2
        E = s * mp.fsum(beta[r] * beta[r + 1] * cg[r][1] * cg[r + 1][2] for r in range(k))
        F = mp.fsum(beta[r] ** 2 * cg[r][2] ** 2 for r in range(k + 1))
        return RefMarginal(+A, +B, +C, +D, +E, +F)


def _rho(m: RefMarginal):
    return mp.matrix(
        [
            [m.A, m.B, m.B, m.C],
            [m.B, m.D, m.D, m.E],
            [m.B, m.D, m.D, m.E],
            [m.C, m.E, m.E, m.F],
        ]
    )


def _partial_transpose(m: RefMarginal):
    return mp.matrix(
        [
            [m.A, m.B, m.B, m.D],
            [m.B, m.D, m.C, m.E],
            [m.B, m.C, m.D, m.E],
            [m.D, m.E, m.E, m.F],
        ]
    )


def record(n: int, k: int, a: float) -> RefRecord:
    """Reference tangles at (N, k, a); a is taken as the exact float given."""
    m = marginal(n, k, a)
    with mp.workdps(DPS):
        product = _rho(m) * mp.matrix(_SY_SY)
        roots = sorted((abs(x) for x in mp.eig(product, left=False, right=False)), reverse=True)
        c2 = max(mp.mpf(0), roots[0] - roots[1] - roots[2] - roots[3])
        pt_eigs = mp.eigsy(_partial_transpose(m), eigvals_only=True)
        n2 = -2 * mp.fsum(min(x, 0) for x in pt_eigs)
        c1_sq = 4 * ((m.A + m.D) * (m.D + m.F) - (m.B + m.E) ** 2)
        c2_sq = c2 * c2
        return RefRecord(
            n, k, a, m, c1_sq, c2_sq, n2, c1_sq - (n - 1) * c2_sq, c1_sq - (n - 1) * n2 * n2
        )
