"""Polynomial expansion of spectral weights and its application to fields.

The heat weight e^(-lambda*sigma) (or any bounded spectral weight) is expanded
in one of four orthogonal polynomial families. Chebyshev and Jacobi run in the
shifted/scaled variable 2*lambda/b - 1 so the expansion covers the operator
spectrum [0, b]; Hermite and Laguerre are applied unscaled. Applying the
expansion to a field costs exactly one sparse matvec per degree through the
three-term recurrence, run on 2X (X = 2/b A^-1 C - I, or A^-1 C) cached on the
operator: scipy's private csr_matvec adds 2X P_n into a row that holds the
rest of P_{n+1}, and each block of degrees goes into the output with one GEMM.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy import special as _sp
from scipy.sparse._sparsetools import csr_matvec  # y += X @ x, no allocation

from .mesh import _check_field
from .special import kummer_1f1_log

_KINDS = ("chebyshev", "jacobi", "hermite", "laguerre")
_NAN_CHECK_EVERY = 64
# m=None in the scaled families: the smallest m whose weighted coefficient
# tail is at most this fraction of the weighted sum, so that further degrees
# change nothing in double precision.
_TAIL_REL = 1e-16
_FIRST_BLOCK = 32
# m=None in the unscaled families, whose polynomials are unbounded on the
# spectrum and so give no tail bound.
_UNSCALED_DEGREE = 1000
# (column, family, params, m) coefficient stacks kept for reuse; a group study
# asks for the same heat and wavelet stacks for every subject.
_STACK_CACHE_SIZE = 32
# Bytes of P_n(X) f rows one GEMM adds into the output: 16 rows at 40962 vertices.
_BLOCK_BYTES = 16 * 8 * 40962


@dataclass(frozen=True)
class PolynomialFamily:
    """Orthogonal polynomial family with optional domain scale b.

    kind is one of chebyshev, jacobi, hermite, laguerre. alpha/beta apply to
    Jacobi only (both > -1); a finite b > 0 is the shift/scale of the
    Chebyshev and Jacobi domains and is unused by Hermite/Laguerre.
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown polynomial family {self.kind!r}")
        if self.kind == "jacobi":
            if self.alpha is None or self.beta is None:
                raise ValueError("jacobi family requires alpha and beta")
            for name in ("alpha", "beta"):
                value = getattr(self, name)
                if not (math.isfinite(value) and value > -1):
                    raise ValueError(f"jacobi {name} must be a finite number > -1, got {value}")
        if self.b is not None and not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"domain scale b must be a finite number > 0, got {self.b}")

    @property
    def scaled(self):
        """True for the families run in the transformed variable 2*lam/b - 1."""
        return self.kind in ("chebyshev", "jacobi")

    def with_b(self, b):
        return replace(self, b=float(b))

    @classmethod
    def chebyshev(cls, b=None):
        return cls("chebyshev", b=b)

    @classmethod
    def jacobi(cls, alpha, beta, b=None):
        return cls("jacobi", alpha=float(alpha), beta=float(beta), b=b)

    @classmethod
    def hermite(cls):
        return cls("hermite")

    @classmethod
    def laguerre(cls):
        return cls("laguerre")


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Spectral-weight expansion: family and coefficients.

    coeffs is (m+1,) for one weight or (m+1, S) for S weights, one per
    column, that share one recurrence.
    """

    family: PolynomialFamily
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.size == 0:
            raise ValueError("coeffs must be a nonempty (m+1,) vector or (m+1, S) matrix")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return len(self.coeffs) - 1


def recurrence_params(family, n):
    """(A_n, B_n, C_n) of P_{n+1} = (A_n x + B_n) P_n + C_n P_{n-1}."""
    if n < 0:
        raise ValueError("recurrence index must be >= 0")
    if family.kind == "chebyshev":
        return (1.0 if n == 0 else 2.0, 0.0, -1.0)
    if family.kind == "hermite":
        return (2.0, 0.0, -2.0 * n)
    if family.kind == "laguerre":
        return (-1.0 / (n + 1.0), (2.0 * n + 1.0) / (n + 1.0), -n / (n + 1.0))
    a, b = family.alpha, family.beta
    if n == 0:
        # limit of the general formulas; avoids the 0/0 at alpha + beta = 0
        return ((a + b + 2.0) / 2.0, (a - b) / 2.0, 0.0)
    s = a + b
    den = 2.0 * (n + 1.0) * (n + s + 1.0)
    A = (2.0 * n + s + 1.0) * (2.0 * n + s + 2.0) / den
    B = (a * a - b * b) * (2.0 * n + s + 1.0) / (den * (2.0 * n + s))
    C = -2.0 * (n + a) * (n + b) * (2.0 * n + s + 2.0) / (den * (2.0 * n + s))
    return (A, B, C)


def _check_sigma_degree(sigma, m):
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")
    if m is not None and m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")


def _chop(block, weight=None):
    """c_0..c_m of the shortest expansion whose weighted tail is negligible.

    block(lo, hi) gives c_n for lo <= n < hi and weight(n) the bound M_n on
    |P_n| over [-1, 1] (1 when None). m is the smallest degree with
    sum_{n>m} |c_n| M_n <= _TAIL_REL * sum_n |c_n| M_n over the whole infinite
    series: blocks grow by half until the geometric series with the ratio of
    the last two weighted terms, which bounds everything past them, is small
    enough to decide m. That bound is rigorous when the ratios decrease, as
    I_{n+1}(x)/I_n(x) does for the Chebyshev heat coefficients.
    """
    c = block(0, _FIRST_BLOCK)
    while True:
        t = np.abs(c) if weight is None else np.abs(c) * weight(np.arange(c.size))
        if not np.all(np.isfinite(t)):
            raise ValueError("coefficients must be finite")
        last, prev = t[-1], t[-2]
        if last == 0.0:
            rest = 0.0
        elif last < prev:
            rest = last * last / (prev - last)  # sum_{k>=1} last * (last/prev)^k
        else:
            rest = math.inf
        after = np.append(np.cumsum(t[:0:-1])[::-1], 0.0)  # after[j] = sum_{j<n<K} t_n
        known = t.sum()
        met = np.flatnonzero(after + rest <= _TAIL_REL * known)
        # m is decided once the tail at m - 1 exceeds the bound even without
        # the unknown rest
        if met.size and (met[0] == 0 or after[met[0] - 1] > _TAIL_REL * (known + rest)):
            return c[: met[0] + 1]
        c = np.concatenate([c, block(c.size, c.size + c.size // 2)])


def chebyshev_coefficients(sigma, b, m=None):
    """Heat-weight Chebyshev coefficients (2 - delta_n0)(-1)^n e^(-b*sigma/2) I_n(b*sigma/2).

    They sum to 1 in absolute value. m=None stops at the smallest degree whose
    tail sum_{n>m} |c_n| is at most 1e-16 (see heat_coefficients).
    """
    _check_sigma_degree(sigma, m)
    family = PolynomialFamily.chebyshev(b=float(b))
    x = 0.5 * family.b * sigma

    def block(lo, hi):
        n = np.arange(lo, hi)
        c = np.where(n % 2 == 0, 2.0, -2.0) * _sp.ive(n, x)
        if lo == 0:
            c[0] *= 0.5
        return c

    c = _chop(block) if m is None else block(0, m + 1)
    return ExpansionCoefficients(family, c)


def _jacobi_max_abs(alpha, beta, n):
    """M_n = binom(n + max(alpha, beta, -1/2), n), the bound on |P_n^(alpha,beta)| over [-1, 1].

    It is the maximum when max(alpha, beta) >= -1/2 (Szego, Thm 7.32.1).
    """
    q = max(alpha, beta, -0.5)
    n = np.asarray(n, dtype=float)
    return np.exp(_sp.gammaln(n + q + 1.0) - _sp.gammaln(n + 1.0) - _sp.gammaln(q + 1.0))


def jacobi_coefficients(sigma, b, alpha, beta, m=None):
    """Heat-weight Jacobi coefficients.

    c_n = Gamma(a+b+n+1)/Gamma(a+b+2n+1) * (-b*sigma)^n
          * 1F1(beta+n+1; alpha+beta+2n+2; -b*sigma),
    with the n = 0 gamma ratio fixed to 1. Assembled in log space so large
    b*sigma neither overflows nor cancels. m=None stops the Kummer series
    loop at the smallest degree whose tail sum_{n>m} |c_n| M_n is at most
    1e-16 of the whole sum, with M_n from _jacobi_max_abs.
    """
    _check_sigma_degree(sigma, m)
    family = PolynomialFamily.jacobi(alpha, beta, b=float(b))
    if sigma == 0.0:
        c = np.zeros(1 if m is None else m + 1)
        c[0] = 1.0
        return ExpansionCoefficients(family, c)
    bs = float(b) * float(sigma)
    log_bs = math.log(bs)
    s = alpha + beta

    def block(lo, hi):
        c = np.zeros(hi - lo)
        for n in range(lo, hi):
            log_ratio = 0.0 if n == 0 else math.lgamma(s + n + 1.0) - math.lgamma(s + 2.0 * n + 1.0)
            sign_f, log_f = kummer_1f1_log(beta + n + 1.0, s + 2.0 * n + 2.0, -bs)
            log_mag = log_ratio + n * log_bs + log_f
            if log_mag < -745.0:
                continue  # underflows to zero; the tail is negligible by then
            c[n - lo] = (1.0 if n % 2 == 0 else -1.0) * sign_f * math.exp(log_mag)
        return c

    if m is None:
        c = _chop(block, lambda n: _jacobi_max_abs(alpha, beta, n))
    else:
        c = block(0, m + 1)
    return ExpansionCoefficients(family, c)


def hermite_coefficients(sigma, m):
    """Heat-weight Hermite coefficients (1/n!) (-sigma/2)^n e^(sigma^2/4)."""
    _check_sigma_degree(sigma, m)
    c = np.zeros(m + 1)
    if sigma == 0.0:
        c[0] = 1.0
        return ExpansionCoefficients(PolynomialFamily.hermite(), c)
    lead = sigma * sigma / 4.0
    if lead > 709.0:
        raise RuntimeError(f"hermite coefficients overflow at sigma={sigma}")
    log_half = math.log(sigma / 2.0)
    for n in range(m + 1):
        log_mag = n * log_half - math.lgamma(n + 1.0) + lead
        if log_mag < -745.0:
            continue
        c[n] = (1.0 if n % 2 == 0 else -1.0) * math.exp(log_mag)
    return ExpansionCoefficients(PolynomialFamily.hermite(), c)


def laguerre_coefficients(sigma, m):
    """Heat-weight Laguerre coefficients sigma^n / (sigma+1)^(n+1)."""
    _check_sigma_degree(sigma, m)
    c = np.zeros(m + 1)
    ratio = sigma / (sigma + 1.0)
    val = 1.0 / (sigma + 1.0)
    for n in range(m + 1):
        c[n] = val
        val *= ratio
    return ExpansionCoefficients(PolynomialFamily.laguerre(), c)


def heat_coefficients(family, sigma, m=None):
    """Closed-form heat-weight coefficients for any family (b required if scaled).

    An explicit m gives exactly m + 1 coefficients. m=None picks the degree
    from the coefficient tail in the scaled families: the smallest m with
    sum_{n>m} |c_n| M_n <= 1e-16 * sum_n |c_n| M_n, where M_n bounds |P_n|
    on [-1, 1] (1 for Chebyshev; see _jacobi_max_abs). The tail bounds
    the truncation error of the heat weight on [0, b]; for Chebyshev
    sum_n |c_n| = 1, so that error is at most 1e-16. Hermite and Laguerre are
    unbounded on the spectrum: there m=None means degree 1000 and no bound is
    claimed.
    """
    if family.scaled and family.b is None:
        raise ValueError(f"{family.kind} heat coefficients need the domain scale b")
    if family.kind == "chebyshev":
        return chebyshev_coefficients(sigma, family.b, m)
    if family.kind == "jacobi":
        return jacobi_coefficients(sigma, family.b, family.alpha, family.beta, m)
    m = _UNSCALED_DEGREE if m is None else m
    if family.kind == "hermite":
        return hermite_coefficients(sigma, m)
    return laguerre_coefficients(sigma, m)



@functools.lru_cache(maxsize=_STACK_CACHE_SIZE)
def _coefficient_stack(column, family, params, m):
    """Frozen (m+1, S) coefficients; column j is column(family, params[j], m).coeffs.

    Shorter columns (m=None picks each one's degree) are zero-padded. Cached
    on the arguments, so column must be a module-level function (a lambda
    is a new key per call); every caller gets the same frozen object.
    """
    columns = [column(family, p, m).coeffs for p in params]
    c = np.zeros((max(map(len, columns)), len(columns)))
    for j, col in enumerate(columns):
        c[: len(col), j] = col
    return ExpansionCoefficients(family, c)


def _jacobi_norm_log(alpha, beta, n):
    """log of the [-1,1] orthogonality constant h_n of P_n^(alpha,beta)."""
    if n == 0:
        return (
            (alpha + beta + 1.0) * math.log(2.0)
            + math.lgamma(alpha + 1.0)
            + math.lgamma(beta + 1.0)
            - math.lgamma(alpha + beta + 2.0)
        )
    return (
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(n + alpha + 1.0)
        + math.lgamma(n + beta + 1.0)
        - math.lgamma(n + alpha + beta + 1.0)
        - math.lgamma(n + 1.0)
        - math.log(2.0 * n + alpha + beta + 1.0)
    )


def _eval_weight(weight, lam):
    vals = np.asarray(weight(lam), dtype=float)
    if vals.shape != lam.shape:
        raise ValueError(f"weight must map {lam.shape} nodes to {lam.shape} values, got {vals.shape}")
    return vals


def numeric_coefficients(weight, family, m, nodes=None):
    """Expansion coefficients of an arbitrary bounded weight by Gauss quadrature.

    Chebyshev/Jacobi only (the finite domain [0, b]). Uses at least 2(m+1)
    nodes; pass `nodes` to raise the count for stiff weights.
    """
    if not family.scaled:
        raise ValueError("numeric coefficients support chebyshev/jacobi families only")
    if family.b is None:
        raise ValueError("numeric coefficients need the domain scale b")
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    K = int(nodes) if nodes is not None else max(2 * (m + 1), 128)
    K = max(K, 2 * (m + 1))
    b = family.b
    if family.kind == "chebyshev":
        # c_n = (2/K) sum_k W(theta_k) cos(n theta_k), halved at n = 0, over
        # theta_k = (2k - 1) pi / (2K): the DCT-II of W divided by K. Imported
        # here to keep scipy.fft out of the CLI's start-up.
        from scipy.fft import dct

        theta = (2.0 * np.arange(1, K + 1) - 1.0) * math.pi / (2.0 * K)
        W = _eval_weight(weight, 0.5 * b * (np.cos(theta) + 1.0))
        c = dct(W, type=2)[: m + 1] / K
        c[0] *= 0.5
    else:
        x, w = _sp.roots_jacobi(K, family.alpha, family.beta)
        lam = 0.5 * b * (x + 1.0)
        W = _eval_weight(weight, lam)
        X2, wW = sparse.diags(2.0 * x, format="csr"), w * W
        c = np.concatenate([P @ wW for _, P in _blocks(family, X2, np.ones(K), m)])
        c /= [math.exp(_jacobi_norm_log(family.alpha, family.beta, n)) for n in range(m + 1)]
    return ExpansionCoefficients(family, c)


def evaluate_expansion(coeffs, lam):
    """Reconstruct the scalar weight sum_n c_n P_n at eigenvalue(s) lam."""
    lam = np.asarray(lam, dtype=float)
    fam = coeffs.family
    x = 2.0 * lam / fam.b - 1.0 if fam.scaled else lam
    out = _series(coeffs, sparse.diags(2.0 * x.ravel(), format="csr"), np.ones(x.size))
    return out.reshape(lam.shape + coeffs.coeffs.shape[1:])


def spectral_bound(op):
    """Certified upper bound on the spectrum of Delta = A^-1 C: the domain scale b.

    The Gershgorin bound max_i (C_ii + sum_{j != i} |C_ij|) / A_i; 0 for a zero
    operator. When no off-diagonal of C is positive, the zero row sums make
    it 2 max_i C_ii / A_i, at most twice the largest eigenvalue. Cached on
    the operator.
    """
    if op.gershgorin_bound is None:
        diag = op.C.diagonal()
        rows = diag - np.abs(diag) + np.asarray(abs(op.C).sum(axis=1)).ravel()
        op.gershgorin_bound = float(np.max(rows / op.A))
    return op.gershgorin_bound


def estimate_lambda_max(op):
    """Estimate of the largest eigenvalue of Delta = A^-1 C, not a bound.

    1.01 x the top eigenvalue of A^-1/2 C A^-1/2 from Lanczos (scipy eigsh,
    relative tolerance 1e-6, seeded start vector) at every mesh size, 0 for
    a zero operator. It serves the forward-Euler stability check and the
    caution on unscaled families; b comes from spectral_bound. Cached on the
    operator.
    """
    if op.lambda_max_hint is None:
        d = 1.0 / np.sqrt(op.A)
        S = op.C.multiply(d[:, None]).multiply(d[None, :]).tocsr()
        if S.count_nonzero() == 0:
            top = 0.0
        else:
            from scipy.sparse.linalg import eigsh  # kept out of the CLI's start-up

            v0 = np.random.default_rng(0).standard_normal(op.n_vertices)
            top = eigsh(S, k=1, which="LA", tol=1e-6, v0=v0, return_eigenvectors=False)[0]
        op.lambda_max_hint = 1.01 * float(top)
    return op.lambda_max_hint


def resolve_family(op, family=None):
    """The family to expand in on op, with the domain scale b filled in.

    family defaults to Chebyshev. A scaled family without b gets the
    spectral_bound of the operator (1 when the operator is zero).
    """
    if family is None:
        family = PolynomialFamily.chebyshev()
    if family.scaled and family.b is None:
        b = spectral_bound(op)
        family = family.with_b(b if b > 0 else 1.0)
    return family


def _recurrence_matrix(op, b):
    """2X, X = (2/b) A^-1 C - I, or A^-1 C for b None: the CSR matrix the recurrence runs on.

    A copy of C scaled row by row with its diagonal shifted; cached on op for the last b.
    """
    cached = op.recurrence_matrix
    if cached is None or cached[0] != b:
        X2 = op.C.copy()
        scale = 2.0 / op.A if b is None else (4.0 / b) / op.A
        X2.data *= np.repeat(scale, np.diff(X2.indptr))
        if b is not None:
            X2.setdiag(X2.diagonal() - 2.0)
        op.recurrence_matrix = cached = (b, X2)
    return cached[1]


def _blocks(family, X2, f, m):
    """Yield (lo, P), P[k] = P_{lo+k}(X) f for k < len(P): the family's three-term recurrence.

    X2 is the CSR matrix 2X. The blocks of P_0..P_m rows are one reused buffer
    of at most _BLOCK_BYTES. P_{n+1} = (A_n/2) (2X P_n + (2/A_n)(B_n P_n + C_n P_{n-1})):
    the bracket is formed in the row, and one csr_matvec adds 2X P_n into it.
    """
    N = f.size
    rows = max(1, min(m + 1, _BLOCK_BYTES // (8 * N)))
    buf = np.empty((rows + 2, N))  # rows 0 and 1 carry P_{lo-2} and P_{lo-1}
    buf[1], buf[2] = 0.0, f  # P_{-1} = 0, P_0 = f
    view = list(buf)  # one view per row, made once
    matvec = functools.partial(csr_matvec, N, N, X2.indptr, X2.indices, X2.data)
    lo, r = 0, 3
    for n in range(m):
        if r == rows + 2:
            yield lo, buf[2:]
            buf[:2] = buf[rows:]
            lo, r = lo + rows, 2
        A, B, C = recurrence_params(family, n)
        half, row, cur = 0.5 * A, view[r], view[r - 1]
        np.multiply(view[r - 2], C / half, out=row)
        if B != 0.0:
            row += (B / half) * cur
        matvec(cur, row)
        if half != 1.0:
            row *= half
        r += 1
    yield lo, buf[2:r]


def _series(coeffs, X2, f):
    """sum_n c_n P_n(X) f: one GEMM per block of degrees, or a GEMV for (m+1,) coefficients.

    Raises if the recurrence leaves the finite range (checked every 64 degrees)
    or the sum is not finite.
    """
    c = coeffs.coeffs
    out = np.zeros(f.shape + c.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, P in _blocks(coeffs.family, X2, f, coeffs.degree):
            for k in range(-lo % _NAN_CHECK_EVERY, len(P), _NAN_CHECK_EVERY):
                if lo + k and not np.all(np.isfinite(P[k])):
                    raise RuntimeError(
                        f"expansion recurrence diverged at degree {lo + k} "
                        f"(family={coeffs.family.kind}, degree={coeffs.degree})"
                    )
            out += P.T @ c[lo : lo + len(P)]
    if not np.all(np.isfinite(out)):
        raise RuntimeError(
            f"expansion produced non-finite values (family={coeffs.family.kind}, "
            f"degree={coeffs.degree})"
        )
    return out


def apply_expansion(op, coeffs, f):
    """sum_n c_n P_n(Delta) f through the three-term recurrence.

    Runs on the CSR matrix 2X cached on the operator (_recurrence_matrix).
    Costs exactly `degree` sparse matvecs, also for (m+1, S) coefficients,
    which give an (N, S) result. Raises if the recurrence leaves the finite
    range (checked every 64 degrees).
    """
    f = _check_field(op, f)
    fam = coeffs.family
    if fam.scaled and fam.b is None:
        raise ValueError("scaled families need the domain scale b to be set")
    return _series(coeffs, _recurrence_matrix(op, fam.b if fam.scaled else None), f)
