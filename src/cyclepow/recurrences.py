"""Second-order linear recurrences attached to each correction factor.

Every factor carries two sibling sequences with seeds s_0 = 0, s_1 = 1 and
rule s_{n+1} = c*s_n - s_{n-1}:

  * the full-index form uses c = gamma (the root itself) and has the Binet
    expression (rho^n - rho^-n)/(rho - 1/rho);
  * the half-index form uses c = delta where delta = sigma + 1/sigma for a
    square root sigma of rho (so delta^2 = gamma + 2).

The geometric correction ratio that enters the closed-form hitting time,

    (1 - rho^ell)(1 - rho^(N-ell)) / ((1/rho - rho)(1 - rho^N)),

equals W_ell * W_{N-ell} / (delta * W_N) for the half-index sequence W, for
either choice of sigma: -sigma negates delta and every even-index W_n
exactly, so only the principal root is taken.  The analogous full-index
ratio V_ell * V_{N-ell} / V_N does NOT reproduce it (off by more than a unit
already at N=6, k=2), so the exponential and half-index forms are the trusted
evaluation paths and the full-index ratio is kept only for erratum reporting.
The exponential form is also the default for large N: |rho| < 1 keeps it
uniformly well-conditioned, whereas |W_N| grows like |rho|^(-N/2).  A
factorization keeps one factor per conjugate pair, its upper root (see
spectral): mpmath rounds complex operations symmetrically, so in either form
the ratios of the conjugate factor are exact conjugates of that factor's,
and callers take them as such instead of computing them.

Every W_m and V_m comes from one index-doubling ladder (_doubled_terms):
correction_ratio evaluates one ell from W_ell, W_{N-ell} and W_N alone, in
O(log N) operations, so a factor costs O(log N) even at N in the millions;
full_index_ratio takes its V terms the same way.  correction_ratios returns
the ratio for every ell = 0..N of one (factor, N) from one ladder over
0..N (or one table of rho^m), for callers that loop over ell.  Each value is
built with the same operations as correction_ratio's, at the same
precision, so in either form the two agree bit for bit.
"""

from __future__ import annotations

from mpmath import mp

from .errors import ParameterError
from .spectral import DEFAULT_PRECISION_BITS, FactorData, working_precision

__all__ = [
    "correction_ratio",
    "correction_ratios",
    "full_index_ratio",
    "half_index_coefficient",
]


def half_index_coefficient(
    factor: FactorData, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """delta = sigma + 1/sigma for the principal square root sigma of rho,
    so delta^2 = gamma + 2.

    The other root -sigma is not needed: it negates delta, and with it W_n
    for every even n, exactly, so both give the same correction ratios bit
    for bit.
    """
    with working_precision(precision_bits):
        sigma = mp.sqrt(mp.mpc(factor.inner_root))
        return sigma + 1 / sigma


def _doubled_terms(coefficient, indices):
    """{m: W_m} for the requested indices m, by index doubling.

    From W_j and W_{j+1}, with c the coefficient (c = s + 1/s, |s| >= 1,
    and W_j = (s^j - s^-j)/(s - 1/s)),

        W_{2j}   = W_j * (2 W_{j+1} - c W_j)     (the factor is s^j + s^-j)
        W_{2j+1} = W_{j+1}^2 - W_j^2
        W_{2j+2} = c W_{2j+1} - W_{2j},

    so the pair of j, (W_j, W_{j+1}), is one level above the pair of
    j >> 1, and (W_m, W_{m+1}) is L = m.bit_length() levels above
    (W_0, W_1) = (0, 1).  Pairs are kept by index, so indices that share a
    binary prefix share its levels: one index takes L levels, and a table
    of 0..N takes N.  Each W_m comes out of the same operations whichever
    other indices are asked for.  Exact for int/Fraction coefficients.

    Error: a rounding error in the pair (W_j, W_{j+1}) is a multiple of that
    pair plus a multiple of the pair of the other solution, which grows like
    s^-j.  A level is quadratic in the pair, so it doubles the relative size
    of the first part, and it shrinks the second by |s|^(-2j) against the
    result; L levels lose about L bits, plus a few bits in the first levels
    where the two differences lose more.  (At N = 10^6 + 3, k = 8 and 256
    bits the ratio is off by 2^-268 without extra bits, 2^-286 with them.)
    So the levels run 2L bits above the caller's working precision, L taken
    from the largest index, and the terms are rounded back to it.
    """
    wanted = set(indices)
    extra_bits = 2 * max(wanted).bit_length()
    with mp.workprec(mp.prec + extra_bits):
        pairs = {0: (coefficient * 0, coefficient * 0 + 1)}

        def pair(j):
            if j not in pairs:
                low, high = pair(j >> 1)
                even = low * (2 * high - coefficient * low)
                odd = high * high - low * low
                pairs[j] = (odd, coefficient * odd - even) if j & 1 else (even, odd)
            return pairs[j]

        values = {m: pair(m)[0] for m in wanted}
    return {m: +value for m, value in values.items()}


def _ratio_parts(factor, indices, n_vertices, form, precision_bits):
    """(values, denominator) with ratio(ell) = values[ell] * values[N - ell]
    / denominator, `values` holding the indices asked for.

    Exponential form: values[m] = 1 - rho^m and denominator
    (1/rho - rho)(1 - rho^N).  Sequence form: values[m] = W_m from
    _doubled_terms, and denominator delta * W_N.  Runs in the caller's
    working precision.
    """
    if form == "exponential":
        rho = mp.mpc(factor.inner_root)
        values = {m: 1 - rho**m for m in indices}
        return values, (1 / rho - rho) * values[n_vertices]
    if form == "sequence":
        delta = half_index_coefficient(factor, precision_bits)
        values = _doubled_terms(delta, indices)
        return values, delta * values[n_vertices]
    raise ParameterError(f"unknown form {form!r}")


def _check_indices(n_vertices: int, ell: int = 0) -> None:
    """Integers N >= 1 and 0 <= ell <= N: at N = 0 the denominators
    1 - rho^0, W_0 and V_0 all vanish."""
    for name, value in (("n_vertices", n_vertices), ("ell", ell)):
        if not isinstance(value, int):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if n_vertices < 1:
        raise ParameterError(f"n_vertices must be >= 1, got {n_vertices}")
    if not 0 <= ell <= n_vertices:
        raise ParameterError(f"need 0 <= ell <= {n_vertices}, got {ell}")


def _ratio(values, denominator, ell, n_vertices):
    return values[ell] * values[n_vertices - ell] / denominator


def correction_ratio(
    factor: FactorData,
    ell: int,
    n_vertices: int,
    form: str = "exponential",
    precision_bits: int = DEFAULT_PRECISION_BITS,
):
    """The per-factor geometric correction for displacement ell on n_vertices.

    form="exponential" evaluates (1 - rho^ell)(1 - rho^(N-ell)) /
    ((1/rho - rho)(1 - rho^N)) directly from the inner root; form="sequence"
    evaluates W_ell * W_{N-ell} / (delta * W_N) through the half-index
    recurrence, taking only W_ell, W_{N-ell} and W_N, each by index doubling
    in O(log N) operations.  The two agree to the certified-residual
    tolerance and are symmetric in ell <-> N - ell by construction.
    """
    _check_indices(n_vertices, ell)
    with working_precision(precision_bits):
        values, denominator = _ratio_parts(
            factor, (ell, n_vertices - ell, n_vertices), n_vertices, form,
            precision_bits,
        )
        return _ratio(values, denominator, ell, n_vertices)


def correction_ratios(
    factor: FactorData,
    n_vertices: int,
    form: str = "exponential",
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple:
    """correction_ratio(factor, ell, n_vertices, ...) for ell = 0..n_vertices.

    One ladder reaches every W_m for m = 0..N (or each rho^m is taken
    once) instead of three terms per ell.  The values are those of the
    per-ell function bit for bit, in either form.  Holds N + 1 values, so
    large-N callers that need a few ell should call correction_ratio.
    """
    _check_indices(n_vertices)
    with working_precision(precision_bits):
        values, denominator = _ratio_parts(
            factor, range(n_vertices + 1), n_vertices, form, precision_bits
        )
        return tuple(
            _ratio(values, denominator, ell, n_vertices)
            for ell in range(n_vertices + 1)
        )


def full_index_ratio(
    factor: FactorData,
    ell: int,
    n_vertices: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
):
    """V_ell * V_{N-ell} / V_N for the full-index sequence.

    Kept solely for erratum reporting: this ratio does not equal the verified
    correction ratio (already at N=6, ell=1 for the square of the cycle it
    gives -55/144 where the true ratio is -5/8).  The three V terms come by
    index doubling, as in correction_ratio.
    """
    _check_indices(n_vertices, ell)
    with working_precision(precision_bits):
        terms = _doubled_terms(
            mp.mpc(factor.root), (ell, n_vertices - ell, n_vertices)
        )
        return terms[ell] * terms[n_vertices - ell] / terms[n_vertices]
