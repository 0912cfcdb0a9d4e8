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
evaluation paths and the full-index ratio (form="full-index") is kept only
for erratum reporting.
The exponential form is also the default for large N: |rho| < 1 keeps it
uniformly well-conditioned, whereas |W_N| grows like |rho|^(-N/2).  A
factorization keeps one factor per conjugate pair, its upper root (see
spectral): the fixed-point integers below and mpmath's complex operations
both round symmetrically, so in every form the ratios of the conjugate
factor are exact conjugates of that factor's, and callers take them as such
instead of computing them.

The exponential form runs on spectral's fixed-point Gaussian integers
(fixed_ratios): rho is converted once per factor, every rho^m comes from one
power chain, and the denominator is inverted once, with F fraction bits
derived from N, A and the factor's distance from the unit circle
(ratio_bits) so that every ratio is within 2^-(p+8) / (N max(1, |A|)) of the
ratio of the factor's rho.  The closed form in hitting adds these integers
as they are.  The sequence form stays in mpmath, the independent recurrence
route: every W_m and V_m comes from one index-doubling ladder
(_doubled_terms), so correction_ratio evaluates one ell from W_ell,
W_{N-ell} and W_N alone (or the three V terms), in O(log N) operations,
even at N in the millions.  correction_ratios returns
the ratio for every ell = 0..N of one (factor, N) from one ladder over 0..N,
or one power chain, for callers that loop over ell.  A power or a W_m is the
same whichever other indices are asked for, so in every form a table entry
equals correction_ratio's value bit for bit.
"""

from __future__ import annotations

from mpmath import mp

from .errors import ParameterError
from .spectral import (
    DEFAULT_PRECISION_BITS, FactorData, gaussian_product, round_divide, to_fixed,
    working_bits, working_precision,
)

__all__ = [
    "correction_ratio",
    "correction_ratios",
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


def ratio_bits(factor, n_vertices: int, precision_bits: int) -> int:
    """F, the fraction bits of the fixed-point exponential-form ratios of one
    factor on n_vertices: the working precision p plus 8 plus bitlen(40 N^2
    max(1, |A|) / d^3), d = 1 - |rho| the factor's distance from the unit
    circle (with N, |A| and 1/d, this grows with k).

    Error bound, in units of 2^-F.  rho is rounded to R within 0.71.  Each
    power P_m = round(P_(m//2) P_(m-m//2)) with m >= 2 adds at most the
    errors of its two factors (both of size <= 1) and 0.71, so P_m is within
    1.5 m of rho^m, and so is V_m = 1 - P_m, where |1 - rho^m| >= d.  The
    inverse round(R / (V_2 V_N)) of the denominator (1/rho - rho)(1 - rho^N)
    = (1 - rho^2)(1 - rho^N) / rho is at most |rho| / d^2 in size and within
    a relative (1.5 N + 3) / d + 3.6 / |rho| of its value, and each ratio
    round(V_ell V_(N-ell) inverse) is then within (9 N + 27) / d^3 < 40 N /
    d^3 of the ratio of rho.  So every ratio is within 2^-(p+8) / (N max(1,
    |A|)) of the exact ratio of the factor's rho: N A times it, the term
    the closed form adds, within 2^-(p+8).
    """
    distance = 1 - abs(complex(factor.inner_root))
    scale = max(1.0, abs(complex(factor.coefficient)))
    growth = int(40 * n_vertices**2 * scale / distance**3)
    return working_bits(precision_bits) + 8 + growth.bit_length()


def fixed_ratios(factor, ells, n_vertices: int, bits: int) -> list:
    """ratio(ell) * 2^bits on Gaussian integers for each ell asked for, all
    from one conversion of rho.

    Every rho^m comes from one chain, P_0 = 2^bits, P_1 = round(rho 2^bits)
    and P_m = round(P_(m//2) P_(m-m//2) / 2^bits), so a power is the same
    integer whichever other indices are asked for: a table over every ell
    takes N - 1 products and a single ell about 2 log2(N).  The denominator
    is taken once, as the rounded inverse rho / ((1 - rho^2)(1 - rho^N)),
    and each ratio is round((1 - P_ell)(1 - P_(N-ell)) inverse): the first
    product is exact, so ell and N - ell give the same integers, and every
    rounding commutes with conjugation, so a conjugate factor's ratios are
    the exact conjugates.  Within the bound derived at ratio_bits when bits
    is at least that F.
    """
    one = 1 << bits
    powers = {0: (one, 0), 1: to_fixed(factor.inner_root, bits)}

    def power(m):
        if m not in powers:
            powers[m] = gaussian_product(power(m >> 1), power(m - (m >> 1)), bits)
        return powers[m]

    def value(m):
        x, y = power(m)
        return one - x, -y

    (a, b), (c, d) = value(2), value(n_vertices)
    real, imag = a * c - b * d, a * d + b * c  # (1 - rho^2)(1 - rho^N)
    x, y = powers[1]
    norm = real * real + imag * imag
    inverse = (
        round_divide((x * real + y * imag) << 2 * bits, norm),
        round_divide((y * real - x * imag) << 2 * bits, norm),
    )
    ratios = []
    for ell in ells:
        (a, b), (c, d) = value(ell), value(n_vertices - ell)
        ratios.append(
            gaussian_product((a * c - b * d, a * d + b * c), inverse, 2 * bits)
        )
    return ratios


def _ratio_parts(factor, ells, n_vertices, form, precision_bits) -> list:
    """The ratio of each ell asked for, in the caller's working precision.

    Exponential form: fixed_ratios at ratio_bits, each rounded once to an
    mpc.  Sequence form: W_ell * W_(N-ell) / (delta * W_N); full-index form:
    V_ell * V_(N-ell) / V_N, with coefficient gamma.  Either sequence comes
    from one _doubled_terms ladder over every index the ells need.
    """
    if form == "exponential":
        bits = ratio_bits(factor, n_vertices, precision_bits)
        return [
            mp.mpc(mp.mpf((x, -bits)), mp.mpf((y, -bits)))
            for x, y in fixed_ratios(factor, ells, n_vertices, bits)
        ]
    if form not in ("sequence", "full-index"):
        raise ParameterError(f"unknown form {form!r}")
    half = form == "sequence"
    coefficient = (
        half_index_coefficient(factor, precision_bits) if half else mp.mpc(factor.root)
    )
    indices = {n_vertices, *ells, *(n_vertices - ell for ell in ells)}
    values = _doubled_terms(coefficient, indices)
    denominator = coefficient * values[n_vertices] if half else values[n_vertices]
    return [values[ell] * values[n_vertices - ell] / denominator for ell in ells]


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

    form="full-index" evaluates V_ell * V_{N-ell} / V_N for the full-index
    sequence, its three V terms by the same doubling.  It is kept solely for
    erratum reporting: it does not equal the correction ratio (already at
    N=6, ell=1 for the square of the cycle it gives -55/144 where the true
    ratio is -5/8).
    """
    _check_indices(n_vertices, ell)
    with working_precision(precision_bits):
        return _ratio_parts(factor, (ell,), n_vertices, form, precision_bits)[0]


def correction_ratios(
    factor: FactorData,
    n_vertices: int,
    form: str = "exponential",
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple:
    """correction_ratio(factor, ell, n_vertices, ...) for ell = 0..n_vertices.

    One ladder reaches every W_m for m = 0..N (or one chain every rho^m)
    instead of three terms per ell, and the ratios of ell <= N/2 are
    mirrored: ell and N - ell give the same bits.  The values are those of
    the per-ell function bit for bit, in every form.  Holds N + 1 values,
    so large-N callers that need a few ell should call correction_ratio.
    """
    _check_indices(n_vertices)
    with working_precision(precision_bits):
        half = _ratio_parts(
            factor, range(n_vertices // 2 + 1), n_vertices, form, precision_bits
        )
    return tuple(half + half[: (n_vertices + 1) // 2][::-1])

