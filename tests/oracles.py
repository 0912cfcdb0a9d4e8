"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: spanning trees and
forests are counted by brute-force subset enumeration, linear systems are
solved by plain Gaussian elimination over Fractions, Laplacians are dense
matrices that are deleted, contracted and folded entry by entry and only
then cut to band rows, Fibonacci numbers come from the integer recurrence,
the terms of s_{n+1} = c*s_n - s_{n-1} come from stepping it or from the
Binet expression, the exponential-form correction ratios and the closed
form are mpmath complex arithmetic at twice the working precision over
every root, simulated walks run one at a time, each from its own numpy
Philox generator, spectral sums and products run over every Fourier
mode with one mp.cospi call per cosine, and the roots of psi_k come from
mpmath's Durand-Kerner iteration (polyroots) on psi_k itself.  `invoke`
runs the command line in this process and captures what it writes.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np
from mpmath import mp

from cyclepow import cli
from cyclepow.spectral import FactorData


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def term_by_recurrence(coefficient, n: int, precision_bits: int | None = None):
    """s_n of s_{n+1} = coefficient*s_n - s_{n-1}, seeds 0 and 1, stepped
    n times, at precision_bits + 32 when given, else in the ambient context
    (exact for int/Fraction coefficients either way)."""
    with mp.workprec(mp.prec if precision_bits is None else precision_bits + 32):
        previous, current = coefficient * 0, coefficient * 0 + 1
        for _ in range(n):
            previous, current = current, coefficient * current - previous
        return previous


def term_by_binet(base, n: int, precision_bits: int = 256):
    """(base^n - base^-n) / (base - 1/base) at precision_bits + 32."""
    with mp.workprec(precision_bits + 32):
        b = mp.mpc(base)
        return (b**n - b**-n) / (b - 1 / b)


def exponential_ratios(factor, n: int, precision_bits: int) -> list:
    """(1 - rho^ell)(1 - rho^(n-ell)) / ((1/rho - rho)(1 - rho^n)) for ell =
    0..n from the factor's rho as given, in mpmath complex arithmetic at
    twice the working precision, 2 (precision_bits + 32); rho^m by repeated
    products, m roundings far below the fixed-point bound."""
    with mp.workprec(2 * (precision_bits + 32)):
        rho = mp.mpc(factor.inner_root)
        values, power = [], mp.mpc(1)
        for _ in range(n + 1):
            values.append(1 - power)
            power *= rho
        denominator = (1 / rho - rho) * values[n]
        return [values[ell] * values[n - ell] / denominator for ell in range(n + 1)]


def closed_reference(sf, n: int, tables) -> list:
    """h(0, ell) for ell = 0..n-1 as the quadratic term plus n times the sum
    of A * ratio over every root, tables[i] holding the ratios for ell =
    0..n of sf.factors[i] and their conjugates those of its conjugate root,
    in mpmath complex arithmetic at twice the working precision."""
    with mp.workprec(2 * (sf.precision_bits + 32)):
        terms = []
        for factor, ratios in zip(sf.factors, tables):
            terms.append((factor.coefficient, ratios))
            if factor.root.imag:
                terms.append((mp.conj(factor.coefficient), list(map(mp.conj, ratios))))
        values = []
        for ell in range(n):
            corrections = mp.fsum(a * ratios[ell] for a, ratios in terms)
            quadratic = sf.pole_coefficient * ell * (n - ell) / 2
            base = mp.mpf(quadratic.numerator) / quadratic.denominator
            values.append(base + n * mp.re(corrections))
        return values


def psi_roots_reference(psi, precision_bits: int) -> list:
    """All roots of psi (psi_k, constant term first) by mpmath's Durand-Kerner
    iteration at twice the working precision, 2 (precision_bits + 32).
    Evaluating psi_k near a root cancels about 2 bits per degree (its roots
    lie within 2.5 of the origin), so the iteration carries that many extra
    bits; its step budget is generous, and NoConvergence propagates."""
    degree = len(psi) - 1
    if degree < 1:
        return []
    with mp.workprec(2 * (precision_bits + 32)):
        return mp.polyroots(
            list(reversed(psi)), maxsteps=200, extraprec=2 * degree + 32
        )


def exact_conjugates(a, b) -> bool:
    """b is the complex conjugate of a bit for bit.  mp.conj and unary minus
    round to the ambient precision, so the imaginary part is negated with
    mp.fneg(exact=True) instead."""
    return a.real == b.real and a.imag == mp.fneg(b.imag, exact=True)


def exact_conjugate(z):
    """The complex conjugate of z bit for bit, at any ambient precision."""
    return mp.make_mpc((z.real._mpf_, mp.fneg(z.imag, exact=True)._mpf_))


def conjugate_factor(factor):
    """The factor of the conjugate root: root, inner root and coefficient
    conjugated bit for bit."""
    return FactorData(
        root=exact_conjugate(factor.root),
        inner_root=exact_conjugate(factor.inner_root),
        coefficient=exact_conjugate(factor.coefficient),
        residual=factor.residual,
    )


def with_conjugates(factors):
    """Every root's factor: each factor of a factorization, a non-real one
    preceded by its conjugate factor, the (Re, Im) order of a pair."""
    for factor in factors:
        if factor.root.imag:
            yield conjugate_factor(factor)
        yield factor


def gauss_solve(rows, rhs) -> list[Fraction]:
    """Plain fraction-arithmetic Gaussian elimination with partial pivoting.

    Raises ZeroDivisionError when the matrix is singular.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inverse = 1 / aug[col][col]
        aug[col] = [x * inverse for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def permutation_determinant(rows) -> int:
    """Leibniz-formula determinant; fine up to ~7x7."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    from itertools import permutations

    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # parity via cycle decomposition
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def dense_laplacian(n: int, k: int) -> list[list[int]]:
    """Circulant Laplacian of the distance-k power of the n-cycle, one edge
    end at a time."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for r in range(1, k + 1):
            for j in ((i + r) % n, (i - r) % n):
                rows[i][j] -= 1
                rows[i][i] += 1
    return rows


def contract(rows, u: int, v: int) -> list[list[int]]:
    """Laplacian of the multigraph with u and v identified.

    Row and column v are added into u's, which turns the u-v edges into
    diagonal weight that cancels; the merged vertex keeps u's index and v's
    row and column are dropped.
    """
    n = len(rows)
    work = [list(row) for row in rows]
    for j in range(n):
        work[u][j] += work[v][j]
    for i in range(n):
        work[i][u] += work[i][v]
    keep = [i for i in range(n) if i != v]
    return [[work[i][j] for j in keep] for i in keep]


def fold_order(n: int) -> list[int]:
    """0, n-1, 1, n-2, ...: both ends inward."""
    return [v for pair in zip(range(n), range(n - 1, -1, -1)) for v in pair][:n]


def to_band(rows, b: int | None = None) -> list[list[int]]:
    """Band rows of a dense square matrix: row i holds columns i-b..i+b,
    zero off the matrix.  b defaults to the largest distance of a nonzero
    from the diagonal; a nonzero outside a given b raises ValueError."""
    n = len(rows)
    widest = max(
        (abs(i - j) for i, row in enumerate(rows) for j, x in enumerate(row) if x),
        default=0,
    )
    if b is None:
        b = widest
    elif widest > b:
        raise ValueError(f"a nonzero lies {widest} from the diagonal, beyond {b}")
    return [
        [rows[i][j] if 0 <= j < n else 0 for j in range(i - b, i + b + 1)]
        for i in range(n)
    ]


def reference_band(n: int, k: int, removed=()) -> tuple[list[int], list[list[int]]]:
    """(vertex order, band rows) of the dense Laplacian with `removed`
    deleted and the rest taken in fold order, at half-width 2k."""
    dense = dense_laplacian(n, k)
    order = [v for v in fold_order(n) if v not in removed]
    return order, to_band([[dense[u][v] for v in order] for u in order], 2 * k)


def edges_from_laplacian(rows) -> list[tuple[int, int]]:
    """Multigraph edge list (with multiplicity) from an integer Laplacian."""
    n = len(rows)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.extend([(i, j)] * (-rows[i][j]))
    return edges


class _DisjointSet:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def count_spanning_trees(n_vertices: int, edges) -> int:
    """Spanning trees of a multigraph by subset enumeration."""
    count = 0
    for subset in combinations(range(len(edges)), n_vertices - 1):
        dsu = _DisjointSet(n_vertices)
        if all(dsu.union(*edges[i]) for i in subset):
            count += 1
    return count


def count_separating_forests(n_vertices: int, edges, u: int, v: int) -> int:
    """Two-component spanning forests with u and v in different components."""
    count = 0
    for subset in combinations(range(len(edges)), n_vertices - 2):
        dsu = _DisjointSet(n_vertices)
        if not all(dsu.union(*edges[i]) for i in subset):
            continue
        # n-2 edges and no cycle means exactly two components
        if dsu.find(u) != dsu.find(v):
            count += 1
    return count


def reference_walk_times(spec, ell: int, walks: int, seed: int) -> np.ndarray:
    """First-passage times from 0 to ell (ell != 0), one walk at a time.

    Walk w draws its steps with Generator.integers(0, 2k) from
    numpy.random.Philox(key=(seed, w)): draw d < k moves d + 1 forward,
    d >= k moves d - k + 1 back.
    """
    n, k = spec.n, spec.k
    times = np.empty(walks, dtype=np.int64)
    for walk in range(walks):
        generator = np.random.Generator(
            np.random.Philox(key=np.array([seed, walk], dtype=np.uint64))
        )
        position = 0
        steps = 0
        while True:
            draws = generator.integers(0, 2 * k, size=64)
            offsets = np.where(draws < k, draws + 1, k - 1 - draws)
            path = (position + np.cumsum(offsets)) % n
            hits = np.flatnonzero(path == ell)
            if hits.size:
                steps += int(hits[0]) + 1
                break
            steps += 64
            position = int(path[-1])
        times[walk] = steps
    return times


def simulate_reference(spec, ell: int, walks: int, seed: int) -> tuple[float, float]:
    """(mean, standard error) of reference_walk_times; (0, 0) at ell = 0."""
    if ell == 0:
        return 0.0, 0.0
    times = reference_walk_times(spec, ell, walks, seed)
    if walks == 1:
        return float(times.mean()), 0.0
    return float(times.mean()), float(times.std(ddof=1) / math.sqrt(walks))


def unfolded_eigenvalues(n: int, k: int) -> list:
    """2k - 2 sum_r cos(2 pi j r / n) for every j, each cosine its own
    mp.cospi call at the current working precision."""
    return [
        2 * k
        - 2 * sum(mp.cospi(mp.mpf(2 * (j * r % n)) / n) for r in range(1, k + 1))
        for j in range(n)
    ]


def spectral_sum_reference(n: int, k: int, ell: int, precision_bits: int):
    """2k * sum_{j=1..n-1} (1 - cos(2 pi j ell / n)) / lambda_j, every term
    summed in order, at precision_bits + 32."""
    with mp.workprec(precision_bits + 32):
        eigenvalues = unfolded_eigenvalues(n, k)
        total = mp.mpf(0)
        for j in range(1, n):
            total += (1 - mp.cospi(mp.mpf(2 * (j * ell % n)) / n)) / eigenvalues[j]
        return 2 * k * total


def eigen_product_reference(n: int, k: int, precision_bits: int):
    """Matrix-tree count prod_{j=1..n-1} lambda_j / n over every nonzero mode,
    at precision_bits + 32."""
    with mp.workprec(precision_bits + 32):
        product = mp.mpf(1)
        for lam in unfolded_eigenvalues(n, k)[1:]:
            product *= lam
        return product / n


class Invocation(NamedTuple):
    """One in-process CLI run: its exit code, what it wrote to stdout and to
    stderr, both as `output` in the order written, and the SystemExit that
    ended it (None on exit code 0).  Any other exception propagates."""

    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: SystemExit | None


class _Tee(io.StringIO):
    """A stream that also writes to a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def invoke(args: list[str]) -> Invocation:
    """Run `cyclepow args` through `cli.main`, as its console script does."""
    output = io.StringIO()
    stdout, stderr = _Tee(output), _Tee(output)
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            cli.main(args)
        except SystemExit as exc:
            ended = exc
    return Invocation(
        ended.code, stdout.getvalue(), stderr.getvalue(), output.getvalue(),
        ended if ended.code else None,
    )
