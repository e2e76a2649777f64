"""Integer and rational linear algebra for Laplacians of trees.

Everything in this module is exact.  The inertia of L - lam*I at a
rational lam, and with it m(T, lam), comes from eliminating along the tree
(:func:`tree_inertia`): O(n) field operations over the rationals, each
kept as a numerator-denominator pair of Python ints;
characteristic polynomials come from a division-free recurrence.  The
minimal polynomial of an extremal eigenvalue comes from the half-path
polynomial, the characteristic polynomial of one leg held at zero at its
far end, by exact division, and the multiplicities of irrational
eigenvalues from repeated exact polynomial division.  The dense
fraction-free rank (:func:`rational_nullity`) is kept as the independent
reference the tests compare the elimination with.  No floating point
enters any code path here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CongruenceViolated, InvariantViolated, ZeroPolynomial
from .trees import Tree, _integer

__all__ = [
    "LambdaParam",
    "IntPolynomial",
    "laplacian",
    "tree_inertia",
    "rational_nullity",
    "char_poly",
    "minimal_poly_lambda",
    "root_multiplicity",
    "multiplicity_exact",
    "poly_mul",
    "poly_divmod",
]


@dataclass(frozen=True)
class LambdaParam:
    """An extremal eigenvalue 2*(1 - cos((2b+1)*pi/(2q+1))).

    Two parameter pairs describe the same eigenvalue exactly when the
    reduced ratio (2b+1)/(2q+1) agrees, so equality and hashing go through
    ``ratio`` alone.  Both numerator and denominator of the reduced ratio
    are odd, and the ratio sits strictly between 0 and 1.  Raises
    CongruenceViolated unless q and b are integers with 0 <= b < q; numpy
    integers are stored as ints.
    """

    q: int = field(compare=False)
    b: int = field(compare=False)
    ratio: Fraction = field(init=False, compare=True)

    def __post_init__(self):
        q, b = _integer(self.q), _integer(self.b)
        if q is None or q < 1:
            raise CongruenceViolated(f"q must be a positive integer, got {self.q!r}")
        if b is None or not 0 <= b < q:
            raise CongruenceViolated(f"b must lie in [0, q), got b={self.b!r}, q={q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "ratio", Fraction(2 * b + 1, 2 * q + 1))

    @property
    def value(self) -> float:
        """Floating approximation of the eigenvalue, in (0, 4)."""
        r = self.ratio
        return 2.0 * (1.0 - math.cos(math.pi * r.numerator / r.denominator))

    def __repr__(self):
        return f"LambdaParam(q={self.q}, b={self.b}, ratio={self.ratio})"


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients low degree first; () is zero."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        # Horner; works for int, Fraction and float arguments alike.
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poly_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return IntPolynomial(())
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return IntPolynomial(tuple(out))


def poly_divmod(p: IntPolynomial, d: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Long division by a monic divisor; stays in integer coefficients."""
    if d.degree < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if d.coeffs[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p.coeffs)
    dd = d.degree
    if p.degree < dd:
        return IntPolynomial(()), p
    quot = [0] * (p.degree - dd + 1)
    for k in range(p.degree - dd, -1, -1):
        c = rem[k + dd]
        if c:
            quot[k] = c
            for j, dj in enumerate(d.coeffs):
                rem[k + j] -= c * dj
    return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))


def laplacian(tree: Tree) -> tuple[tuple[int, ...], ...]:
    """Laplacian D - A, row i <-> label i+1."""
    n = tree.n
    rows = []
    for v in range(1, n + 1):
        row = [0] * n
        row[v - 1] = len(tree.adjacency[v])
        for w in tree.adjacency[v]:
            row[w - 1] = -1
        rows.append(tuple(row))
    return tuple(rows)


def tree_inertia(tree: Tree, lam) -> tuple[int, int]:
    """Laplacian eigenvalues below a rational ``lam``, and the multiplicity of ``lam``.

    Diagonalizes L - lam*I by congruence along the tree, over the
    rationals (Jacobs & Trevisan, "Locating the eigenvalues of trees",
    Linear Algebra Appl. 434 (2011) 81-88).  Every vertex starts at
    a(v) = deg(v) - lam, and children are eliminated before their parent.
    At a vertex with a child of value 0, that child becomes 2, the vertex
    -1/2, and the vertex is cut from its parent; otherwise the vertex
    subtracts 1/a(c) for each child c still joined to it.  By Sylvester's
    law of inertia the negative values count the eigenvalues below lam and
    the zeros are m(T, lam).  Only ``lam`` is converted to a Fraction;
    the loop keeps each running sum of inverses as a pair of ints, divided
    by the denominators' common factor as Fraction's addition does, and
    tallies the signs as it goes, O(n) field operations in all.
    Returns ``(below, zero)``.
    """
    lam = Fraction(lam)
    n, adj = tree.n, tree.adjacency
    # A preorder from vertex 1 on this function's own stack; reversed, it
    # puts every child before its parent.
    parent = [0] * (n + 1)
    order = []
    stack = [1]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    # With lam = ln/ld, the sum of 1/a(c) over a vertex's joined children
    # is the pair num/den, den > 0, so a(v) = top/(ld*den) with
    # top = (deg*ld - ln)*den - num*ld, the same sign as a(v).
    ln, ld = lam.numerator, lam.denominator
    num = [0] * (n + 1)
    den = [1] * (n + 1)
    zero_child = [0] * (n + 1)
    below = zero = 0
    for v in reversed(order):
        if zero_child[v]:
            # the zero child becomes 2 and the vertex -1/2
            zero -= 1
            below += 1
            continue  # cut from its parent
        top = (len(adj[v]) * ld - ln) * den[v] - num[v] * ld
        # the root's parent is slot 0, which nothing reads
        u = parent[v]
        if top:
            # add 1/a(v) = bottom/top to u's sum, with a positive denominator
            bottom = ld * den[v]
            if top < 0:
                below += 1
                top, bottom = -top, -bottom
            # As Fraction adds (Knuth, TAOCP 4.5.1), the pair is divided
            # only by what the denominators share: a gcd of the two long
            # results would cost quadratic time on every vertex.
            nu, du = num[u], den[u]
            g = math.gcd(du, top)
            if g == 1:
                num[u], den[u] = nu * top + bottom * du, du * top
            else:
                s = nu * (top // g) + bottom * (du // g)
                h = math.gcd(s, g)
                num[u], den[u] = s // h, du // g * (top // h)
        else:
            zero += 1
            zero_child[u] = v
    return below, zero


def _bareiss_rank(rows: list[list[int]]) -> int:
    # Fraction-free elimination with first-nonzero column pivoting.  The
    # updated entries are minors of the input, so the divisions are exact.
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    prev = 1
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[c]
            rr = rows[r]
            for j in range(c + 1, ncols):
                num = pv * ri[j] - f * rr[j]
                qt, rm = divmod(num, prev)
                if rm:
                    raise InvariantViolated("fraction-free update must divide exactly")
                ri[j] = qt
            ri[c] = 0
        prev = pv
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def rational_nullity(matrix, lam) -> int:
    """Exact nullity of M - lam*I for a rational shift ``lam``.

    Scales by the denominator first (b*M - a*I has the same kernel), then
    runs integer fraction-free elimination.
    """
    lam = Fraction(lam)
    a, b = lam.numerator, lam.denominator
    n = len(matrix)
    rows = [
        [b * matrix[i][j] - (a if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return n - _bareiss_rank(rows)


def char_poly(matrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - M), division-free.

    Samuelson-Berkowitz recurrence: grow one leading principal submatrix at
    a time, multiplying the running coefficient vector by a Toeplitz matrix
    whose entries are -R M^k S for the new border row R and column S.
    """
    n = len(matrix)
    coeffs = [1]  # char poly of the empty matrix, highest degree first
    for k in range(n):
        a = matrix[k][k]
        row = [matrix[k][j] for j in range(k)]
        col = [matrix[i][k] for i in range(k)]
        t = [1, -a]
        v = col[:]
        for j in range(k):
            t.append(-sum(row[i] * v[i] for i in range(k)))
            if j < k - 1:
                v = [
                    sum(matrix[i][l] * v[l] for l in range(k))
                    for i in range(k)
                ]
        new = [0] * (k + 2)
        for i in range(k + 2):
            acc = 0
            for j in range(max(0, i - len(t) + 1), min(i, k) + 1):
                acc += t[i - j] * coeffs[j]
            new[i] = acc
        coeffs = new
    return IntPolynomial(tuple(reversed(coeffs)))


def _half_path(k: int) -> IntPolynomial:
    """det(xI - L) over a leg of k >= 1 vertices: a pendant at one end, the
    other end joined to a vertex held at zero.

    D_0 = 1, D_1 = x - 1 and D_k = (x - 2) D_{k-1} - D_{k-2}.  The roots
    are 2 - 2cos(j*pi/(2k+1)) for odd j < 2k+1, each once.
    """
    prev, cur = [1], [-1, 1]
    for _ in range(k - 1):
        nxt = [0] + cur  # x * D_{k-1}
        for i, (c, p) in enumerate(zip(cur, prev + [0])):
            nxt[i] -= 2 * c + p
        prev, cur = cur, nxt
    return IntPolynomial(tuple(cur))


@functools.cache
def _minimal_poly(s: int) -> IntPolynomial:
    # Each odd j/s reduces to a denominator d >= 3 dividing s, so
    # D_{(s-1)/2} is the product of the minimal polynomials of those d.
    mu = _half_path((s - 1) // 2)
    for d in range(3, s, 2):
        if s % d == 0:
            mu, rem = poly_divmod(mu, _minimal_poly(d))
            if rem.degree >= 0:
                raise InvariantViolated(
                    f"minimal polynomial of modulus {d} must divide "
                    f"the half-path polynomial of {s}"
                )
    degree = sum(1 for j in range(1, s, 2) if math.gcd(j, s) == 1)
    if mu.degree != degree:
        raise InvariantViolated(
            f"minimal polynomial of modulus {s} has degree {mu.degree}, not phi({s})/2 = {degree}"
        )
    return mu


def minimal_poly_lambda(param: LambdaParam) -> IntPolynomial:
    """Monic minimal polynomial of the extremal eigenvalue over the integers.

    For the reduced ratio r/s, lam = 2 - 2cos(r*pi/s) is a root of the
    half-path polynomial D_{(s-1)/2}, whose roots are 2 - 2cos(j*pi/s) for
    odd j < s.  Dividing out the minimal polynomials of the proper
    divisors d >= 3 of s leaves the roots with j coprime to s: the
    conjugates of lam, phi(s)/2 of them.  Cached per s.
    """
    return _minimal_poly(param.ratio.denominator)


def root_multiplicity(p: IntPolynomial, mu: IntPolynomial) -> int:
    """How many times the monic factor ``mu`` divides ``p`` exactly."""
    if p.degree < 0:
        raise ZeroPolynomial("multiplicity undefined for the zero polynomial")
    count = 0
    current = p
    while current.degree >= mu.degree:
        quot, rem = poly_divmod(current, mu)
        if rem.degree >= 0:
            break
        count += 1
        current = quot
    return count


def multiplicity_exact(tree: Tree, param: LambdaParam) -> int:
    """Exact Laplacian multiplicity of the extremal eigenvalue."""
    return root_multiplicity(char_poly(laplacian(tree)), minimal_poly_lambda(param))
