"""Class functions, irreducible characters, and exact character tables.

Tables are computed by the class-sum matrix method (Dixon, Numer. Math. 10,
1967): the structure constants of the class sums give commuting integer
matrices whose common eigenvectors are the central characters.  One
routine, `_class_matrix`, counts them for the split and the certification,
one class at a time at class representatives (Schneider, J. Symbolic
Comput. 9, 1990): a_ijm = |C_j| #{x in C_i : x g_j in C_m} / |C_m| for the
representative g_j of C_j, |G| k table reads over all k classes, not |G|^2.
The splitting is performed modulo a deterministic prime p = 1 (mod
exponent), p > 2*sqrt(|G|).  Each class matrix, restricted to an eigenspace
found so far, splits it only at the roots of its characteristic polynomial,
taken on its Hessenberg form; a restriction that is scalar mod p splits
nothing and costs no round.  The classes are visited in descending element
order, ties in canonical order.  Character values are then reconstructed
exactly as root-of-unity multiplicity vectors (the multiplicities are
integers below p, so the modular computation determines them), as integer
vectors, once per Galois orbit of classes: chi(g^a) = sigma_a(chi(g)) for a
prime to the order of g (Isaacs, Character Theory of Finite Groups) gives
the rest of the orbit.  Each value is the sum of its multiplicities times
the powers of zeta_N already reduced mod Phi_N (`reduced_roots`, one cached
table per exponent N), so it needs no reduction of its own.  An abelian
group, one element per class, skips the split: its irreducibles are the
homomorphisms to the N-th roots of unity, N the exponent, built by
extending the characters of a growing subgroup along the elements in id
order (`_abelian_characters`).  The finished table is certified exactly,
by the same checks on either route.  Any failure of the splitting or of the
certification is a defect, never a data error.

A table of |G| rows of degree 1 is first certified on exponents mod N
(`_linear_table_holds`): every value must be exactly zeta_N^e, the
exponents must add along the group table at a generating set (so the
identity gets 0), and the rows must be distinct with one of them trivial.
That proves the rows are |G| distinct linear characters, all the
irreducibles of an abelian group, with no pairing.  If it fails, the
certification below runs unchanged, so the verdict and the message are the
same either way.

Otherwise certification rests on the Gram identity over Z[zeta_n], n the lcm
of the conductors of the values: X diag(|C|) conj(X)^T = |G| I, next to the
row count and sum deg^2 = |G|.  Each row is lifted to conductor n once, as
sparse (exponent, integer coefficient) pairs with one common denominator D_i
(1 unless a coefficient is fractional).  Gram entry (i, j) is accumulated as
a cyclic convolution in Z[x]/(x^n - 1), conjugation sending exponent e to
-e, reduced mod Phi_n once and compared with |G| D_i D_j delta_ij.
Reduction mod Phi_n is a ring map and conjugation a Galois automorphism, so
the check is exact.  `inner_product` runs the same kernel on two class
functions.  Orthonormal rows need not be characters (scale a column by a
unit complex number, or swap two columns of equal class size), so
certification also requires every value to be an algebraic integer, one row
to be the trivial character, and every row to satisfy the class algebra
identity |C_i| chi(g_i) chi(g_j) = chi(1) sum_{x in C_i} chi(x g_j) for
enough classes i to tell the rows apart.  That makes each row a positive
multiple of a distinct irreducible, so the off-diagonal Gram entries are 0,
and a table is certified by its k diagonal entries, not all k^2.  The
ordered scan over all entries runs only to name the first failure of a table
that is rejected.

One lifted table per group.  The installed table keeps, beside
`_char_table`, its rows lifted to the table conductor (the lcm of the
conductors of its values) as the same sparse pairs; a lift is rebuilt when
the table is replaced.  The lift of a table that the Gram identity
certified is the one the certification built; otherwise each row is lifted
on its first read (`_lifted_row`), so reading one row lifts one row.  The
class-function sums of `verify` and `strata` run on these integer vectors:
weighted sums sum_j w_j value_j by `_weighted_sum`, reduced mod Phi_n once,
and the exact class averages of `_class_average` built on them.

Enumeration order of the irreducibles: ascending degree, then lexicographic
order of the value rows, each value keyed by its canonical coefficient tuple
at the group-exponent conductor, classes in canonical order.  The order is
deterministic and recorded in serialized tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import marshal
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

from .cyclotomic import Cyc, reduce_mod_phi, reduced_roots, zeta_powers
from .errors import DefectError, ValidationError
from .groups import FiniteGroup, Subgroup, gather

CHARACTER_TABLE_ORDER_CAP = 256


# ---------------------------------------------------------------------------
# class functions


@dataclass(frozen=True)
class ClassFunction:
    """A class function on a finite group, one exact value per conjugacy class
    (canonical class order)."""

    group: FiniteGroup
    values: tuple[Cyc, ...]

    def __post_init__(self):
        k = len(self.group.conjugacy_classes())
        if len(self.values) != k:
            raise ValidationError(f"expected {k} class values, got {len(self.values)}")

    def __call__(self, element: int) -> Cyc:
        return self.values[self.group.class_of(element)]

    def _same_group(self, other: "ClassFunction") -> None:
        if self.group is not other.group:
            raise ValidationError("class functions on different groups")


@dataclass(frozen=True)
class Character(ClassFunction):
    """A character row: a class function with degree and, for table rows,
    the enumeration index."""

    degree: int = 0
    index: int | None = None


# ---------------------------------------------------------------------------
# the integer pairing kernel over Z[zeta_n]

_Lifted = tuple[int, tuple[tuple[tuple[int, int], ...], ...]]


def _conductor(*value_rows: Sequence[Cyc]) -> int:
    """The lcm of the conductors of all the values."""
    return lcm(1, *(v.n for values in value_rows for v in values))


def _lift_values(values: Sequence[Cyc], n: int) -> _Lifted:
    """Values at conductor n as sparse (exponent, integer coefficient) pairs,
    all scaled by one common denominator D (1 unless a coefficient is
    fractional).  Returns (D, pairs per value)."""
    D = lcm(1, *(v.den for v in values))
    return D, tuple(
        tuple((k * (n // v.n), c * (D // v.den)) for k, c in enumerate(v.num) if c)
        for v in values
    )


def _pairing(a: _Lifted, b: _Lifted, sizes: Sequence[int], n: int) -> list[int]:
    """sum_j |C_j| a_j conj(b_j), scaled by D_a D_b, as the canonical integer
    vector at conductor n: a cyclic convolution in Z[x]/(x^n - 1) (conjugation
    sends exponent e to -e), reduced mod Phi_n once."""
    acc = [0] * n
    for size, av, bv in zip(sizes, a[1], b[1]):
        for e, x in av:
            sx = size * x
            for f, y in bv:
                acc[(e - f) % n] += sx * y
    return reduce_mod_phi(n, acc)


def _weighted_sum(weights: Sequence[int], values: Sequence[tuple[tuple[int, int], ...]], n: int) -> list[int]:
    """sum_j w_j v_j over values lifted to conductor n (sparse (exponent,
    integer coefficient) pairs, as `_lift_values` gives them), as the
    canonical integer vector at n, reduced mod Phi_n once."""
    acc = [0] * n
    for w, pairs in zip(weights, values):
        if w:
            for e, x in pairs:
                acc[e] += w * x
    return reduce_mod_phi(n, acc)


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyc:
    """<a, b> = (1/|G|) sum_g a(g) conj(b(g)), exact, at the lcm of the
    conductors of all the values."""
    a._same_group(b)
    G = a.group
    n = _conductor(a.values, b.values)
    la, lb = _lift_values(a.values, n), _lift_values(b.values, n)
    sizes = [len(c) for c in G.conjugacy_classes()]
    return Cyc.from_ints(n, _pairing(la, lb, sizes, n), G.order * la[0] * lb[0])


def _lifted_row(chi: Character) -> tuple[int, _Lifted]:
    """chi's values as `_lift_values` gives them, with their conductor n.

    A row of its group's installed table is read from the table's lift, at
    the table conductor (the lcm of the conductors of all its values): each
    row is lifted on its first read, unless `_certify_table` lifted it
    already.  The lift is kept beside `_char_table` and rebuilt when that is
    replaced.  Any other class function is lifted here, at its own
    conductor."""
    G = chi.group
    rows = G._char_table
    i = chi.index
    if rows is None or i is None or not 0 <= i < len(rows) or rows[i] is not chi:
        n = _conductor(chi.values)
        return n, _lift_values(chi.values, n)
    lift = G._char_lift
    if lift is None or lift[0] is not rows:
        lift = G._char_lift = (rows, _conductor(*(r.values for r in rows)), [None] * len(rows))
    _, n, lifted = lift
    if lifted[i] is None:
        lifted[i] = _lift_values(chi.values, n)
    return n, lifted[i]


def _class_average(chi: Character, weights: Sequence[int], order: int) -> int | Cyc:
    """sum_c w_c chi(c) / order over chi's lifted row: the int if it is a rational integer, else the Cyc."""
    n, (D, values) = _lifted_row(chi)
    total = _weighted_sum(weights, values, n)
    q, r = divmod(total[0], order * D)
    return Cyc.from_ints(n, total, order * D) if r or any(total[1:]) else q


# ---------------------------------------------------------------------------
# standard characters, restriction, induction, decomposition


def trivial_character(G: FiniteGroup) -> Character:
    k = len(G.conjugacy_classes())
    return Character(G, tuple(Cyc.one() for _ in range(k)), degree=1)


def regular_character(G: FiniteGroup) -> Character:
    values = [Cyc.zero() for _ in G.conjugacy_classes()]
    identity_class = G.class_of(G.identity)
    values[identity_class] = Cyc.rational(G.order)
    return Character(G, tuple(values), degree=G.order)


def restrict(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Restriction to H, as a class function on H viewed as its own group."""
    if chi.group is not H.parent:
        raise ValidationError("character and subgroup belong to different groups")
    Hgroup, to_parent = H.as_group()
    values = tuple(
        chi.values[chi.group.class_of(to_parent[rep])]
        for rep in Hgroup.class_representatives()
    )
    return ClassFunction(Hgroup, values)


def induce(sigma: ClassFunction, H: Subgroup) -> ClassFunction:
    """Induction to the parent: Ind(sigma)(g_c) = |G| / (|H| |C_c|) sum over
    h in H and C_c of sigma(h), in one pass over the elements of H."""
    G = H.parent
    Hgroup, to_parent = H.as_group()
    if sigma.group is not Hgroup:
        raise ValidationError("class function does not live on the given subgroup")
    classes = G.conjugacy_classes()
    totals = [Cyc.zero(1) for _ in classes]
    for (c, b), count in Counter(zip(map(G.class_of, to_parent), Hgroup._classes[1])).items():
        totals[c] = totals[c] + count * sigma.values[b]
    return ClassFunction(G, tuple(t * G.order / (H.order * len(cls)) for t, cls in zip(totals, classes)))


def decompose(cf: ClassFunction) -> tuple[tuple[Character, int], ...]:
    """Multiplicities of cf against the irreducible characters (must be
    nonnegative integers; raises otherwise)."""
    result = []
    for chi in character_table(cf.group):
        value = inner_product(cf, chi)
        m = value.as_rational()
        if m is None or m.denominator != 1:
            raise ValidationError(
                f"not a genuine character: multiplicity of irreducible {chi.index} is {value!r}"
            )
        if m < 0:
            raise ValidationError("not a genuine character: negative multiplicity")
        if m:
            result.append((chi, int(m)))
    return tuple(result)


# ---------------------------------------------------------------------------
# modular linear algebra (small, exact over F_p)


def _nullspace_mod_p(mat: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the right nullspace of the matrix over F_p, one vector per
    free column; the rows of mat are overwritten.  Forward elimination
    touches only the rows that are nonzero in the pivot column, and only
    their entries right of it, so on a Hessenberg matrix it costs O(n^2);
    back substitution then solves for the pivot columns."""
    pivots: list[tuple[int, list[int]]] = []  # (column, row right of it, pivot scaled to 1)
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        tail = [(v * inv) % p for v in mat[r][c + 1:]]
        for row in mat[r + 1:]:
            f = row[c]
            if f:  # columns up to c of this row are not read again
                row[c + 1:] = [(a - f * b) % p for a, b in zip(row[c + 1:], tail)]
        pivots.append((c, tail))
    free = sorted(set(range(ncols)).difference(c for c, _ in pivots))
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for c, tail in reversed(pivots):
            vec[c] = -sum(map(mul, tail, vec[c + 1:])) % p
        basis.append(vec)
    return basis


def _unit_pivots(vectors: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """Row-reduce linearly independent vectors over F_p: the pivot columns
    and the reduced vectors, each 1 at its own pivot and 0 at the others,
    spanning the same space."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        for c, row in zip(pivots, rows):
            f = vec[c]
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, row)]
        c = next(i for i, x in enumerate(vec) if x)
        inv = pow(vec[c], p - 2, p)
        vec = [(x * inv) % p for x in vec]
        for i, row in enumerate(rows):
            f = row[c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(row, vec)]
        pivots.append(c)
        rows.append(vec)
    return pivots, rows


def _hessenberg_mod_p(mat: list[list[int]], p: int) -> tuple[list[list[int]], list[list[int]]]:
    """Upper Hessenberg form H = Q^-1 M Q over F_p by elementary similarity
    transforms (Cohen, A Course in Computational Algebraic Number Theory,
    2.2.9), together with Q.  It divides only by entries of M, never by an
    integer up to the size, so it works for any size, also at or above p
    (C2^4 has 16 classes at p = 11)."""
    n = len(mat)
    H = [row[:] for row in mat]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in chain(H, Q):
                row[i], row[m] = row[m], row[i]
        inv = pow(H[m][m - 1], p - 2, p)
        for i in range(m + 1, n):
            u = (H[i][m - 1] * inv) % p
            if u:
                # row i -= u * row m, then column m += u * column i
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
                for row in chain(H, Q):
                    row[m] = (row[m] + u * row[i]) % p
    return H, Q


def _charpoly_hessenberg(H: list[list[int]], p: int) -> list[int]:
    """det(xI - H) over F_p for upper Hessenberg H, ascending coefficients,
    by the recurrence on its leading principal minors."""
    polys = [[1]]
    for m in range(len(H)):
        prev = polys[m]
        new = [0] + prev
        for d, c in enumerate(prev):
            new[d] = (new[d] - H[m][m] * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = (t * H[i + 1][i]) % p
            if not t:
                break
            c = (H[i][m] * t) % p
            if c:
                for d, q in enumerate(polys[i]):
                    new[d] = (new[d] - c * q) % p
        polys.append(new)
    return polys[-1]


def _roots_mod_p(poly: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a monic polynomial (ascending
    coefficients), in ascending order.  Each root is divided out as often as
    it divides; the scan stops once the quotient is constant."""
    roots: list[int] = []
    lam = 0
    while len(poly) > 1 and lam < p:
        acc, quotient = 0, []
        for c in reversed(poly):
            acc = (acc * lam + c) % p
            quotient.append(acc)
        if quotient.pop():
            lam += 1
            continue
        poly = quotient[::-1]
        if roots[-1:] != [lam]:
            roots.append(lam)
    return roots


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _multiplicative_order(z: int, p: int) -> int:
    k, x = 1, z % p
    while x != 1:
        x = (x * z) % p
        k += 1
    return k


def _dixon_prime(order: int, exponent: int) -> int:
    p = max(2 * isqrt(order) + 1, exponent + 1)
    while not (_is_prime(p) and (p - 1) % exponent == 0):
        p += 1
    return p


def _root_of_unity_mod_p(exponent: int, p: int) -> int:
    for a in range(2, p):
        z = pow(a, (p - 1) // exponent, p)
        if _multiplicative_order(z, p) == exponent:
            return z
    raise DefectError("no element of the required order mod p")


# ---------------------------------------------------------------------------
# character table


def _class_matrix(G: FiniteGroup, i: int) -> list[list[tuple[int, int]]]:
    """The class matrix of class i as sparse rows: row j lists the pairs
    (m, a_ijm), a_ijm != 0, with C_i C_j = sum_m a_ijm C_m in the class
    algebra.  Counted at class representatives (Schneider, J. Symbolic
    Comput. 9, 1990): conjugation permutes C_i, so every y in C_j has as
    many x in C_i with xy in C_m as the representative g_j has, b_ijm =
    #{x in C_i : x g_j in C_m}.  The pairs (x, y) in C_i x C_j with xy in
    C_m then number |C_j| b_ijm = |C_m| a_ijm, and that division is checked
    to be exact.  Only nonzero counts are kept; class i costs |C_i| k table
    reads, |G| k over all k classes, not |G|^2."""
    classes = G.conjugacy_classes()
    class_of, t = G._classes[1], G.table
    rows: list[list[tuple[int, int]]] = [[] for _ in classes]
    for j, g in enumerate(G.class_representatives()):
        counts: dict[int, int] = {}  # m -> b = #{x in C_i : x g_j in C_m}
        for x in classes[i]:
            m = class_of[t[x][g]]
            counts[m] = counts.get(m, 0) + 1
        for m, b in counts.items():
            a, rest = divmod(len(classes[j]) * b, len(classes[m]))
            if rest:
                raise DefectError("class algebra structure constants not integral")
            rows[j].append((m, a))
    return rows


def _split_central_characters(G: FiniteGroup, p: int) -> list[list[int]]:
    """Common eigenvectors (mod p) of the class-sum matrices, normalized so the
    identity-class coordinate is 1.  Returns one vector per irreducible.

    Each class matrix in turn splits every common eigenspace found so far.
    A space is kept as basis vectors of length k, each 1 at its own pivot
    coordinate and 0 at the others' pivots, so the class matrix restricted
    to the space is the dim x dim matrix R of the pivot coordinates of the
    images of the basis.  Nullspaces are taken only at the roots of the
    characteristic polynomial of R, in ascending order, on its Hessenberg
    form H = Q^-1 R Q, where each costs O(dim^2), and mapped back by Q.

    A space on which R is scalar is kept as it stands.  The class matrices
    commute and are diagonalizable over F_p (p does not divide |G|, and F_p
    holds the exponent-th roots of unity), so each space found so far is a
    sum of their common eigenspaces, on which R is diagonalizable: a scalar
    R splits nothing, and the full round would return the same pivots and
    basis.  The classes are visited in descending order of the order of
    their elements, ties in canonical order, so that the classes that split
    most come early; the identity class, last, splits nothing.
    """
    k = len(G.conjugacy_classes())
    powers = G.class_powers
    subspaces = [(list(range(k)), [[int(r == c) for r in range(k)] for c in range(k)])]
    for i in sorted(range(k), key=lambda c: -len(powers[c])):
        if len(powers[i]) == 1 or all(len(basis) == 1 for _, basis in subspaces):
            break
        mat = _class_matrix(G, i)  # eigen relation: mat . omega = omega_i . omega
        refined: list[tuple[list[int], list[list[int]]]] = []
        for pivots, basis in subspaces:
            dim = len(basis)
            if dim == 1:
                refined.append((pivots, basis))
                continue
            R = [[sum(x * vec[m] for m, x in mat[r]) % p for vec in basis] for r in pivots]
            lam = R[0][0]
            if all(row == [0] * s + [lam] + [0] * (dim - 1 - s) for s, row in enumerate(R)):
                refined.append((pivots, basis))
                continue
            H, Q = _hessenberg_mod_p(R, p)
            columns = list(zip(*basis))
            consumed = 0
            for lam in _roots_mod_p(_charpoly_hessenberg(H, p), p):
                shifted = [
                    [(h - lam) % p if s == t else h for t, h in enumerate(row)]
                    for s, row in enumerate(H)
                ]
                kernel = [
                    [sum(map(mul, qrow, vec)) % p for qrow in Q]
                    for vec in _nullspace_mod_p(shifted, dim, p)
                ]
                cols, coords = _unit_pivots(kernel, p)
                newbasis = [
                    [sum(map(mul, cv, column)) % p for column in columns]
                    for cv in coords
                ]
                refined.append(([pivots[c] for c in cols], newbasis))
                consumed += len(kernel)
            if consumed != dim:
                raise DefectError("class-sum eigenvector splitting did not exhaust a subspace")
        subspaces = refined
    if not all(len(basis) == 1 for _, basis in subspaces):
        raise DefectError("class-sum eigenvector splitting did not fully diagonalize")
    if len(subspaces) != k:
        raise DefectError("wrong number of central characters")
    identity_class = G.class_of(G.identity)
    result = []
    for _, (vec,) in subspaces:
        v0 = vec[identity_class] % p
        if v0 == 0:
            raise DefectError("central character vanishes on the identity class")
        inv = pow(v0, p - 2, p)
        result.append([(v * inv) % p for v in vec])
    return result


def _lift_characters(
    G: FiniteGroup, omegas: list[list[int]], p: int
) -> list[tuple[int, tuple[Cyc, ...]]]:
    """Exact degrees and character values from the modular central characters.

    The degree d solves d^2 * sum_j omega_j omega_{j*} / |C_j| = |G|.  Values
    are lifted once per Galois orbit of classes, the classes of g^a for a
    prime to the order m of g: a discrete Fourier transform at g gives the
    multiplicity of each m-th root of unity among the eigenvalues of g (each
    at most d, summing to d), and the class of g^a gets the same
    multiplicities with exponent e moved to a*e mod N, since
    chi(g^a) = sigma_a(chi(g)).  Each value is summed from the powers of
    zeta_N reduced mod Phi_N (`reduced_roots`), so it is canonical as
    summed.  The inverse classes, the inverted class sizes, the orbits and
    their transform matrices are built once per table; `_certify_table`
    checks every value.
    """
    N = G.exponent
    roots = reduced_roots(N)
    zN = _root_of_unity_mod_p(N, p)
    size_inv = [pow(len(c), p - 2, p) for c in G.conjugacy_classes()]
    powers = G.class_powers
    inv_class = [pw[-1] for pw in powers]
    orbits = []  # (classes of the powers of g, transform rows, N/m, (class of g^a, a) pairs)
    seen: set[int] = set()
    for j, pw in enumerate(powers):
        if j in seen:
            continue
        m = len(pw)
        images: dict[int, int] = {}
        for a in range(1, m + 1):
            if gcd(a, m) == 1:
                images.setdefault(pw[a % m], a)
        seen.update(images)
        zpows = [pow(zN, (N // m) * u, p) for u in range(m)]
        dft = [[zpows[(-s * t) % m] for s in range(m)] for t in range(m)]
        orbits.append((pw, dft, N // m, tuple(images.items())))
    raw = []
    for omega in omegas:
        s = sum(w * omega[c] * hinv for w, c, hinv in zip(omega, inv_class, size_inv)) % p
        if s == 0:
            raise DefectError("degenerate norm in degree recovery")
        d_sq = (G.order % p) * pow(s, p - 2, p) % p
        d = next((t for t in range(1, (p - 1) // 2 + 1) if (t * t) % p == d_sq), None)
        if d is None or d * d > G.order or G.order % d != 0:
            raise DefectError("degree recovery failed")
        chi_mod = [(d * w * hinv) % p for w, hinv in zip(omega, size_inv)]
        values: list = [None] * len(powers)  # the orbits partition the classes
        for pw, dft, step, images in orbits:
            chi_powers = [chi_mod[c] for c in pw]
            inv_m = pow(len(pw), p - 2, p)
            mults = []
            for t, row in enumerate(dft):
                mt = (sum(map(mul, chi_powers, row)) * inv_m) % p
                if mt > d:
                    raise DefectError("root-of-unity multiplicity exceeds the degree")
                if mt:
                    mults.append((step * t, mt))
            if sum(mt for _, mt in mults) != d:
                raise DefectError("root-of-unity multiplicities do not sum to the degree")
            for c, a in images:
                num = [0] * N
                for e, mt in mults:
                    for u, x in roots[(a * e) % N]:
                        num[u] += mt * x
                values[c] = Cyc.from_reduced(N, num)
        raw.append((d, tuple(values)))
    return raw


def _abelian_characters(G: FiniteGroup) -> list[tuple[int, tuple[Cyc, ...]]]:
    """The linear characters of an abelian G, each as (1, values).

    Extends the characters of a subgroup H along the elements in id order,
    starting from H = 1: each g outside H gives H' = <H, g>, the union of
    the cosets H g^i, i < m, for m the least exponent with g^m in H.  A
    character chi of H extends to H' in m ways, g -> zeta_N^b with
    m b = e (mod N) where chi(g^m) = zeta_N^e, N the exponent: the order of
    g is m times that of g^m and divides N, so m divides e and
    b = e/m + s N/m, s < m.  Values are kept as exponents mod N, listed in
    the order the elements join H, and become `Cyc` values through
    `zeta_powers(N)`, the N roots of unity built once per N.  The generators
    of G are not read: a table group's declared generators need not
    generate it.
    """
    N = G.exponent
    t = G.table
    elements = [G.identity]  # H, in the order its elements joined it
    pos = [-1] * G.order  # position in `elements`, -1 outside H
    pos[G.identity] = 0
    exps = [[0]]  # per character of H, its exponents along `elements`
    for g in range(G.order):
        if pos[g] >= 0:
            continue
        powers = [g]  # g^1 .. g^(m-1)
        x = t[g][g]
        while pos[x] < 0:
            powers.append(x)
            x = t[x][g]
        m = len(powers) + 1
        coset = gather(elements)  # row of g^i -> the coset g^i H
        for gi in powers:
            for y in coset(t[gi]):
                pos[y] = len(elements)
                elements.append(y)
        h, step = pos[x], N // m
        exps = [
            [(a + i * b) % N for i in range(m) for a in row]
            for row in exps
            for b in range(row[h] // m, N, step)
        ]
    zetas = zeta_powers(N)
    where = gather([pos[r] for r in G.class_representatives()])
    return [(1, tuple(map(zetas.__getitem__, where(row)))) for row in exps]


def _lift_table(G: FiniteGroup, rows: Sequence[Character]) -> tuple[int, list[int], list[_Lifted]]:
    """The row count and sum deg^2 = |G|, then every row lifted once to n,
    the lcm of the conductors of the values.  Returns (n, class sizes, lifted
    rows)."""
    if len(rows) != len(G.conjugacy_classes()):
        raise DefectError("table row count differs from the class count")
    if sum(chi.degree**2 for chi in rows) != G.order:
        raise DefectError("squared degrees do not sum to the group order")
    n = _conductor(*(chi.values for chi in rows))
    sizes = [len(c) for c in G.conjugacy_classes()]
    return n, sizes, [_lift_values(chi.values, n) for chi in rows]


def _gram_fails(order: int, sizes: list[int], n: int, a: _Lifted, b: _Lifted, diagonal: bool) -> bool:
    """Whether one entry of X diag(|C|) conj(X)^T differs from |G| delta_ij."""
    gram = _pairing(a, b, sizes, n)
    return gram[0] != (order * a[0] * b[0] if diagonal else 0) or any(gram[1:])


def _verify_table(G: FiniteGroup, rows: Sequence[Character]) -> list[_Lifted]:
    """The ordered Gram scan: `_lift_table`, then the identity
    X diag(|C|) conj(X)^T = |G| I over Z[zeta_n], entry by entry in row-major
    order over the upper triangle.  The Gram matrix is Hermitian and every
    expected entry is real, so (i, j) fails exactly when (j, i) does, and the
    first failure in row-major order has i <= j.  `_certify_table` runs it
    only to name the first failure of a table it rejects.  Returns the rows
    as lifted for the check."""
    n, sizes, lifted = _lift_table(G, rows)
    for i, a in enumerate(lifted):
        for j in range(i, len(lifted)):
            if _gram_fails(G.order, sizes, n, a, lifted[j], i == j):
                got = inner_product(rows[i], rows[j])
                raise DefectError(
                    f"character rows {i},{j} are not orthonormal (got {got!r})"
                )
    return lifted


def _check_class_algebra(G: FiniteGroup, rows: Sequence[Character], lifted: list[_Lifted]) -> bool:
    """Every row is a multiple of an irreducible character of G, and whether
    the classes checked tell the rows apart.

    Each row must satisfy the class algebra identity
        d * sum_{x in C_i} chi(x g_j) = |C_i| chi(g_i) chi(g_j),
    which is 1/|C_j| times |C_i||C_j| chi_i chi_j = d sum_m a_ijm |C_m| chi_m,
    for every class j and every i in a set S of classes chosen greedily in
    class order, each splitting the rows by the values chi_i / d, until they
    are told apart or the classes run out.  It is checked exactly, as a
    convolution in Z[x]/(x^n - 1) reduced mod Phi_n, on the lifted rows (all
    integral here).  Then omega = |C| chi / d is a common eigenvector of the
    class matrices M_i, i in S, whose common eigenspaces are spanned by the
    central characters of the irreducibles.  Here d is the row's degree,
    which both callers make its positive value at the identity, so omega is
    1 there.  Returns True when S tells the k rows apart: then their k
    distinct eigenvalue tuples make each common eigenspace one-dimensional,
    so each omega is the central character of a distinct irreducible psi and
    chi = (d / psi(1)) psi.

    The separation keys chi_i / d without a Cyc division.  A block of one
    row cannot split, so it is kept as it is.  For the other rows, v is
    chi(g_i) lifted to n, canonical there: num reduced mod Phi_n, den > 0,
    gcd(den, num) = 1.  Dividing by the positive integer d leaves num reduced
    (reduction is linear) and takes den to den d, so (num, den d) divided by
    g = gcd(den d, num) is a reduced vector over a positive denominator in
    lowest terms.  Reduced vectors are unique, since zeta_n^k, k < phi(n),
    is a basis, and so is the lowest-terms denominator of a rational vector.
    So the pair is the canonical one that (chi(g_i) / d).lift(n) gives, and
    two rows share a key exactly when their values chi_i / d are equal.
    """
    n = _conductor(*(chi.values for chi in rows))
    sizes = list(map(len, G.conjugacy_classes()))
    blocks = [list(range(len(rows)))]
    chosen = []
    for i in range(len(sizes)):
        if len(blocks) == len(rows):
            break
        parts: dict[tuple, list[int]] = {}
        for block in blocks:
            if len(block) == 1:
                parts[block[0],] = block
                continue
            for r in block:
                v = rows[r].values[i].lift(n)
                den = v.den * rows[r].degree
                g = gcd(den, *v.num)
                num = v.num if g == 1 else tuple(c // g for c in v.num)
                parts.setdefault((block[0], num, den // g), []).append(r)
        if len(parts) > len(blocks):
            chosen.append(i)
            blocks = list(parts.values())
    for i in chosen:
        h = sizes[i]
        # per class j, the (class m, b_ijm = #{x in C_i : x g_j in C_m}) pairs
        matrix = _class_matrix(G, i)
        counts = [[(m, a * sizes[m] // sizes[j]) for m, a in row] for j, row in enumerate(matrix)]
        for r, (chi, (_, vals)) in enumerate(zip(rows, lifted)):
            d = chi.degree
            for j, cnt in enumerate(counts):
                acc = [0] * n
                for e, x in vals[i]:
                    hx = h * x
                    for f, y in vals[j]:
                        acc[(e + f) % n] += hx * y
                for m, c in cnt:
                    dc = d * c
                    for e, y in vals[m]:
                        acc[e] -= dc * y
                if any(acc) and any(reduce_mod_phi(n, acc)):
                    raise DefectError(
                        f"character row {r} violates the class algebra identity "
                        f"at classes {i},{j}"
                    )
    return len(blocks) == len(rows)


def _check_characters(G: FiniteGroup, rows: Sequence[Character], lifted: list[_Lifted]) -> bool:
    """Every value is an algebraic integer, one row is the trivial character,
    and `_check_class_algebra`, whose separation verdict it returns.  Values
    are kept in the power basis reduced mod Phi_n, an integral basis of
    Z[zeta_n], so integrality is integral coefficients."""
    for i, (D, _) in enumerate(lifted):
        if D != 1:
            raise DefectError(f"character row {i} has a value that is not an algebraic integer")
    one = ((0, 1),)  # the lift of 1 at any conductor
    if not any(all(v == one for v in values) for _, values in lifted):
        raise DefectError("no row is the trivial character")
    return _check_class_algebra(G, rows, lifted)


def _linear_table_holds(G: FiniteGroup, rows: Sequence[Character]) -> bool:
    """Whether the rows are |G| distinct homomorphisms G -> mu_N, N the
    exponent, checked on exponents mod N.

    Every row must have degree 1 and there must be |G| rows, one per class.
    Each value must be zeta_N^e exactly (its canonical (num, den) at
    conductor N is looked up among the N powers of `zeta_powers`), which
    gives each row an exponent e(x) per element.  Then e(x g) = e(x) + e(g) mod N for every x
    and every g of a magma generating set makes e a homomorphism to Z/N:
    x = 1 gives e(1) = 0, and every element is a product of the set.  The
    rows must also be pairwise distinct, one of them trivial.  Distinct
    linear characters are orthonormal, so there are at most k of them, and
    |G| of them are all the irreducibles of an abelian G.  Reads the values
    and the group table only."""
    N, order = G.exponent, G.order
    linear = all(chi.degree == 1 for chi in rows)
    if not (linear and len(rows) == order == len(G.conjugacy_classes())):
        return False
    roots = {(z.num, 1): e for e, z in enumerate(zeta_powers(N))}
    t = G.table
    wrap = tuple(range(N)) * 2  # wrap[s:s + N][e] = e + s mod N
    gens = [(g, gather(t[g])) for g in G._magma_generators]  # x -> g x = x g, G abelian
    per_element = gather([G.class_of(x) for x in range(order)])
    seen = set()
    for chi in rows:
        exps = []
        for v in chi.values:
            if v.n != N:
                if N % v.n:
                    return False
                v = v.lift(N)
            e = roots.get((v.num, v.den))
            if e is None:
                return False
            exps.append(e)
        e_of = per_element(exps)
        shifted = gather(e_of)
        if any(times_g(e_of) != shifted(wrap[e_of[g]:e_of[g] + N]) for g, times_g in gens):
            return False
        seen.add(e_of)
    return len(seen) == order and (0,) * order in seen


def _certify_table(G: FiniteGroup, rows: Sequence[Character]) -> tuple[int, list[_Lifted]] | None:
    """Certify that the rows are the irreducible characters of G; returns
    the conductor and the lifted rows when the check lifted them.

    A table of |G| linear rows is accepted by `_linear_table_holds`, on
    exponents mod N, without a pairing.  Otherwise, or if that fails:
    `_lift_table`, the k diagonal Gram entries, then `_check_characters`,
    which must report that its classes tell the rows apart.  That suffices:
    each row is then (d / psi(1)) psi for a distinct irreducible psi, so a
    diagonal entry equal to |G| forces d = psi(1), and the off-diagonal
    entries are 0.  The Gram identity alone would not do: it does not
    change when two columns of equal class size are swapped, and orthonormal
    rows need not be integral or contain the trivial character.

    On any failure the ordered sequence runs instead, `_verify_table` and
    then `_check_characters`, so a rejected table is named by its first
    failure in that order: the first off-diagonal Gram entry that fails,
    not a later diagonal one.  A repeated row passes every check but the
    separation, and the ordered scan names it.  The ordered sequence
    accepts no table that the first pass rejects: orthonormal rows are not
    proportional, so all classes together tell them apart.  What
    `_linear_table_holds` accepts is the table of irreducibles, which both
    sequences accept too, so it changes no verdict and no message.
    """
    if _linear_table_holds(G, rows):
        return None
    n, sizes, lifted = _lift_table(G, rows)
    try:
        diagonal = not any(_gram_fails(G.order, sizes, n, a, a, True) for a in lifted)
        if diagonal and _check_characters(G, rows, lifted):
            return n, lifted
    except DefectError:
        pass
    _check_characters(G, rows, _verify_table(G, rows))
    return n, lifted


def _install_table(G: FiniteGroup, rows: Sequence[Character]) -> tuple[Character, ...]:
    """Certify the rows and install them as G's table, with the lift that
    the certification built, if any (see `_lifted_row`)."""
    certified = _certify_table(G, rows)
    G._char_table = rows = tuple(rows)
    G._char_lift = (rows, *certified) if certified else None
    return rows


def _sort_rows(G: FiniteGroup, raw: list[tuple[int, tuple[Cyc, ...]]]) -> list[Character]:
    n = G.exponent
    raw.sort(key=lambda item: (item[0], tuple(v.key(n) for v in item[1])))
    return [
        Character(G, values, degree=d, index=i)
        for i, (d, values) in enumerate(raw)
    ]


def character_table(G: FiniteGroup) -> tuple[Character, ...]:
    """The full irreducible character table, cached on the group.

    An abelian G, one element per conjugacy class, gets its linear
    characters from `_abelian_characters`; any other G goes through the
    class-sum split and the value lift.  Both sets of rows are sorted by
    `_sort_rows` and certified by `_certify_table` alike.  Groups above the
    order cap must have a table attached up front (see
    `attach_character_table`), since the computation is only intended for
    desk-scale orders.
    """
    if G._char_table is not None:
        return G._char_table
    if G.order > CHARACTER_TABLE_ORDER_CAP:
        raise ValidationError(
            f"group order {G.order} exceeds the table cap "
            f"({CHARACTER_TABLE_ORDER_CAP}); supply a character table with the input"
        )
    if len(G.conjugacy_classes()) == G.order:
        raw = _abelian_characters(G)
    else:
        p = _dixon_prime(G.order, G.exponent)
        raw = _lift_characters(G, _split_central_characters(G, p), p)
    return _install_table(G, _sort_rows(G, raw))


def trivial_index(G: FiniteGroup) -> int:
    """Enumeration index of the trivial character (not always 0)."""
    one = Cyc.one()
    for chi in character_table(G):
        if chi.degree == 1 and all(v == one for v in chi.values):
            return chi.index  # type: ignore[return-value]
    raise DefectError("trivial character missing from the table")


# ---------------------------------------------------------------------------
# serialization


def cyc_to_json(value: Cyc, conductor: int) -> list[list[int]]:
    """One [numerator, denominator] pair per coefficient, each in lowest terms."""
    v = value.lift(conductor)
    return [[c // g, v.den // g] for c in v.num for g in (gcd(c, v.den),)]


def cyc_from_json(data: Sequence[Sequence[int]], conductor: int) -> Cyc:
    try:
        if len(data) != conductor:
            raise ValidationError("coefficient vector length differs from the conductor")
        if set(map(type, chain.from_iterable(data))) != {int}:
            raise TypeError("coefficients must be JSON integers, not floats or bools")
        pairs = [(n, d) for n, d in data]
        if any(d == 0 for _, d in pairs):
            raise ZeroDivisionError
        den = lcm(1, *(d for _, d in pairs))
        return Cyc.from_ints(conductor, [n * (den // d) for n, d in pairs], den)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(
            "a class value must be a list of [numerator, denominator] integer pairs "
            "with nonzero denominators"
        ) from None


def _json_value_key(data) -> bytes | None:
    """A class value as a hashable key: its marshal bytes, or None when
    marshal rejects it (an object that is no JSON value, which only a
    library caller can pass).

    The bytes record every type, so true and 1.0, which hash and compare
    equal to 1, never share a key with it.  Version 2 writes no
    back-references, so the bytes depend only on the value, and
    `marshal.loads` inverts them, so two values with equal bytes are equal
    with equal types, element by element.  Marshal writes the elements of a
    set sorted, so two equal sets that iterate in different orders share
    bytes; `attach_character_table` stores a parse only for a list of
    lists, and every value that shares its bytes is one too."""
    try:
        return marshal.dumps(data, 2)
    except ValueError:
        return None


def table_to_json(G: FiniteGroup) -> dict:
    """Canonical serialized table; byte-stable across runs.  Equal values
    share one list, so a large abelian table, |G|^2 values of which only
    |G| differ, is serialized |G| times, not |G|^2; pass the document
    through JSON text before editing it in place."""
    rows = character_table(G)
    n = G.exponent
    serialized: dict[tuple, list[list[int]]] = {}  # (num, den) -> the value's list

    def value(v: Cyc) -> list[list[int]]:
        key = (v.num, v.den)
        if key not in serialized:
            serialized[key] = cyc_to_json(v, n)
        return serialized[key]

    return {
        "conductor": n,
        "class_sizes": [len(c) for c in G.conjugacy_classes()],
        "class_representatives": list(G.class_representatives()),
        "enumeration": "degree ascending, then lexicographic class values",
        "degrees": [chi.degree for chi in rows],
        "rows": [list(map(value, chi.values)) for chi in rows],
    }


def attach_character_table(G: FiniteGroup, data: dict) -> None:
    """Install an externally supplied table after full exact validation.

    Each distinct value is parsed once: a value is looked up by
    `_json_value_key`, its marshal bytes, and only a miss is parsed (and
    descended).  A parse is stored only for a list of lists, so a value that
    hits it has the same bytes and is a list of lists of the same ints, and
    parses to the same Cyc.  A value with no key, or of another shape, is
    parsed where it appears, which raises the same error it always has.
    Nothing is kept once the table is installed."""
    if not isinstance(data, dict):
        raise ValidationError("character table must be a JSON object")
    for key in ("conductor", "rows"):
        if key not in data:
            raise ValidationError(f"character table is missing the required key {key!r}")
    conductor = data["conductor"]
    if type(conductor) is not int or conductor < 1:
        raise ValidationError("table conductor must be a positive integer")
    if G.exponent % conductor and conductor % G.exponent:
        raise ValidationError(
            f"table conductor {conductor} is incompatible with the group exponent {G.exponent}"
        )
    if not isinstance(data["rows"], list):
        raise ValidationError("character table rows must be a list")
    k = len(G.conjugacy_classes())
    lower = conductor != G.exponent and conductor % G.exponent == 0
    read: dict[bytes, Cyc | None] = {}

    def value(item) -> Cyc | None:
        """The class value, descended to the exponent's field when the
        conductor is a proper multiple of the exponent (None if it does not
        lie there), parsed once per distinct `_json_value_key`."""
        key = _json_value_key(item)
        try:
            return read[key]
        except KeyError:
            pass
        v = cyc_from_json(item, conductor)
        if lower:
            v = v.descend(G.exponent)
        if key is not None and type(item) is list and set(map(type, item)) == {list}:
            read[key] = v
        return v

    raw = []
    for row in data["rows"]:
        if not isinstance(row, list) or len(row) != k:
            raise ValidationError(f"each character table row must list {k} class values")
        values = tuple(map(value, row))
        if lower and any(v is None for v in values):
            raise ValidationError(
                f"character values must lie in Q(zeta_{G.exponent}), "
                f"the field of the group exponent"
            )
        identity_value = values[G.class_of(G.identity)]
        q = identity_value.as_rational()
        if q is None or q.denominator != 1 or q < 1:
            raise ValidationError("character degree must be a positive integer")
        raw.append((q.numerator, values))
    try:
        _install_table(G, _sort_rows(G, raw))
    except DefectError as exc:
        raise ValidationError(f"supplied character table is invalid: {exc}") from exc
