"""Class functions, irreducible characters, and exact character tables.

Tables are computed by the class-sum matrix method: the structure constants
of the class sums give commuting integer matrices whose common eigenvectors
are the central characters.  The splitting is performed modulo a
deterministic prime p = 1 (mod exponent), p > 2*sqrt(|G|); character values
are then reconstructed exactly as root-of-unity multiplicity vectors (the
multiplicities are integers below p, so the modular computation determines
them), and the finished table is certified exactly.  Any failure of the
splitting or of the certification is a defect, never a data error.

Certification is one matrix identity over Z[zeta_n], n the lcm of the
conductors of the values: X diag(|C|) conj(X)^T = |G| I, next to the row
count and sum deg^2 = |G|.  Each row is lifted to conductor n once, as sparse
(exponent, integer coefficient) pairs with one common denominator D_i (1
unless a coefficient is fractional).  Gram entry (i, j) is accumulated as a
cyclic convolution in Z[x]/(x^n - 1), conjugation sending exponent e to -e,
reduced mod Phi_n once and compared with |G| D_i D_j delta_ij.  Reduction
mod Phi_n is a ring map and conjugation a Galois automorphism, so the check
is exact.  `inner_product` runs the same kernel on two class functions.
Orthonormal rows need not be characters (scale a column by a unit complex
number), so certification then requires every value to be an algebraic
integer and one row to be the trivial character.

Enumeration order of the irreducibles: ascending degree, then lexicographic
order of the value rows, each value keyed by its canonical coefficient tuple
at the group-exponent conductor, classes in canonical order.  The order is
deterministic and recorded in serialized tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from typing import Sequence

from .cyclotomic import Cyc, reduce_mod_phi
from .errors import DefectError, ValidationError
from .groups import FiniteGroup, Subgroup

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

    def conj(self) -> "ClassFunction":
        return ClassFunction(self.group, tuple(v.conj() for v in self.values))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(
            self.group, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(
            self.group, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(
            self.group, tuple(a * b for a, b in zip(self.values, other.values))
        )

    def _same_group(self, other: "ClassFunction") -> None:
        if self.group is not other.group:
            raise ValidationError("class functions on different groups")


@dataclass(frozen=True)
class Character(ClassFunction):
    """A character row: a class function with degree, irreducibility flag and,
    for table rows, the enumeration index."""

    degree: int = 0
    irreducible: bool = False
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
    D = lcm(1, *(c.denominator for v in values for c in v.coeffs if c))
    return D, tuple(
        tuple(
            (k * (n // v.n), c.numerator * (D // c.denominator))
            for k, c in enumerate(v.coeffs)
            if c
        )
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


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyc:
    """<a, b> = (1/|G|) sum_g a(g) conj(b(g)), exact, at the lcm of the
    conductors of all the values."""
    a._same_group(b)
    G = a.group
    n = _conductor(a.values, b.values)
    la, lb = _lift_values(a.values, n), _lift_values(b.values, n)
    sizes = [len(c) for c in G.conjugacy_classes()]
    den = G.order * la[0] * lb[0]
    return Cyc(n, [Fraction(c, den) for c in _pairing(la, lb, sizes, n)])


# ---------------------------------------------------------------------------
# standard characters, restriction, induction, decomposition


def trivial_character(G: FiniteGroup) -> Character:
    k = len(G.conjugacy_classes())
    return Character(G, tuple(Cyc.one() for _ in range(k)), degree=1, irreducible=True)


def regular_character(G: FiniteGroup) -> Character:
    values = [Cyc.zero() for _ in G.conjugacy_classes()]
    identity_class = G.class_of(G.identity)
    values[identity_class] = Cyc.rational(G.order)
    return Character(G, tuple(values), degree=G.order, irreducible=G.order == 1)


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
    """Induction to the parent: Ind(sigma)(g) = (1/|H|) sum_{x in G, x^-1 g x in H} sigma(x^-1 g x)."""
    G = H.parent
    Hgroup, to_parent = H.as_group()
    if sigma.group is not Hgroup:
        raise ValidationError("class function does not live on the given subgroup")
    to_sub = {p: i for i, p in enumerate(to_parent)}
    values = []
    for rep in G.class_representatives():
        total = Cyc.zero(1)
        for x in range(G.order):
            y = G.mul(G.mul(G.inv(x), rep), x)
            if y in to_sub:
                total = total + sigma.values[Hgroup.class_of(to_sub[y])]
        values.append(total / H.order)
    return ClassFunction(G, tuple(values))


def decompose(cf: ClassFunction) -> tuple[tuple[Character, int], ...]:
    """Multiplicities of cf against the irreducible characters (must be
    nonnegative integers; raises otherwise)."""
    result = []
    for chi in character_table(cf.group):
        m = inner_product(cf, chi).as_integer()
        if m < 0:
            raise ValidationError("not a genuine character: negative multiplicity")
        if m:
            result.append((chi, m))
    return tuple(result)


# ---------------------------------------------------------------------------
# modular linear algebra (small, exact over F_p)


def _nullspace_mod_p(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the right nullspace of the matrix over F_p."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-mat[i][fc]) % p
        basis.append(vec)
    return basis


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
    if exponent == 1:
        return 1
    raise DefectError("no element of the required order mod p")


# ---------------------------------------------------------------------------
# character table


def _structure_constants(G: FiniteGroup) -> list[list[list[int]]]:
    """a[i][j][k] with C_i C_j = sum_k a[i][j][k] C_k in the class algebra."""
    classes = G.conjugacy_classes()
    k = len(classes)
    sizes = [len(c) for c in classes]
    counts = [[[0] * k for _ in range(k)] for _ in range(k)]
    class_of = [G.class_of(x) for x in range(G.order)]
    for x in range(G.order):
        cx = class_of[x]
        row = G.table[x]
        for y in range(G.order):
            counts[cx][class_of[y]][class_of[row[y]]] += 1
    for i in range(k):
        for j in range(k):
            for m in range(k):
                total = counts[i][j][m]
                if total % sizes[m]:
                    raise DefectError("class algebra structure constants not integral")
                counts[i][j][m] = total // sizes[m]
    return counts


def _split_central_characters(G: FiniteGroup, p: int) -> list[list[int]]:
    """Common eigenvectors (mod p) of the class-sum matrices, normalized so the
    identity-class coordinate is 1.  Returns one vector per irreducible."""
    classes = G.conjugacy_classes()
    k = len(classes)
    a = _structure_constants(G)
    # matrices[i][j][m] = a[i][j][m]; eigen relation: M_i . omega = omega_i . omega
    subspaces: list[list[list[int]]] = [[[1 if r == c else 0 for r in range(k)] for c in range(k)]]
    # each subspace is a list of basis column vectors of length k
    for i in range(1, k):
        if all(len(w) == 1 for w in subspaces):
            break
        mat = a[i]
        refined: list[list[list[int]]] = []
        for basis in subspaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            images = []
            for vec in basis:
                img = [sum(mat[j][m] * vec[m] for m in range(k)) % p for j in range(k)]
                images.append(img)
            consumed = 0
            for lam in range(p):
                rows = [
                    [(images[t][j] - lam * basis[t][j]) % p for t in range(len(basis))]
                    for j in range(k)
                ]
                kernel = _nullspace_mod_p(rows, len(basis), p)
                if not kernel:
                    continue
                newbasis = []
                for coeffs in kernel:
                    vec = [
                        sum(coeffs[t] * basis[t][j] for t in range(len(basis))) % p
                        for j in range(k)
                    ]
                    newbasis.append(vec)
                refined.append(newbasis)
                consumed += len(newbasis)
                if consumed == len(basis):
                    break
            if consumed != len(basis):
                raise DefectError("class-sum eigenvector splitting did not exhaust a subspace")
        subspaces = refined
    if not all(len(w) == 1 for w in subspaces):
        raise DefectError("class-sum eigenvector splitting did not fully diagonalize")
    if len(subspaces) != k:
        raise DefectError("wrong number of central characters")
    identity_class = G.class_of(G.identity)
    result = []
    for (vec,) in subspaces:
        v0 = vec[identity_class] % p
        if v0 == 0:
            raise DefectError("central character vanishes on the identity class")
        inv = pow(v0, p - 2, p)
        result.append([(v * inv) % p for v in vec])
    return result


def _lift_character(
    G: FiniteGroup, omega: list[int], p: int, zN: int
) -> tuple[int, tuple[Cyc, ...]]:
    """Exact character values from one modular central character."""
    classes = G.conjugacy_classes()
    sizes = [len(c) for c in classes]
    reps = G.class_representatives()
    N = G.exponent
    inv_class = [G.class_of(G.inv(rep)) for rep in reps]
    # degree: d^2 * sum_j omega_j omega_{j*} / |C_j| = |G|
    s = 0
    for j in range(len(classes)):
        s = (s + omega[j] * omega[inv_class[j]] * pow(sizes[j], p - 2, p)) % p
    if s == 0:
        raise DefectError("degenerate norm in degree recovery")
    d_sq = (G.order % p) * pow(s, p - 2, p) % p
    d = None
    for t in range(1, (p - 1) // 2 + 1):
        if (t * t) % p == d_sq:
            d = t
            break
    if d is None or d * d > G.order or G.order % d != 0:
        raise DefectError("degree recovery failed")
    chi_mod = [(d * omega[j] * pow(sizes[j], p - 2, p)) % p for j in range(len(classes))]
    class_of_power: list[list[int]] = []
    for rep in reps:
        m = G.element_order(rep)
        powers = []
        x = G.identity
        for _ in range(m):
            powers.append(G.class_of(x))
            x = G.mul(x, rep)
        class_of_power.append(powers)
    values = []
    for j, rep in enumerate(reps):
        m = G.element_order(rep)
        zm = pow(zN, N // m, p)
        zpows = [pow(zm, u, p) for u in range(m)]
        chi_powers = [chi_mod[c] for c in class_of_power[j]]
        inv_m = pow(m % p, p - 2, p)
        coeffs = [Fraction(0)] * N
        total = 0
        for t in range(m):
            acc = sum(chi_powers[s] * zpows[(-s * t) % m] for s in range(m))
            mt = (acc * inv_m) % p
            if mt > d:
                raise DefectError("root-of-unity multiplicity exceeds the degree")
            total += mt
            if mt:
                coeffs[(N // m) * t] += mt
        if total != d:
            raise DefectError("root-of-unity multiplicities do not sum to the degree")
        values.append(Cyc(N, coeffs))
    return d, tuple(values)


def _verify_table(G: FiniteGroup, rows: Sequence[Character]) -> list[_Lifted]:
    """Exact certification: row count, degree accounting, and the Gram
    identity X diag(|C|) conj(X)^T = |G| I over Z[zeta_n], entry by entry in
    row-major order.  Returns the rows as lifted for the check."""
    k = len(G.conjugacy_classes())
    if len(rows) != k:
        raise DefectError("table row count differs from the class count")
    if sum(chi.degree**2 for chi in rows) != G.order:
        raise DefectError("squared degrees do not sum to the group order")
    n = _conductor(*(chi.values for chi in rows))
    lifted = [_lift_values(chi.values, n) for chi in rows]
    sizes = [len(c) for c in G.conjugacy_classes()]
    for i, a in enumerate(lifted):
        for j, b in enumerate(lifted):
            gram = _pairing(a, b, sizes, n)
            expected = G.order * a[0] * b[0] if i == j else 0
            if gram[0] != expected or any(gram[1:]):
                got = inner_product(rows[i], rows[j])
                raise DefectError(
                    f"character rows {i},{j} are not orthonormal (got {got!r})"
                )
    return lifted


def _certify_table(G: FiniteGroup, rows: Sequence[Character]) -> None:
    """`_verify_table`, then the two facts orthonormality does not imply:
    every value is an algebraic integer, and one row is the trivial
    character.  Values are kept in the power basis reduced mod Phi_n, an
    integral basis of Z[zeta_n], so integrality is integral coefficients."""
    lifted = _verify_table(G, rows)
    for i, (D, _) in enumerate(lifted):
        if D != 1:
            raise DefectError(f"character row {i} has a value that is not an algebraic integer")
    one = ((0, 1),)  # the lift of 1 at any conductor
    if not any(all(v == one for v in values) for _, values in lifted):
        raise DefectError("no row is the trivial character")


def _sort_rows(G: FiniteGroup, raw: list[tuple[int, tuple[Cyc, ...]]]) -> list[Character]:
    n = G.exponent
    raw.sort(key=lambda item: (item[0], tuple(v.key(n) for v in item[1])))
    return [
        Character(G, values, degree=d, irreducible=True, index=i)
        for i, (d, values) in enumerate(raw)
    ]


def character_table(G: FiniteGroup) -> tuple[Character, ...]:
    """The full irreducible character table, cached on the group.

    Groups above the order cap must have a table attached up front (see
    `attach_character_table`), since the class-matrix computation is only
    intended for desk-scale orders.
    """
    if G._char_table is not None:
        return G._char_table
    if G.order > CHARACTER_TABLE_ORDER_CAP:
        raise ValidationError(
            f"group order {G.order} exceeds the table cap "
            f"({CHARACTER_TABLE_ORDER_CAP}); supply a character table with the input"
        )
    N = G.exponent
    p = _dixon_prime(G.order, N)
    zN = _root_of_unity_mod_p(N, p)
    omegas = _split_central_characters(G, p)
    raw = [_lift_character(G, omega, p, zN) for omega in omegas]
    rows = _sort_rows(G, raw)
    _certify_table(G, rows)
    G._char_table = tuple(rows)
    return G._char_table


def trivial_index(G: FiniteGroup) -> int:
    """Enumeration index of the trivial character (not always 0)."""
    one = Cyc.one()
    for chi in character_table(G):
        if chi.degree == 1 and all(v == one for v in chi.values):
            return chi.index  # type: ignore[return-value]
    raise DefectError("trivial character missing from the table")


# ---------------------------------------------------------------------------
# serialization


def _fraction_pair(q: Fraction) -> list[int]:
    return [q.numerator, q.denominator]


def cyc_to_json(value: Cyc, conductor: int) -> list[list[int]]:
    return [_fraction_pair(c) for c in value.lift(conductor).coeffs]


def cyc_from_json(data: Sequence[Sequence[int]], conductor: int) -> Cyc:
    try:
        if len(data) != conductor:
            raise ValidationError("coefficient vector length differs from the conductor")
        if set(map(type, chain.from_iterable(data))) != {int}:
            raise TypeError("coefficients must be JSON integers, not floats or bools")
        return Cyc(conductor, [Fraction(n, d) for n, d in data])
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(
            "a class value must be a list of [numerator, denominator] integer pairs "
            "with nonzero denominators"
        ) from None


def table_to_json(G: FiniteGroup) -> dict:
    """Canonical serialized table; byte-stable across runs."""
    rows = character_table(G)
    n = G.exponent
    return {
        "conductor": n,
        "class_sizes": [len(c) for c in G.conjugacy_classes()],
        "class_representatives": list(G.class_representatives()),
        "enumeration": "degree ascending, then lexicographic class values",
        "degrees": [chi.degree for chi in rows],
        "rows": [[cyc_to_json(v, n) for v in chi.values] for chi in rows],
    }


def attach_character_table(G: FiniteGroup, data: dict) -> None:
    """Install an externally supplied table after full exact validation."""
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
    raw = []
    for row in data["rows"]:
        if not isinstance(row, list) or len(row) != k:
            raise ValidationError(f"each character table row must list {k} class values")
        values = tuple(cyc_from_json(v, conductor) for v in row)
        if conductor != G.exponent and conductor % G.exponent == 0:
            values = tuple(v.descend(G.exponent) for v in values)
            if any(v is None for v in values):
                raise ValidationError(
                    f"character values must lie in Q(zeta_{G.exponent}), "
                    f"the field of the group exponent"
                )
        identity_value = values[G.class_of(G.identity)]
        q = identity_value.as_rational()
        if q is None or q.denominator != 1 or q < 1:
            raise ValidationError("character degree must be a positive integer")
        raw.append((q.numerator, values))
    rows = _sort_rows(G, raw)
    try:
        _certify_table(G, rows)
    except DefectError as exc:
        raise ValidationError(f"supplied character table is invalid: {exc}") from exc
    G._char_table = tuple(rows)
