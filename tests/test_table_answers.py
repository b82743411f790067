"""Character tables against fixed answers: golden digests of the serialized
tables, the closed form of abelian tables, the Galois action on values, and
abelian tables near the order cap."""

import hashlib
import json
from functools import cache
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest

from equichi import Cyc, FiniteGroup, character_table, group_from_permutations
from equichi.characters import CHARACTER_TABLE_ORDER_CAP, attach_character_table, table_to_json
from equichi.groups import DEFAULT_SIZE_CAP
from equichi.jsonio import canonical_json
from test_known_answers import B3, B4_PLUS

DIGESTS = Path(__file__).resolve().parent / "data" / "table_digests.json"


def cycle(n, start=0, size=None):
    """The n-cycle on points start..start+n-1, as a permutation of `size` points."""
    size = start + n if size is None else size
    return [start + (i - start + 1) % n if start <= i < start + n else i for i in range(size)]


def dihedral(n):
    """The symmetries of the n-gon, order 2n."""
    return [cycle(n), [(-i) % n for i in range(n)]]


def product_of_cyclics(*orders):
    """C_{n_1} x ... x C_{n_k}, one cycle per factor on disjoint points."""
    size, start, gens = sum(orders), 0, []
    for n in orders:
        gens.append(cycle(n, start, size))
        start += n
    return gens


def relabelled_table(gens):
    """The group of the permutations as a bare table, ids reversed so the
    identity is not element 0."""
    G = group_from_permutations(gens)
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[n - 1 - a][n - 1 - b] = n - 1 - G.mul(a, b)
    return FiniteGroup(table)


GOLDEN_GROUPS = {
    "C1": lambda: group_from_permutations([]),
    **{f"C{n}": (lambda n=n: group_from_permutations([cycle(n)])) for n in (2, 3, 4, 5, 6, 8, 12, 20, 60)},
    "C3xC3": lambda: group_from_permutations(product_of_cyclics(3, 3)),
    "C2xC4": lambda: group_from_permutations(product_of_cyclics(2, 4)),
    "Q8": lambda: group_from_permutations([[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
    "D12": lambda: group_from_permutations(dihedral(6)),
    "D30": lambda: group_from_permutations(dihedral(15)),
    "D60": lambda: group_from_permutations(dihedral(30)),
    "A4": lambda: group_from_permutations([[1, 2, 0, 3], [0, 2, 3, 1]]),
    "S4": lambda: group_from_permutations([cycle(4), [1, 0, 2, 3]]),
    "A5": lambda: relabelled_table([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]),
    "S5": lambda: relabelled_table([cycle(5), [1, 0, 2, 3, 4]]),
    "C2^4": lambda: relabelled_table(product_of_cyclics(2, 2, 2, 2)),
    # B_3 (order 48) and B_4^+ (order 192, 13 classes): signed permutations
    "B3": lambda: group_from_permutations(B3),
    "B4+": lambda: relabelled_table(B4_PLUS),
    # S4 x C8 (order 192, 40 classes) on 4 + 8 points
    "S4xC8": lambda: group_from_permutations(
        [cycle(4, 0, 12), [1, 0, *range(2, 12)], cycle(8, 4, 12)]
    ),
}


def table_digest(G):
    return hashlib.sha256(canonical_json(table_to_json(G)).encode()).hexdigest()


def test_golden_groups_are_the_recorded_ones():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(GOLDEN_GROUPS)


@cache
def golden_table(name):
    G = GOLDEN_GROUPS[name]()
    return G, character_table(G)


@pytest.mark.parametrize("name", sorted(GOLDEN_GROUPS))
def test_serialized_table_matches_its_golden_digest(name):
    G, _ = golden_table(name)
    assert table_digest(G) == json.loads(DIGESTS.read_text())[name]


def abelian_rows_by_closed_form(orders, G):
    """The rows of C_{n_1} x ... x C_{n_k}, generated by one cycle per
    factor, from chi_a(g) = prod_i zeta_{n_i}^(a_i s_i(g)), s_i(g) the
    exponent of the i-th cycle in g; each row lists its value at every
    element id, as keys at the exponent."""
    N = lcm(*orders)
    starts = [sum(orders[:i]) for i in range(len(orders))]
    exps = [[perm[s] - s for s in starts] for perm in G.perms]
    rows = set()
    for a in product(*(range(n) for n in orders)):
        rows.add(tuple(
            Cyc.zeta(N, sum(ai * si * (N // n) for ai, si, n in zip(a, s, orders))).key(N)
            for s in exps
        ))
    return rows


@pytest.mark.parametrize(
    "orders",
    [(n,) for n in (1, 2, 7, 9, 16, 25, 30, 36, 42)]
    + [(2, 2), (2, 6), (4, 6), (5, 5), (4, 8), (2, 2, 2), (3, 9), (2, 3, 4)],
    ids=lambda orders: "x".join(f"C{n}" for n in orders),
)
def test_abelian_table_is_the_closed_form(orders):
    G = group_from_permutations(product_of_cyclics(*orders))
    N = G.exponent
    got = {
        tuple(chi.values[G.class_of(g)].key(N) for g in range(G.order))
        for chi in character_table(G)
    }
    assert got == abelian_rows_by_closed_form(orders, G)


@pytest.mark.parametrize("name", sorted(GOLDEN_GROUPS))
def test_values_on_powers_are_galois_conjugates(name):
    # chi(g^a) = sigma_a(chi(g)) for a prime to the order m of g; sigma_a is
    # applied as zeta_N -> zeta_N^b for some b = a (mod m) prime to N
    G, table = golden_table(name)
    N = G.exponent
    for j, g in enumerate(G.class_representatives()):
        m = G.element_order(g)
        power = G.identity
        for a in range(1, m + 1):
            power = G.mul(power, g)
            if gcd(a, m) != 1:
                continue
            b = next(b for b in range(a, a + m * N + 1, m) if gcd(b, N) == 1)
            c = G.class_of(power)
            for chi in table:
                assert chi.values[c] == chi.values[j].galois(b)


# name -> (build, order, exponent), near the order cap of 256
CAP_GROUPS = {
    "C210": (lambda: group_from_permutations([cycle(210)]), 210, 210),
    "C256": (lambda: group_from_permutations([cycle(256)]), 256, 256),
    "C2^8": (lambda: group_from_permutations(product_of_cyclics(*[2] * 8)), 256, 2),
    "C2^7-table": (lambda: relabelled_table(product_of_cyclics(*[2] * 7)), 128, 2),
}


def test_the_caps_stay_at_256():
    assert CHARACTER_TABLE_ORDER_CAP == DEFAULT_SIZE_CAP == 256


@pytest.mark.parametrize("name", list(CAP_GROUPS))
def test_abelian_table_near_the_cap_round_trips(name):
    build, order, exponent = CAP_GROUPS[name]
    G = build()
    assert (G.order, G.exponent) == (order, exponent)
    table = character_table(G)
    assert len(table) == order
    assert all(chi.degree == 1 for chi in table)
    assert len({tuple(v.key(exponent) for v in chi.values) for chi in table}) == order
    doc = table_to_json(G)
    fresh = build()
    attach_character_table(fresh, doc)
    assert table_to_json(fresh) == doc
