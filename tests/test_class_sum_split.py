"""The class-sum split and the value lift of the character table, against
the plain split (every non-identity class in canonical order, a full round
on every subspace), the closed form of dihedral tables and the powers of
zeta_N reduced mod Phi_N."""

import hashlib
from functools import cache
from operator import mul

import pytest

from equichi import Cyc, character_table, group_from_permutations
from equichi import characters
from equichi.characters import table_to_json
from equichi.cyclotomic import cyclotomic_polynomial, reduced_roots, zeta_powers
from equichi.jsonio import canonical_json
from test_action_table import ROTATION_ACTIONS
from test_characters import kernel_groups
from test_table_answers import GOLDEN_GROUPS, dihedral


def reference_split(G, p):
    """The central characters mod p, normalized to 1 at the identity class:
    each class matrix in canonical order after the first splits every
    subspace of dimension above 1 at the roots of the characteristic
    polynomial of its restriction, with no scalar skip."""
    k = len(G.conjugacy_classes())
    subspaces = [(list(range(k)), [[int(r == c) for r in range(k)] for c in range(k)])]
    for i in range(1, k):
        if all(len(basis) == 1 for _, basis in subspaces):
            break
        mat = characters._class_matrix(G, i)
        refined = []
        for pivots, basis in subspaces:
            dim = len(basis)
            if dim == 1:
                refined.append((pivots, basis))
                continue
            R = [[sum(x * vec[m] for m, x in mat[r]) % p for vec in basis] for r in pivots]
            H, Q = characters._hessenberg_mod_p(R, p)
            columns = list(zip(*basis))
            for lam in characters._roots_mod_p(characters._charpoly_hessenberg(H, p), p):
                shifted = [
                    [(h - lam) % p if s == t else h for t, h in enumerate(row)]
                    for s, row in enumerate(H)
                ]
                kernel = [
                    [sum(map(mul, qrow, vec)) % p for qrow in Q]
                    for vec in characters._nullspace_mod_p(shifted, dim, p)
                ]
                cols, coords = characters._unit_pivots(kernel, p)
                newbasis = [[sum(map(mul, cv, column)) % p for column in columns] for cv in coords]
                refined.append(([pivots[c] for c in cols], newbasis))
        subspaces = refined
    identity_class = G.class_of(G.identity)
    result = set()
    for _, (vec,) in subspaces:
        inv = pow(vec[identity_class], p - 2, p)
        result.add(tuple((v * inv) % p for v in vec))
    return result


def split_groups():
    """Every golden, benchmark and rotation group, and D_n for n = 3..40."""
    groups = {f"golden:{name}": make for name, make in GOLDEN_GROUPS.items()}
    groups.update(
        (f"bench:{name}", lambda build=build, arg=arg: build(arg))
        for name, (build, arg) in kernel_groups().items()
    )
    groups.update(
        (f"rotation:{name}", lambda gens=gens: group_from_permutations(gens))
        for name, (gens, _) in ROTATION_ACTIONS.items()
    )
    groups.update(
        (f"D{n}", lambda n=n: group_from_permutations(dihedral(n))) for n in range(3, 41)
    )
    return groups


@pytest.mark.parametrize("name", sorted(split_groups()))
def test_split_gives_the_central_characters_of_the_plain_split(name):
    G = split_groups()[name]()
    p = characters._dixon_prime(G.order, G.exponent)
    got = characters._split_central_characters(G, p)
    assert len(got) == len(G.conjugacy_classes())
    assert set(map(tuple, got)) == reference_split(G, p)


@cache
def dihedral_table(n):
    return character_table(group_from_permutations(dihedral(n)))


@pytest.mark.parametrize("n", range(3, 41))
def test_dihedral_degrees_are_the_closed_form(n):
    # n odd: the trivial and sign characters and (n - 1)/2 of degree 2;
    # n even: four linear characters and (n - 2)/2 of degree 2
    linear = 2 if n % 2 else 4
    expected = [1] * linear + [2] * ((n - linear + 2) // 2)
    assert [chi.degree for chi in dihedral_table(n)] == expected


def test_dihedral_tables_are_the_recorded_bytes():
    # the serialized tables of D_3 .. D_40 as the canonical-order split with
    # a Cyc reduction per value serialized them
    docs = [table_to_json(dihedral_table(n)[0].group) for n in range(3, 41)]
    digest = hashlib.sha256(canonical_json(docs).encode()).hexdigest()
    assert digest == "340843026134004f414078957221a19fc335d8490cc170f62a8ed222dcb8de7b"


def test_d30_split_skips_the_scalar_rounds(monkeypatch):
    # D30's reflections, the only class that separates the trivial and sign
    # characters, have order 2 and come last; on the span of those two the
    # rotation classes are scalar, so they cost no Hessenberg round
    calls = []
    hessenberg = characters._hessenberg_mod_p

    def counted(R, p):
        calls.append(len(R))
        return hessenberg(R, p)

    monkeypatch.setattr(characters, "_hessenberg_mod_p", counted)
    G = group_from_permutations(dihedral(15))
    p = characters._dixon_prime(G.order, G.exponent)
    characters._split_central_characters(G, p)
    rounds = list(calls)
    calls.clear()
    reference_split(G, p)
    assert len(rounds) < len(calls)


def test_reduced_roots_are_the_canonical_powers_of_zeta():
    for N in range(1, 257):
        rows, powers = reduced_roots(N), zeta_powers(N)
        assert len(rows) == len(powers) == N
        for e, (pairs, power) in enumerate(zip(rows, powers)):
            dense = [0] * N
            for k, c in pairs:
                assert c and dense[k] == 0
                dense[k] = c
            zeta = Cyc.zeta(N, e)
            assert tuple(dense) == zeta.num == power.num, (N, e)
            assert (power.n, power.den) == (N, 1)
    # Phi_105 has a coefficient -2, so some power of zeta_105 reduces to a
    # vector with an entry of size 2
    assert -2 in cyclotomic_polynomial(105)
    assert any(abs(c) == 2 for pairs in reduced_roots(105) for _, c in pairs)
    reduced_roots.cache_clear()
    zeta_powers.cache_clear()
