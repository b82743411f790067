"""Character tables: orthogonality, enumeration order, induction, serialization."""

import hashlib
import json
import random
from fractions import Fraction
from functools import cached_property

import pytest

from equichi import (
    Character,
    ClassFunction,
    Cyc,
    DefectError,
    FiniteGroup,
    Subgroup,
    ValidationError,
    all_subgroups,
    character_table,
    decompose,
    group_from_permutations,
    induce,
    inner_product,
    restrict,
    trivial_character,
    trivial_index,
)
from equichi import characters
from equichi.characters import (
    _certify_table,
    _check_class_algebra,
    _lift_table,
    _verify_table,
    attach_character_table,
    cyc_to_json,
    regular_character,
    table_to_json,
)
from equichi.jsonio import canonical_json

C2_GENS = [[1, 0]]
C3_GENS = [[1, 2, 0]]
C4_GENS = [[1, 2, 3, 0]]
S3_GENS = [[1, 2, 0], [1, 0, 2]]
V4_GENS = [[3, 4, 2, 0, 1, 5], [0, 4, 5, 3, 1, 2]]

GROUPS = {
    "C2": C2_GENS,
    "C3": C3_GENS,
    "C4": C4_GENS,
    "S3": S3_GENS,
    "V4": V4_GENS,
}


def value_at(chi, g):
    return chi.values[chi.group.class_of(g)]


def test_abelian_dual_matches_hom_enumeration():
    # for C4 every irreducible sends the generator to a fourth root of unity
    G = group_from_permutations(C4_GENS)
    tab = character_table(G)
    expected = set()
    for k in range(4):
        expected.add(tuple(Cyc.zeta(4, k * j).key(4) for j in range(4)))
    got = {tuple(value_at(c, j).key(4) for j in range(4)) for c in tab}
    assert got == expected


def test_first_orthogonality_all_groups():
    for gens in GROUPS.values():
        G = group_from_permutations(gens)
        tab = character_table(G)
        for a in tab:
            for b in tab:
                want = Cyc.rational(1 if a.index == b.index else 0)
                assert inner_product(a, b) == want


def test_second_orthogonality_symmetric_group():
    G = group_from_permutations(S3_GENS)
    tab = character_table(G)
    classes = G.conjugacy_classes()
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            total = Cyc.zero(1)
            for chi in tab:
                total = total + chi.values[i] * chi.values[j].conj()
            centralizer = G.order // len(ci)
            assert total == Cyc.rational(centralizer if i == j else 0)


def test_degree_squares_sum_to_group_order():
    for gens in GROUPS.values():
        G = group_from_permutations(gens)
        tab = character_table(G)
        assert sum(c.degree**2 for c in tab) == G.order
        assert len(tab) == len(G.conjugacy_classes())


def test_enumeration_sorts_by_degree_then_value_key():
    G = group_from_permutations(S3_GENS)
    tab = character_table(G)
    assert [c.degree for c in tab] == [1, 1, 2]
    # sign precedes trivial, the two dimensional character comes last
    assert [str(v) for v in tab[0].values] == ["1", "1", "-1"]
    assert [str(v) for v in tab[1].values] == ["1", "1", "1"]
    assert [str(v) for v in tab[2].values] == ["2", "-1", "0"]
    assert trivial_index(G) == 1


def test_trivial_index_per_group():
    expected = {"C2": 1, "C3": 2, "C4": 3, "S3": 1, "V4": 3}
    for name, gens in GROUPS.items():
        G = group_from_permutations(gens)
        k = trivial_index(G)
        assert k == expected[name]
        assert character_table(G)[k].values == trivial_character(G).values


def test_cyclic_four_enumeration_frozen():
    G = group_from_permutations(C4_GENS)
    tab = character_table(G)
    rows = [[str(value_at(c, g)) for g in range(4)] for c in tab]
    assert rows == [
        ["1", "-1", "1", "-1"],
        ["1", "-z4", "-1", "z4"],
        ["1", "z4", "-1", "-z4"],
        ["1", "1", "1", "1"],
    ]


def test_character_values_are_algebraic_integers():
    for gens in GROUPS.values():
        G = group_from_permutations(gens)
        for chi in character_table(G):
            for v in chi.values:
                assert all(c.denominator == 1 for c in v.coeffs)


def test_regular_character_contains_each_irreducible_by_degree():
    for gens in [S3_GENS, C4_GENS]:
        G = group_from_permutations(gens)
        reg = regular_character(G)
        assert value_at(reg, G.identity) == Cyc.rational(G.order)
        for chi in character_table(G):
            assert inner_product(reg, chi) == Cyc.rational(chi.degree)
        assert {(c.index, m) for c, m in decompose(reg)} == {
            (c.index, c.degree) for c in character_table(G)
        }


def test_trivial_and_sign_are_orthogonal_on_two_elements():
    G = group_from_permutations(C2_GENS)
    tab = character_table(G)
    assert inner_product(tab[0], tab[1]) == Cyc.rational(0)
    assert inner_product(tab[1], trivial_character(G)) == Cyc.rational(1)


def test_restrict_to_whole_group_keeps_values():
    G = group_from_permutations(S3_GENS)
    whole = Subgroup.generated(G, list(G.generators))
    for chi in character_table(G):
        res = restrict(chi, whole)
        HG, to_parent = whole.as_group()
        for h, g in enumerate(to_parent):
            assert res.values[HG.class_of(h)] == value_at(chi, g)


def test_restrict_to_trivial_subgroup_gives_degree():
    G = group_from_permutations(S3_GENS)
    triv = Subgroup.generated(G, [])
    for chi in character_table(G):
        res = restrict(chi, triv)
        assert res.values == (Cyc.rational(chi.degree),)


def test_two_dimensional_restricts_to_both_nontrivial_cyclic_characters():
    G = group_from_permutations(S3_GENS)
    rot = next(
        Subgroup.generated(G, [g]) for g in range(6) if G.element_order(g) == 3
    )
    std = character_table(G)[2]
    parts = decompose(restrict(std, rot))
    HG, _ = rot.as_group()
    k = trivial_index(HG)
    assert sorted((c.index, m) for c, m in parts) == [
        (i, 1) for i in range(3) if i != k
    ]


def test_induction_from_trivial_subgroup_is_regular():
    G = group_from_permutations(S3_GENS)
    triv = Subgroup.generated(G, [])
    HG, _ = triv.as_group()
    ind = induce(trivial_character(HG), triv)
    assert ind.values == regular_character(G).values


def test_induction_of_trivial_from_index_two_cyclic():
    G = group_from_permutations(C4_GENS)
    H = Subgroup.generated(G, [2])
    HG, _ = H.as_group()
    ind = induce(character_table(HG)[trivial_index(HG)], H)
    # exactly the two ambient characters that are trivial on the subgroup
    assert [str(value_at(ind, g)) for g in range(4)] == ["2", "0", "2", "0"]
    assert sorted((c.index, m) for c, m in decompose(ind)) == [(0, 1), (3, 1)]


def test_frobenius_reciprocity_exhaustive():
    for gens in [S3_GENS, C4_GENS, V4_GENS]:
        G = group_from_permutations(gens)
        tab = character_table(G)
        seen = set()
        for g in range(G.order):
            H = Subgroup.generated(G, [g])
            if H.elements in seen:
                continue
            seen.add(H.elements)
            HG, _ = H.as_group()
            for sigma in character_table(HG):
                up = induce(sigma, H)
                for chi in tab:
                    assert inner_product(up, chi) == inner_product(
                        sigma, restrict(chi, H)
                    )


def test_table_json_is_frozen_for_symmetric_group():
    G = group_from_permutations(S3_GENS)
    data = table_to_json(G)
    assert data["conductor"] == 6
    assert data["degrees"] == [1, 1, 2]
    assert data["class_sizes"] == [1, 2, 3]
    digest = hashlib.sha256(canonical_json(data).encode()).hexdigest()
    assert digest == "8476df2840b106fee499abbc0299acb5fe3aad1d9301bb040804a8fafc389784"


def test_table_json_round_trip_through_attach():
    G = group_from_permutations(S3_GENS)
    data = table_to_json(G)
    fresh = group_from_permutations(S3_GENS)
    attach_character_table(fresh, data)
    for a, b in zip(character_table(G), character_table(fresh)):
        assert a.degree == b.degree
        assert [str(v) for v in a.values] == [str(v) for v in b.values]


def test_attach_rejects_corrupted_table():
    G = group_from_permutations(S3_GENS)
    data = table_to_json(G)
    bad = canonical_json(data)
    import json

    doc = json.loads(bad)
    doc["rows"][2][0][0][0] = 3  # degree of the last row no longer matches
    fresh = group_from_permutations(S3_GENS)
    with pytest.raises((ValidationError, DefectError)):
        attach_character_table(fresh, doc)


def test_attach_reads_each_distinct_value_once(monkeypatch):
    # C20's table holds 400 values, 20 of them distinct; through JSON text
    # each value is a list of its own.  Written at twice the exponent, each
    # distinct value is also descended once
    G = group_from_permutations([cycle(20)])
    doc = json.loads(json.dumps(table_to_json(G)))
    for conductor in (20, 40):
        rows = [[cyc_to_json(v, conductor) for v in chi.values] for chi in character_table(G)]
        supplied = json.loads(json.dumps(dict(doc, conductor=conductor, rows=rows)))
        assert len({id(value) for row in supplied["rows"] for value in row}) == 400
        parsed = counting(monkeypatch, "cyc_from_json")
        descended = []
        descend = Cyc.descend
        monkeypatch.setattr(Cyc, "descend", lambda v, d: descended.append(v) or descend(v, d))
        fresh = group_from_permutations([cycle(20)])
        attach_character_table(fresh, supplied)
        assert table_to_json(fresh) == doc
        assert len(parsed) == 20
        assert len({canonical_json(value) for value, _ in parsed}) == 20
        assert len(descended) == (20 if conductor == 40 else 0)
        monkeypatch.undo()


VALUE_MESSAGE = (
    "a class value must be a list of [numerator, denominator] integer pairs "
    "with nonzero denominators"
)


# (where, junk, slot): the numerator cases first, then the denominator ones
JUNK_SLOTS = [
    pytest.param(where, junk, slot, id="-".join([w, j] + ["denominator"] * slot))
    for slot in (0, 1)
    for where, w in enumerate(["first", "second", "third"])
    for junk, j in [(True, "true"), (1.0, "1.0")]
]


@pytest.mark.parametrize("where, junk, slot", JUNK_SLOTS)
def test_repeated_value_written_with_true_or_a_float_is_rejected(tmp_path, capsys, where, junk, slot):
    # C2's table holds the value 1 = [[1, 1], [0, 1]] three times; true and
    # 1.0 hash and compare equal to 1, yet one occurrence written with either,
    # as the numerator or the denominator of its first pair, is rejected,
    # whether or not the value has been read before
    doc = json.loads(json.dumps(table_to_json(group_from_permutations(C2_GENS))))
    ones = [value for row in doc["rows"] for value in row if value == [[1, 1], [0, 1]]]
    assert len(ones) == 3
    ones[where][0][slot] = junk
    with pytest.raises(ValidationError) as info:
        attach_character_table(group_from_permutations(C2_GENS), doc)
    assert str(info.value) == VALUE_MESSAGE

    from equichi.cli import main

    gpath, cpath = tmp_path / "group.json", tmp_path / "complex.json"
    gpath.write_text(json.dumps({"permutation_generators": C2_GENS, "character_table": doc}))
    cpath.write_text(json.dumps({"maximal_simplices": [[0, 1]], "action": {"generator_images": [[1, 0]]}}))
    assert main(["verify", "--group", str(gpath), "--complex", str(cpath)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == f"error: {VALUE_MESSAGE}"


@pytest.mark.parametrize("junk", ["object", "fraction-numerator", "fraction-denominator"])
def test_a_value_that_is_no_json_value_is_rejected(junk):
    # a library caller's object that marshal cannot write gets no key and
    # is named by the parse, with the usual text
    doc = json.loads(json.dumps(table_to_json(group_from_permutations(C2_GENS))))
    row = doc["rows"][1]
    if junk == "object":
        row[1] = object()
    else:
        row[1] = [list(pair) for pair in row[1]]
        row[1][0][junk == "fraction-denominator"] = Fraction(1)
    with pytest.raises(ValidationError) as info:
        attach_character_table(group_from_permutations(C2_GENS), doc)
    assert str(info.value) == VALUE_MESSAGE


def test_equal_sets_that_iterate_in_different_orders_are_each_parsed(monkeypatch):
    # {1, 9} built from 1 and from 9 iterates as (1, 9) and as (9, 1), so
    # the pair reads 1/9 or 9 by the order; marshal may write both alike,
    # and neither parse is stored, so each is read for itself
    first, second = {1}, {9}
    first.add(9)
    second.add(1)
    assert first == second and list(first) != list(second)
    doc = json.loads(json.dumps(table_to_json(group_from_permutations(C2_GENS))))
    doc["rows"][0] = [[second, [0, 1]], [first, [0, 1]]]
    parsed = counting(monkeypatch, "cyc_from_json")
    with pytest.raises(ValidationError, match="squared degrees do not sum to the group order$"):
        attach_character_table(group_from_permutations(C2_GENS), doc)
    assert [value[0] for value, _ in parsed if type(value[0]) is set] == [second, first]


def test_decompose_round_trips_sums_of_irreducibles():
    G = group_from_permutations(S3_GENS)
    tab = character_table(G)
    combo = [(tab[0], 2), (tab[2], 3)]
    values = tuple(
        sum((chi.values[k] * m for chi, m in combo), Cyc.zero(1))
        for k in range(len(tab[0].values))
    )
    from equichi import ClassFunction

    cf = ClassFunction(G, values)
    assert sorted((c.index, m) for c, m in decompose(cf)) == [(0, 2), (2, 3)]


@pytest.mark.parametrize("at_identity, elsewhere, text", [
    # 1 at the identity of C3 pairs to 1/3 with every irreducible
    (1, 0, "not a genuine character: multiplicity of irreducible 0 is 1/3"),
    # minus the trivial character
    (-1, -1, "not a genuine character: negative multiplicity"),
])
def test_decompose_rejects_a_class_function_that_is_no_character(at_identity, elsewhere, text):
    G = group_from_permutations([[1, 2, 0]])
    one = G.class_of(G.identity)
    values = tuple(Cyc.rational(at_identity if c == one else elsewhere) for c in range(3))
    with pytest.raises(ValidationError) as err:
        decompose(ClassFunction(G, values))
    assert str(err.value) == text


# ---------------------------------------------------------------------------
# the integer pairing kernel against a plain Cyc loop


def reference_inner_product(a, b):
    """<a, b> summed class by class in Cyc arithmetic."""
    G = a.group
    total = Cyc.zero(1)
    for j, cls in enumerate(G.conjugacy_classes()):
        total = total + len(cls) * (a.values[j] * b.values[j].conj())
    return total / G.order


def cycle(n):
    return [(i + 1) % n for i in range(n)]


def cycles(*lengths):
    """Generators of C_{n_1} x C_{n_2} x ..., one cycle per factor, each on
    its own block of points."""
    total = sum(lengths)
    gens, start = [], 0
    for n in lengths:
        gens.append([start + (j - start + 1) % n if start <= j < start + n else j for j in range(total)])
        start += n
    return gens


def as_relabelled_table(gens):
    """The group of the permutations as a bare table, ids reversed so the
    identity is not element 0."""
    G = group_from_permutations(gens)
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[n - 1 - a][n - 1 - b] = n - 1 - G.mul(a, b)
    return FiniteGroup(table)


def corpus_group(cid):
    import json

    from equichi import corpus
    from equichi.jsonio import group_from_json

    return group_from_json(json.loads(corpus.read_corpus_bytes(cid))["group"])


def kernel_groups():
    """Every corpus group and the groups of the char-tables benchmark."""
    from equichi import corpus

    groups = {cid: (corpus_group, cid) for cid in corpus.case_ids() + corpus.bundle_ids()}
    groups.update(
        C12=(group_from_permutations, [cycle(12)]),
        C20=(group_from_permutations, [cycle(20)]),
        S4=(group_from_permutations, [cycle(4), [1, 0, 2, 3]]),
        D30=(group_from_permutations, [cycle(15), [(-i) % 15 for i in range(15)]]),
        C2_4=(
            as_relabelled_table,
            [[j ^ 1 if j // 2 == i else j for j in range(8)] for i in range(4)],
        ),
        D12=(as_relabelled_table, [cycle(6), [(-i) % 6 for i in range(6)]]),
        A5=(as_relabelled_table, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]),
        S5=(as_relabelled_table, [cycle(5), [1, 0, 2, 3, 4]]),
    )
    return groups


@pytest.mark.parametrize("name", sorted(kernel_groups()))
def test_pairing_kernel_matches_cyc_loop_reference(name):
    build, arg = kernel_groups()[name]
    tab = character_table(build(arg))
    for a in tab:
        for b in tab:
            got, want = inner_product(a, b), reference_inner_product(a, b)
            assert (got.n, got.coeffs) == (want.n, want.coeffs)


def test_pairing_kernel_handles_fractional_and_mixed_conductor_values():
    G = group_from_permutations(C4_GENS)
    half_reg = ClassFunction(G, tuple(v / 2 for v in regular_character(G).values))
    mixed = ClassFunction(
        G,
        (Cyc.rational(Fraction(1, 3)), Cyc.zeta(4), Cyc.zeta(8, 3) / 5, Cyc.zeta(3)),
    )
    for a in (half_reg, mixed, *character_table(G)):
        for b in (half_reg, mixed, *character_table(G)):
            got, want = inner_product(a, b), reference_inner_product(a, b)
            assert (got.n, got.coeffs) == (want.n, want.coeffs)


def test_certifies_orthonormal_rows_with_fractional_coefficients():
    # on C2, (1, x) and (1, -x) with x = 3/5 + 4/5 i have Gram matrix I:
    # the kernel clears the denominator 5 of each row and still sees |G| I
    G = group_from_permutations(C2_GENS)
    x = Cyc(4, [Fraction(3, 5), Fraction(4, 5), 0, 0])
    identity_class = G.class_of(G.identity)
    rows = []
    for i, v in enumerate((x, -x)):
        values = [v, v]
        values[identity_class] = Cyc.one()
        rows.append(Character(G, tuple(values), degree=1, index=i))
    _verify_table(G, rows)
    rows[1] = Character(G, (Cyc.one(), Cyc.one()), degree=1, index=1)
    with pytest.raises(DefectError, match=r"rows 0,1 are not orthonormal \(got "):
        _verify_table(G, rows)


def test_attach_accepts_table_at_twice_the_exponent():
    # values written at conductor 2N are re-expressed at the exponent N, so
    # the attached table equals the built one, enumeration order included
    for gens in (S3_GENS, C3_GENS, C4_GENS):
        G = group_from_permutations(gens)
        n = 2 * G.exponent
        data = dict(
            table_to_json(G),
            conductor=n,
            rows=[[cyc_to_json(v, n) for v in chi.values] for chi in character_table(G)],
        )
        fresh = group_from_permutations(gens)
        attach_character_table(fresh, data)
        assert table_to_json(fresh) == table_to_json(G)
    data["rows"][1][1] = cyc_to_json(Cyc.zeta(8), 8)
    with pytest.raises(ValidationError, match=r"must lie in Q\(zeta_4\)"):
        attach_character_table(group_from_permutations(C4_GENS), data)


def test_certifies_table_lifted_to_twice_the_exponent():
    for gens in (S3_GENS, C3_GENS, C4_GENS, V4_GENS):
        G = group_from_permutations(gens)
        n = 2 * G.exponent
        rows = [
            Character(G, tuple(v.lift(n) for v in chi.values), degree=chi.degree,
                      index=chi.index)
            for chi in character_table(G)
        ]
        _verify_table(G, rows)
        for a in rows:
            for b in rows:
                got, want = inner_product(a, b), reference_inner_product(a, b)
                assert got.n == n
                assert (got.n, got.coeffs) == (want.n, want.coeffs)


@pytest.mark.parametrize(
    "gens, row, cls, coeff, value, message",
    [
        (C2_GENS, 1, 1, 0, [-1, 2], "rows 0,1 are not orthonormal (got 3/4)"),
        (S3_GENS, 2, 1, 0, [0, 1], "rows 0,2 are not orthonormal (got 1/3)"),
        (S3_GENS, 0, 2, 0, [1, 1], "rows 0,1 are not orthonormal (got 1)"),
        (C4_GENS, 1, 1, 1, [0, 1], "rows 0,1 are not orthonormal (got 1/4*z4)"),
        (C4_GENS, 2, 3, 1, [1, 1], "rows 0,2 are not orthonormal (got 1/2*z4)"),
        (S3_GENS, 2, 0, 0, [3, 1], "squared degrees do not sum to the group order"),
    ],
)
def test_attach_error_text_is_frozen(gens, row, cls, coeff, value, message):
    import json

    doc = json.loads(json.dumps(table_to_json(group_from_permutations(gens))))
    doc["rows"][row][cls][coeff] = value
    with pytest.raises(ValidationError) as info:
        attach_character_table(group_from_permutations(gens), doc)
    prefix = "supplied character table is invalid: "
    if message.startswith("rows"):
        prefix += "character "
    assert str(info.value) == prefix + message


def scaled_columns(gens, unit):
    """The serialized table of the group with every non-identity class value
    multiplied by `unit`: the rows stay orthonormal, as |unit| = 1."""
    G = group_from_permutations(gens)
    n = G.exponent
    identity_class = G.class_of(G.identity)
    rows = [
        [cyc_to_json(v if c == identity_class else v * unit, n) for c, v in enumerate(chi.values)]
        for chi in character_table(G)
    ]
    return dict(table_to_json(G), rows=rows)


def test_attach_rejects_orthonormal_rows_that_are_not_characters():
    # C4 with non-identity columns scaled by (3+4i)/5: orthonormal, with the
    # right degrees, but no value other than 1 is an algebraic integer
    doc = scaled_columns(C4_GENS, Cyc(4, [Fraction(3, 5), Fraction(4, 5), 0, 0]))
    with pytest.raises(ValidationError) as info:
        attach_character_table(group_from_permutations(C4_GENS), doc)
    assert str(info.value) == (
        "supplied character table is invalid: "
        "character row 0 has a value that is not an algebraic integer"
    )
    # C3 scaled by zeta_3: integral and orthonormal, but no row is trivial
    doc = scaled_columns(C3_GENS, Cyc.zeta(3))
    with pytest.raises(ValidationError) as info:
        attach_character_table(group_from_permutations(C3_GENS), doc)
    assert str(info.value) == (
        "supplied character table is invalid: no row is the trivial character"
    )


def with_columns_swapped(G, a, b):
    """The serialized table of G with the values of classes a and b swapped
    in every row: the Gram identity still holds when |C_a| = |C_b|."""
    doc = json.loads(json.dumps(table_to_json(G)))
    for row in doc["rows"]:
        row[a], row[b] = row[b], row[a]
    return doc


def classes_of_order(G, order, size):
    return [
        j for j, cls in enumerate(G.conjugacy_classes())
        if len(cls) == size and G.element_order(cls[0]) == order
    ]


D12_GENS = [cycle(6), [(-i) % 6 for i in range(6)]]


def reference_induce(sigma, H):
    """Ind(sigma)(g) = (1/|H|) sum over x in G with x^-1 g x in H of
    sigma(x^-1 g x), conjugating each class representative by every x."""
    G = H.parent
    Hgroup, to_parent = H.as_group()
    to_sub = {p: i for i, p in enumerate(to_parent)}
    values = []
    for rep in G.class_representatives():
        total = Cyc.zero(1)
        for x in range(G.order):
            y = G.mul(G.mul(G.inv(x), rep), x)
            if y in to_sub:
                total = total + sigma.values[Hgroup.class_of(to_sub[y])]
        values.append(total / H.order)
    return values


def exact(values):
    return [(v.n, v.num, v.den) for v in values]


@pytest.mark.parametrize(
    "gens",
    [[cycle(4), [1, 0, 2, 3]], D12_GENS, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]],
    ids=["S4", "D12", "A5"],
)
def test_induce_matches_the_conjugation_loop_exactly(gens):
    """Every value of every induced irreducible of every subgroup, conductor
    and denominator included, which Frobenius reciprocity alone would not
    pin."""
    G = group_from_permutations(gens)
    for H in all_subgroups(G):
        HG, _ = H.as_group()
        for sigma in character_table(HG):
            assert exact(induce(sigma, H).values) == exact(reference_induce(sigma, H)), (H.elements, sigma.index)


def test_induce_keeps_the_conductor_of_the_values():
    """The cyclic subgroup of order 4 in S4, once with a table attached at
    conductor 8, twice its exponent, and once with its rows lifted to 8 as
    plain class functions: the induced values have the conductors the
    conjugation loop gives them."""
    G = group_from_permutations([cycle(4), [1, 0, 2, 3]])
    H = Subgroup.generated(G, [G.perms.index(tuple(cycle(4)))])
    HG, _ = H.as_group()
    assert HG.exponent == 4
    attach_character_table(HG, dict(table_to_json(HG), conductor=8, rows=[
        [cyc_to_json(v, 8) for v in chi.values] for chi in character_table(HG)
    ]))
    lifted = [ClassFunction(HG, tuple(v.lift(8) for v in chi.values)) for chi in character_table(HG)]
    for sigma in (*character_table(HG), *lifted):
        assert exact(induce(sigma, H).values) == exact(reference_induce(sigma, H))
    assert {v.n for sigma in lifted for v in induce(sigma, H).values} == {1, 8}


@pytest.mark.parametrize(
    "gens, first, second, classes",
    [(C4_GENS, (4, 1), (2, 1), "1,1"), (D12_GENS, (6, 2), (3, 2), "2,2")],
    ids=["C4-g-g2", "D12-rotations-of-order-6-and-3"],
)
def test_attach_rejects_orthonormal_columns_swapped_within_a_class_size(gens, first, second, classes):
    G = group_from_permutations(gens)
    a, b = classes_of_order(G, *first)[0], classes_of_order(G, *second)[0]
    with pytest.raises(ValidationError) as info:
        attach_character_table(group_from_permutations(gens), with_columns_swapped(G, a, b))
    assert str(info.value) == (
        "supplied character table is invalid: "
        f"character row 0 violates the class algebra identity at classes {classes}"
    )


@pytest.mark.parametrize(
    "build, arg, order, size",
    [
        (as_relabelled_table, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]], 5, 12),  # A5: 5A <-> 5B
        (group_from_permutations, D12_GENS, 2, 3),  # D12 reflections
        (group_from_permutations, C4_GENS, 4, 1),  # C4: g <-> g^3
    ],
    ids=["A5-5A-5B", "D12-reflections", "C4-g-g3"],
)
def test_attach_accepts_column_swaps_that_are_table_symmetries(build, arg, order, size):
    G = build(arg)
    a, b = classes_of_order(G, order, size)
    fresh = build(arg)
    attach_character_table(fresh, with_columns_swapped(G, a, b))
    assert table_to_json(fresh) == table_to_json(G)


def test_attach_accepts_the_s4_column_swap_of_transpositions_and_four_cycles():
    # not induced by an automorphism of S4, yet it permutes the rows
    gens = [cycle(4), [1, 0, 2, 3]]
    G = group_from_permutations(gens)
    (a,), (b,) = classes_of_order(G, 2, 6), classes_of_order(G, 4, 6)
    fresh = group_from_permutations(gens)
    attach_character_table(fresh, with_columns_swapped(G, a, b))
    assert table_to_json(fresh) == table_to_json(G)


# ---------------------------------------------------------------------------
# certification: k diagonal Gram entries on success, the ordered scan on failure

MUTANT_SEED = 5
MUTANTS = 1200
MUTANT_GROUPS = {
    "C2": C2_GENS,
    "C4": C4_GENS,
    "C6": [cycle(6)],
    "S3": S3_GENS,
    "S4": [cycle(4), [1, 0, 2, 3]],
    "D12": D12_GENS,
    "A5": [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]],
    "V4": V4_GENS,
    "C12": [cycle(12)],
    "C2xC6": cycles(2, 6),
}


def ordered_reference(G, rows):
    """Each check of the certification in full, in order: the row-major Gram
    scan, integrality, the trivial row and the class algebra identity."""
    lifted = _verify_table(G, rows)
    for i, (D, _) in enumerate(lifted):
        if D != 1:
            raise DefectError(f"character row {i} has a value that is not an algebraic integer")
    if not any(all(v == ((0, 1),) for v in values) for _, values in lifted):
        raise DefectError("no row is the trivial character")
    _check_class_algebra(G, rows, lifted)


def outcome(check, G, rows):
    try:
        check(G, rows)
    except DefectError as exc:
        return str(exc)
    return None


def as_rows(G, value_rows):
    """Table rows with these values, each of degree its value at the
    identity, as both callers of the certification make it; None when such
    a value is not a positive integer."""
    identity_class = G.class_of(G.identity)
    rows = []
    for i, values in enumerate(value_rows):
        q = values[identity_class].as_rational()
        if q is None or q.denominator != 1 or q < 1:
            return None
        rows.append(Character(G, tuple(values), degree=q.numerator, index=i))
    return rows


def table_mutant(rng, G):
    """The table of G with one seeded edit: a coefficient changed, a row
    repeated, two columns swapped, a value negated, two values of one column
    swapped, a row conjugated, or a value replaced by a different root of
    unity."""
    values = [list(chi.values) for chi in character_table(G)]
    k = len(values)
    r, c = rng.randrange(k), rng.randrange(k)
    s, d = rng.sample(range(k), 2)
    kind = rng.randrange(7)
    if kind == 0:
        n = G.exponent
        coeffs = list(values[r][c].lift(n).coeffs)
        coeffs[rng.randrange(n)] += rng.choice([1, -1, 2, Fraction(1, 2)])
        values[r][c] = Cyc(n, coeffs)
    elif kind == 1:
        values[d] = list(values[s])
    elif kind == 2:
        for row in values:
            row[s], row[d] = row[d], row[s]
    elif kind == 3:
        values[r][c] = -values[r][c]
    elif kind == 4:
        values[s][c], values[d][c] = values[d][c], values[s][c]
    elif kind == 5:
        values[r] = [v.conj() for v in values[r]]
    else:
        n = G.exponent
        roots = [Cyc.zeta(n, e) for e in range(n)]
        values[r][c] = rng.choice([z for z in roots if z != values[r][c]])
    return as_rows(G, values)


def test_certification_agrees_with_the_ordered_reference_on_mutants():
    rng = random.Random(MUTANT_SEED)
    groups = [(name, group_from_permutations(gens)) for name, gens in MUTANT_GROUPS.items()]
    seen = []
    while len(seen) < MUTANTS:
        name, G = groups[len(seen) % len(groups)]
        rows = table_mutant(rng, G)
        if rows is None:
            continue
        got = outcome(_certify_table, G, rows)
        assert got == outcome(ordered_reference, G, rows), (name, [chi.values for chi in rows])
        seen.append(got)
    # the mutants reach acceptance and each kind of failure
    texts = {t.split(" (")[0].split(" at ")[0] if t else None for t in seen}
    assert None in texts
    assert "squared degrees do not sum to the group order" in texts
    assert any(t and "not orthonormal" in t for t in texts)
    assert any(t and "class algebra identity" in t for t in texts)


def trivial_row_repeated(G):
    """The table with the trivial row first and repeated in place of row 1:
    degrees, diagonal Gram entries, integrality, the trivial row and the
    class algebra all pass, and only the separation of the rows fails."""
    values = [chi.values for chi in character_table(G)]
    trivial = values.pop(trivial_index(G))
    values[0] = trivial  # a linear row: the table is sorted by degree
    return as_rows(G, [trivial] + values)


@pytest.mark.parametrize("gens", [C2_GENS, C4_GENS, [cycle(4), [1, 0, 2, 3]]], ids=["C2", "C4", "S4"])
def test_repeated_trivial_row_is_named_by_the_ordered_scan(gens):
    G = group_from_permutations(gens)
    rows = trivial_row_repeated(G)
    assert _check_class_algebra(G, rows, _lift_table(G, rows)[2]) is False
    message = "character rows 0,1 are not orthonormal (got 1)"
    assert outcome(_certify_table, G, rows) == message
    assert outcome(ordered_reference, G, rows) == message


def separation_reference(G, rows):
    """The greedy separation of `_check_class_algebra` with each value
    divided by its row's degree in Cyc, then lifted to the table conductor:
    the classes chosen, and whether they tell the rows apart."""
    n = characters._conductor(*(chi.values for chi in rows))
    blocks, chosen = [list(range(len(rows)))], []
    for i in range(len(G.conjugacy_classes())):
        if len(blocks) == len(rows):
            break
        parts = {}
        for block in blocks:
            for r in block:
                omega = (rows[r].values[i] / rows[r].degree).lift(n)
                parts.setdefault((block[0], omega.num, omega.den), []).append(r)
        if len(parts) > len(blocks):
            chosen.append(i)
            blocks = list(parts.values())
    return chosen, len(blocks) == len(rows)


def separation_tables():
    """name -> (G, rows): every golden table, the eight char-tables
    benchmark groups, the five rotation groups, and D30 and S4 with a row
    repeated in place of the next one."""
    from test_action_table import ROTATION_ACTIONS
    from test_table_answers import GOLDEN_GROUPS

    def table(G):
        return G, character_table(G)

    def repeated(G, degree):
        values = [chi.values for chi in character_table(G)]
        first = next(i for i, chi in enumerate(character_table(G)) if chi.degree == degree)
        values[first + 1] = values[first]
        return G, as_rows(G, values)

    tables = {f"golden:{name}": lambda b=build: table(b()) for name, build in GOLDEN_GROUPS.items()}
    for name in ("C12", "C20", "S4", "D30", "C2_4", "D12", "A5", "S5"):
        tables[f"bench:{name}"] = lambda b=kernel_groups()[name]: table(b[0](b[1]))
    for name, (gens, _) in ROTATION_ACTIONS.items():
        tables[f"rotation:{name}"] = lambda g=gens: table(group_from_permutations(g))
    tables["repeated:D30"] = lambda: repeated(group_from_permutations([cycle(15), [(-i) % 15 for i in range(15)]]), 2)
    tables["repeated:S4"] = lambda: repeated(group_from_permutations([cycle(4), [1, 0, 2, 3]]), 3)
    return tables


@pytest.mark.parametrize("name", sorted(separation_tables()))
def test_separation_matches_the_cyc_division_reference(monkeypatch, name):
    G, rows = separation_tables()[name]()
    want = separation_reference(G, rows)
    assert want[1] is not name.startswith("repeated:")
    chosen = counting(monkeypatch, "_class_matrix")
    verdict = _check_class_algebra(G, rows, _lift_table(G, rows)[2])
    assert ([i for _, i in chosen], verdict) == want


def counting(monkeypatch, name):
    """The calls of characters.<name> from now on, one argument tuple each."""
    calls = []
    wrapped = getattr(characters, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(characters, name, counted)
    return calls


D30_GENS = [cycle(15), [(-i) % 15 for i in range(15)]]


def test_accepted_table_makes_one_pairing_per_row(monkeypatch):
    calls = counting(monkeypatch, "_pairing")
    G = group_from_permutations(D30_GENS)
    assert len(character_table(G)) == 9
    assert len(calls) == 9
    calls.clear()
    attach_character_table(group_from_permutations(D30_GENS), table_to_json(G))
    assert len(calls) == 9
    # a repeated row fails the linear pass, passes the diagonal and falls
    # back to the ordered scan
    C20 = group_from_permutations([cycle(20)])
    character_table(C20)
    calls.clear()
    with pytest.raises(DefectError, match=r"^character rows 0,1 are not orthonormal \(got 1\)$"):
        _certify_table(C20, trivial_row_repeated(C20))
    assert len(calls) > 20


@pytest.mark.parametrize("name", ["C20", "C2_4"])
def test_accepted_linear_table_makes_no_pairing(monkeypatch, name):
    build, arg = kernel_groups()[name]
    pairings = counting(monkeypatch, "_pairing")
    class_algebra = counting(monkeypatch, "_check_class_algebra")
    G = build(arg)
    assert len(character_table(G)) == G.order
    attach_character_table(build(arg), table_to_json(G))
    assert pairings == class_algebra == []


def abelian_groups():
    """Abelian groups on every path into `character_table`, as (build, arg):
    permutation groups, relabelled tables whose identity is not element 0,
    a table on its default generators, and a table whose declared
    generators do not generate it.  On relabelled C4 x C6 the element chain
    meets elements whose least power inside the subgroup so far is not the
    identity, so characters extend through a nontrivial value."""
    groups = {
        name: (group_from_permutations, cycles(*lengths))
        for name, lengths in {
            "C1": (), "C2": (2,), "C12": (12,), "C20": (20,), "C60": (60,), "C3xC3": (3, 3),
            "C2xC4": (2, 4), "C4xC6": (4, 6), "C2xC2xC2": (2, 2, 2),
        }.items()
    }
    groups.update({
        "C2^4-relabelled": (as_relabelled_table, cycles(2, 2, 2, 2)),
        "C4xC6-relabelled": (as_relabelled_table, cycles(4, 6)),
        "C2xC4-default-generators": (
            FiniteGroup, group_from_permutations(cycles(2, 4)).table
        ),
        "V4-generators-[1]": (
            lambda table: FiniteGroup(table, generators=[1]),
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        ),
    })
    return groups


def class_sum_table_json(G):
    """The class-sum path called directly: the split, the value lift and the
    row sort, certified and installed on G, then serialized."""
    p = characters._dixon_prime(G.order, G.exponent)
    omegas = characters._split_central_characters(G, p)
    rows = characters._sort_rows(G, characters._lift_characters(G, omegas, p))
    _certify_table(G, rows)
    G._char_table = tuple(rows)
    return table_to_json(G)


@pytest.mark.parametrize("name", sorted(abelian_groups()))
def test_abelian_chain_table_equals_the_class_sum_table(name):
    build, arg = abelian_groups()[name]
    G = build(arg)
    assert len(G.conjugacy_classes()) == G.order
    if name.endswith("-relabelled"):
        assert G.identity != 0
    if name == "C2xC4-default-generators":
        assert G.generators == tuple(x for x in range(G.order) if x != G.identity)
    if name == "V4-generators-[1]":
        assert Subgroup.generated(G, G.generators).order < G.order
    assert table_to_json(G) == class_sum_table_json(build(arg))


def test_abelian_tables_skip_the_class_sum_split(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return split(*args)

    split = characters._split_central_characters
    monkeypatch.setattr(characters, "_split_central_characters", counted)
    for name, abelian in (("C20", True), ("C2_4", True), ("S4", False), ("D12", False)):
        calls.clear()
        build, arg = kernel_groups()[name]
        character_table(build(arg))
        assert (len(calls) == 0) if abelian else (len(calls) >= 1), name


def test_magma_generators_are_walked_once_per_group(monkeypatch):
    """A table-form C2^7 walks its magma generators once, in the
    associativity check; certifying its linear table, twice over, reads the
    same set."""
    walks = []
    plain = FiniteGroup.__dict__["_magma_generators"]

    def counted(self):
        walks.append(self)
        return plain.func(self)

    prop = cached_property(counted)
    prop.__set_name__(FiniteGroup, "_magma_generators")
    monkeypatch.setattr(FiniteGroup, "_magma_generators", prop)
    flips = [[i ^ (1 << k) for i in range(128)] for k in range(7)]
    G = FiniteGroup(group_from_permutations(flips).table)
    assert walks == [G] and len(G._magma_generators) == 7
    rows = character_table(G)
    _certify_table(G, rows)
    assert characters._linear_table_holds(G, rows)
    assert walks == [G]
