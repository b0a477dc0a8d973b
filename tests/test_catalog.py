import random

import pytest

from helpers import entry_algebra, random_unimodular
from liemult import algfile, cli
from liemult.algebra import build
from liemult.catalog import (
    FAMILIES,
    abelian,
    entries,
    filiform_m2,
    filiform_q,
    get,
    names,
    standard_filiform,
)
from liemult.errors import DimensionMismatch, DimensionTooSmall, UnknownName
from liemult.fields import QQ, PrimeField
from liemult.homology import multiplier_dim


def test_filiform_4_relations():
    L = standard_filiform(4)
    assert L.structure_constants() == ((1, 2, 3, L.field.one), (1, 3, 4, L.field.one))


def test_filiform_5_relations():
    L = standard_filiform(5)
    assert [(i, j, k) for i, j, k, _ in L.structure_constants()] == [
        (1, 2, 3),
        (1, 3, 4),
        (1, 4, 5),
    ]


def test_filiform_3_is_heisenberg():
    # The Heisenberg algebra: the single relation [x1, x2] = x3.
    assert standard_filiform(3) == build(3, [(1, 2, 3, 1)])


def test_filiform_too_small():
    with pytest.raises(DimensionTooSmall):
        standard_filiform(2)
    with pytest.raises(DimensionTooSmall):
        abelian(0)


@pytest.mark.parametrize("n", range(3, 15))
def test_filiform_series_dims(n):
    dims = standard_filiform(n).lower_central_series().dims()
    assert dims == (n,) + tuple(range(n - 2, -1, -1))
    ok, _ = standard_filiform(n).is_maximal_class()
    assert ok


def test_abelian_entries():
    assert abelian(1).n == 1
    assert multiplier_dim(abelian(2)) == 1


def test_get_by_name_and_alias():
    entry = get("L(3,4,1,4)")
    assert entry.known_multiplier_dim == 2
    assert get("filiform-4") is entry
    assert get("L(7,5,1,7)").known_multiplier_dim == 3
    assert get("heisenberg-3").params == (3,)


def test_unknown_name_suggests():
    with pytest.raises(UnknownName) as exc:
        get("L(3,4,1,5)")
    assert "L(3,4,1,4)" in exc.value.suggestions


def test_catalog_metadata_matches_recomputation():
    for entry in entries():
        L = entry_algebra(entry)
        if entry.known_multiplier_dim is not None:
            assert multiplier_dim(L) == entry.known_multiplier_dim, entry.name
        if entry.family == "filiform":
            ok, _ = L.is_maximal_class()
            assert ok, entry.name
        assert L.n == entry.params[0]


def test_catalog_over_prime_field():
    L = standard_filiform(6, field=PrimeField(5))
    assert L.field.characteristic == 5
    assert L.is_maximal_class()[0]


def test_names_listing():
    base = names()
    assert "L(3,4,1,4)" in base and "filiform-4" not in base
    with_aliases = names(include_aliases=True)
    assert "filiform-4" in with_aliases


# (family, n, dim M): m2 stays at 3, Q_n has n/2 - 1.
VERGNE = ([(filiform_m2, n, 3) for n in range(5, 11)]
          + [(filiform_q, n, n // 2 - 1) for n in (6, 8, 10)])


@pytest.mark.parametrize("family,n,dim_m", VERGNE,
                         ids=[f"{f.__name__}-{n}" for f, n, _ in VERGNE])
def test_vergne_families_are_maximal_class_with_stable_multiplier(family, n, dim_m):
    L = family(n)
    ok, dims = L.is_maximal_class()
    assert ok, dims
    assert multiplier_dim(L) == dim_m
    assert multiplier_dim(family(n, field=PrimeField(2147483647))) == dim_m
    changed = L.change_basis(random_unimodular(random.Random(n), n, QQ))
    assert changed != L
    assert multiplier_dim(changed) == dim_m


def test_vergne_relations_and_ranges():
    assert [c[:3] for c in filiform_m2(6).structure_constants()] == [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (2, 3, 5), (2, 4, 6)]
    q6 = filiform_q(6)
    assert q6.structure_constants() == (
        (1, 2, 3, 1), (1, 3, 4, 1), (1, 4, 5, 1), (2, 5, 6, 1), (3, 4, 6, -1))
    with pytest.raises(DimensionTooSmall):
        filiform_m2(4)
    with pytest.raises(DimensionTooSmall):
        filiform_q(4)
    with pytest.raises(DimensionMismatch):
        filiform_q(7)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(2147483647)],
                         ids=["Q", "GF3", "GFp"])
def test_every_entry_is_its_family_builder(field):
    # `--name X --field F` builds X's family at its parameter over F: that is
    # X over F, since every family's constants are integers.
    for name in names(include_aliases=True):
        entry = get(name)
        args = cli._build_parser().parse_args(["check", "--name", name, "--field", str(field)])
        loaded, shown = cli._load_algebra(args)
        built = FAMILIES[entry.family].builder(entry.params[0], field=field)
        assert shown == entry.name and loaded.field == field
        assert loaded == built
        assert algfile.serialize_algebra(loaded) == algfile.serialize_algebra(built)
        constants = entry_algebra(entry).structure_constants()
        assert all(c.denominator == 1 for *_, c in constants)
        assert loaded == build(built.n, [(i, j, k, c.numerator) for i, j, k, c in constants],
                               field=field, labels=built.labels)


def test_families_table_names_each_builder_and_least_dimension():
    assert FAMILIES == {"filiform": (standard_filiform, 3), "abelian": (abelian, 1)}
    for family in FAMILIES.values():
        family.builder(family.least_n)
        with pytest.raises(DimensionTooSmall):
            family.builder(family.least_n - 1)
