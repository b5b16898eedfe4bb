from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classalg.groups import load_group
from classalg.partitions import (
    EMPTY_PARTITION,
    EMPTY_TYPE,
    Partition,
    TypeFunction,
    class_size,
    enumerate_types,
    enumerate_types_upto,
    partitions_of,
)
from classalg.wreath import wreath_order
from oracles import single_cycle_type, type_from_label

partition_strategy = st.lists(
    st.integers(min_value=1, max_value=6), min_size=0, max_size=5
).map(Partition)


def test_partition_counts():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, c in enumerate(counts):
        assert len(partitions_of(n)) == c


def test_partition_z():
    assert Partition([1, 1, 1]).z() == 6
    assert Partition([3]).z() == 3
    assert Partition([2, 1]).z() == 2
    assert EMPTY_PARTITION.z() == 1
    # sum over partitions of n of n!/z equals n!
    for n in range(1, 7):
        assert sum(
            factorial(n) // lam.z() for lam in partitions_of(n)
        ) == factorial(n)


@settings(max_examples=60, deadline=None)
@given(partition_strategy, st.integers(min_value=1, max_value=6))
def test_add_remove_inverse(lam, r):
    grown = lam.add_part(r)
    assert grown.size == lam.size + r
    assert grown.remove_part(r) == lam
    if lam.multiplicity(r) == 0:
        assert lam.remove_part(r) is None


def test_type_label_roundtrip():
    g = load_group("cyclic2")
    for n in range(5):
        for rho in enumerate_types(g, n):
            assert type_from_label(rho.label()) == rho


def test_type_counts():
    assert len(enumerate_types(load_group("trivial"), 4)) == 5
    assert len(enumerate_types(load_group("cyclic2"), 3)) == 10
    assert len(enumerate_types(load_group("sym3"), 2)) == 9


def test_types_upto():
    g = load_group("cyclic2")
    counted = sum(len(enumerate_types(g, n)) for n in range(4))
    assert len(enumerate_types_upto(g, 3)) == counted


def test_class_sizes_sum_to_group_order():
    for name in ("trivial", "cyclic2", "sym3"):
        g = load_group(name)
        for n in range(1, 4):
            total = sum(class_size(rho, g, n) for rho in enumerate_types(g, n))
            assert total == wreath_order(g, n)


def test_single_cycle_type():
    rho = single_cycle_type(3, 1)
    assert rho.norm == 3
    assert rho.partition(1) == Partition([3])
    assert rho.partition(0) == EMPTY_PARTITION


def test_ztilde():
    g = load_group("cyclic2")
    rho = type_from_label("c0:[2,1]|c1:[1]")
    # ztilde = 2 * 1 * 1 (parts 2,1 at c0; part 1 at c1), times multiplicities
    assert rho.ztilde() == 2
    # centralizer order = ztilde with each part weighted by zeta
    assert rho.centralizer_order(g) == 2 * (2**3)


def test_pad_and_inverse():
    g = load_group("cyclic4")
    rho = single_cycle_type(2, 1)
    padded = rho.pad_to(4)
    assert padded.norm == 4
    assert padded.partition(0) == Partition([1, 1])
    inv = rho.inverse(g)
    assert inv.partition(g.inv_class[1]) == Partition([2])


def test_empty_type():
    assert EMPTY_TYPE.norm == 0
    assert EMPTY_TYPE.label() == "empty"
    assert EMPTY_TYPE.ztilde() == 1


def test_partition_ordering_canonical():
    lam = Partition([1, 3, 2, 3])
    assert lam.parts == (3, 3, 2, 1)
    with pytest.raises(ValueError):
        Partition([0])


def test_types_are_interned_and_compare_by_identity():
    for name in ("cyclic3", "sym3"):
        types = enumerate_types_upto(load_group(name), 3)
        for rho in types:
            assert TypeFunction(dict(rho.items)) is rho
            assert type_from_label(rho.label()) is rho
        # a rebuilt type finds the entry of the enumerated one
        keyed = {rho: i for i, rho in enumerate(types)}
        for rho in types:
            keyed[TypeFunction(dict(rho.items))] = keyed[rho]
        assert len(keyed) == len({rho.items for rho in types}) == len(types)


def test_norm_is_the_sum_of_the_part_sizes():
    g = load_group("cyclic3")
    for rho in enumerate_types_upto(g, 3):
        assert rho.norm == sum(sum(lam.parts) for _, lam in rho.items)
    rho = type_from_label("c0:[2,1]|c2:[3]")
    assert rho.norm == 6
    assert rho.add_part(4, 1).norm == 10
    assert rho.remove_part(3, 2).norm == 3
    with pytest.raises(AttributeError):
        rho.norm = 7


def test_type_edits_return_the_one_instance_of_each_type():
    rho = type_from_label("c0:[2,1]|c1:[1]")
    assert type_from_label("c0:[2,1]|c1:[1]") is rho
    grown = rho.add_part(3, 2)
    assert grown is rho.add_part(3, 2)
    assert grown is type_from_label("c0:[2,1]|c1:[1]|c2:[3]")
    assert grown.remove_part(3, 2) is rho
    assert rho.remove_part(1, 1) is type_from_label("c0:[2,1]")
    assert rho.remove_part(1, 0).label() == "c0:[2]|c1:[1]"
    # adding and removing the same part are kept apart
    assert rho.add_part(1, 1).label() == "c0:[2,1]|c1:[1,1]"
    assert rho.remove_part(4, 0) is None and rho.remove_part(4, 0) is None
    assert rho.remove_part(1, 3) is None
