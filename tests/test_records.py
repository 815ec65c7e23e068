"""The contract of the package's public value classes.

Claims covered, for ``FamilyRank``, ``RootSystem``, ``CertificateFamily``,
``CountResult``, ``LatticeBasis``, ``ObstructionResult`` and
``ExistenceResult``:
    - ``inspect.signature`` reads as documented: every field, in order, with
      its annotation and default; positional and keyword construction agree
    - equality and hashing go by field values, ``rows`` of a RootSystem
      included, and only within one class: a subclass instance or a tuple
      of the same values is not equal
    - the repr names every field but a RootSystem's ``rows``
    - assigning or deleting a field, or assigning a new attribute, raises
      ``AttributeError``
    - FamilyRanks order by family, then rank, and refuse to order against
      another type
"""

import inspect

import pytest

from rootspin import (
    CertificateFamily,
    CountResult,
    ExistenceResult,
    FamilyRank,
    LatticeBasis,
    ObstructionResult,
    RootSystem,
)

G2 = FamilyRank("G", 2)

# class, field values, the same values with the last field changed,
# signature text, repr text
CASES = {
    "FamilyRank": (
        FamilyRank, ("A", 3), ("A", 4),
        "(family: 'str', rank: 'int') -> None",
        "FamilyRank(family='A', rank=3)",
    ),
    "RootSystem": (
        RootSystem, ((((0, 1),),), 1, 1), ((((0, 2),),), 1, 1),
        "(rows: 'tuple[Row, ...]', ambient_dim: 'int', denominator: 'int') -> None",
        "RootSystem(id=None, ambient_dim=1, denominator=1)",
    ),
    "CertificateFamily": (
        CertificateFamily, (G2, (((0, 1),),)), (G2, (((0, -1),),)),
        "(system_id: 'FamilyRank', blocks: 'tuple[Block, ...]') -> None",
        "CertificateFamily(system_id=FamilyRank(family='G', rank=2), blocks=(((0, 1),),))",
    ),
    "CountResult": (
        CountResult, (4, "brute_force", 0.5, 64), (4, "brute_force", 0.5, None),
        "(value: 'int', method: 'str', elapsed: 'float', memory_peak: 'int | None' = None)"
        " -> None",
        "CountResult(value=4, method='brute_force', elapsed=0.5, memory_peak=64)",
    ),
    "LatticeBasis": (
        LatticeBasis, (((2,),), (0,), 1), (((2,),), (0,), 2),
        "(columns: 'tuple[tuple[int, ...], ...]', pivot_rows: 'tuple[int, ...]', "
        "ambient_dim: 'int') -> None",
        "LatticeBasis(columns=((2,),), pivot_rows=(0,), ambient_dim=1)",
    ),
    "ObstructionResult": (
        ObstructionResult, (False, "sum not in 2L"), (False, None),
        "(passed: 'bool', reason: 'str | None' = None) -> None",
        "ObstructionResult(passed=False, reason='sum not in 2L')",
    ),
    "ExistenceResult": (
        ExistenceResult, (True, (1, -1), ObstructionResult(True), "certificate", None),
        (True, (1, -1), ObstructionResult(True), "certificate", CertificateFamily(G2, ())),
        "(exists: 'bool', witness: 'tuple[int, ...] | None', obstruction: 'ObstructionResult', "
        "method: 'str', certificate: 'certs.CertificateFamily | None' = None) -> None",
        "ExistenceResult(exists=True, witness=(1, -1), obstruction=ObstructionResult(passed=True,"
        " reason=None), method='certificate', certificate=None)",
    ),
}


@pytest.mark.parametrize("cls,values,changed,signature,text", CASES.values(), ids=CASES)
def test_value_class_contract(cls, values, changed, signature, text):
    assert str(inspect.signature(cls)) == signature
    fields = list(inspect.signature(cls).parameters)
    value = cls(*values)
    assert [getattr(value, name) for name in fields] == list(values)

    same = cls(**dict(zip(fields, values)))
    assert value == same and not value != same and hash(value) == hash(same)
    assert len({value, same}) == 1
    assert value != cls(*changed)
    assert value != tuple(values)
    sub = type("Sub", (cls,), {})
    assert value != sub(*values) and sub(*values) != value

    assert repr(value) == text

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert [getattr(value, name) for name in fields] == list(values)


def test_family_ranks_are_ordered():
    ids = [FamilyRank("B", 2), FamilyRank("A", 10), FamilyRank("A", 3)]
    assert sorted(ids) == [FamilyRank("A", 3), FamilyRank("A", 10), FamilyRank("B", 2)]
    a3 = FamilyRank("A", 3)
    assert a3 < FamilyRank("A", 4) and a3 <= FamilyRank("A", 3) and a3 <= FamilyRank("B", 2)
    assert FamilyRank("A", 4) > a3 and a3 >= FamilyRank("A", 3) and not a3 > a3
    for compare in (lambda: a3 < ("A", 4), lambda: a3 <= 3, lambda: a3 > None, lambda: a3 >= "A3"):
        with pytest.raises(TypeError):
            compare()
