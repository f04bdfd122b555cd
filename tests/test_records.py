"""The package's value records, and the QMatrix of the kernel oracle: each
is immutable, and two records with equal fields are equal and hash alike."""

import pytest

from traceforge.glcat import AbsGen, GeneratorModule, Partition
from traceforge.hwv import HwvBasis, HwvVerifyReport
from traceforge.nullspace import NullBasis
from traceforge.polyring import VarSet
from traceforge.relfinder import (
    PARAMETER_SPLIT,
    LeadingEntry,
    LeadingReport,
    NewRelationsItem,
    NewRelationsReport,
    ParameterSplit,
    RelationCertificate,
    RelationSpace,
    ZeroReport,
)

from kernel_oracle import QMatrix

HSOP, COMPLEMENT = PARAMETER_SPLIT

# (class, fields, fields of an unequal record); every value is hashable
RECORDS = [
    (VarSet, (("a", "b"),), (("b", "a"),)),
    (GeneratorModule, (1, Partition(2, 0), "w", ("w",)), (2, Partition(2, 0), "w", ("w",))),
    (AbsGen, (0, 1, 0, (2, 0)), (0, 1, 1, (1, 1))),
    (HwvBasis, (Partition(6, 6), 2, 1, 1, ((0, 1),), ()), (Partition(6, 6), 2, 1, 0, ((0, 1),), ())),
    (HwvVerifyReport, (Partition(6, 6), 2, True, True, ()),
     (Partition(6, 6), 2, True, False, ())),
    (QMatrix, ((), 2), ((), 3)),
    (NullBasis, (2, ((1, 0),)), (2, ((0, 1),))),
    (ParameterSplit, (HSOP, COMPLEMENT), (HSOP[1:], COMPLEMENT + HSOP[:1])),
    (RelationSpace, (Partition(7, 5), (), (), "digest"), (Partition(7, 5), (), (), "digest", True)),
    (ZeroReport, (True, 0, (), "d"), (False, 1, (("x11", "1/1"),), "d")),
    (LeadingEntry, ((7, 5), (1, 2), "u", Partition(7, 5), 0, 0),
     ((7, 5), (1, 2), "u", Partition(7, 5), 0, 1)),
    (LeadingReport, ((), ()), ((), ((Partition(7, 5), 0, 1),))),
    (NewRelationsItem, (Partition(7, 5), 1, 0, 1), (Partition(7, 5), 1, 1, 0)),
    (NewRelationsReport, (12, ()), (13, ())),
    (RelationCertificate, (Partition(7, 5), 0, (), (), "t", None, "d"),
     (Partition(7, 5), 1, (), (), "t", None, "d")),
]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != cls(*other)
    names = a._fields if isinstance(a, tuple) else ("names",)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b
