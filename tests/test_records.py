"""The package's immutable records: construction, `==`, hash, `repr` and
immutability of each of the twelve record classes, and list input frozen
on the way in."""

import pytest

from k3lat.catalog import FamilyDescriptor, MembershipFlags
from k3lat.evensets import EvenSets
from k3lat.forms import FiniteQuadraticForm, NormalForm, milgram_signature
from k3lat.lattice import (
    DiscriminantData,
    Embedding,
    IntegralLattice,
    IsometryAction,
    discriminant_form,
    from_rows,
)
from k3lat.nsgeometry import LabeledLattice
from k3lat.overlattice import GenusDescriptor
from k3lat.towers import TowerNode, tower

A2 = ((2, -1), (-1, 2))
A2_REPR = "IntegralLattice(gram=((2, -1), (-1, 2)), label='A2')"
Q3 = "FiniteQuadraticForm(orders=(3,), table=((2,),))"
M42 = "FamilyDescriptor(kind='M', d=4, n=2)"


def _storey():
    node = tower(1, 0)[0]
    return dict(ns=node.ns, transcendental=node.transcendental, depth=node.depth)


# (class, its constructor arguments by name and in order, built anew on each
# call, the record's repr, the field left out of ==); the last two classes
# compare by identity
CASES = [
    (IntegralLattice, lambda: dict(gram=A2, label="A2"), A2_REPR, "label"),
    (Embedding, lambda: dict(host=IntegralLattice(A2, "A2"), sub=IntegralLattice(((2,),)),
                             vectors=((1, 0),)),
     f"Embedding(host={A2_REPR}, sub=IntegralLattice(gram=((2,),), label=None), "
     "vectors=((1, 0),))", None),
    (IsometryAction, lambda: dict(lattice=IntegralLattice(A2, "A2"), matrix=((0, 1), (1, 0)),
                                  label="swap"),
     f"IsometryAction(lattice={A2_REPR}, matrix=((0, 1), (1, 0)), label='swap')", "label"),
    (DiscriminantData, lambda: dict(form=FiniteQuadraticForm((3,), ((2,),)), lifts=((2, 1),)),
     f"DiscriminantData(form={Q3}, lifts=((2, 1),))", None),
    (FiniteQuadraticForm, lambda: dict(orders=(2, 4), table=((2, 0), (0, 3))),
     "FiniteQuadraticForm(orders=(2, 4), table=((2, 0), (0, 3)))", "level"),
    (NormalForm, lambda: dict(key=((2, 2, "w", 5), (2, 1, "w", 3)), basis=((1, 1), (1, 2)),
                              coords=((2, 1), (3, 1))),
     "NormalForm(key=((2, 2, 'w', 5), (2, 1, 'w', 3)), basis=((1, 1), (1, 2)), "
     "coords=((2, 1), (3, 1)))", None),
    (FamilyDescriptor, lambda: dict(kind="M", d=4, n=2), M42, None),
    (MembershipFlags, lambda: dict(covers_K3=True, covered_by_K3=False,
                                   matches=(FamilyDescriptor("M", 4, 2),)),
     f"MembershipFlags(covers_K3=True, covered_by_K3=False, matches=({M42},))", None),
    (GenusDescriptor, lambda: dict(sig_plus=2, sig_minus=0, disc=FiniteQuadraticForm((3,), ((2,),))),
     f"GenusDescriptor(sig_plus=2, sig_minus=0, disc={Q3})", None),
    (TowerNode, _storey, None, None),
    (LabeledLattice, lambda: dict(lattice=IntegralLattice(((2,),)), labels={"x": (1,)},
                                  relations=(("x", "x", 2),)),
     "LabeledLattice(lattice=IntegralLattice(gram=((2,),), label=None), "
     "labels={'x': (1,)}, relations=(('x', 'x', 2),))", None),
    (EvenSets, lambda: dict(lattice=IntegralLattice(((0, 1), (1, -2))), e=(1, 0), bound=1,
                            cands=(), functional=(), roots=(), shapes=()),
     "EvenSets(lattice=IntegralLattice(gram=((0, 1), (1, -2)), label=None), "
     "e=(1, 0), bound=1)", None),
]
BY_IDENTITY = (LabeledLattice, EvenSets)


@pytest.mark.parametrize("cls, args, shown, left_out", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, args, shown, left_out):
    a, b = cls(*args().values()), cls(**args())
    if cls is TowerNode:
        shown = ("TowerNode(ns=FamilyDescriptor(kind='M', d=1, n=2), "
                 f"transcendental={a.transcendental!r}, depth=0)")
    assert repr(a) == shown == repr(b)

    # an instance of another class with the same field values is unequal
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(**args())
    assert a != twin and twin != a and not a == twin

    if cls in BY_IDENTITY:
        assert a == a and a != b and len({a, b}) == 2
    else:
        assert a == b and hash(a) == hash(b) and a is not b
    if left_out == "label":
        relabeled = cls(**dict(args(), label="other"))
        assert a == relabeled and hash(a) == hash(relabeled)
    elif left_out == "level":
        object.__setattr__(b, "level", b.level + 1)
        assert a == b and hash(a) == hash(b)

    for name in (*args(), "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in args():
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == shown


def test_list_input_is_frozen():
    # a Gram or form table given as lists is stored as tuples, so the
    # record hashes and the caches keyed on it work
    lat = IntegralLattice([[2, 1], [1, 2]])
    ref = from_rows([[2, 1], [1, 2]])
    assert lat == ref and hash(lat) == hash(ref)
    assert (lat.det, lat.signature) == (3, (2, 0))
    assert discriminant_form(lat) == discriminant_form(ref)
    q, ref = FiniteQuadraticForm([2], [[1]]), FiniteQuadraticForm((2,), ((1,),))
    assert q == ref and hash(q) == hash(ref)
    assert (q.orders, q.table) == ((2,), ((1,),))
    assert milgram_signature(q) == 1
    # so are the rows of an embedding, an isometry, the lifts of a
    # discriminant group and the three fields of a normal form
    a2 = from_rows(A2)
    q3 = FiniteQuadraticForm((3,), ((2,),))
    for listed, ref in [
        (Embedding(a2, from_rows([[2]]), [[1, 0]]), Embedding(a2, from_rows([[2]]), ((1, 0),))),
        (IsometryAction(a2, [[0, 1], [1, 0]]), IsometryAction(a2, ((0, 1), (1, 0)))),
        (DiscriminantData(q3, [[2, 1]]), DiscriminantData(q3, ((2, 1),))),
        (NormalForm([[3, 1, "w", 2]], [[1]], [[1]]),
         NormalForm(((3, 1, "w", 2),), ((1,),), ((1,),))),
    ]:
        assert listed == ref and hash(listed) == hash(ref)
        assert repr(listed) == repr(ref)
