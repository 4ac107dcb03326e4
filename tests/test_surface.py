"""The package's public surface: names that resolve on first use, and the
value semantics of its immutable classes, pinned to those of the frozen
dataclasses they once were (``dataclasses`` serves here as the oracle)."""

import importlib
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

import grinv
from grinv.erosion import ErosionStudyRow, ThickeningFamily
from grinv.fixtures import FixtureBundle
from grinv.invariants import GriTable, InvertibilityReport, SignedDiagram
from grinv.mobius import IncidenceElement, PosetFunction
from grinv.modules import SectionSpace
from grinv.posets import ContainmentPoset, FinitePoset, GridInterval, SubposetId, containment_poset
from grinv.zigzag import Barcode, ZigzagPath

LAYERS = ("erosion", "gf", "invariants", "mobius", "modules", "posets", "zigzag")


def test_every_public_name_resolves_to_its_layers_object():
    assert grinv.__all__ == sorted(grinv._LAYERS) and set(LAYERS) < set(grinv.__all__)
    assert set(grinv.__all__) <= set(dir(grinv))
    for name in grinv.__all__:
        layer = importlib.import_module(f"grinv.{grinv._LAYERS[name]}")
        value = getattr(grinv, name)
        if name in LAYERS:
            assert value is layer
        else:
            assert value is layer.__dict__[name]
            assert getattr(value, "__module__", layer.__name__) == layer.__name__, name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        grinv.nonexistent  # noqa: B018


# -- value semantics ---------------------------------------------------------------

def reference(cls, fields, values):
    """The frozen dataclass the class was, holding the same field values."""
    return make_dataclass(cls.__name__, fields, frozen=True)(*values)


def check_refuses_changes(obj, fields):
    before = [getattr(obj, f) for f in fields]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, None)
        with pytest.raises(AttributeError):
            delattr(obj, f)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert [getattr(obj, f) for f in fields] == before


@st.composite
def staircases(draw):
    """(y0, rows) of a valid GridInterval."""
    a = draw(st.integers(-2, 2))
    b = draw(st.integers(a, a + 2))
    rows = [(a, b)]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(a - 2, a)), draw(st.integers(a, b))
        rows.append((a, b))
    return draw(st.integers(-2, 2)), tuple(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(staircases(), staircases())
def test_grid_intervals_keep_their_value_semantics(s, t):
    g, h = GridInterval(*s), GridInterval(*t)
    assert (g.y0, g.rows) == s
    assert repr(g) == repr(reference(GridInterval, ["y0", "rows"], s))
    assert hash(g) == hash(s) == hash(GridInterval(*s))
    assert g == GridInterval(*s)
    assert (g == h) is (s == t) and (g != h) is (s != t)
    assert g.__eq__(s) is NotImplemented
    check_refuses_changes(g, ["y0", "rows"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=7),
       st.lists(st.integers(0, 5), min_size=1, max_size=7))
def test_subposet_ids_keep_their_value_semantics(ids, jds):
    s, t = SubposetId(ids), SubposetId(jds)
    members = tuple(sorted(set(ids)))
    assert s.members == members and len(s) == len(s.member_set) == len(members)
    assert s.sort_key == (len(members), members)
    assert repr(s) == repr(reference(SubposetId, ["members"], [members]))
    assert hash(s) == hash((members,))
    assert (s == t) is (set(ids) == set(jds))
    assert s.__eq__(members) is NotImplemented
    check_refuses_changes(s, ["members"])


def test_subposet_ids_drop_repeated_members():
    s = SubposetId((2, 1, 1))
    assert s.members == (1, 2) and len(s) == 2
    assert s == SubposetId((1, 2)) and hash(s) == hash(SubposetId((1, 2)))
    with pytest.raises(ValueError, match="empty subposet"):
        SubposetId(())


def value_cases():
    """class -> (the dataclass's field names, a builder, a builder of an unequal value)."""
    chain = FinitePoset.chain(3)
    a, b = GridInterval.rectangle((0, 0), (1, 1)), GridInterval.rectangle((0, 0), (0, 0))
    path = ZigzagPath(((0, 0), (1, 0), (1, 1)))
    diagram = SignedDiagram(((b, 1), (a, -1)))
    cp = containment_poset([a, b])
    return {
        ContainmentPoset: (["items", "poset"], lambda: ContainmentPoset(cp.items, cp.poset),
                           lambda: ContainmentPoset(cp.items, containment_poset([b, a]).poset)),
        IncidenceElement: (["poset", "values"], lambda: IncidenceElement(chain, {(0, 1): 2}),
                           lambda: IncidenceElement(chain, {(0, 1): 3})),
        PosetFunction: (["poset", "values"], lambda: PosetFunction(chain, (1, 0, -1)),
                        lambda: PosetFunction(chain, (1, 0, 1))),
        SectionSpace: (["vectors", "offsets"], lambda: SectionSpace([[1, 0]], (0, 1)),
                       lambda: SectionSpace([[0, 1]], (0, 1))),
        GriTable: (["collection", "ranks"], lambda: GriTable((b, a), (2, 1)),
                   lambda: GriTable((b, a), (2, 0))),
        SignedDiagram: (["support"], lambda: SignedDiagram(((b, 1), (a, -1))),
                        lambda: SignedDiagram(((b, 1),))),
        InvertibilityReport: (["ok", "diagram", "witness"],
                              lambda: InvertibilityReport(False, diagram, a),
                              lambda: InvertibilityReport(True, diagram)),
        ZigzagPath: (["points"], lambda: ZigzagPath([[0, 0], [1, 0], [1, 1]]),
                     lambda: ZigzagPath(((0, 0), (1, 0)))),
        Barcode: (["path", "bars"], lambda: Barcode(path, (((0, 2), 1),)),
                  lambda: Barcode(path, (((0, 1), 1),))),
        ThickeningFamily: (["max_min_pts", "max_max_pts"], lambda: ThickeningFamily(1, 2),
                           lambda: ThickeningFamily(2, 1)),
        ErosionStudyRow: (["side", "max_min_pts", "max_max_pts", "collection_size", "distance",
                           "rank_queries", "wall_seconds"],
                          lambda: ErosionStudyRow(3, 1, 2, 40, 1, 80, 0.25),
                          lambda: ErosionStudyRow(3, 1, 2, 40, 1, 80, 0.5)),
        FixtureBundle: (["name", "description", "poset", "modules", "intervals", "paths", "extras"],
                        lambda: FixtureBundle("x", "an example", chain, intervals={"a": a}),
                        lambda: FixtureBundle("x", "an example", chain)),
    }


@pytest.mark.parametrize("cls", list(value_cases()), ids=lambda cls: cls.__name__)
def test_former_dataclasses_keep_their_value_semantics(cls):
    fields, make, make_other = value_cases()[cls]
    x, y, z = make(), make(), make_other()
    values = tuple(getattr(x, f) for f in fields)
    ref = reference(cls, fields, values)
    assert repr(x) == repr(ref)
    assert x == y and not x != y and x != z and not x == z
    assert x.__eq__(ref) is NotImplemented and x.__eq__(values) is NotImplemented
    if cls is SignedDiagram:  # equal and hashed by its multiplicities, in any order
        assert hash(x) == hash(frozenset(dict(x.support).items()))
        assert x == SignedDiagram(tuple(reversed(x.support)))
    else:
        try:
            expected = hash(values)
        except TypeError:  # a dict or list field: unhashable, as the dataclass was
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected == hash(y)
    check_refuses_changes(x, fields)


def test_former_dataclasses_keep_their_default_arguments():
    chain = FinitePoset.chain(2)
    assert ThickeningFamily() == ThickeningFamily(None, None)
    assert ThickeningFamily().max_min_pts is None and ThickeningFamily(1).max_max_pts is None
    assert InvertibilityReport(True, None).witness is None
    first, second = IncidenceElement(chain), IncidenceElement(chain)
    assert first.values == {} and first.values is not second.values
    bundle, other = FixtureBundle("x", "d", chain), FixtureBundle("x", "d", chain)
    for field in ("modules", "intervals", "paths", "extras"):
        assert getattr(bundle, field) == {} and getattr(bundle, field) is not getattr(other, field)
