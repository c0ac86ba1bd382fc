"""Tests for the three RIBs."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.rib import AdjRIBIn, AdjRIBOut, LocRIB
from repro.bgp.route import Route

P1 = Prefix.parse("10.0.0.0/8")
P2 = Prefix.parse("20.0.0.0/8")


def route(prefix=P1, neighbor="N1", path=("X",)):
    return Route(prefix=prefix, as_path=ASPath(path), neighbor=neighbor)


class TestAdjRIBIn:
    def test_insert_and_candidates(self):
        rib = AdjRIBIn()
        rib.insert("N1", route(neighbor="N1"))
        rib.insert("N2", route(neighbor="N2"))
        assert [r.neighbor for r in rib.candidates(P1)] == ["N1", "N2"]

    def test_implicit_withdraw_on_replacement(self):
        rib = AdjRIBIn()
        rib.insert("N1", route(path=("X",)))
        rib.insert("N1", route(path=("X", "Y")))
        cands = rib.candidates(P1)
        assert len(cands) == 1
        assert cands[0].path_length == 2

    def test_insert_fixes_neighbor_field(self):
        rib = AdjRIBIn()
        rib.insert("N1", route(neighbor="WRONG"))
        assert rib.candidates(P1)[0].neighbor == "N1"

    def test_withdraw(self):
        rib = AdjRIBIn()
        rib.insert("N1", route())
        assert rib.withdraw("N1", P1) is not None
        assert rib.withdraw("N1", P1) is None
        assert rib.candidates(P1) == []

    def test_per_prefix_isolation(self):
        rib = AdjRIBIn()
        rib.insert("N1", route(prefix=P1))
        rib.insert("N1", route(prefix=P2))
        assert len(rib.candidates(P1)) == 1
        assert rib.prefixes() == (P1, P2)

    def test_neighbors_announcing(self):
        rib = AdjRIBIn()
        rib.insert("N2", route(neighbor="N2"))
        rib.insert("N1", route(neighbor="N1"))
        assert rib.neighbors_announcing(P1) == ("N1", "N2")

    def test_drop_neighbor(self):
        rib = AdjRIBIn()
        rib.insert("N1", route(prefix=P1))
        rib.insert("N1", route(prefix=P2))
        rib.insert("N2", route(prefix=P1, neighbor="N2"))
        affected = rib.drop_neighbor("N1")
        assert sorted(map(str, affected)) == ["10.0.0.0/8", "20.0.0.0/8"]
        assert [r.neighbor for r in rib.candidates(P1)] == ["N2"]

    def test_route_from(self):
        rib = AdjRIBIn()
        rib.insert("N1", route())
        assert rib.route_from("N1", P1) is not None
        assert rib.route_from("N2", P1) is None


class TestLocRIB:
    def test_set_and_get(self):
        rib = LocRIB()
        r = route()
        assert rib.set_best(P1, r) is True
        assert rib.best(P1) == r

    def test_unchanged_returns_false(self):
        rib = LocRIB()
        r = route()
        rib.set_best(P1, r)
        assert rib.set_best(P1, r) is False

    def test_clear(self):
        rib = LocRIB()
        rib.set_best(P1, route())
        assert rib.set_best(P1, None) is True
        assert rib.best(P1) is None
        assert rib.set_best(P1, None) is False

    def test_routes_sorted_by_prefix(self):
        rib = LocRIB()
        rib.set_best(P2, route(prefix=P2))
        rib.set_best(P1, route(prefix=P1))
        assert [r.prefix for r in rib.routes()] == [P1, P2]


class TestAdjRIBOut:
    def test_record_and_lookup(self):
        rib = AdjRIBOut()
        r = route()
        rib.record("N1", r)
        assert rib.advertised("N1", P1) == r
        assert rib.advertised("N2", P1) is None

    def test_clear(self):
        rib = AdjRIBOut()
        rib.record("N1", route())
        assert rib.clear("N1", P1) is not None
        assert rib.clear("N1", P1) is None

    def test_prefixes_to(self):
        rib = AdjRIBOut()
        rib.record("N1", route(prefix=P2))
        rib.record("N1", route(prefix=P1))
        rib.record("N2", route(prefix=P1))
        assert rib.prefixes_to("N1") == (P1, P2)


# -- the pair-keyed RIBs this module had before the prefix index, kept as the
# -- model: every query of theirs scans the table, and their dict order is the
# -- order the indexed RIBs must reproduce -------------------------------------


class FlatAdjRIBIn:
    def __init__(self):
        self._routes = {}

    def insert(self, neighbor, route):
        if route.neighbor != neighbor:
            route = route.with_neighbor(neighbor)
        self._routes[(neighbor, route.prefix)] = route

    def withdraw(self, neighbor, prefix):
        return self._routes.pop((neighbor, prefix), None)

    def candidates(self, prefix):
        found = [
            route
            for (neighbor, pfx), route in self._routes.items()
            if pfx == prefix
        ]
        found.sort(key=lambda r: r.neighbor or "")
        return found

    def route_from(self, neighbor, prefix):
        return self._routes.get((neighbor, prefix))

    def neighbors_announcing(self, prefix):
        return tuple(sorted(n for (n, pfx) in self._routes if pfx == prefix))

    def prefixes(self):
        return tuple(sorted({pfx for (_, pfx) in self._routes}))

    def drop_neighbor(self, neighbor):
        affected = [pfx for (n, pfx) in self._routes if n == neighbor]
        for pfx in affected:
            del self._routes[(neighbor, pfx)]
        return affected

    def __len__(self):
        return len(self._routes)


class FlatAdjRIBOut:
    def __init__(self):
        self._advertised = {}

    def record(self, neighbor, route):
        self._advertised[(neighbor, route.prefix)] = route

    def advertised(self, neighbor, prefix):
        return self._advertised.get((neighbor, prefix))

    def clear(self, neighbor, prefix):
        return self._advertised.pop((neighbor, prefix), None)

    def prefixes_to(self, neighbor):
        return tuple(
            sorted(pfx for (n, pfx) in self._advertised if n == neighbor)
        )

    def __len__(self):
        return len(self._advertised)


NEIGHBORS = ("N1", "N2", "N3")
PREFIXES = tuple(Prefix.parse(f"10.{i}.0.0/16") for i in range(5))
PATHS = (("X",), ("X", "Y"), ("Z", "Y", "X"))

neighbors = st.sampled_from(NEIGHBORS)
prefixes = st.sampled_from(PREFIXES)
# the route may arrive labelled with another neighbor: insert() relabels it
routes = st.builds(
    route, prefix=prefixes, neighbor=neighbors, path=st.sampled_from(PATHS)
)
# every table starts full, announced in a shuffled order, so insertion order
# differs from sorted order from the first step on
fills = st.permutations(
    [("insert", n, route(p, n)) for n in NEIGHBORS for p in PREFIXES]
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), neighbors, routes),
        st.tuples(st.just("withdraw"), neighbors, prefixes),
        st.tuples(st.just("drop_neighbor"), neighbors),
        st.tuples(st.just("record"), neighbors, routes),
        st.tuples(st.just("clear"), neighbors, prefixes),
    ),
    max_size=40,
)


class TestAgainstThePairKeyedRIBs:
    """Values, ``len`` and above all *order*: what ``drop_neighbor``
    returns decides the order of re-decisions, hence of UPDATEs,
    simulator sequence numbers, dirty marks and ``seq`` in the trail."""

    def queries(self, rib_in, rib_out):
        return {
            "len": (len(rib_in), len(rib_out)),
            "prefixes": rib_in.prefixes(),
            "candidates": [rib_in.candidates(p) for p in PREFIXES],
            "neighbors_announcing": [
                rib_in.neighbors_announcing(p) for p in PREFIXES
            ],
            "route_from": [
                rib_in.route_from(n, p) for n in NEIGHBORS for p in PREFIXES
            ],
            # what a session loss would report right now, on a copy
            "drop_neighbor": [
                copy.deepcopy(rib_in).drop_neighbor(n) for n in NEIGHBORS
            ],
            "advertised": [
                rib_out.advertised(n, p) for n in NEIGHBORS for p in PREFIXES
            ],
            "prefixes_to": [rib_out.prefixes_to(n) for n in NEIGHBORS],
        }

    def check(self, fill, steps):
        ribs = (AdjRIBIn(), AdjRIBOut())
        model = (FlatAdjRIBIn(), FlatAdjRIBOut())
        for name, *args in fill + steps:
            target = 0 if name in ("insert", "withdraw", "drop_neighbor") else 1
            returned = getattr(ribs[target], name)(*args)
            expected = getattr(model[target], name)(*args)
            assert returned == expected, (name, args)
            assert self.queries(*ribs) == self.queries(*model), (name, args)

    @settings(max_examples=50, deadline=None)
    @given(fills, steps)
    def test_every_query_after_every_step(self, fill, steps):
        self.check(fill, steps)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(fills, steps)
    def test_every_query_after_every_step_at_scale(self, fill, steps):
        self.check(fill, steps)


# -- no query scans the table: counted in key comparisons, not on a clock ------


class Counted:
    comparisons = 0


class CountedPrefix(Prefix):
    def __eq__(self, other):
        Counted.comparisons += 1
        return (self.network, self.length) == (other.network, other.length)

    __hash__ = Prefix.__hash__


class CountedName(str):
    def __eq__(self, other):
        Counted.comparisons += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def counted_prefix(index):
    return CountedPrefix(network=(10 << 24) | (index << 8), length=24)


def target():
    """The prefix asked about — a fresh object on every call, so a dict
    hit costs a comparison and cannot pass on identity."""
    return counted_prefix(5000)


NO_SCAN_QUERIES = {
    "candidates": (
        lambda rib_in, rib_out: [
            r.neighbor for r in rib_in.candidates(target())
        ],
        ["N1", "N2"],
    ),
    "neighbors_announcing": (
        lambda rib_in, rib_out: rib_in.neighbors_announcing(target()),
        ("N1", "N2"),
    ),
    "route_from": (
        lambda rib_in, rib_out: rib_in.route_from(
            CountedName("N1"), target()
        ).neighbor,
        "N1",
    ),
    "drop_neighbor": (
        lambda rib_in, rib_out: rib_in.drop_neighbor(CountedName("N2")),
        [target()],
    ),
    "prefixes_to": (
        lambda rib_in, rib_out: rib_out.prefixes_to(CountedName("N1")),
        (target(),),
    ),
}


class TestNoQueryScansTheTable:
    def comparisons(self, others, query):
        """Key comparisons ``query`` makes on RIBs where N1 and N2
        announce (and are sent) the target prefix only, beside
        ``others`` prefixes from (and to) four other neighbors."""
        rib_in, rib_out = AdjRIBIn(), AdjRIBOut()
        for index in range(others):
            name = CountedName(f"M{index % 4}")
            rib_in.insert(name, route(counted_prefix(index), name))
            rib_out.record(name, route(counted_prefix(index), name))
        for text in ("N1", "N2"):
            name = CountedName(text)
            rib_in.insert(name, route(target(), name))
            rib_out.record(name, route(target(), name))
        Counted.comparisons = 0
        found = query(rib_in, rib_out)
        return Counted.comparisons, found

    @pytest.mark.parametrize("name", sorted(NO_SCAN_QUERIES))
    def test_cost_does_not_grow_with_the_table(self, name):
        query, expected = NO_SCAN_QUERIES[name]
        small, found = self.comparisons(1000, query)
        assert found == expected
        large, found = self.comparisons(2000, query)
        assert found == expected
        # the pair-keyed RIBs made >= 1,000 and >= 2,000 (route_from aside)
        assert 1 <= large <= small < 1000
