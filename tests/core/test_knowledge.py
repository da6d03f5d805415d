"""Tests for the LocalMap route store."""

from __future__ import annotations

import pytest

from repro.core.knowledge import LocalMap
from repro.errors import ProtocolError


class TestLocalMap:
    def test_home_route_is_empty(self):
        lm = LocalMap(5)
        assert lm.route(5) == ()
        assert lm.route_length(5) == 0
        assert 5 in lm

    def test_direct_route(self):
        lm = LocalMap(0)
        lm.add_direct(3)
        assert lm.route(3) == (3,)
        assert lm.route_length(3) == 1

    def test_neighbors_given_at_construction_match_add_direct(self):
        given = LocalMap(0, iter([3, 0, 7]))  # any iterable; home stays home
        added = LocalMap(0)
        for u in (3, 0, 7):
            added.add_direct(u)
        assert given.known_vertices() == added.known_vertices() == {0, 3, 7}
        for v in (0, 3, 7):
            assert given.route(v) == added.route(v)

    def test_via_route(self):
        lm = LocalMap(0)
        lm.add_direct(1)
        lm.add_via(1, 9)
        assert lm.route(9) == (1, 9)
        assert lm.route_length(9) == 2

    def test_shorter_route_kept(self):
        lm = LocalMap(0)
        lm.add_direct(1)
        lm.add_via(1, 2)
        assert lm.route(2) == (1, 2)
        lm.add_direct(2)  # direct edge discovered later
        assert lm.route(2) == (2,)

    def test_longer_route_ignored(self):
        lm = LocalMap(0)
        lm.add_direct(2)
        lm.add_direct(1)
        lm.add_via(1, 2)
        assert lm.route(2) == (2,)

    def test_add_direct_home_noop(self):
        lm = LocalMap(0)
        lm.add_direct(0)
        assert lm.route(0) == ()

    def test_via_unknown_vertex_raises(self):
        lm = LocalMap(0)
        with pytest.raises(ProtocolError):
            lm.add_via(7, 8)

    def test_unknown_route_raises(self):
        lm = LocalMap(0)
        with pytest.raises(ProtocolError):
            lm.route(42)

    def test_known_vertices(self):
        lm = LocalMap(0)
        lm.add_direct(1)
        lm.add_via(1, 2)
        assert lm.known_vertices() == frozenset({0, 1, 2})
        assert len(lm) == 3
