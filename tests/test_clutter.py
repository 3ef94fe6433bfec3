"""Clutter parsing, validation and uniformity."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriccode import ClutterError, load_clutter, parse_clutter, uniformity


class TestParse:
    def test_dict_form(self):
        C = parse_clutter({"n": 3, "edges": [[3, 2], [1, 2]]})
        assert C.n == 3
        # edge order preserved (it fixes t1..ts), vertices sorted within an edge
        assert C.edges == ((2, 3), (1, 2))
        assert C.s == 2

    def test_text_form_infers_n(self):
        C = parse_clutter("1 2\n# a comment\n2 3\n\n3 4\n")
        assert C.n == 4
        assert C.edges == ((1, 2), (2, 3), (3, 4))

    def test_singleton_edge_allowed(self):
        C = parse_clutter({"n": 2, "edges": [[1], [2]]})
        assert C.edges == ((1,), (2,))

    def test_one_edge_rejected(self):
        # s >= 2 so that the ambient projective space exists
        with pytest.raises(ClutterError):
            parse_clutter({"n": 2, "edges": [[1, 2]]})

    def test_out_of_range_vertex(self):
        with pytest.raises(ClutterError):
            parse_clutter({"n": 2, "edges": [[1, 2], [2, 3]]})
        with pytest.raises(ClutterError):
            parse_clutter({"n": 2, "edges": [[0, 1], [1, 2]]})

    def test_duplicate_edge(self):
        with pytest.raises(ClutterError):
            parse_clutter({"n": 3, "edges": [[1, 2], [2, 1], [2, 3]]})

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(ClutterError):
            parse_clutter({"n": 3, "edges": [[1, 1], [2, 3]]})

    def test_containment_violates_clutter_property(self):
        with pytest.raises(ClutterError):
            parse_clutter({"n": 3, "edges": [[1, 2], [1, 2, 3]]})

    @pytest.mark.parametrize(
        "edges,message",
        [
            # a containment at (0, 1) comes before the duplicate at (0, 2)
            ([[1, 2], [1, 2, 3], [2, 1]], "edge (1, 2) is contained in (1, 2, 3) (not a clutter)"),
            ([[1, 2], [2, 1], [1, 2, 3]], "duplicate edge (1, 2)"),
            ([[1, 2, 3], [1, 2], [1, 2]], "edge (1, 2) is contained in (1, 2, 3) (not a clutter)"),
            # the first edge at fault decides, not the kind of fault
            ([[2, 3], [1, 4], [1, 4, 5], [3, 2]], "duplicate edge (2, 3)"),
            ([[1, 4], [2, 3], [3, 2], [1, 4, 5]], "edge (1, 4) is contained in (1, 4, 5) (not a clutter)"),
        ],
    )
    def test_first_fault_reported(self, edges, message):
        with pytest.raises(ClutterError) as exc:
            parse_clutter({"n": 5, "edges": edges})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 2\n2 3\n2 1\n", "duplicate edge (1, 2)"),
            ("2 3\n1 2 3\n", "edge (2, 3) is contained in (1, 2, 3) (not a clutter)"),
            ("1 2 3\n# a comment\n3 1\n1 3\n", "edge (1, 3) is contained in (1, 2, 3) (not a clutter)"),
        ],
    )
    def test_first_fault_reported_text_form(self, text, message):
        with pytest.raises(ClutterError) as exc:
            parse_clutter(text)
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
            min_size=2,
            max_size=7,
        )
    )
    def test_fault_matches_pair_scan(self, edges):
        # the first ordered pair (i, j) with e_i = e_j or e_i < e_j, scanned
        # row-major, names the error
        sets = [set(e) for e in edges]
        expect = None
        for i, j in ((i, j) for i in range(len(sets)) for j in range(len(sets)) if i != j):
            if sets[i] == sets[j]:
                expect = f"duplicate edge {tuple(sorted(edges[i]))}"
            elif sets[i] < sets[j]:
                expect = (
                    f"edge {tuple(sorted(edges[i]))} is contained in "
                    f"{tuple(sorted(edges[j]))} (not a clutter)"
                )
            if expect:
                break
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse_clutter({"n": 5, "edges": edges})
        except ClutterError as exc:
            assert str(exc) == expect
        else:
            assert expect is None

    def test_isolated_vertex_warns(self):
        with pytest.warns(UserWarning):
            parse_clutter({"n": 4, "edges": [[1, 2], [2, 3]]})

    def test_isolated_vertex_warning_is_short(self):
        # n = 20000 with two edges once listed all 19998 isolated vertices
        with pytest.warns(UserWarning) as caught:
            parse_clutter({"n": 20000, "edges": [[1], [2]]})
        (warning,) = caught
        assert str(warning.message) == (
            "isolated vertices (in no edge): [3, 4, 5, 6, 7, 8, 9, 10] and 19990 more"
        )
        with pytest.warns(UserWarning, match=r"edge\): \[4\]$"):
            parse_clutter({"n": 4, "edges": [[1, 2], [2, 3]]})

    def test_missing_keys(self):
        with pytest.raises(ClutterError):
            parse_clutter({"edges": [[1, 2], [2, 3]]})
        with pytest.raises(ClutterError):
            parse_clutter({"n": 3})

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3.9, "edges": [[1, 2.7], [2, 3], [1, 3.2]]},
            {"n": 3.0, "edges": [[1, 2], [2, 3], [1, 3]]},
            {"n": 3, "edges": [[1, 2.0], [2, 3], [1, 3]]},
            {"n": "3", "edges": [[1, 2], [2, 3], [1, 3]]},
            {"n": 3, "edges": [[1, "2"], [2, 3], [1, 3]]},
            {"n": True, "edges": [[1], [2]]},
            {"n": 3, "edges": [[True, 2], [2, 3], [1, 3]]},
            {"n": 3, "edges": "123"},
            {"n": 3, "edges": [[1, 2], "23", [1, 3]]},
            {"n": 3, "edges": [(1, 2), (2, 3), (1, 3)]},
            {"n": 3, "edges": [[1, 2], 3]},
            {"n": None, "edges": [[1, 2], [2, 3]]},
        ],
    )
    def test_non_integer_values_rejected(self, doc):
        # nothing is truncated or converted: a float, a string or a bool
        # where an integer belongs, or a non-list where a list belongs
        with pytest.raises(ClutterError):
            parse_clutter(doc)

    def test_numpy_integers_accepted(self):
        C = parse_clutter({"n": np.int64(3), "edges": [[np.int32(1), 2], [2, np.uint8(3)]]})
        assert C == parse_clutter({"n": 3, "edges": [[1, 2], [2, 3]]})
        assert type(C.n) is int and all(type(i) is int for e in C.edges for i in e)

    def test_vectors_property(self):
        C = parse_clutter({"n": 3, "edges": [[1, 2], [2, 3]]})
        assert C.vectors == ((1, 1, 0), (0, 1, 1))


class TestLoad:
    def test_load_json(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
        assert load_clutter(str(f)).s == 3

    def test_load_text(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("1 2\n2 3\n")
        assert load_clutter(str(f)).edges == ((1, 2), (2, 3))

    def test_load_bad_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{oops")
        with pytest.raises(ClutterError):
            load_clutter(str(f))


class TestUniformity:
    def test_uniformity(self, battery):
        uni, size = uniformity(battery["K4"])
        assert uni and size == 2
        # edges {1,2} and {3}: valid clutter, not uniform
        mixed = parse_clutter({"n": 3, "edges": [[1, 2], [3]]})
        assert uniformity(mixed) == (False, None)


class TestImmutability:
    def test_frozen(self, triangle):
        with pytest.raises(Exception):
            triangle.n = 5

    def test_equality(self):
        a = parse_clutter({"n": 3, "edges": [[1, 2], [2, 3]]})
        b = parse_clutter("1 2\n2 3\n")
        assert a == b
