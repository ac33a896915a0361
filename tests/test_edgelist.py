"""Edge-list parsing, canonical formatting, and exact round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconnseq import (
    EdgeListParseError,
    SimpleGraph,
    TooLarge,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)

import bruteforce

# Labels that int() would take but the grammar does not: any Unicode
# decimal digit, and "_" separators.
loose_labels = st.text(
    st.one_of(st.characters(categories=["Nd"]), st.sampled_from("0123456789_")),
    min_size=1,
    max_size=3,
)
# Lines in the grammar, with labels that often repeat and often pass a
# declared count.
_GRAMMAR_LINES = st.one_of(
    st.builds("{} {}".format, st.integers(0, 12), st.integers(0, 12)),
    st.builds("# n={}".format, st.integers(0, 14)),
)
# The same at and past MAX_VERTICES, up to a label too large for a row
# of bits.
_CAP_NUMBERS = st.sampled_from([9_999, 10_000, 10_001, 10**12])
_CAP_LINES = st.one_of(
    st.builds("{} {}".format, st.integers(0, 12), _CAP_NUMBERS),
    st.builds("{} {}".format, _CAP_NUMBERS, _CAP_NUMBERS),
    st.builds("# n={}".format, _CAP_NUMBERS),
)
# Lines that are often close to the grammar, so fuzzing reaches the
# header, label, duplicate and cap checks and not only the line pattern.
_NEAR_LINES = st.one_of(
    _GRAMMAR_LINES,
    _CAP_LINES,
    st.builds("{} {}".format, loose_labels, loose_labels),
    st.builds("# n={}".format, loose_labels),
    st.sampled_from(["", "   ", "# note", "0  1", "0\t1", "1 x", "1 2 3", "-1 2"]),
    st.text(max_size=12),
)
near_edge_lists = st.lists(_NEAR_LINES, max_size=12).map("\n".join)
fuzz_text = st.one_of(st.text(max_size=200), near_edge_lists)
grammar_edge_lists = st.one_of(
    st.lists(_GRAMMAR_LINES, max_size=12).map("\n".join),
    st.lists(st.one_of(_GRAMMAR_LINES, _CAP_LINES), max_size=12).map("\n".join),
)


def outcome(parse, text):
    """The graph's rows, or the error's type, message and line."""
    try:
        g = parse(text)
    except (EdgeListParseError, TooLarge) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return g.n, g._adj


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = bruteforce.all_pairs(n)
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, [e for e, keep in zip(pairs, picks) if keep])


class TestParse:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g == SimpleGraph(3, [(0, 1), (1, 2)])

    def test_vertex_count_inferred_from_labels(self):
        assert parse_edge_list("0 5\n").n == 6

    def test_header_preserves_isolated_vertices(self):
        g = parse_edge_list("# n=4\n0 1\n")
        assert g.n == 4
        assert g.degree(3) == 0

    def test_comments_and_blank_lines_ignored(self):
        g = parse_edge_list("# a comment\n\n0 1\n  \n# another\n2 1\n")
        assert g.edge_count == 2

    def test_second_header_is_an_error(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("# n=3\n0 1\n# n=4\n")
        assert exc.value.line_number == 3

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\n3 3\n")
        assert exc.value.line_number == 2
        assert "self-loop" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_duplicate_edge_either_orientation(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\n1 0\n")
        assert exc.value.line_number == 2

    def test_malformed_lines(self):
        for bad in ["0  1", "0\t1", "0 1 2", "a b", "0 -1", "zero one"]:
            with pytest.raises(EdgeListParseError):
                parse_edge_list(bad + "\n")

    def test_label_beyond_declared_count(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("# n=3\n0 1\n1 5\n")
        assert exc.value.line_number == 3

    def test_header_position_does_not_matter(self):
        assert parse_edge_list("0 1\n# n=5\n").n == 5

    @pytest.mark.parametrize(
        "text", ["0 " + "9" * 5000, "# n=" + "9" * 5000], ids=["label", "header"]
    )
    def test_number_too_long_for_int(self, text):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\n" + text + "\n")
        assert str(exc.value) == "number too long at line 2"

    @pytest.mark.parametrize("text", ["٣ ٤", "1_0 2", "0 1\n٠ 2"])
    def test_labels_are_ascii_digits(self, text):
        with pytest.raises(EdgeListParseError):
            parse_edge_list(text + "\n")

    def test_non_ascii_header_is_a_comment(self):
        assert parse_edge_list("# n=٣\n0 1\n") == SimpleGraph(2, [(0, 1)])

    @given(grammar_edge_lists)
    @settings(max_examples=100, deadline=None)
    def test_same_graph_or_first_error_as_the_two_pass_reference(self, text):
        want = outcome(bruteforce.parse_edge_list, text)
        assert outcome(parse_edge_list, text) == want

    @pytest.mark.parametrize(
        "text, error",
        [
            ("0 10000\n1 2\n0 10000\n", "duplicate edge 0 10000 at line 3"),
            (
                "0 1000000000000\n1000000000000 0\n",
                "duplicate edge 1000000000000 0 at line 2",
            ),
            ("0 10000\n5 5\n", "self-loop 5 5 at line 2"),
            (
                "0 10000\n# n=10000\n",
                "vertex label 10000 exceeds declared n=10000 at line 1",
            ),
            ("0 3\n0 10000\n1 2\n", "vertex count 10001 exceeds the cap of 10000"),
            ("# n=10001\n0 1\n", "vertex count 10001 exceeds the cap of 10000"),
            ("0 1\n0 4\n0 9\n# n=4\n", "vertex label 4 exceeds declared n=4 at line 2"),
        ],
    )
    def test_errors_past_the_cap_and_after_the_pass(self, text, error):
        with pytest.raises((EdgeListParseError, TooLarge)) as exc:
            parse_edge_list(text)
        assert str(exc.value) == error

    @given(fuzz_text)
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_text_parses_or_raises_a_parse_error(self, text):
        want = outcome(bruteforce.parse_edge_list, text)
        assert outcome(parse_edge_list, text) == want
        try:
            g = parse_edge_list(text)
        except (EdgeListParseError, TooLarge):
            return
        assert parse_edge_list(format_edge_list(g)) == g
        for line in map(str.strip, text.splitlines()):
            if not line.startswith("#"):
                assert set(line) <= set("0123456789 ")


class TestFormat:
    def test_canonical_shape(self):
        g = SimpleGraph(4, [(2, 3), (1, 0)])
        assert format_edge_list(g) == "# n=4\n0 1\n2 3\n"

    def test_header_always_present(self):
        assert format_edge_list(SimpleGraph(2, [])) == "# n=2\n"

    @given(graphs())
    @settings(max_examples=80)
    def test_round_trip_exact(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    @given(graphs(max_n=14))
    @settings(max_examples=80)
    def test_rows_match_one_line_per_sorted_edge(self, g):
        lines = [f"# n={g.n}"]
        lines.extend(f"{a} {b}" for a, b in sorted(g.edges()))
        text = format_edge_list(g)
        assert text == "\n".join(lines) + "\n"
        assert parse_edge_list(text) == g

    @given(graphs())
    @settings(max_examples=40)
    def test_format_is_idempotent(self, g):
        text = format_edge_list(g)
        assert format_edge_list(parse_edge_list(text)) == text


class TestFiles:
    def test_write_then_read(self, tmp_path):
        g = SimpleGraph(5, [(0, 4), (1, 2)])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_edge_list(tmp_path / "absent.edges")
