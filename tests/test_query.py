import dataclasses
import random

import pytest

from komohe import queries
from komohe.dataset import Dataset
from komohe.errors import InvalidMappingError, KomoheError, QueryParseError
from komohe.queries import (
    MAX_QUERY_DEPTH,
    MAX_QUERY_LEAVES,
    And,
    ExpansionConfig,
    Leaf,
    Not,
    Or,
    expand_query,
    leaf,
    parse_query,
    render_query,
)
from komohe.registry import normalize_term
from komohe.store import RelationType, RelevanceRating


class TestParsing:
    def test_single_term(self):
        assert parse_query("hacker") == leaf("hacker")

    def test_case_and_whitespace_normalized(self):
        assert parse_query("  HACKER ") == leaf("hacker")

    def test_phrase(self):
        assert parse_query('"isdn device"') == leaf("isdn device")

    def test_explicit_and_or(self):
        assert parse_query("a AND b") == And((leaf("a"), leaf("b")))
        assert parse_query("a or b") == Or((leaf("a"), leaf("b")))

    def test_implicit_and(self):
        assert parse_query("information retrieval") == And(
            (leaf("information"), leaf("retrieval"))
        )
        assert parse_query('a "b c" d') == And((leaf("a"), leaf("b c"), leaf("d")))

    def test_precedence_not_over_and_over_or(self):
        got = parse_query("a OR b AND NOT c")
        assert got == Or((leaf("a"), And((leaf("b"), Not(leaf("c"))))))

    def test_parens_override(self):
        got = parse_query("(a OR b) AND c")
        assert got == And((Or((leaf("a"), leaf("b"))), leaf("c")))

    def test_nary_flattening_of_chains(self):
        assert parse_query("a AND b AND c") == And((leaf("a"), leaf("b"), leaf("c")))
        assert parse_query("a OR b OR c") == Or((leaf("a"), leaf("b"), leaf("c")))

    def test_double_negation_nests(self):
        assert parse_query("NOT NOT a") == Not(Not(leaf("a")))

    def test_keyword_as_phrase_is_a_term(self):
        assert parse_query('"and"') == leaf("and")
        assert parse_query('a AND "or"') == And((leaf("a"), leaf("or")))

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "AND", "a AND", "(a", "a)", '"unterminated', '""', "NOT", "a OR )"],
    )
    def test_errors(self, bad):
        with pytest.raises(QueryParseError):
            parse_query(bad)

    def test_error_position(self):
        with pytest.raises(QueryParseError) as exc:
            parse_query('hacker AND "')
        assert exc.value.position == 11

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "empty query", 0),
            ("   ", "empty query", 0),
            ('"x', "unterminated quote", 0),
            ('"a""b', "unterminated quote", 3),
            ('a ""', "empty phrase", 2),
            ('a " "', "empty phrase", 2),
            ("a AND", "unexpected end of input", 5),
            ("x AND  ", "unexpected end of input", 7),
            ("a OR", "unexpected end of input", 4),
            ("NOT", "unexpected end of input", 3),
            ("a NOT", "unexpected end of input", 5),
            ("a (", "unexpected end of input", 3),
            ("(a", "unbalanced parenthesis", 2),
            ("(a b", "unbalanced parenthesis", 4),
            ("a)", "unexpected ')'", 1),
            ("()", "unexpected ')'", 1),
            ("(NOT)", "unexpected ')'", 4),
            ("(a OR b) c)", "unexpected ')'", 10),
            ("a OR )", "unexpected ')'", 5),
            ("AND", "unexpected 'AND'", 0),
            ("or a", "unexpected 'or'", 0),
            ("a AND OR b", "unexpected 'OR'", 6),
            ("(" * 101 + "a", f"query nested deeper than {MAX_QUERY_DEPTH} levels", 100),
            ("t " * 257, f"query has more than {MAX_QUERY_LEAVES} terms", 512),
        ],
    )
    def test_each_error_names_its_position(self, text, message, position):
        # the position is what the service's 400 answer carries
        with pytest.raises(QueryParseError) as exc:
            parse_query(text)
        assert (str(exc.value), exc.value.position) == (f"{message} (at position {position})", position)


class TestRendering:
    def test_leaf_always_quoted(self):
        assert render_query(leaf("hacker")) == '"hacker"'
        assert render_query(leaf("isdn device")) == '"isdn device"'

    def test_composites_parenthesized(self):
        ast = And((Or((leaf("a"), leaf("b"))), Not(leaf("c"))))
        assert render_query(ast) == '(("a" OR "b") AND (NOT "c"))'

    def test_canonical_is_stable(self):
        text = '(("hacker" OR "hacking") AND "security")'
        assert render_query(parse_query(text)) == text


# random AST generation ------------------------------------------------

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "isdn device", "x 1"]


def random_ast(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.35:
        return leaf(rng.choice(WORDS))
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(random_ast(rng, depth - 1))
    children = tuple(random_ast(rng, depth - 1) for _ in range(rng.randint(2, 4)))
    return And(children) if kind == "and" else Or(children)


def test_parse_render_identity_random():
    rng = random.Random(7)
    for _ in range(300):
        ast = random_ast(rng, rng.randint(1, 6))
        rendered = render_query(ast)
        assert parse_query(rendered) == ast, rendered


class TestAstValidation:
    def test_composite_arity(self):
        with pytest.raises(ValueError):
            And((leaf("a"),))
        with pytest.raises(ValueError):
            Or(())

    def test_leaf_text_must_be_normalized(self):
        with pytest.raises(ValueError):
            Leaf("Hacker")
        leaf("Hacker")  # the helper normalizes

    def test_leaf_text_holds_no_quote(self):
        # render_query would quote it into a phrase that cannot parse back
        with pytest.raises(ValueError):
            Leaf('say "hi"')


class TestExpansion:
    def default(self, **kw):
        return ExpansionConfig(**kw)

    def test_leaf_becomes_or_group(self, sixrow):
        ast = parse_query("hacker")
        expanded, trace = expand_query(ast, sixrow.store, self.default())
        assert expanded == Or((leaf("hacker"), leaf("hacking")))
        assert len(trace) == 1
        assert trace[0].original == "hacker"
        added, = trace[0].additions
        assert added.term == "hacking"
        assert added.relation is RelationType.EQ
        assert added.rating is RelevanceRating.HIGH
        assert added.source_vocab == "A" and added.target_vocab == "B"

    def test_added_leaves_are_not_normalized_again(self, sixrow, monkeypatch):
        ast = parse_query("hacker")
        combinations = [And((leaf("computers"), leaf("crime"))), And((leaf("internet"), leaf("security")))]
        expected = Or((ast, leaf("hacking"), *combinations))
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_term(raw)

        monkeypatch.setattr(queries, "normalize_term", counting)
        config = self.default(relations=frozenset({RelationType.EQ, RelationType.ASSOC}))
        expanded, _ = expand_query(ast, sixrow.store, config)
        assert expanded == expected
        assert seen == []

    def test_leaf_of_key_equals_the_checked_leaf(self):
        # of_key sets each field by name: a new field must be added there too
        assert [f.name for f in dataclasses.fields(Leaf)] == ["text"]
        assert Leaf.of_key("internet security") == Leaf("internet security")

    def test_leaf_without_mappings_untouched(self, sixrow):
        ast = parse_query("security")
        expanded, trace = expand_query(ast, sixrow.store, self.default())
        assert expanded == ast
        assert trace == []

    def test_structure_preserved(self, sixrow):
        ast = parse_query("hacker AND security")
        expanded, _ = expand_query(ast, sixrow.store, self.default())
        assert isinstance(expanded, And)
        assert len(expanded.children) == 2
        assert expanded.children[1] == leaf("security")

    def test_combination_targets_become_and_groups(self, sixrow):
        config = self.default(relations=frozenset({RelationType.EQ, RelationType.ASSOC}))
        expanded, _ = expand_query(parse_query("hacker"), sixrow.store, config)
        assert expanded == Or(
            (
                leaf("hacker"),
                leaf("hacking"),
                And((leaf("computers"), leaf("crime"))),
                And((leaf("internet"), leaf("security"))),
            )
        )

    def test_self_mapping_not_duplicated(self):
        from conftest import build_dataset

        data = build_dataset("#komohe-tsv v1\na\tx\t=\tb\tx\thigh\na\tx\t=\tb\ty\tlow\n")
        expanded, trace = expand_query(parse_query("x"), data.store, self.default())
        assert expanded == Or((leaf("x"), leaf("y")))
        assert len(trace[0].additions) == 1

    def test_not_subtrees_skipped_by_default(self, sixrow):
        ast = parse_query("security AND NOT hacker")
        expanded, trace = expand_query(ast, sixrow.store, self.default())
        assert expanded == ast
        assert trace == []

    def test_target_vocab_filter(self, sixrow):
        config = self.default(target_vocabs=frozenset({"nope"}))
        expanded, trace = expand_query(parse_query("hacker"), sixrow.store, config)
        assert expanded == leaf("hacker")
        assert trace == []

    def test_max_terms_cap(self, bilingual):
        config = self.default(max_terms_per_leaf=1)
        expanded, trace = expand_query(parse_query("soziologie"), bilingual.store, config)
        # two crosswalks offer sociology and social sciences; cap keeps one
        assert expanded == Or((leaf("soziologie"), leaf("sociology")))
        assert len(trace[0].additions) == 1

    def test_cross_crosswalk_dedup(self, bilingual):
        expanded, trace = expand_query(
            parse_query("soziologie"), bilingual.store, self.default()
        )
        # sociology appears in both crosswalks but is added once
        assert expanded == Or(
            (leaf("soziologie"), leaf("sociology"), leaf("social sciences"))
        )

    def test_expanded_query_parses_back_when_a_mapped_term_holds_a_quote(self):
        from conftest import build_dataset

        data = build_dataset(
            '#komohe-tsv v1\na\tx\t=\tb\tsay "hi"\thigh\na\tx\t=\tb\ty\tlow\n'
            'a\tx\t^\tb\tz + "q"\tlow\na\tx\t^\tb\tz + w\tlow\n'
        )
        config = self.default(relations=frozenset({RelationType.EQ, RelationType.ASSOC}))
        expanded, trace = expand_query(parse_query("x OR NOT x"), data.store, config)
        assert parse_query(render_query(expanded)) == expanded
        # the concepts with a quoted member are left out, like seen targets
        group = Or((leaf("x"), leaf("y"), And((leaf("z"), leaf("w")))))
        assert expanded == Or((group, Not(leaf("x"))))
        assert [a.term for a in trace[0].additions] == ["y", "z + w"]

    def test_null_relation_rejected_in_config(self):
        with pytest.raises(InvalidMappingError):
            ExpansionConfig(relations=frozenset({RelationType.NULL}))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected_in_config(self, cap):
        # a domain error, so the service answers 400 and the CLI exits 1 without re-wrapping it
        with pytest.raises(KomoheError, match="^max_terms_per_leaf must be positive$"):
            ExpansionConfig(max_terms_per_leaf=cap)

    def test_monotone_in_relations_when_uncapped(self, sixrow):
        base = frozenset({RelationType.EQ})
        wider = frozenset(
            {RelationType.EQ, RelationType.ASSOC, RelationType.BROADER_TARGET}
        )
        for query in ("hacker", "isdn OR hacker", "hacker AND isdn"):
            ast = parse_query(query)
            _, small = expand_query(
                ast, sixrow.store, self.default(relations=base, max_terms_per_leaf=10_000)
            )
            _, large = expand_query(
                ast, sixrow.store, self.default(relations=wider, max_terms_per_leaf=10_000)
            )

            def added_terms(trace):
                return {
                    (e.original, a.term) for e in trace for a in e.additions
                }

            assert added_terms(small) <= added_terms(large)


class TestExpansionCache:
    def test_a_row_added_after_an_expansion_is_seen(self, sixrow):
        ast = parse_query("hacker OR isdn")
        before, _ = expand_query(ast, sixrow.store)
        assert sixrow.store.expansions  # "hacker" gained a term
        sixrow.store.add_row("A", "isdn", RelationType.EQ, "B", ["isdn net"], RelevanceRating.LOW)
        assert not sixrow.store.expansions
        after, trace = expand_query(ast, sixrow.store)
        assert after != before
        assert [entry.original for entry in trace] == ["hacker", "isdn"]

    def test_the_cache_never_outgrows_its_cap(self, monkeypatch):
        monkeypatch.setattr(queries, "MAX_CACHED_LEAVES", 3)
        store = Dataset.empty().store
        for i in range(8):
            store.add_row("A", f"t{i}", RelationType.EQ, "B", [f"u{i}"], RelevanceRating.HIGH)
        sizes = []

        class Recorded(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                sizes.append(len(self))

        store.expansions = Recorded()
        ast = parse_query(" OR ".join(f"t{i % 8}" for i in range(20)))
        expanded, trace = expand_query(ast, store)
        assert max(sizes) == 3 and len(sizes) == 20  # eight leaves in turn overrun three places
        assert len(trace) == 20
        assert expanded == Or(tuple(Or((leaf(f"t{i % 8}"), leaf(f"u{i % 8}"))) for i in range(20)))

    def test_an_unknown_target_vocabulary_still_adds_nothing(self, sixrow):
        # the key keeps only registered ids, and an empty set is not "every vocabulary"
        ast = parse_query("hacker")
        for vocabs, added in ((None, 1), (frozenset(), 1), (frozenset({"Z"}), 0), (frozenset({"B", "Z"}), 1)):
            _, trace = expand_query(ast, sixrow.store, ExpansionConfig(target_vocabs=vocabs))
            assert sum(len(entry.additions) for entry in trace) == added, vocabs

    def test_a_combination_is_kept_apart_from_the_leaf_at_the_cap(self, sixrow):
        # the same leaf, above and at the depth where its combinations no longer fit
        config = ExpansionConfig(relations=frozenset({RelationType.EQ, RelationType.ASSOC}))
        for depth, added in ((0, 3), (MAX_QUERY_DEPTH - 1, 1), (0, 3), (MAX_QUERY_DEPTH, 0)):
            _, trace = expand_query(nested_and_or(depth, "hacker"), sixrow.store, config)
            assert sum(len(entry.additions) for entry in trace) == added, depth


def nested_not(depth):
    node = leaf("a")
    for _ in range(depth):
        node = Not(node)
    return node


def nested_and_or(depth, inner="a"):
    node = leaf(inner)
    for i in range(depth):
        node = (And if i % 2 else Or)((node, leaf(f"b{i}")))
    return node


class TestNestingCap:
    @pytest.mark.parametrize("build", [nested_not, nested_and_or])
    def test_round_trip_at_the_cap(self, build):
        ast = build(MAX_QUERY_DEPTH)
        assert parse_query(render_query(ast)) == ast
        with pytest.raises(QueryParseError):
            parse_query(render_query(build(MAX_QUERY_DEPTH + 1)))

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(" * 400 + "a" + ")" * 400, MAX_QUERY_DEPTH),
            ("NOT " * 3000 + "a", 4 * MAX_QUERY_DEPTH),
        ],
    )
    def test_too_deep_is_a_parse_error(self, text, position):
        with pytest.raises(QueryParseError) as exc:
            parse_query(text)
        assert exc.value.position == position

    @pytest.mark.parametrize("levels, parses_back", [(50, True), (51, False), (60, False)])
    def test_rendering_nests_up_to_twice_as_deep_as_its_text(self, levels, parses_back):
        # each parenthesis renders as an OR group holding an AND group
        text = "(x OR y AND " * levels + "z" + ")" * levels
        ast = parse_query(text)
        if parses_back:
            assert parse_query(render_query(ast)) == ast
        else:
            with pytest.raises(QueryParseError):
                parse_query(render_query(ast))

    def test_expand_and_render_at_the_cap(self, sixrow):
        ast = nested_and_or(MAX_QUERY_DEPTH - 1, "hacker")
        expanded, trace = expand_query(ast, sixrow.store, ExpansionConfig())
        assert len(trace) == 1
        head = "(" * (MAX_QUERY_DEPTH - 1) + '("hacker" OR "hacking")'
        assert render_query(expanded).startswith(head)
        assert parse_query(render_query(expanded)) == expanded

    @pytest.mark.parametrize("symbols", ["=", "=^"])
    @pytest.mark.parametrize("depth", [MAX_QUERY_DEPTH - 2, MAX_QUERY_DEPTH - 1, MAX_QUERY_DEPTH])
    def test_expansion_below_the_cap_parses_back(self, sixrow, depth, symbols):
        # the OR group nests one level below the leaf's junctions, a combination's AND two
        relations = frozenset(RelationType.parse(symbol) for symbol in symbols)
        expanded, trace = expand_query(
            nested_and_or(depth, "hacker"), sixrow.store, ExpansionConfig(relations=relations)
        )
        assert parse_query(render_query(expanded)) == expanded
        combinations = ["computers + crime", "internet + security"] if symbols == "=^" else []
        expected = {
            MAX_QUERY_DEPTH - 2: ["hacking", *combinations],
            MAX_QUERY_DEPTH - 1: ["hacking"],
            MAX_QUERY_DEPTH: [],
        }[depth]
        assert [a.term for entry in trace for a in entry.additions] == expected


class TestLeafCap:
    def test_twenty_leaves_parse(self):
        # the largest query the benchmark sends
        text = " OR ".join(f'"term {i:05d}"' for i in range(20))
        assert len(parse_query(text).children) == 20

    @pytest.mark.parametrize("join", [" ", " OR ", ") AND ("])
    def test_cap(self, join):
        def text(count):
            return "(" + join.join(f"t{i:03d}" for i in range(count)) + ")"

        parse_query(text(MAX_QUERY_LEAVES))
        with pytest.raises(QueryParseError) as exc:
            parse_query(text(MAX_QUERY_LEAVES + 1))
        assert exc.value.position == 1 + MAX_QUERY_LEAVES * (4 + len(join))
