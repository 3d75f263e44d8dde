import random

import pytest

from komohe.errors import InvalidMappingError, QueryParseError
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

    def test_not_subtrees_expanded_on_request(self, sixrow):
        ast = parse_query("NOT hacker")
        config = self.default(expand_under_not=True)
        expanded, _ = expand_query(ast, sixrow.store, config)
        assert expanded == Not(Or((leaf("hacker"), leaf("hacking"))))

    def test_min_rating_filter(self, sixrow):
        config = self.default(
            relations=frozenset({RelationType.EQ, RelationType.ASSOC}),
            min_rating=RelevanceRating.HIGH,
        )
        expanded, _ = expand_query(parse_query("hacker"), sixrow.store, config)
        assert expanded == Or((leaf("hacker"), leaf("hacking")))

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

    def test_null_relation_rejected_in_config(self):
        with pytest.raises(InvalidMappingError):
            ExpansionConfig(relations=frozenset({RelationType.NULL}))

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


def nested_not(depth):
    node = leaf("a")
    for _ in range(depth):
        node = Not(node)
    return node


def nested_and_or(depth):
    node = leaf("a")
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

    def test_expand_and_render_at_the_cap(self, sixrow):
        ast = parse_query("NOT " * (MAX_QUERY_DEPTH - 1) + "hacker")
        expanded, trace = expand_query(ast, sixrow.store, ExpansionConfig(expand_under_not=True))
        assert len(trace) == 1
        tail = '("hacker" OR "hacking")' + ")" * (MAX_QUERY_DEPTH - 1)
        assert render_query(expanded).endswith(tail)


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
