"""Boolean query parsing, structure-preserving expansion, and rendering.

Grammar: case-insensitive AND / OR / NOT, parentheses, double-quoted
phrases, implicit AND between adjacent bare terms, precedence
NOT > AND > OR. A leaf is a single normalized text; multi-word leaves come
from quoted phrases and render back as phrases, so parse(render(ast))
reproduces the tree exactly.

Expansion rewrites each leaf into an OR group of the original term plus
its mapped equivalents; the surrounding AND/OR/NOT skeleton is untouched.
Combination targets become a parenthesized AND of their member terms
inside the OR group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import ClassVar, Union

from .errors import InvalidMappingError, InvalidTermError, QueryParseError
from .registry import normalize_term
from .store import CrosswalkStore, RelationType, RelevanceRating

Node = Union["Leaf", "And", "Or", "Not"]

# Deepest nesting parse_query admits, far below the interpreter's recursion
# limit. A level is a parenthesis, or a NOT that does not directly follow
# one: render_query writes every And, Or and Not node as one such level, so
# any tree at most this deep renders to text that parses back.
MAX_QUERY_DEPTH = 100

# Most terms parse_query admits. Expansion time and rendered size grow with
# the leaf count: a flat query that fits in one 64 KiB request line holds
# about 4,000 leaves, and on the benchmark's 100k-mapping network it renders
# to 0.86 MB once expanded. A searcher's query holds a handful of terms.
MAX_QUERY_LEAVES = 256


@dataclass(frozen=True)
class Leaf:
    """A term or quoted phrase; text is normalized, non-empty and holds no `"`."""

    text: str

    def __post_init__(self) -> None:
        if not self.text or self.text != normalize_term(self.text):
            raise ValueError(f"leaf text {self.text!r} is not normalized")
        if '"' in self.text:
            # render_query quotes every leaf, and no phrase can hold a quote
            raise ValueError(f"leaf text {self.text!r} holds a double quote")

    @classmethod
    def of_key(cls, key: str) -> "Leaf":
        """A leaf for a stored term key, which is normalized already, built without
        __post_init__'s checks; the caller leaves out a key holding `"`. It sets
        every field, so a field added to Leaf must be set here too."""
        node = object.__new__(cls)
        object.__setattr__(node, "text", key)
        return node


@dataclass(frozen=True)
class Junction:
    """An n-ary operator node. And and Or differ only in `op`; an And never equals an Or."""

    children: tuple[Node, ...]
    op: ClassVar[str]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError(f"{self.op} needs at least two children")


class And(Junction):
    op = "AND"


class Or(Junction):
    op = "OR"


@dataclass(frozen=True)
class Not:
    child: Node


def leaf(text: str) -> Leaf:
    """Build a leaf from raw text (normalizes first)."""
    return Leaf(normalize_term(text))


# ----------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {"and": "AND", "or": "OR", "not": "NOT"}
_PUNCT = {"(": "LPAREN", ")": "RPAREN"}
# a parenthesis, a quoted phrase whose closing quote may be missing, or a bare
# word; finditer skips only the whitespace between them
_TOKEN_RE = re.compile(r'([()])|"([^"]*)("?)|([^\s()"]+)')


@dataclass(frozen=True)
class _Token:
    kind: str  # LPAREN RPAREN AND OR NOT TEXT
    value: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        punct, phrase, closed, word = match.groups()
        start = match.start()
        if phrase is not None:
            if not closed:
                raise QueryParseError("unterminated quote", start)
            if not phrase.strip():
                raise QueryParseError("empty phrase", start)
            kind, value = "TEXT", phrase
        elif punct is not None:
            kind, value = _PUNCT[punct], punct
        else:
            kind, value = _KEYWORDS.get(word.lower(), "TEXT"), word
        tokens.append(_Token(kind, value, start))
    return tokens


# ----------------------------------------------------------------------
# Parser (recursive descent; OR < AND < NOT)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.leaves = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def descend(self, token: _Token, levels: int = 1) -> None:
        self.depth += levels
        if self.depth > MAX_QUERY_DEPTH:
            raise QueryParseError(
                f"query nested deeper than {MAX_QUERY_DEPTH} levels", token.position
            )

    def take(self) -> _Token:
        token = self.peek()
        if token is None:
            raise QueryParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return token

    def parse(self) -> Node:
        node = self.parse_or()
        trailing = self.peek()
        if trailing is not None:
            raise QueryParseError(
                f"unexpected {trailing.value!r}", trailing.position
            )
        return node

    def parse_or(self) -> Node:
        parts = [self.parse_and()]
        while (token := self.peek()) is not None and token.kind == "OR":
            self.take()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Node:
        parts = [self.parse_not()]
        while (token := self.peek()) is not None:
            if token.kind == "AND":
                self.take()
                parts.append(self.parse_not())
            elif token.kind in ("TEXT", "LPAREN", "NOT"):
                # implicit AND between adjacent operands
                parts.append(self.parse_not())
            else:
                break
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_not(self) -> Node:
        token = self.peek()
        if token is None or token.kind != "NOT":
            return self.parse_atom()
        # in "(NOT x)" the parenthesis already opened the level
        levels = int(self.pos == 0 or self.tokens[self.pos - 1].kind != "LPAREN")
        self.take()
        self.descend(token, levels)
        node = Not(self.parse_not())
        self.depth -= levels
        return node

    def parse_atom(self) -> Node:
        token = self.take()
        if token.kind == "LPAREN":
            self.descend(token)
            node = self.parse_or()
            closing = self.peek()
            if closing is None or closing.kind != "RPAREN":
                raise QueryParseError(
                    "unbalanced parenthesis",
                    closing.position if closing else len(self.text),
                )
            self.take()
            self.depth -= 1
            return node
        if token.kind == "TEXT":
            self.leaves += 1
            if self.leaves > MAX_QUERY_LEAVES:
                raise QueryParseError(
                    f"query has more than {MAX_QUERY_LEAVES} terms", token.position
                )
            try:
                return leaf(token.value)
            except InvalidTermError:
                raise QueryParseError("empty term", token.position) from None
        raise QueryParseError(f"unexpected {token.value!r}", token.position)


def parse_query(text: str) -> Node:
    """Parse Boolean query text into an AST.

    Raises QueryParseError (with position) on unbalanced parentheses or
    quotes, dangling operators, empty input, nesting deeper than
    MAX_QUERY_DEPTH, and more than MAX_QUERY_LEAVES terms.
    """
    if not text.strip():
        raise QueryParseError("empty query", 0)
    return _Parser(text).parse()


def render_query(node: Node) -> str:
    """Canonical text form: upper-case operators, every composite parenthesized,
    every leaf quoted. parse_query(render_query(ast)) == ast."""
    if isinstance(node, Leaf):
        return f'"{node.text}"'
    if isinstance(node, Junction):
        return "(" + f" {node.op} ".join(render_query(c) for c in node.children) + ")"
    if isinstance(node, Not):
        return f"(NOT {render_query(node.child)})"
    raise TypeError(f"not a query node: {node!r}")


# ----------------------------------------------------------------------
# Expansion


@dataclass(frozen=True)
class ExpansionConfig:
    """Controls which mappings feed leaf expansion.

    Defaults follow deployed behavior: equivalence only, every target
    vocabulary. Negated subtrees are always left alone.
    """

    relations: frozenset[RelationType] = frozenset({RelationType.EQ})
    target_vocabs: frozenset[str] | None = None
    max_terms_per_leaf: int = 32

    def __post_init__(self) -> None:
        if RelationType.NULL in self.relations:
            raise InvalidMappingError("NULL relation cannot drive expansion")
        if self.max_terms_per_leaf < 1:
            raise InvalidMappingError("max_terms_per_leaf must be positive")


@dataclass(frozen=True)
class AddedTerm:
    """One term (or combination) merged into a leaf's OR group."""

    term: str
    source_vocab: str
    target_vocab: str
    relation: RelationType
    rating: RelevanceRating


@dataclass
class LeafExpansion:
    original: str
    additions: list[AddedTerm] = field(default_factory=list)


ExpansionTrace = list[LeafExpansion]


def expand_query(
    node: Node, store: CrosswalkStore, config: ExpansionConfig | None = None
) -> tuple[Node, ExpansionTrace]:
    """Expand each leaf with its mapped terms, preserving Boolean structure.

    A leaf with matches becomes Or(original, added...); leaves without
    matches, and every NOT subtree, pass through unchanged.
    The trace lists what was added to each expanded leaf, in order.
    """
    config = config or ExpansionConfig()
    trace: ExpansionTrace = []

    def expand_leaf(node: Leaf) -> Node:
        results = store.mappings_from(
            node.text,
            relations=config.relations,
            target_vocabs=config.target_vocabs or None,
        )
        additions: list[AddedTerm] = []
        group: list[Node] = [node]
        seen: set[tuple[str, ...]] = {(node.text,)}
        for crosswalk, mapping in results:
            if len(additions) >= config.max_terms_per_leaf:
                break
            concept = mapping.target
            # a member holding `"` could not be a Leaf, so the concept is left out
            if concept is None or concept.terms in seen or '"' in concept.label:
                continue
            seen.add(concept.terms)
            if concept.is_single:
                group.append(Leaf.of_key(concept.terms[0]))
            else:
                group.append(And(tuple(Leaf.of_key(t) for t in concept.terms)))
            additions.append(
                AddedTerm(
                    term=concept.label,
                    source_vocab=crosswalk.source_vocab,
                    target_vocab=crosswalk.target_vocab,
                    relation=mapping.relation,
                    rating=mapping.rating,
                )
            )
        if not additions:
            return node
        trace.append(LeafExpansion(original=node.text, additions=additions))
        return Or(tuple(group))

    def walk(node: Node) -> Node:
        if isinstance(node, Leaf):
            return expand_leaf(node)
        if isinstance(node, Junction):
            return type(node)(tuple(walk(c) for c in node.children))
        if isinstance(node, Not):
            return node
        raise TypeError(f"not a query node: {node!r}")

    return walk(node), trace
