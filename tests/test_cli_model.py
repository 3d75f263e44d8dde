"""A model-based test of the command line over one real data directory.

A hypothesis state machine runs writing commands (import, terms,
infer --promote, skos-import) and reading ones (lookup, reverse, translate,
expand, export, stats) through cli.run, edits crosswalks.tsv by hand between
them, and keeps an in-memory model that takes each write through the
library's public, checked path: crosswalk rows through
oracles.row_by_row_load, N-Triples through oracles.line_by_line_skos_read.
A lookup, reverse or translate must print what the brute-force oracle finds
in the model, and an expansion what expand_query renders on it. After each
command it checks the exit code against the model, that stderr holds no
traceback, that a failed command prints one `error:` line and leaves every
file byte-identical, and that the data directory reloads to the model.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from komohe import cli
from komohe.dataset import Dataset
from komohe.errors import ConflictError, KomoheError
from komohe.inference import infer_pivot
from komohe.queries import ExpansionConfig, expand_query, parse_query, render_query
from komohe.registry import VocabularyRegistry
from komohe.skos import RELATION_TO_PREDICATE, SKOS_NS, concept_uri
from komohe.store import (
    TSV_HEADER,
    CrosswalkStore,
    RelationType,
    RelevanceRating,
    parse_relations,
    tsv_row,
)

from oracles import (
    brute_force_from,
    brute_force_reverse,
    brute_force_translate,
    line_by_line_skos_read,
    oracle_normalize,
    row_by_row_load,
)

# a non-ASCII id is percent-encoded in its term list's file name
VOCABS = ["a", "b", "é"]
# case and whitespace variants, spellings that fold or compose alike, a double
# quote, a `#` that would start a comment at the head of a term-list line, the
# combination join inside one term, and a term that normalizes to nothing
TERMS = [
    "Hacker",
    " hacker",
    "HACKER  ",
    "Straße",
    "STRASSE",
    "café",
    "CAFÉ",
    "isdn  Device",
    'say "hi"',
    "#tag",
    "a + b",
    "  ",
]
ROW = st.tuples(
    st.sampled_from(VOCABS),
    st.sampled_from(TERMS),
    st.sampled_from(["=", "<", ">", "^", "0", "0", "?"]),
    st.sampled_from([*VOCABS, ""]),  # an empty one on a null row comes from context
    st.lists(st.sampled_from(TERMS), max_size=3).map(" + ".join),
    st.sampled_from(["high", "medium", "low", "", "superb"]),
)
# rows that mostly load: two vocabularies, a positive relation, a known rating
# and one or two target terms
LOADING_ROW = st.tuples(
    st.permutations(VOCABS),
    st.sampled_from(TERMS),
    st.sampled_from(["=", "=", "<", ">", "^"]),
    st.lists(st.sampled_from(TERMS), min_size=1, max_size=2).map(" + ".join),
    st.sampled_from(["high", "medium", "low", ""]),
).map(lambda row: (row[0][0], row[1], row[2], row[0][1], *row[3:]))
# each mapping predicate, and one that is no mapping, whose line is rejected
PREDICATES = [*RELATION_TO_PREDICATE.values(), SKOS_NS + "prefLabel"]
TRIPLE = st.tuples(
    st.sampled_from(VOCABS),
    st.sampled_from(TERMS),
    st.sampled_from(PREDICATES),
    st.sampled_from(VOCABS),
    st.sampled_from(TERMS),
)
# term-list header tokens: a valid and an unknown language, a name and a
# discipline shell-quoted round a space, and an unclosed quote
HEADER_TOKENS = [" lang=de", " lang=xx", " name='Schlag wort'", ' discipline="social sciences"', " name='open"]
# lines that the load accepts though komohe never writes them: a comment, a
# blank line, a null row whose empty target-vocabulary column takes its
# context from the rows above, and a row with a `# via:` trailer
HAND_LINE = st.one_of(
    st.sampled_from(["# edited by hand", ""]),
    st.tuples(st.sampled_from(VOCABS), st.sampled_from(TERMS)).map(lambda r: ((*r, "0", "", "", ""), "")),
    st.tuples(LOADING_ROW, st.sampled_from(["", "\t# via:b", "\t # via:é"])),
)
# quoted terms, operators and parentheses; with the bare terms, some queries fail to parse
QUERY_PARTS = [*(f'"{term}"' for term in TERMS), "AND", "or", "NOT", "(", ")"]


def held_or_any(held) -> st.SearchStrategy[str]:
    """One of the `held` terms half the time, else one of TERMS."""
    return st.sampled_from(sorted(held) or TERMS) | st.sampled_from(TERMS)


def named_target_vocabs(rows):
    """The rows a TSV import hands to the store, each naming its target
    vocabulary: a null row with an empty one takes the last named for its
    source vocabulary earlier in the file. A row left without one is dropped,
    since the import rejects it before anything is stored."""
    last, named = {}, []
    for row in rows:
        source_vocab, term, symbol, target_vocab, targets, rating = row
        try:
            relation = RelationType.parse(symbol)
            RelevanceRating.parse(rating)
        except KomoheError:
            named.append(row)  # rejected before its target vocabulary is read
            continue
        if not target_vocab and relation is RelationType.NULL:
            target_vocab = last.get(source_vocab, "")
        if target_vocab:
            last[source_vocab] = target_vocab
            named.append((source_vocab, term, symbol, target_vocab, targets, rating))
    return named


class CommandLine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)
        self.data = self.root / "data"
        self.inputs = 0
        self.writes = []  # each write the model took, in order
        self.model = self.replay()

    def teardown(self):
        self.tmp.cleanup()

    def replay(self) -> CrosswalkStore:
        store = CrosswalkStore(VocabularyRegistry())
        for write in self.writes:
            write(store)
        return store

    def input_file(self, text: str) -> str:
        self.inputs += 1
        path = self.root / f"input{self.inputs}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def data_files(self) -> dict[str, bytes]:
        paths = sorted(self.data.iterdir()) if self.data.exists() else []
        return {path.name: path.read_bytes() for path in paths}

    def komohe(self, *argv, expected: int) -> str:
        """Run one command through cli.run, check how it ended; returns its stdout."""
        before = self.data_files()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(["--data", str(self.data), *argv])
        assert "Traceback" not in err.getvalue()
        assert code == expected, (argv, err.getvalue())
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert self.data_files() == before
        return out.getvalue()

    def write(self, change, *argv) -> None:
        """Run a writing command; the model takes `change` only if it succeeds,
        and then the command must exit 0, else 1."""
        try:
            change(self.model)
        except KomoheError:
            self.model = self.replay()  # drop what the failed change did before it raised
            expected = 1
        else:
            self.writes.append(change)
            expected = 0
        self.komohe(*argv, expected=expected)

    @initialize(german=st.sampled_from(VOCABS), rows=st.lists(LOADING_ROW, min_size=4, max_size=12))
    def a_german_vocabulary_and_rows(self, german, rows):
        """A start that the reading rules can tell apart from an empty one: the
        import registers the other vocabularies in English."""
        text = f"#terms {german} lang=de\n"
        change = lambda store: store.registry.import_terms(text, vocab_id=german)
        self.write(change, "terms", german, self.input_file(text))
        self.import_rows(rows)

    @rule(rows=st.lists(ROW, max_size=8))
    def import_rows(self, rows):
        text = TSV_HEADER + "\n" + "".join("\t".join(row) + "\n" for row in rows)
        change = lambda store: row_by_row_load(store, named_target_vocabs(rows))
        self.write(change, "import", self.input_file(text))

    @rule()
    def import_a_missing_file(self):
        self.komohe("import", str(self.root / "missing.tsv"), expected=1)

    @rule(
        vocab=st.sampled_from(VOCABS),
        other=st.sampled_from([None, None, "b"]),  # the header names another vocabulary
        meta=st.lists(st.sampled_from(HEADER_TOKENS), max_size=3),
        terms=st.lists(st.sampled_from(TERMS), max_size=4),
    )
    def terms(self, vocab, other, meta, terms):
        text = f"#terms {other or vocab}{''.join(meta)}\n" + "".join(term + "\n" for term in terms)
        change = lambda store: store.registry.import_terms(text, vocab_id=vocab)
        self.write(change, "terms", vocab, self.input_file(text))

    @rule(lines=st.lists(HAND_LINE, min_size=1, max_size=6))
    def hand_edit(self, lines):
        """Append lines to crosswalks.tsv, as an editor would; the next command
        loads them. A row that the model rejects is left out, since the load
        would log a warning for it."""
        path = self.data / "crosswalks.tsv"
        if not path.exists():
            self.data.mkdir(exist_ok=True)
            path.write_text(TSV_HEADER + "\n", encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        data_lines = [line for line in text.split("\n")[1:] if line.strip() and not line.startswith("#")]
        above = [tuple((line.split("\t") + [""] * 6)[:6]) for line in data_lines]
        kept, appended = [], []
        for line in lines:
            if isinstance(line, str):
                appended.append(line)
                continue
            row, trailer = line
            named = named_target_vocabs([*above, row])[len(named_target_vocabs(above)):]
            probe = self.replay()
            if not named or row_by_row_load(probe, [*kept, *named]):
                continue
            kept += named
            above.append(row)
            appended.append("\t".join(row) + trailer)
        change = lambda store: row_by_row_load(store, kept)
        change(self.model)
        self.writes.append(change)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in appended))

    # `target` names a rule's bundle, so the target vocabulary is `into`
    @rule(source=st.sampled_from(VOCABS), into=st.sampled_from(VOCABS), via=st.sampled_from(VOCABS))
    def infer_promote(self, source, into, via):
        def change(store):
            inferred = infer_pivot(store, source, into, via)
            if not inferred:  # the CLI saves no crosswalk that no mapping was promoted into
                return
            crosswalk = store.ensure_crosswalk(source, into)
            for mapping in inferred:
                try:
                    store.add_mapping(crosswalk.id, mapping.as_mapping())
                except ConflictError:
                    continue

        self.write(change, "infer", "--from", source, "--to", into, "--via", via, "--promote")

    @rule(
        source=st.sampled_from(VOCABS),
        into=st.sampled_from(VOCABS),
        triples=st.lists(TRIPLE, max_size=4),
        garbage=st.booleans(),  # a line that is no triple
    )
    def skos_import(self, source, into, triples, garbage):
        lines = [f"<{concept_uri(sv, s)}> <{p}> <{concept_uri(tv, t)}> ." for sv, s, p, tv, t in triples]
        text = "".join(line + "\n" for line in [*lines, *["garbage"] * garbage])
        change = lambda store: line_by_line_skos_read(store, text, source, into)
        self.write(change, "skos-import", self.input_file(text), "--source", source, "--target", into)

    def mapping_rows(self, rows) -> list[str]:
        return [tsv_row(cw.source_vocab, m, cw.target_vocab if m.target else "") for cw, m in rows]

    @rule(term=st.sampled_from(TERMS))
    def lookup(self, term):
        key = oracle_normalize(term)
        out = self.komohe("lookup", term, expected=0 if key else 1)
        if key:
            assert out.splitlines() == self.mapping_rows(brute_force_from(self.model.crosswalks(), key))

    @rule(data=st.data(), vocab=st.sampled_from(VOCABS))
    def reverse(self, data, vocab):
        crosswalks = self.model.crosswalks()
        targets = {t for cw in crosswalks for m in cw.mappings if m.target for t in m.target.terms}
        term = data.draw(held_or_any(targets))
        key = oracle_normalize(term)
        for target_vocab in (None, vocab):
            flags = [] if target_vocab is None else ["--vocab", target_vocab]
            out = self.komohe("reverse", term, *flags, expected=0 if key else 1)
            if key:
                rows = brute_force_reverse(crosswalks, key, target_vocab)
                assert out.splitlines() == self.mapping_rows(rows)

    @rule(data=st.data())
    def translate(self, data):
        registry, crosswalks = self.model.registry, self.model.crosswalks()
        # half the time a term with a one-term equivalent and that equivalent's language
        held = sorted(
            (m.source.terms[0], registry.vocabulary(cw.target_vocab).language)
            for cw in crosswalks
            for m in cw.mappings
            if m.relation is RelationType.EQ and m.target.is_single
        )
        any_pair = st.tuples(st.sampled_from(TERMS), st.sampled_from(["en", "de", "fr"]))
        term, to = data.draw(st.sampled_from(held) | any_pair if held else any_pair)
        # exit 1 when no vocabulary has the target language, or the term is empty
        found = any(vocab.language == to for vocab in registry.vocabularies()) and oracle_normalize(term)
        for source in (None, "en", "de"):
            flags = [] if source is None else ["--from", source]
            out = self.komohe("translate", term, "--to", to, *flags, expected=0 if found else 1)
            if found:
                rows = brute_force_translate(registry, crosswalks, found, to, source)
                assert out.splitlines() == ["\t".join((t, v, r.text, path)) for t, v, r, path in rows]

    @rule(data=st.data(), wider=st.sampled_from(["=,^", "<,>"]))
    def expand(self, data, wider):
        sources = {m.source.terms[0] for cw in self.model.crosswalks() for m in cw.mappings}
        parts = st.lists(held_or_any(sources) | st.sampled_from(QUERY_PARTS), max_size=5)
        query = " ".join(data.draw(parts))
        for relations in (None, wider):
            flags = [] if relations is None else ["--relations", relations]
            try:
                given = {} if relations is None else {"relations": frozenset(parse_relations(relations))}
                expanded, _ = expand_query(parse_query(query), self.model, ExpansionConfig(**given))
            except KomoheError:
                self.komohe("expand", query, *flags, expected=1)
            else:
                assert self.komohe("expand", query, *flags, expected=0) == render_query(expanded) + "\n"

    @rule()
    def export(self):
        assert self.komohe("export", expected=0) == self.model.export_tsv()

    @rule()
    def stats(self):
        self.komohe("stats", expected=0)

    @invariant()
    def the_data_dir_reloads_to_the_model(self):
        reloaded = Dataset.load([self.data]) if self.data.exists() else Dataset.empty()
        assert reloaded.rejected_lines == 0
        assert reloaded.store.export_tsv() == self.model.export_tsv()
        registry = self.model.registry
        assert reloaded.registry.vocabularies() == registry.vocabularies()
        for vocab in registry.vocabularies():
            assert reloaded.registry.export_terms(vocab.id) == registry.export_terms(vocab.id)


CommandLine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=8, derandomize=True, deadline=None
)
TestCommandLine = CommandLine.TestCase
