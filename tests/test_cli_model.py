"""A model-based test of the command line over one real data directory.

A hypothesis state machine runs writing commands (import, terms,
infer --promote) and reading ones (lookup, export, stats) through cli.run,
and keeps an in-memory model that takes each write through the library's
public, checked path: crosswalk rows through oracles.row_by_row_load. After
each command it checks the exit code against the model, that stderr holds
no traceback, that a failed command prints one `error:` line and leaves
every file byte-identical, and that the data directory reloads to the
model.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from komohe import cli
from komohe.dataset import Dataset
from komohe.errors import ConflictError, KomoheError
from komohe.inference import infer_pivot
from komohe.registry import VocabularyRegistry
from komohe.store import TSV_HEADER, CrosswalkStore, RelationType, RelevanceRating, tsv_row

from oracles import brute_force_from, oracle_normalize, row_by_row_load

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
        lang=st.sampled_from(["", " lang=de", " lang=xx"]),
        terms=st.lists(st.sampled_from(TERMS), max_size=4),
    )
    def terms(self, vocab, other, lang, terms):
        text = f"#terms {other or vocab}{lang}\n" + "".join(term + "\n" for term in terms)
        change = lambda store: store.registry.import_terms(text, vocab_id=vocab)
        self.write(change, "terms", vocab, self.input_file(text))

    # `target` names a rule's bundle, so the target vocabulary is `into`
    @rule(source=st.sampled_from(VOCABS), into=st.sampled_from(VOCABS), via=st.sampled_from(VOCABS))
    def infer_promote(self, source, into, via):
        def change(store):
            inferred = infer_pivot(store, source, into, via)
            crosswalk = store.ensure_crosswalk(source, into)
            for mapping in inferred:
                try:
                    store.add_mapping(crosswalk.id, mapping.as_mapping())
                except ConflictError:
                    continue

        self.write(change, "infer", "--from", source, "--to", into, "--via", via, "--promote")

    @rule(term=st.sampled_from(TERMS))
    def lookup(self, term):
        key = oracle_normalize(term)
        out = self.komohe("lookup", term, expected=0 if key else 1)
        if key:
            rows = brute_force_from(self.model.crosswalks(), key)
            assert out.splitlines() == [
                tsv_row(cw.source_vocab, m, cw.target_vocab if m.target else "") for cw, m in rows
            ]

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
