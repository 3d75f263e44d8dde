"""Seeded input generators shared by every workload.

Everything a workload feeds to komohe is derived from one integer seed, so
the same seed always yields the same files and request streams. The base
network follows the acceptance suite's scale test (10 vocabularies, 5,000
terms, 100,000 mappings over the 90 directed crosswalks) and adds what that
test leaves out: languages, combination targets and null rows.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

VOCABS = [f"v{i:02d}" for i in range(10)]
GERMAN = set(VOCABS[:5])  # v00-v04 are lang=de, the rest lang=en
TERMS = [f"term {i:05d}" for i in range(5000)]
BASE_MAPPINGS = 100_000
COMBINATION_SHARE = 0.15
NULL_SHARE = 0.03
RELATIONS = ["=", "=", "=", "<", ">", "^"]
RATINGS = ["high", "medium", "low", ""]

# import file of the traced sweep: fixed plant counts so `rejected` repeats exactly.
IMPORT_ROWS = 10_000
IMPORT_MALFORMED = 100
IMPORT_DUPLICATES = 50  # half repeat a base row, half repeat an earlier import row

CORPUS_DOCS = 20_000


def lang(vocab: str) -> str:
    return "de" if vocab in GERMAN else "en"


@dataclass
class Network:
    """The base crosswalk rows plus the bookkeeping the output checks need."""

    rows: list[tuple[str, str, str, str, str, str]] = field(default_factory=list)
    keys: set[tuple] = field(default_factory=set)

    def tsv(self, rows=None) -> str:
        lines = ["#komohe-tsv v1"]
        lines.extend("\t".join(r) for r in (self.rows if rows is None else rows))
        return "\n".join(lines) + "\n"


def _row(rng: random.Random, sv: str, tv: str, source: str) -> tuple:
    if rng.random() < NULL_SHARE:
        return (sv, source, "0", tv, "", "")
    relation = rng.choice(RELATIONS)
    if rng.random() < COMBINATION_SHARE:
        target = " + ".join(rng.sample(TERMS, rng.choice((2, 3))))
    else:
        target = rng.choice(TERMS)
    return (sv, source, relation, tv, target, rng.choice(RATINGS))


def row_key(row: tuple) -> tuple:
    """The store's duplicate key: crosswalk plus (source, relation, target)."""
    return (row[0], row[3], row[1], row[2], row[4])


def base_network(seed: int) -> Network:
    rng = random.Random(f"base-{seed}")
    net = Network()
    while len(net.rows) < BASE_MAPPINGS:
        sv, tv = rng.sample(VOCABS, 2)
        row = _row(rng, sv, tv, rng.choice(TERMS))
        key = row_key(row)
        if key in net.keys:
            continue
        net.keys.add(key)
        net.rows.append(row)
    return net


def term_list(vocab: str) -> str:
    return f"#terms {vocab} lang={lang(vocab)}\n" + "\n".join(TERMS) + "\n"


def write_data_dir(directory: Path, net: Network) -> None:
    """A data dir as `komohe` keeps it: one .terms file per vocabulary plus crosswalks.tsv."""
    directory.mkdir(parents=True, exist_ok=True)
    for vocab in VOCABS:
        (directory / f"{vocab}.terms").write_text(term_list(vocab), encoding="utf-8")
    (directory / "crosswalks.tsv").write_text(net.tsv(), encoding="utf-8")


# ----------------------------------------------------------------------
# the traced sweep's 10k-row import, with planted malformed and duplicate lines

_MALFORMED = [
    lambda r: "\t".join((r[0], r[1])),  # too few fields
    lambda r: "\t".join((r[0], r[1], "~", r[3], "term 00001", "")),  # bad relation
    lambda r: "\t".join((r[0], r[1], "=", r[3], "term 00001", "sometimes")),  # bad rating
    lambda r: "\t".join((r[0], r[1], "0", r[3], "term 00001", "")),  # null with target
    lambda r: "\t".join((r[0], r[1], "=", "", "term 00001", "")),  # no target vocab
    lambda r: "\t".join((r[0], "   ", "=", r[3], "term 00001", "")),  # empty source term
    lambda r: "\t".join((r[0], r[1], "=", r[0], "term 00001", "")),  # self crosswalk
    lambda r: "\t".join(r + ("x", "y")),  # too many fields
]


@dataclass
class ImportBatch:
    text: str
    planted_malformed: int
    planted_duplicates: int


def import_batch(seed: int, net: Network) -> ImportBatch:
    """IMPORT_ROWS data lines: new rows, malformed lines and duplicates, shuffled."""
    rng = random.Random(f"import-{seed}")
    good_count = IMPORT_ROWS - IMPORT_MALFORMED - IMPORT_DUPLICATES
    good: list[tuple] = []
    keys = set(net.keys)
    while len(good) < good_count:
        sv, tv = rng.sample(VOCABS, 2)
        # one row in twenty introduces a term the registry has not seen
        source = f"new term {rng.randrange(2000):04d}" if rng.random() < 0.05 else rng.choice(TERMS)
        row = _row(rng, sv, tv, source)
        if row_key(row) in keys:
            continue
        keys.add(row_key(row))
        good.append(row)
    lines = ["\t".join(r) for r in good]
    half = IMPORT_DUPLICATES // 2
    dup_lines = ["\t".join(r) for r in rng.sample(net.rows, half)]
    bad_lines = [_MALFORMED[i % len(_MALFORMED)](rng.choice(net.rows)) for i in range(IMPORT_MALFORMED)]
    extra = dup_lines + bad_lines
    for line in extra:
        lines.insert(rng.randrange(len(lines) + 1), line)
    # in-file repeats go after their first occurrence so the repeat is the one rejected
    for _ in range(IMPORT_DUPLICATES - half):
        i = rng.randrange(len(good))
        first = lines.index("\t".join(good[i]))
        lines.insert(rng.randrange(first + 1, len(lines) + 1), lines[first])
    return ImportBatch(
        text="#komohe-tsv v1\n" + "\n".join(lines) + "\n",
        planted_malformed=IMPORT_MALFORMED,
        planted_duplicates=IMPORT_DUPLICATES,
    )


# ----------------------------------------------------------------------
# Zipf-skewed term draws


class Zipf:
    """Draws terms with probability proportional to 1 / rank over a seeded ranking."""

    def __init__(self, rng: random.Random, items: list[str], exponent: float = 1.0):
        self.rng = rng
        self.items = list(items)
        rng.shuffle(self.items)
        self.cum = list(itertools.accumulate(1.0 / (k + 1) ** exponent for k in range(len(items))))

    def draw(self) -> str:
        x = self.rng.random() * self.cum[-1]
        return self.items[bisect.bisect_left(self.cum, x)]


# ----------------------------------------------------------------------
# serve-mix request stream


@dataclass(frozen=True)
class Request:
    kind: str  # mappings | expand | translate | vocabularies
    path: str
    status: int
    args: tuple = ()  # what the output check needs to recompute the answer


def _quote(term: str) -> str:
    return quote(term, safe="")


def request_stream(seed: int, count: int) -> list[Request]:
    """Closed-loop traffic: ~70% mappings, ~20% expand, ~8% translate, ~2% vocabularies.

    About 3% of all requests are mappings requests for a term that no
    vocabulary holds; they must get 404. The mix, the filter shares and the
    Zipf skew are assumptions, never checked against real portal traffic
    (see perfbench/README.md).
    """
    rng = random.Random(f"requests-{seed}")
    zipf = Zipf(rng, TERMS)
    out: list[Request] = []
    for _ in range(count):
        r = rng.random()
        if r < 0.70:
            unknown = rng.random() < 0.03 / 0.70
            vocab = rng.choice(VOCABS)
            term = f"no such term {rng.randrange(10**6)}" if unknown else zipf.draw()
            params = []
            relation = min_rating = ""
            if rng.random() < 0.25:
                relation = rng.choice(["=", "=,^", "<,>"])
                params.append("relation=" + _quote(relation))
            if rng.random() < 0.25:
                min_rating = rng.choice(["high", "medium", "low"])
                params.append("min_rating=" + min_rating)
            path = f"/terms/{vocab}/{_quote(term)}/mappings"
            if params:
                path += "?" + "&".join(params)
            out.append(Request("mappings", path, 404 if unknown else 200, (vocab, term, relation, min_rating)))
        elif r < 0.90:
            leaves = rng.choice((1, 5, 20))
            terms = [zipf.draw() for _ in range(leaves)]
            ops = [rng.choice((" AND ", " OR ")) for _ in range(leaves - 1)]
            query = f'"{terms[0]}"' + "".join(f'{op}"{t}"' for op, t in zip(ops, terms[1:]))
            out.append(Request("expand", "/expand?q=" + _quote(query), 200, (query, tuple(terms))))
        elif r < 0.98:
            term = zipf.draw()
            to_lang = rng.choice(("de", "en"))
            path = f"/translate?term={_quote(term)}&to_lang={to_lang}"
            out.append(Request("translate", path, 200, (term, to_lang)))
        else:
            out.append(Request("vocabularies", "/vocabularies", 200))
    return out


# ----------------------------------------------------------------------
# curate corpus


def corpus(seed: int) -> tuple[str, dict[tuple[str, str], set[str]]]:
    """About CORPUS_DOCS documents with 3-8 (vocab, term) descriptors each.

    Returns the corpus TSV and an inverted index (vocab, term) -> doc ids
    that the assessment check compares against.
    """
    rng = random.Random(f"corpus-{seed}")
    zipf = Zipf(rng, TERMS, exponent=0.8)
    lines = ["#corpus v1"]
    postings: dict[tuple[str, str], set[str]] = {}
    for d in range(CORPUS_DOCS):
        doc = f"d{d:06d}"
        for _ in range(rng.randint(3, 8)):
            key = (rng.choice(VOCABS), zipf.draw())
            lines.append(f"{doc}\t{key[0]}\t{key[1]}")
            postings.setdefault(key, set()).add(doc)
    return "\n".join(lines) + "\n", postings
