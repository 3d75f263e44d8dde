"""curate: a curator's offline batch through the library API.

On the loaded base network, cycles through four steps interleaved per
crosswalk: `infer_pivot` for every (source, pivot, target) triple,
`detect_variant_mappings` per target vocabulary, `sample_assessment` of
every crosswalk against a seeded corpus, and an `export_skos` /
`import_skos` round trip per crosswalk. `inference`, `assessment` and
`skos` do all their work here and none in the other workload.

The load and the op loop run in a child process of their own (`measure`),
so `peak_rss_mb` is the peak of komohe's data and work alone. The parent
generates the inputs and checks the child's results against answers it
computes independently (`Expected`).
"""

from __future__ import annotations

import gc
import json
import sys
import time
from itertools import combinations
from pathlib import Path

import gen
from common import Tally, median, percentile, run_process

SETUPS = 2  # a third set-up does not fit the time budget of a full benchmark round
SAMPLE = 10  # mappings assessed per crosswalk
INFER_CHECKED = 30  # triples whose infer_pivot output is checked against the join

# Chain composition and confidence demotion as the README states them,
# written out here independently of komohe.inference.
_COMPOSE = {
    ("=", "="): "=", ("=", "<"): "<", ("=", ">"): ">", ("=", "^"): "^",
    ("<", "="): "<", (">", "="): ">", ("^", "="): "^",
    ("<", "<"): "<", (">", ">"): ">",
}  # fmt: skip
_RANK = {"": 0, "low": 1, "medium": 2, "high": 3}
_RATING = {rank: rating for rating, rank in _RANK.items()}


def plan() -> list[tuple]:
    """One pass: per crosswalk its 8 pivot inferences, a check and a SKOS round trip.

    Crosswalks are ordered so consecutive ones change target vocabulary, and
    each target's variant audit sits next to one of its crosswalks, so any
    prefix of the pass holds every step in about its full-pass share.
    """
    n = len(gen.VOCABS)
    ops: list[tuple] = []
    for k in range(1, n):
        for s in range(n):
            t = (s + k) % n
            sv, tv = gen.VOCABS[s], gen.VOCABS[t]
            ops.extend(("infer", sv, tv, pv) for pv in gen.VOCABS if pv not in (sv, tv))
            ops.append(("check", sv, tv))
            ops.append(("skos", sv, tv))
            if k == 1 + t % (n - 1):
                ops.append(("variants", tv))
    return ops


def checked_infers(ops: list[tuple]) -> set[tuple]:
    """The INFER_CHECKED infer ops, spread over the pass, whose output is compared with the join."""
    infer_ops = [o for o in ops if o[0] == "infer"]
    return set(infer_ops[:: max(1, len(infer_ops) // INFER_CHECKED)][:INFER_CHECKED])


def step(op: tuple, store, corpus, seed: int, i: int):
    """One curate call; `i` is the op's index in the pass and seeds the assessment sample.

    Library functions are looked up on `komohe` at call time, so a tracer's
    wrappers are reached.
    """
    import komohe

    kind = op[0]
    if kind == "infer":
        return komohe.infer_pivot(store, op[1], op[2], op[3])
    if kind == "variants":
        return komohe.detect_variant_mappings(store, op[1])
    if kind == "check":
        return komohe.sample_assessment(store, f"{op[1]}-{op[2]}", corpus, SAMPLE, seed + i)
    export = komohe.export_skos(store, [f"{op[1]}-{op[2]}"])
    return export, komohe.import_skos(komohe.Dataset.empty().store, export.text, op[1], op[2])


def digest(op: tuple, result):
    """The part of a step's result that `Expected.check` verifies, as JSON values."""
    kind = op[0]
    if kind == "infer":
        return [[m.source.terms[0], m.relation.value, m.target.terms[0], m.confidence.value] for m in result]
    if kind == "variants":
        return len(result)
    if kind == "check":
        return [
            [row.mapping.label, row.mapping.source.terms[0], list(row.mapping.target.terms), row.result.source_hits, row.result.target_hits]
            for row in result.rows
        ]
    export, report = result
    return [export.skipped_null, export.skipped_combination, report.mappings_added, len(report.errors)]


def joined(net: gen.Network, sv: str, tv: str, pv: str) -> list[tuple]:
    """Independent pivot join over the generated rows: sorted (source, relation, target, confidence)."""
    second: dict[str, list[tuple]] = {}
    for r in net.rows:
        if r[0] == pv and r[3] == tv and r[4] and " + " not in r[4]:
            second.setdefault(r[1], []).append(r)
    best: dict[tuple, int] = {}
    for r1 in net.rows:
        if r1[0] != sv or r1[3] != pv or not r1[4] or " + " in r1[4]:
            continue
        for r2 in second.get(r1[4], ()):
            relation = _COMPOSE.get((r1[2], r2[2]))
            if relation is None:
                continue
            weaker = min(_RANK[r1[5]], _RANK[r2[5]])
            # one level below the weaker hop; low stays low, unrated stays unrated
            confidence = max(1, weaker - 1) if weaker else 0
            key = (r1[1], relation, r2[4])
            best[key] = max(best.get(key, -1), confidence)
    return sorted((*key, _RATING[rank]) for key, rank in best.items())


def variant_count(net: gen.Network, tv: str) -> int:
    """Independent count of variant conflicts into `tv`."""
    targets: dict[str, dict[str, list[str]]] = {}
    for r in net.rows:
        if r[3] == tv and r[2] == "=":
            targets.setdefault(r[1], {}).setdefault(r[0], []).append(r[4])
    count = 0
    for per_vocab in targets.values():
        for a, b in combinations(sorted(per_vocab), 2):
            count += len({(x, y) for x in per_vocab[a] for y in per_vocab[b] if x != y})
    return count


class Expected:
    """Independent answers to curate's steps, from the generated rows and the corpus postings."""

    def __init__(self, net: gen.Network, postings: dict[tuple[str, str], set[str]]):
        self.net = net
        self.postings = postings
        self.per_crosswalk: dict[tuple[str, str], list[int]] = {}  # total, null, combination
        for r in net.rows:
            counts = self.per_crosswalk.setdefault((r[0], r[3]), [0, 0, 0])
            counts[0] += 1
            counts[1] += r[2] == "0"
            counts[2] += " + " in r[4]
        self.variants: dict[str, int] = {}

    def check(self, tally: Tally, op: tuple, got) -> None:
        kind = op[0]
        if kind == "infer":
            _, sv, tv, pv = op
            tally.check([tuple(x) for x in got] == joined(self.net, sv, tv, pv), f"infer {sv}->{tv} via {pv} differs from the join")
        elif kind == "variants":
            if op[1] not in self.variants:
                self.variants[op[1]] = variant_count(self.net, op[1])
            want = self.variants[op[1]]
            tally.check(got == want, f"variants {op[1]}: {got} conflicts, join says {want}")
        elif kind == "check":
            for label, source, target, *hits in got:
                source_docs = self.postings.get((op[1], source), set())
                target_docs = set.intersection(*(self.postings.get((op[2], t), set()) for t in target))
                want = [len(source_docs), len(target_docs)]
                tally.check(hits == want, f"check {op[1]}-{op[2]} {label}: {hits}, postings say {want}")
        else:
            total, nulls, combos = self.per_crosswalk[(op[1], op[2])]
            tally.check(
                list(got) == [nulls, combos, total - nulls - combos, 0],
                f"skos {op[1]}-{op[2]}: skipped null/combination, added, errors {got}; "
                f"want {nulls}/{combos}, {total - nulls - combos}, 0",
            )


def measure(data_dir: Path, corpus_path: Path, seed: int, seconds: float) -> dict:
    """The child's part: SETUPS loads, then the op loop for `seconds`. Returns timings and digests."""
    import komohe

    setups, loads = [], []
    dataset = corpus = None
    for _ in range(SETUPS):
        dataset = corpus = None
        gc.collect()
        start = time.perf_counter()
        dataset = komohe.Dataset.load([data_dir])
        with corpus_path.open(encoding="utf-8") as fh:
            loaded = komohe.load_corpus(fh)
        setups.append(time.perf_counter() - start)
        corpus = loaded.corpus
        loads.append([sum(s.mapping_count for s in dataset.store.stats().values()), len(loaded.errors)])
    store = dataset.store

    ops = plan()
    sampled = checked_infers(ops)
    times: dict[str, list[float]] = {"infer": [], "variants": [], "check": [], "skos": []}
    latencies: list[float] = []
    digests: list[list] = []  # [index in pass, digest]
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        pos = i % len(ops)
        op = ops[pos]
        t0 = time.perf_counter()
        result = step(op, store, corpus, seed, pos)
        dt = time.perf_counter() - t0
        times[op[0]].append(dt)
        latencies.append(dt * 1000)
        if op[0] != "infer" or (i < len(ops) and op in sampled):
            digests.append([pos, digest(op, result)])
        i += 1
    elapsed = time.perf_counter() - start
    return {"setups": setups, "loads": loads, "times": times, "latencies": latencies, "elapsed": elapsed, "steps": i, "digests": digests}


def run(seed: int, seconds: float, work: Path) -> dict:
    net = gen.base_network(seed)
    data_dir = work / "data"
    gen.write_data_dir(data_dir, net)
    corpus_text, postings = gen.corpus(seed)
    corpus_path = work / "corpus.tsv"  # outside the data dir: Dataset.load imports every *.tsv there
    corpus_path.write_text(corpus_text, encoding="utf-8")
    del corpus_text
    result_path = work / "curate.json"
    child = run_process(
        [sys.executable, __file__, str(data_dir), str(corpus_path), str(seed), str(seconds), str(result_path)],
        work,
        timeout=seconds + 100,
    )
    if child.returncode:
        raise RuntimeError(f"curate child exited {child.returncode}: {child.stderr[-2000:]}")
    got = json.loads(result_path.read_text(encoding="utf-8"))

    tally = Tally()
    for total, errors in got["loads"]:
        tally.check(total == gen.BASE_MAPPINGS and not errors, f"load: {total} mappings, {errors} corpus errors")
    expected = Expected(net, postings)
    ops = plan()
    for pos, result in got["digests"]:
        expected.check(tally, ops[pos], result)

    times, latencies = got["times"], got["latencies"]
    per_pass = {kind: sum(o[0] == kind for o in ops) for kind in times}
    details = {f"curate.{kind}_s": (sum(v) / len(v) * per_pass[kind], "s") for kind, v in times.items() if v}
    details["curate.passes"] = (got["steps"] / len(ops), "count")
    return {
        "metrics": {
            "setup_s": median(got["setups"]),
            "peak_rss_mb": child.maxrss_mb,
            "ops_per_s": len(latencies) / got["elapsed"],
            "p50_ms": median(latencies),
            "p99_ms": percentile(latencies, 99),
        },
        "details": details,
        "tally": tally,
    }


if __name__ == "__main__":
    data_dir, corpus_path, seed, seconds, result_path = sys.argv[1:]
    result = measure(Path(data_dir), Path(corpus_path), int(seed), float(seconds))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
