"""serve-mix: the HTTP service under a closed loop of kept-alive clients.

Portal backends wait for the expansion before they search, so each client
sends its next request only when the previous answer is in (closed loop).
Two client threads (one per core of the reference box) each hold one
kept-alive connection. Loads the HTTP layer, `mappings_from` and query
expansion heavily; the load path shows only in `setup_s`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import gen
from common import Server, Tally, median, percentile

CLIENTS = 2
SETUPS = 2  # a third set-up does not fit the time budget of a full benchmark round
STREAM = 20_000  # requests are taken round-robin from this seeded stream
CHECK_EVERY = 10  # the body of every tenth request index is checked
CHECK_CAP = 400


def closed_loop(port: int, requests: list[gen.Request], tally: Tally, seconds: float = 1e9, count: int = 0, sample_every: int = CHECK_EVERY):
    """Run CLIENTS closed-loop clients for `seconds`, or until `count` requests when count is set.

    Returns (per-request (index, kind, latency_s, bytes) records, elapsed
    seconds, sampled bodies by request index).
    """
    records: list[list[tuple]] = [[] for _ in range(CLIENTS)]
    samples: dict[int, bytes] = {}
    deadline = time.perf_counter() + seconds

    def client(k: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        i = k
        while time.perf_counter() < deadline and not (count and i >= count):
            req = requests[i % len(requests)]
            start = time.perf_counter()
            try:
                conn.request("GET", req.path)
                resp = conn.getresponse()
                body, status = resp.read(), resp.status
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                body, status = repr(exc).encode(), None
            latency = time.perf_counter() - start
            records[k].append((i, req.kind, latency, len(body)))
            ok = tally.check(status == req.status, f"{req.path}: status {status}, expected {req.status}")
            if ok and i % sample_every == 0 and i < sample_every * CHECK_CAP:
                samples[i] = body
            i += CLIENTS
        conn.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return [r for rs in records for r in rs], elapsed, samples


def repeat_share(requests: list[gen.Request], sent: list[int]) -> float:
    """Share of sent requests whose exact path had already been sent."""
    seen: set[str] = set()
    repeats = 0
    for i in sorted(sent):
        path = requests[i % len(requests)].path
        repeats += path in seen
        seen.add(path)
    return repeats / len(sent)


def reference_dataset(data_dir: Path, net: gen.Network, terms: set[str], work: Path):
    """The library's view of the network for `terms`: all term lists plus every row whose source is one of them.

    `mappings_from`, `expand_query` and `translate` only read rows by source
    term, so this small dataset answers the sampled requests exactly as the
    full one would, at a fraction of the load time.
    """
    from komohe import Dataset

    rows_path = work / "reference.tsv"
    rows_path.write_text(net.tsv([r for r in net.rows if r[1] in terms]), encoding="utf-8")
    return Dataset.load(sorted(data_dir.glob("*.terms")) + [rows_path])


def _rating(rating) -> str | None:
    return rating.value or None


def expected_body(dataset, req: gen.Request, max_terms: int = 32) -> dict:
    """What the service must answer, recomputed with the library calls."""
    from komohe import ExpansionConfig, RelationType, RelevanceRating, expand_query, parse_query, render_query, translate

    if req.kind == "mappings":
        vocab, term, relation, min_rating = req.args
        results = dataset.store.mappings_from(
            term,
            source_vocab=vocab,
            relations={RelationType(s) for s in relation.split(",")} if relation else None,
            min_rating=RelevanceRating(min_rating) if min_rating else None,
        )
        return {
            "mappings": [
                {
                    "relation": m.relation.value,
                    "target_vocab": cw.target_vocab if m.target else None,
                    "target_terms": list(m.target.terms) if m.target else [],
                    "rating": _rating(m.rating),
                }
                for cw, m in results
            ]
        }
    if req.kind == "expand":
        ast = parse_query(req.args[0])
        expanded, trace = expand_query(ast, dataset.store, ExpansionConfig(max_terms_per_leaf=max_terms))
        return {
            "original": render_query(ast),
            "expanded": render_query(expanded),
            "trace": [[a.term for a in entry.additions] for entry in trace],
        }
    if req.kind == "translate":
        term, to_lang = req.args
        return {
            "candidates": [
                {"term": c.term, "vocab": c.vocab, "rating": _rating(c.rating)}
                for c in translate(dataset, term, to_lang)
            ]
        }
    return {
        "vocabularies": [
            (v.id, v.language, dataset.registry.term_count(v.id)) for v in dataset.registry.vocabularies()
        ]
    }


def comparable(req: gen.Request, body: dict) -> dict:
    """The parts of a response body that expected_body recomputes."""
    if req.kind == "expand":
        return {
            "original": body["original"],
            "expanded": body["expanded"],
            "trace": [[a["term"] for a in entry["additions"]] for entry in body["trace"]],
        }
    if req.kind == "vocabularies":
        return {"vocabularies": [(v["id"], v["language"], v["term_count"]) for v in body["vocabularies"]]}
    key = "mappings" if req.kind == "mappings" else "candidates"
    return {key: body[key]}


def sample_terms(req: gen.Request) -> set[str]:
    if req.kind == "mappings":
        return {req.args[1]}
    if req.kind == "expand":
        return set(req.args[1])
    if req.kind == "translate":
        return {req.args[0]}
    return set()


def check_samples(data_dir, net, requests, samples: dict[int, bytes], work: Path, tally: Tally) -> int:
    """Compare sampled bodies with library results; returns how many were compared."""
    picked = [(requests[i % len(requests)], body) for i, body in sorted(samples.items())]
    terms = set().union(*(sample_terms(req) for req, _ in picked)) if picked else set()
    dataset = reference_dataset(data_dir, net, terms, work)
    for req, raw in picked:
        body = json.loads(raw)
        if body.get("v") != 1:
            tally.fail(f"{req.path}: body lacks v=1")
        elif req.status == 404:
            if "error" not in body:
                tally.fail(f"{req.path}: 404 without an error field")
        elif comparable(req, body) != expected_body(dataset, req):
            tally.fail(f"{req.path}: body differs from the library result")
    return len(picked)


def run(seed: int, seconds: float, work: Path) -> dict:
    net = gen.base_network(seed)
    data_dir = work / "data"
    gen.write_data_dir(data_dir, net)
    requests = gen.request_stream(seed, STREAM)
    tally = Tally()
    setups = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server = Server(data_dir, work)
            setups.append(server.setup_s)
        records, elapsed, samples = closed_loop(server.port, requests, tally, seconds=seconds)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    checked = check_samples(data_dir, net, requests, samples, work, tally)

    latencies = [r[2] * 1000 for r in records]
    p99 = percentile(latencies, 99)
    by_kind: dict[str, list[float]] = {}
    for _, kind, latency, _ in records:
        by_kind.setdefault(kind, []).append(latency * 1000)
    details = {
        "serve.rps": (len(records) / elapsed, "1/s"),
        "serve.p50_ms": (median(latencies), "ms"),
        "serve.p99_ms": (p99, "ms"),
        "serve.samples": (len(records), "count"),
        "serve.samples_beyond_p99": (sum(x > p99 for x in latencies), "count"),
        "serve.repeat_share": (repeat_share(requests, [r[0] for r in records]), "share"),
        "serve.bodies_checked": (checked, "count"),
    }
    for kind, values in sorted(by_kind.items()):
        details[f"serve.{kind}.p50_ms"] = (median(values), "ms")
        details[f"serve.{kind}.requests"] = (len(values), "count")
    return {
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "ops_per_s": len(records) / elapsed,
            "p50_ms": median(latencies),
            "p99_ms": p99,
        },
        "details": details,
        "tally": tally,
    }
