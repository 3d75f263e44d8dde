"""The traced sweep behind every `--trace 1` run.

Each traced run must report every per-layer metric, so the sweep is the
same whatever `--workload` names: it calls into all eight modules with the
tracer installed, on inputs drawn from the seed, in fixed amounts so counts
repeat exactly. Steps, in order:

1. load the base data dir in-process (registry, store, service.Dataset);
2. replay a fixed slice of the serve-mix stream over HTTP to an untraced
   `komohe serve`, then in-process through the handler's `route()` without
   and with tracing (service, queries, store lookups, translate);
3. run `komohe import` of a 10k-row file with planted bad lines
   in-process through `komohe.cli.run`, and time `komohe --help` as a
   subprocess (cli);
4. the first third of a curate pass, through `curate.step`, checked with
   `curate.Expected` (inference, assessment, skos).

Per-layer timings are inflated by the wrappers; `trace.overhead.*` reports
by how much on two contrasting paths.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

import curate
import gen
from common import OUT, Server, Tally, median, percentile, run_cli
from serve_mix import closed_loop
from trace import Tracer

# requests replayed per (kind, leaves) so every route and query size is present
REPLAY_QUOTA = {("mappings", 0): 150, ("expand", 1): 20, ("expand", 5): 20, ("expand", 20): 20, ("translate", 0): 30, ("vocabularies", 0): 10}
REPLAY_STREAM = 4000  # long enough to fill every quota
LEAF_GROUPS = (1, 5, 20)
CURATE_SHARE = 3  # the sweep runs the first third of a curate pass; every step is in it


def replay_slice(seed: int) -> list[gen.Request]:
    quota = dict(REPLAY_QUOTA)
    picked = []
    for req in gen.request_stream(seed, REPLAY_STREAM):
        key = (req.kind, len(req.args[1]) if req.kind == "expand" else 0)
        if quota.get(key, 0) > 0:
            quota[key] -= 1
            picked.append(req)
    if any(quota.values()):
        raise RuntimeError(f"request stream too short for the replay quota: {quota}")
    return picked


def group_of(req: gen.Request) -> str:
    return f"expand-{len(req.args[1])}leaf" if req.kind == "expand" else req.kind


def route_replay(dataset, requests: list[gen.Request], tracer: Tracer | None):
    """Each request through KomoheRequestHandler.route as do_GET calls it; returns (per-request s, encoded bodies)."""
    from komohe.errors import NotFoundError
    from komohe.service import KomoheRequestHandler

    handler_cls = type("ReplayHandler", (KomoheRequestHandler,), {"dataset": dataset, "max_expansion_terms": 32})
    handler = handler_cls.__new__(handler_cls)
    seconds, bodies = [], []
    for req in requests:
        if tracer is not None:
            tracer.group = group_of(req)
        split = urlsplit(req.path)
        segments = [unquote(s) for s in split.path.split("/") if s]
        params = parse_qs(split.query, keep_blank_values=True)
        start = time.perf_counter()
        try:
            payload, status = handler.route(segments, params)
        except NotFoundError as exc:
            payload, status = {"v": 1, "error": str(exc)}, 404
        seconds.append(time.perf_counter() - start)
        bodies.append((status, json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")))
    if tracer is not None:
        tracer.group = ""
    return seconds, bodies


def import_counts(stdout: str) -> dict[str, int]:
    """The `name<TAB>count` lines that `komohe import` prints."""
    return {k: int(v) for k, v in (line.split("\t") for line in stdout.splitlines())}


def us(values_ns: list[int], q: float = 50) -> float:
    return percentile(values_ns, q) / 1e3


def run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    # library calls go through the module at call time, so they reach the installed wrappers
    import komohe
    from komohe import Dataset, cli

    tally = Tally()
    m: dict[str, tuple[float, str]] = {}
    tracers: dict[str, Tracer] = {}
    net = gen.base_network(seed)
    data_dir = work / "data"
    gen.write_data_dir(data_dir, net)

    # 1. load
    with Tracer() as tr:
        dataset = Dataset.load([data_dir])
        stats = dataset.store.stats()
    tracers["load"] = tr
    total = sum(s.mapping_count for s in stats.values())
    tally.check(total == gen.BASE_MAPPINGS, f"traced load holds {total} mappings")
    m["registry.import_terms_s"] = (tr.total_s("registry.import_terms"), "s")
    m["registry.normalize_term.calls_per_mapping"] = (tr.within[("registry.normalize_term", "store.import_tsv")] / total, "count")
    m["registry.normalize_term.ns"] = (sum(tr.ns("registry.normalize_term")) / tr.calls["registry.normalize_term"], "ns")
    m["store.import_tsv.us_per_line"] = (tr.total_s("store.import_tsv") / total * 1e6, "us")
    m["store.stats_s"] = (tr.total_s("store.stats"), "s")

    # 2. serve: HTTP against an untraced server, then the same requests in-process
    requests = replay_slice(seed)
    server = Server(data_dir, work)
    try:
        cpu0 = server.cpu_s()
        records, _, bodies = closed_loop(server.port, requests, tally, count=len(requests), sample_every=1)
        cpu_s = server.cpu_s() - cpu0
    finally:
        server.stop()
    plain_s, plain_bodies = route_replay(dataset, requests, None)
    with Tracer() as tr:
        traced_start = time.perf_counter()
        _, traced_bodies = route_replay(dataset, requests, tr)
        traced_s = time.perf_counter() - traced_start
    tracers["serve"] = tr
    for i, (status, body) in enumerate(plain_bodies):
        if i in bodies:
            tally.check(bodies[i] == body, f"{requests[i].path}: HTTP body differs from in-process route()")
        tally.check(status == requests[i].status and traced_bodies[i] == (status, body), f"{requests[i].path}: in-process status {status}")
    m["registry.lookup_term.us"] = (us(tr.ns("registry.lookup_term")), "us")
    m["store.mappings_from.p50_us"] = (us(tr.ns("store.mappings_from")), "us")
    m["store.mappings_from.p99_us"] = (us(tr.ns("store.mappings_from"), 99), "us")
    m["store.mappings_from.results_per_call"] = (tr.results["store.mappings_from"] / len(tr.ns("store.mappings_from")), "count")
    for leaves in LEAF_GROUPS:
        group = f"expand-{leaves}leaf"
        m[f"queries.parse_us.{leaves}leaf"] = (us(tr.ns("queries.parse_query", group)), "us")
        m[f"queries.expand_us.{leaves}leaf"] = (us(tr.ns("queries.expand_query", group)), "us")
        m[f"queries.render_us.{leaves}leaf"] = (us(tr.ns("queries.render_query", group)), "us")
    leaves = additions = 0
    for req, (_, body) in zip(requests, plain_bodies):
        if req.kind == "expand":
            leaves += len(req.args[1])
            additions += sum(len(entry["additions"]) for entry in json.loads(body)["trace"])
    m["queries.additions_per_leaf"] = (additions / leaves, "count")
    m["service.translate.us"] = (us(tr.ns("service.translate")), "us")
    m["service.cpu_ms_per_req"] = (cpu_s * 1000 / len(records), "ms")
    for kind in ("mappings", "expand", "translate", "vocabularies"):
        http_ms = [r[2] * 1000 for r in records if r[1] == kind]
        route_ms = [s * 1000 for s, req in zip(plain_s, requests) if req.kind == kind]
        m[f"service.route.{kind}.p50_ms"] = (us(tr.ns("service.route", kind)) / 1e3, "ms")
        m[f"service.overhead_ms.{kind}"] = (median(http_ms) - median(route_ms), "ms")
        m[f"service.response_bytes.{kind}"] = (sum(r[3] for r in records if r[1] == kind) / len(http_ms), "bytes")
    m["trace.overhead.route_pct"] = ((traced_s - sum(plain_s)) / sum(plain_s) * 100, "%")

    # 3. cli: `komohe import` in-process on a copy of the base data dir
    startups = []
    for _ in range(3):
        r = run_cli(["--help"], work)
        tally.check(r.returncode == 0 and "usage: komohe" in r.stdout, f"--help exit {r.returncode}")
        startups.append(r.wall_s)
    m["cli.startup_s"] = (median(startups), "s")
    batch = gen.import_batch(seed, net)
    import_tsv = work / "import.tsv"
    import_tsv.write_text(batch.text, encoding="utf-8")
    cli_dir = work / "cli"
    shutil.copytree(data_dir, cli_dir)
    out = io.StringIO()
    with Tracer() as tr, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(["--data", str(cli_dir), "import", str(import_tsv)])
    tracers["cli"] = tr
    rejected = batch.planted_malformed + batch.planted_duplicates
    counts = import_counts(out.getvalue()) if code == 0 else {}
    tally.check(counts.get("errors") == rejected, f"traced import: exit {code}, {out.getvalue()!r}")
    stored = gen.BASE_MAPPINGS + counts.get("mappings_added", 0)
    m["store.import_tsv.rejected"] = (counts.get("errors", -1), "count")
    m["store.add_mapping.calls"] = (tr.calls["store.add_mapping"], "count")
    m["store.export_tsv_s"] = (tr.total_s("store.export_tsv"), "s")
    m["cli.save_s"] = (tr.total_s("cli.save_dataset"), "s")
    m["cli.bytes_per_mapping"] = (sum(p.stat().st_size for p in cli_dir.iterdir()) / stored, "bytes")
    shutil.rmtree(cli_dir)

    # 4. curate
    corpus_text, postings = gen.corpus(seed)
    corpus_path = work / "corpus.tsv"
    corpus_path.write_text(corpus_text, encoding="utf-8")
    del corpus_text
    start = time.perf_counter()
    with corpus_path.open(encoding="utf-8") as fh:
        komohe.load_corpus(fh)
    plain_corpus_s = time.perf_counter() - start
    plan = curate.plan()
    sampled = curate.checked_infers(plan)
    ops = plan[: len(plan) // CURATE_SHARE]
    digests = []
    with Tracer() as tr:
        with corpus_path.open(encoding="utf-8") as fh:
            corpus = komohe.load_corpus(fh).corpus
        for i, op in enumerate(ops):
            result = curate.step(op, dataset.store, corpus, seed, i)
            if op[0] != "infer" or op in sampled:
                digests.append((op, curate.digest(op, result)))
    tracers["curate"] = tr
    expected = curate.Expected(net, postings)
    for op, got in digests:
        expected.check(tally, op, got)
    conflicts = tr.results["inference.detect_variant_mappings"]
    skos_skipped = sum(got[0] + got[1] for op, got in digests if op[0] == "skos")
    m["assessment.load_corpus_s"] = (tr.total_s("assessment.load_corpus"), "s")
    m["trace.overhead.load_corpus_pct"] = ((m["assessment.load_corpus_s"][0] - plain_corpus_s) / plain_corpus_s * 100, "%")
    m["assessment.assess_mapping.us"] = (us(tr.ns("assessment.assess_mapping")), "us")
    m["inference.infer_pivot.ms"] = (us(tr.ns("inference.infer_pivot")) / 1e3, "ms")
    m["inference.inferred"] = (tr.results["inference.infer_pivot"], "count")
    m["inference.variants.ms"] = (us(tr.ns("inference.detect_variant_mappings")) / 1e3, "ms")
    m["inference.conflicts"] = (conflicts, "count")
    m["skos.export_s"] = (tr.total_s("skos.export_skos"), "s")
    m["skos.import_s"] = (tr.total_s("skos.import_skos"), "s")
    m["skos.skipped"] = (skos_skipped, "count")

    m["trace.spans"] = (sum(len(t.spans) for t in tracers.values()), "count")
    for phase, t in tracers.items():
        t.dump(OUT / f"trace-{workload}-seed{seed}-{phase}.tsv")
    return {"per_layer": m, "details": {}, "tally": tally}
