"""komohe benchmark: one workload per run, one JSON result as the last stdout line.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` measures the end-to-end metrics with no instrumentation.
`--trace 1` runs the traced sweep that reports the per-layer metrics.
`--workload all` runs every workload untraced, then the traced sweep, and
prints every figure by name and unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

from common import OUT, ROOT, SRC, WORK

WORKLOADS = ("serve-mix", "curate")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms"}


def provenance(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "loadavg_at_start": os.getloadavg(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(args: argparse.Namespace) -> int:
    prov = provenance(args)
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            import traced

            result = traced.run(args.workload, args.seed, args.seconds, work)
            units = {name: unit for name, (_, unit) in result["per_layer"].items()}
            metrics = {name: value for name, (value, _) in result["per_layer"].items()}
        else:
            result = importlib.import_module(args.workload.replace("-", "_")).run(args.seed, args.seconds, work)
            units, metrics = UNITS, result["metrics"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = result["tally"]
    details = dict(result["details"])
    details["error_rate"] = (tally.failed / tally.attempted, "failed/attempted")
    record = {
        "provenance": prov,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "details": {name: {"value": value, "unit": unit} for name, (value, unit) in details.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    for name, entry in {**record["details"], **record["metrics"]}.items():
        print(f"{args.workload}\t{name}\t{entry['value']}\t{entry['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then the traced sweep, each in its own process."""
    status = 0
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"{workload} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        print(f"{workload}\tcorrect\t{result['correct']}\t{result['failed']} of {result['attempted']} failed")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "komohe" / "__init__.py").is_file():
        print(f"error: no komohe package under {SRC}; run from a komohe checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
