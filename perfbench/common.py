"""Helpers shared by the workloads: paths, subprocesses, the server, statistics."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
WORK = ROOT / "perfbench" / ".work"

# The `komohe` console script is `komohe.cli:main`; the package is run from
# `src` without installing it, and komohe.cli has no `__main__` guard.
KOMOHE = [sys.executable, "-c", "import sys; from komohe.cli import main; sys.argv[0] = 'komohe'; main()"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every child: steadier timings
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check(self, ok: bool, reason: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok

    def fail(self, reason: str) -> None:
        """Mark an operation already counted as attempted as failed."""
        with self._lock:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_process(cmd: list[str], workdir: Path, timeout: float = 120.0) -> CliRun:
    """Run `cmd` with `src` on PYTHONPATH; wall time spans spawn to exit.

    Output goes to files, not pipes, so the child can be reaped with wait4,
    which also reports its own peak RSS.
    """
    out_path, err_path = workdir / "proc.out", workdir / "proc.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        deadline = start + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024,
    )


def run_cli(args: list[str], workdir: Path, timeout: float = 120.0) -> CliRun:
    """Run `komohe <args>` as a subprocess."""
    return run_process(KOMOHE + args, workdir, timeout)


class Server:
    """`komohe serve` started through a config file with port=0."""

    def __init__(self, data_dir: Path, workdir: Path):
        # `--port 0` would bind 8080: cmd_serve tests `if args.port:`, and 0
        # is falsy. The config file's port=0 does reach the socket.
        config = workdir / "serve.conf"
        config.write_text(f"host=127.0.0.1\nport=0\ndata={data_dir}\n", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            KOMOHE + ["serve", "--config", str(config)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        self.port = 0
        self.log: list[str] = []
        for line in self.proc.stderr:
            self.log.append(line.rstrip("\n"))
            if "serving on " in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        self.setup_s = time.perf_counter() - start
        if not self.port:
            self.stop()
            raise RuntimeError("server exited before serving: " + " | ".join(self.log[-5:]))
        # keep draining stderr so a chatty server never blocks on a full pipe
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.proc.stderr:
            if len(self.log) < 1000:
                self.log.append(line.rstrip("\n"))

    def cpu_s(self) -> float:
        """utime + stime of the server process, from /proc/<pid>/stat."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if hasattr(self, "_drain"):
            self._drain.join(timeout=5)
        self.proc.stderr.close()
