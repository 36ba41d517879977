"""Building blocks of the perfbench end-to-end benchmark.

The workloads, the statistics the metrics are reported with, how one
`experiments` child is spawned and measured (wall time from spawn to exit,
CPU time and peak RSS from `wait4` rusage), and the checks that decide
whether an invocation's outputs are correct. `run.py` composes them.
"""

import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import time
from pathlib import Path

# The `experiments` CLI's default `--seed` (0x5EED2010).
DEFAULT_SEED = 0x5EED2010

# Every invocation runs with this many worker threads: the core count of
# the machine the bounds were measured on (`nproc` = 2), fixed so results
# do not change with the host.
THREADS = 2

# Untimed set-ups per run; `setup_s` is their median.
SETUPS = 3

# A run times at least this many invocations, however long they take.
MIN_TIMED = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """One `experiments` invocation shape."""

    args: tuple
    rows: int
    certificates: bool = False
    journal: bool = False
    store: bool = False
    # Replay workloads are checked against an `--executor stepping`
    # reference; the others against their own first output.
    replay: bool = False
    # The certification workload passes the benchmark seed through (it only
    # changes the `seed` field of its output). The replay workloads run
    # the CLI's default seed: the sampled start pairs change their cost
    # several-fold from seed to seed, see README.md.
    seeded: bool = False


E6 = ("--experiment", "e6", "--sizes", "64,128,256,512", "--pairs", "8")

WORKLOADS = {
    "gather": Workload(
        args=("--experiment", "e10,e11"),
        rows=18976,
        certificates=True,
        journal=True,
        seeded=True,
    ),
    "replay-cold": Workload(args=E6, rows=192, replay=True),
    "replay-warm": Workload(args=E6, rows=192, replay=True, store=True),
}


# ---------------------------------------------------------------- statistics


def rank(n, p):
    """1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
    samples. The product is rounded first so that 90 % of 100 is 90, not
    the 91 a binary-float 90.00000000000001 would give."""
    return min(n, max(1, math.ceil(round(p / 100 * n, 6))))


def percentile(values, p):
    """Nearest-rank percentile `p` of a non-empty sequence."""
    return sorted(values)[rank(len(values), p) - 1]


TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(values):
    """The highest percentile of `TAIL_LADDER` with at least ten samples
    beyond it, as `(p, value)`; `None` when even the median has fewer."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - rank(n, p) >= 10:
            return p, percentile(values, p)
    return None


def cell_percentiles(durations_s):
    """The traced run's per-cell latency metrics from its `sweep.cell`
    span durations (seconds): the median and the tail percentile in
    microseconds, and which percentile the tail is (0 when even the median
    has fewer than ten samples beyond it, or there are no cells)."""
    if not durations_s:
        return {"sweep.cell.p50_us": 0.0, "sweep.cell.tail_us": 0.0, "sweep.cell.tail_pct": 0.0}
    tail_pct, tail_s = tail_percentile(durations_s) or (0.0, 0.0)
    return {
        "sweep.cell.p50_us": percentile(durations_s, 50) * 1e6,
        "sweep.cell.tail_us": tail_s * 1e6,
        "sweep.cell.tail_pct": tail_pct,
    }


def describe(values, unit):
    """A timing as printed: median, sample count, range, and the highest
    percentile with ten samples beyond it when there is one."""
    text = (
        f"median {statistics.median(values):.6g} {unit} over {len(values)} samples, "
        f"range {min(values):.6g}-{max(values):.6g}"
    )
    tail = tail_percentile(values)
    if tail is None:
        return text + " (no percentile has 10 samples beyond it)"
    return text + f", p{tail[0]:g} {tail[1]:.6g} {unit}"


# ---------------------------------------------------------------- processes


@dataclasses.dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def usage(rusage):
    """(CPU seconds, peak RSS in MiB) of a `wait4` rusage; Linux reports
    `ru_maxrss` in KiB."""
    return rusage.ru_utime + rusage.ru_stime, rusage.ru_maxrss / 1024


def spawn(argv, stdout_path, stderr_path):
    """Runs `argv` to completion and measures it. Wall time runs from just
    before the spawn to the child's exit; CPU time and peak RSS are the
    child's own, from `wait4`."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, rusage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait again.
    child.returncode = os.waitstatus_to_exitcode(status)
    cpu, rss = usage(rusage)
    return Sample(wall, cpu, rss, child.returncode)


# ---------------------------------------------------------------- checks


def digest(paths):
    """One hash over the bytes of `paths`, in order; a missing file hashes
    differently from any content."""
    h = hashlib.blake2b()
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            h.update(b"\x00missing\x00")
            continue
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def check_rows(path, expected_rows, certified):
    """Problems with a `--json` rows file: unreadable, the wrong number of
    rows, or (for a certification workload) a row not certified."""
    try:
        rows = json.loads(Path(path).read_bytes())["rows"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: unreadable rows ({e})"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    if certified:
        bad = sum(1 for r in rows if r.get("certified") is not True)
        if bad:
            problems.append(f"{path}: {bad} rows not certified")
    return problems


def check_certificates(path):
    """Problems with a `--certificates` file: unreadable, or a certificate
    whose re-verification failed."""
    try:
        certs = json.loads(Path(path).read_bytes())["certificates"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: unreadable certificates ({e})"]
    bad = sum(1 for c in certs if c.get("verified") is False)
    return [f"{path}: {bad} certificates failed verification"] if bad else []


class Tally:
    """Attempted and failed invocations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, problems):
        """Counts one invocation; it failed when `problems` is non-empty."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
        return not problems

    @property
    def failed(self):
        return len(self.failures)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0
