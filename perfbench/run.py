#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of the `experiments` runs people execute.

    python3 perfbench/run.py --workload gather --seed 1 --seconds 30 --trace 0

Builds `experiments` and the tracer (`perfbench/tracer`) from the
checkout this file sits in, into `$CARGO_TARGET_DIR` (default
`.bench_build`). Then it runs one workload as a closed loop with one
client: one fresh `experiments` child at a time, each started after the
previous one exited. Outputs go to `.bench_run/<workload>` in the checkout.

A run first makes the reference every later output must match byte for
byte: for the replay workloads one `--executor stepping` run, otherwise
the first set-up's output. It then sets up three times: the workload's
own first invocation, which for `replay-warm` fills a fresh `--store`;
`setup_s` is their median wall time. Then it times invocations for
`--seconds`. With `--trace 1` it finally drives the same workload once
in-process through `perfbench-trace`, which reports per-layer metrics and
must reproduce the reference output byte for byte.

Prints every metric with its unit and sample count, then, as the last
line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
`--trace 1`). Exits 2 without a result when the checkout has no sources
to build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness as h

ROOT = Path(__file__).resolve().parent.parent


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Builds both binaries; a no-op when they are up to date."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["--bin", "experiments"], ["--manifest-path", "perfbench/tracer/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", *extra]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die(f"`{' '.join(cmd)}` failed with exit code {done.returncode}")
    return target / "release" / "experiments", target / "release" / "perfbench-trace"


class Run:
    """One workload's invocations, their measurements and their checks."""

    def __init__(self, workload, seed, exe, tracer, work):
        self.wl = workload
        self.seed = seed if workload.seeded else h.DEFAULT_SEED
        self.exe = exe
        self.tracer = tracer
        self.work = work
        self.store = work / "store"
        self.tally = h.Tally()
        self.reference = None
        self.store_digest = None
        self.setups = []
        self.samples = []
        self.rejected = []
        self.bytes_written = 0

    def outputs(self, d):
        """The files compared byte for byte: rows, and certificates."""
        return [d / "rows.json"] + ([d / "certs.json"] if self.wl.certificates else [])

    def argv(self, program, d, reference=False):
        argv = [str(program), *self.wl.args, "--threads", str(h.THREADS)]
        argv += ["--seed", str(self.seed), "--json", str(d / "rows.json")]
        if reference:
            return argv + ["--executor", "stepping"]
        if self.wl.certificates:
            argv += ["--certificates", str(d / "certs.json")]
        if self.wl.journal:
            argv += ["--checkpoint", str(d / "journal")]
        if self.wl.store:
            argv += ["--store", str(self.store)]
        return argv

    def invoke(self, argv, d):
        """Runs one child with fresh output files (a fresh journal too)."""
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        sample = h.spawn(argv, d / "stdout", d / "stderr")
        problems = []
        if sample.exit_code != 0:
            tail = (d / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {sample.exit_code} {tail}")
        return sample, problems

    def matches_reference(self, d, what):
        if self.reference is None:
            return [f"{what}: no reference output to compare with"]
        if h.digest(self.outputs(d)) != self.reference:
            return [f"{what}: output differs from the reference"]
        return []

    def adopt_reference(self, d):
        """Content-checks the first good output and makes it the reference;
        later outputs must match it."""
        if self.reference is not None:
            return self.matches_reference(d, "set-up")
        problems = h.check_rows(d / "rows.json", self.wl.rows, certified=not self.wl.replay)
        if self.wl.certificates:
            problems += h.check_certificates(d / "certs.json")
        if not problems:
            self.reference = h.digest(self.outputs(d))
        return problems

    def set_up(self):
        """Makes the reference, then runs `SETUPS` set-ups outside the timed
        loop, each the workload's own first invocation. The replay
        workloads' stepping reference is not one and stays out of
        `setup_s`."""
        if self.wl.replay:
            d = self.work / "reference"
            _, problems = self.invoke(self.argv(self.exe, d, reference=True), d)
            self.tally.record(problems or self.adopt_reference(d))
        for _ in range(h.SETUPS):
            if self.wl.store:
                shutil.rmtree(self.store, ignore_errors=True)
            d = self.work / "setup"
            sample, problems = self.invoke(self.argv(self.exe, d), d)
            problems = problems or self.adopt_reference(d)
            if self.wl.store:
                fill = h.digest(self.store_files())
                if self.store_digest not in (None, fill):
                    problems.append("store fill: differs from the previous fill")
                self.store_digest = fill
            self.tally.record(problems)
            self.setups.append(sample.wall_s)

    def store_files(self):
        return sorted(self.store.glob("*.store"))

    def measure(self, seconds):
        d = self.work / "timed"
        deadline = time.perf_counter() + seconds
        attempts = 0
        while attempts < h.MIN_TIMED or time.perf_counter() < deadline:
            attempts += 1
            sample, problems = self.invoke(self.argv(self.exe, d), d)
            problems = problems or self.matches_reference(d, "timed run")
            if self.wl.store and h.digest(self.store_files()) != self.store_digest:
                problems.append("timed run: the store changed")
            (self.samples if self.tally.record(problems) else self.rejected).append(sample)
        written = self.outputs(d) + [d / "journal"] + (self.store_files() if self.wl.store else [])
        self.bytes_written = sum(p.stat().st_size for p in written if p.exists())

    def end_to_end(self):
        samples = self.samples or self.rejected
        wall = statistics.median([s.wall_s for s in samples])
        return {
            "wall_s": wall,
            "cells_per_s": self.wl.rows / wall,
            "cpu_s": statistics.median([s.cpu_s for s in samples]),
            "peak_rss_mb": statistics.median([s.peak_rss_mb for s in samples]),
            "setup_s": statistics.median(self.setups),
        }

    def trace(self, wall_s):
        """The traced in-process drive; its outputs must match the
        reference, or it measured different work."""
        d = self.work / "trace"
        sample, problems = self.invoke(self.argv(self.tracer, d), d)
        layers = {}
        if not problems:
            problems = self.matches_reference(d, "traced run")
            try:
                layers = json.loads((d / "stdout").read_text())
                layers.update(h.cell_percentiles(layers.pop("sweep.cell.durations_s")))
            except (ValueError, KeyError, TypeError) as e:
                layers = {}
                problems.append(f"traced run: unreadable metrics ({e!r})")
        self.tally.record(problems)
        layers["trace.wall_s"] = sample.wall_s
        layers["trace.overhead_s"] = sample.wall_s - wall_s
        return layers


def report(name, run, metrics, units, layers):
    """The human-readable lines, with units and sample counts."""
    nproc = os.cpu_count()
    print(f"perfbench {name}: experiments seed {run.seed}, --threads {h.THREADS}, nproc {nproc}")
    print(f"  outputs under {run.work.relative_to(ROOT)} (the checkout's own disk)")
    timed = run.samples or run.rejected
    for key, unit, values in (
        ("wall_s", "s", [s.wall_s for s in timed]),
        ("cpu_s", "s", [s.cpu_s for s in timed]),
        ("peak_rss_mb", "MiB", [s.peak_rss_mb for s in timed]),
        ("setup_s", "s", run.setups),
    ):
        print(f"  {key:<12} {h.describe(values, unit)}")
    print(
        f"  {'cells_per_s':<12} {metrics['cells_per_s']:.6g} 1/s "
        f"({run.wl.rows} rows / wall_s over {len(timed)} samples)"
    )
    print(
        f"  {'error_rate':<12} {run.tally.error_rate:g} "
        f"({run.tally.failed} failed of {run.tally.attempted} invocations)"
    )
    print(f"  {'bytes':<12} {run.bytes_written} written per invocation")
    for failure in run.tally.failures:
        print(f"  failure: {failure}")
    for key in sorted(layers):
        print(f"  {key:<24} {layers[key]:.6g} {units.get(key, '')}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(h.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("Cargo.toml", "src/bin/experiments.rs", "crates/bench/src/cli.rs"):
        if not (ROOT / needed).is_file():
            die(f"no {needed} in {ROOT}: the benchmark builds `experiments` from its checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe, tracer = build(target)

    work = ROOT / ".bench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    run = Run(h.WORKLOADS[args.workload], args.seed, exe, tracer, work)
    run.set_up()
    run.measure(args.seconds)
    metrics = run.end_to_end()
    layers = run.trace(metrics["wall_s"]) if args.trace else {}
    shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = {**metrics, **layers}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    # Only a failed traced drive leaves metrics unmeasured; report them as 0.
    assert run.tally.failed or not missing, f"metrics not measured: {missing}"
    report(args.workload, run, metrics, units, layers)
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
