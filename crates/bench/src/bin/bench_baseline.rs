//! Perf-trajectory recorder: times the sweep executor on the standard
//! n ≈ 200 grids ([`sweep::perf_grid_fsa_scan`] / [`sweep::perf_grid_variants`],
//! shared with the `sweep_cells` criterion bench) and writes
//! `BENCH_sweep.json` with before/after numbers.
//!
//! **before** is the stepping executor ([`Executor::DynStepping`]): one
//! shared `Arc<SweepInstance>` per (family, size), the cell's agents
//! stepped through the k-lane round loop in every cell. **after** is the trace-replay
//! executor ([`Executor::TraceReplay`]): each `(family, n, start, variant)`
//! trajectory is recorded once into the process-wide trace store and every
//! cell is decided by timeline merge — the best-of-`reps` timing therefore
//! reports the warm steady state, which is what repeated sweeps, delay
//! columns and overlapping grids actually pay. Both legs produce the
//! identical row stream (asserted before any number is written), so the
//! ratio is pure executor cost.
//!
//! The run *fails* (exit 1) if `sweep_cells_variants` — the procedural
//! agent grid whose simulation time used to dominate — speeds up by less
//! than 3× (the ISSUE-3 floor; the committed baseline records well above),
//! if `decide_cells` — the exact decider against stepping — falls below
//! 0.66× (the ISSUE-6 floor for the orbit-quotiented, memoized rebuild),
//! if `ensemble_cells` — the k-lane timeline merge against k-lane
//! stepping on the 3-agent gathering grid — falls below 1× (the ISSUE-10
//! floor: the merge reuses solo recordings and must keep pace).
//!
//! Usage: `bench_baseline [OUT.json]` (default `BENCH_sweep.json`);
//! `just bench-baseline` and CI's bench-smoke call this.

use rvz_bench::sweep::{self, Executor, SweepSpec};
use std::time::Instant;

/// Best-of-`reps` wall time of `f`, in nanoseconds, plus its last output.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (u128, T) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_nanos());
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

/// Serializes rows with the exact decider's `certified` flag cleared — the
/// only field executors are *allowed* to differ on.
fn rows_modulo_certification(rows: &[sweep::SweepRow]) -> String {
    let mut rows = rows.to_vec();
    for r in &mut rows {
        r.certified = false;
    }
    serde_json::to_string(&rows).expect("serialize")
}

/// Measures one grid under a before/after executor pair and returns its
/// JSON record plus the measured speedup.
fn measure_pair(
    name: &str,
    spec: &SweepSpec,
    reps: usize,
    before_exec: (Executor, &str),
    after_exec: (Executor, &str),
) -> (serde_json::Value, f64) {
    let cells = sweep::cells(spec).len();
    let mut before_spec = spec.clone();
    before_spec.executor = before_exec.0;
    let mut after_spec = spec.clone();
    after_spec.executor = after_exec.0;

    let (before_ns, before_report) = time_best(reps, || sweep::run(&before_spec));
    let (after_ns, after_report) = time_best(reps, || sweep::run(&after_spec));

    // Executors must agree on every row (modulo the certification flag,
    // which only the exact decider sets).
    assert_eq!(
        rows_modulo_certification(&before_report.rows),
        rows_modulo_certification(&after_report.rows),
        "{name}: executors diverged"
    );

    let speedup = before_ns as f64 / after_ns as f64;
    let grid_meta = serde_json::json!({
        "families": spec.families.iter().map(|f| f.name()).collect::<Vec<_>>(),
        "sizes": spec.sizes,
        "delays": spec.delays.iter().map(|d| format!("{d:?}")).collect::<Vec<_>>(),
        "variants": spec.variants.iter().map(|v| v.name()).collect::<Vec<_>>(),
        "pairs_per_cell": spec.pairs_per_cell,
        "seed": spec.seed
    });
    let before = serde_json::json!({
        "executor": before_exec.1,
        "total_ns": before_ns as u64,
        "ns_per_cell": (before_ns / cells as u128) as u64
    });
    let after = serde_json::json!({
        "executor": after_exec.1,
        "total_ns": after_ns as u64,
        "ns_per_cell": (after_ns / cells as u128) as u64
    });
    println!(
        "{name}: {cells} cells, before {:.2} ms, after {:.2} ms, speedup {speedup:.2}x",
        before_ns as f64 / 1e6,
        after_ns as f64 / 1e6
    );
    let record = serde_json::json!({
        "benchmark": name,
        "grid": grid_meta,
        "cells": cells,
        "reps": reps,
        "before": before,
        "after": after,
        "speedup": (speedup * 100.0).round() / 100.0
    });
    (record, speedup)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sweep.json".into());
    let reps = 5;
    const STEPPING: (Executor, &str) =
        (Executor::DynStepping, "shared-instance dyn stepping (PR-2; Executor::DynStepping)");
    const REPLAY: (Executor, &str) =
        (Executor::TraceReplay, "trace replay over the warm process-wide trajectory store");
    const DECIDE: (Executor, &str) = (
        Executor::ExactDecide,
        "exact decider over the joint configuration graph (budget-free, certifying)",
    );
    let (primary, _) =
        measure_pair("sweep_cells", &sweep::perf_grid_fsa_scan(), reps, STEPPING, REPLAY);
    let (secondary, variants_speedup) =
        measure_pair("sweep_cells_variants", &sweep::perf_grid_variants(), reps, STEPPING, REPLAY);
    // The decider is measured against stepping on the automaton grid — the
    // workload it answers natively. Since the orbit-quotiented, memoized
    // rebuild it is expected to at least keep pace with stepping while
    // also certifying; the ISSUE-6 floor below holds it to ≥ 0.66x.
    let (decide, decide_speedup) =
        measure_pair("decide_cells", &sweep::perf_grid_fsa_scan(), reps, STEPPING, DECIDE);
    // The ensemble leg: the e11 gathering workload at its top size (three
    // basic-walk copies, every free tree at n = 7, every ordered feasible
    // start triple, the three e11 schedule columns). The k-lane timeline
    // merge reuses each lane's solo recording across every triple and
    // schedule that visits it, so it must at least keep pace with k-lane
    // stepping; the 1x floor below pins that.
    let (ensemble, ensemble_speedup) =
        measure_pair("ensemble_cells", &sweep::perf_grid_ensemble(), reps, STEPPING, REPLAY);
    let payload = serde_json::json!({
        "schema": "rvz-bench-sweep/v5",
        "n": 200,
        "sweep_cells": primary,
        "sweep_cells_variants": secondary,
        "decide_cells": decide,
        "ensemble_cells": ensemble
    });
    let body = serde_json::to_string_pretty(&payload).expect("serialize");
    rvz_bench::wire::atomic_write(std::path::Path::new(&out_path), format!("{body}\n").as_bytes())
        .expect("write BENCH_sweep.json");
    println!("  (written to {out_path})");
    if variants_speedup < 3.0 {
        eprintln!(
            "error: sweep_cells_variants speedup {variants_speedup:.2}x is below the 3x floor \
             (trace replay must beat the PR-2 stepping path)"
        );
        std::process::exit(1);
    }
    if decide_speedup < 0.66 {
        eprintln!(
            "error: decide_cells speedup {decide_speedup:.2}x is below the 0.66x floor \
             (the quotiented+memoized exact decider must stay within 1.5x of stepping)"
        );
        std::process::exit(1);
    }
    if ensemble_speedup < 1.0 {
        eprintln!(
            "error: ensemble_cells speedup {ensemble_speedup:.2}x is below the 1x floor \
             (the k-lane timeline merge must keep pace with k-lane stepping)"
        );
        std::process::exit(1);
    }
}
