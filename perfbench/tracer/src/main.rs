//! Traced, single-threaded, in-process drive of one perfbench workload.
//!
//! ```text
//! perfbench-trace --experiment IDS [--sizes A,B] [--pairs K] [--seed S]
//!                 [--threads N] --json ROWS [--certificates CERTS]
//!                 [--checkpoint JOURNAL] [--store DIR]
//! ```
//!
//! Takes the `experiments` sweep arguments a workload runs with and does
//! the same work by calling each layer's public functions directly, with a
//! span (name, start, end, parent) around every call. Spans stay in memory
//! until the drive ends. It then prints one JSON object of per-layer
//! metrics on stdout: self times, plus counts taken at the same
//! boundaries, and the duration of every `sweep.cell` span, from which
//! the caller takes the cell-latency percentiles. Rows, certificates and
//! journal go to the paths given, serialized exactly as `rvz_bench::cli`
//! does, so the caller can compare them byte for byte with the CLI's
//! output. With `--store`, the stores are flushed back into it at the end,
//! as the CLI does.
//!
//! `--threads` only enters the specs (as in the CLI): every parallel
//! iterator runs inside a one-thread pool, so layer seconds add up to CPU
//! time.
//!
//! `decide.*` and `verify` are measured outside the cell spans. They
//! re-run the decider's public entry points after the cell pass and
//! estimate the share those layers take inside `sweep.cell.s`. They are
//! not subtracted from it.

use rvz_bench::checkpoint::{CellRecord, Journal};
use rvz_bench::sweep::{
    self, Cell, Certificate, Delay, Executor, SweepInstance, SweepReport, SweepRow, SweepSpec,
    Variant,
};
use rvz_bench::{checkpoint, e10, e11, e9, stores, wire};
use rvz_lowerbounds::decide::SoloLasso;
use rvz_sim::EnsembleSchedule;
use rvz_trees::NodeId;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The CLI's default `--seed` (`0x5EED2010`).
const DEFAULT_SEED: u64 = 0x5EED_2010;

/// Spans that only group their children; their self time is the drive's
/// own glue and is reported as `trace.unattributed.s`.
const GLUE_SPANS: [&str; 2] = ["run", "pass"];

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder: a stack of open spans over one clock.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Per span name: (count, total duration, total self time). Self time
    /// is a span's duration minus the durations of its direct children.
    fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += s.end - s.start - c;
        }
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }
}

/// The subset of the CLI's sweep-mode flags the workloads use.
struct Args {
    ids: Vec<String>,
    sizes: Option<Vec<usize>>,
    pairs: Option<usize>,
    seed: u64,
    threads: usize,
    json: PathBuf,
    certificates: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    store: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {flag} `{v}`"))
    }
    let mut ids = None;
    let mut json = None;
    let mut args = Args {
        ids: Vec::new(),
        sizes: None,
        pairs: None,
        seed: DEFAULT_SEED,
        threads: 0,
        json: PathBuf::new(),
        certificates: None,
        checkpoint: None,
        store: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--experiment" => {
                ids = Some(v.split(',').map(|s| s.trim().to_lowercase()).collect::<Vec<_>>())
            }
            "--sizes" => {
                let mut sizes = v
                    .split(',')
                    .map(|s| num("--sizes", s.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
                sizes.sort_unstable();
                sizes.dedup();
                args.sizes = Some(sizes);
            }
            "--pairs" => args.pairs = Some(num("--pairs", v)?),
            "--seed" => args.seed = num("--seed", v)?,
            "--threads" => args.threads = num("--threads", v)?,
            "--json" => json = Some(PathBuf::from(v)),
            "--certificates" => args.certificates = Some(PathBuf::from(v)),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(v)),
            "--store" => args.store = Some(PathBuf::from(v)),
            other => return Err(format!("unsupported argument `{other}`")),
        }
    }
    args.ids = ids.ok_or("--experiment is required")?;
    args.json = json.ok_or("--json is required")?;
    Ok(args)
}

/// The specs `cli::resolve_sweep` builds for the same arguments.
fn resolve_specs(args: &Args) -> Result<Vec<(String, Vec<usize>, SweepSpec)>, String> {
    let mut planned = Vec::new();
    for id in &args.ids {
        let enumerated = matches!(id.as_str(), "e9" | "e10" | "e11");
        let sizes = args.sizes.clone().unwrap_or_else(|| match id.as_str() {
            "e9" => sweep::E9_DEFAULT_SIZES.to_vec(),
            "e10" => sweep::E10_DEFAULT_SIZES.to_vec(),
            "e11" => sweep::E11_DEFAULT_SIZES.to_vec(),
            _ => sweep::DEFAULT_SIZES.to_vec(),
        });
        let mut spec = sweep::preset(id, &sizes, args.threads, args.seed)
            .ok_or_else(|| format!("unknown experiment `{id}`"))?;
        if let Some(pairs) = args.pairs {
            spec.pairs_per_cell = pairs;
        }
        spec.executor = if enumerated { Executor::ExactDecide } else { Executor::TraceReplay };
        planned.push((id.clone(), sizes, spec));
    }
    Ok(planned)
}

/// One planned experiment after its cell pass: the grid, each cell's
/// instance, and what each cell produced.
struct Ran {
    id: String,
    sizes: Vec<usize>,
    spec: SweepSpec,
    grid: Vec<Cell>,
    instances: Vec<Arc<SweepInstance>>,
    results: Vec<(Option<SweepRow>, Option<Certificate>)>,
}

impl Ran {
    /// The report `sweep::run_with_options` assembles, moving the results.
    fn into_report(self) -> (String, Vec<usize>, SweepReport) {
        let planned_cells = self.grid.len();
        let mut rows = Vec::with_capacity(planned_cells);
        let mut certificates = Vec::new();
        for (row, cert) in self.results {
            rows.extend(row);
            certificates.extend(cert);
        }
        let report = SweepReport {
            dropped_cells: planned_cells - rows.len(),
            planned_cells,
            rows,
            certificates,
            append_failures: 0,
        };
        (self.id, self.sizes, report)
    }
}

#[derive(Default)]
struct Counts {
    trees: u64,
    plan_cells: u64,
    journal_appends: u64,
    journal_bytes: u64,
    store_records: u64,
    store_bytes: u64,
    loaded: u64,
    dropped: u64,
    skipped: u64,
    save_bytes: u64,
    solo: u64,
    orbits: u64,
    orbit_cells: u64,
    serialize_bytes: u64,
    write_bytes: u64,
    verify_mismatches: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).and_then(|a| resolve_specs(&a).map(|p| (a, p)));
    let (args, planned) = args.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one-thread pool");
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let replay = pool.install(|| tracer.span("run", |t| drive(t, &mut counts, &args, planned)));
    println!("{}", metrics(&tracer, &counts, replay));
    if counts.verify_mismatches > 0 {
        eprintln!(
            "error: {} re-verified lasso(s) disagree with their certificate",
            counts.verify_mismatches
        );
        std::process::exit(1);
    }
}

/// The whole drive, in the CLI's order, plus the out-of-cell decide and
/// verify estimates. Returns whether the workload is a trace-replay one.
fn drive(
    t: &mut Tracer,
    counts: &mut Counts,
    args: &Args,
    planned: Vec<(String, Vec<usize>, SweepSpec)>,
) -> bool {
    if let Some(dir) = &args.store {
        let (trace, solo) = t.span("stores.load", |_| stores::load_all(dir));
        counts.loaded = (trace.loaded + solo.loaded) as u64;
        counts.dropped = (trace.dropped + solo.dropped) as u64;
        counts.skipped = (trace.skipped + solo.skipped) as u64;
    }
    let journal = args.checkpoint.as_ref().map(|path| {
        let specs: Vec<&SweepSpec> = planned.iter().map(|(_, _, s)| s).collect();
        let fingerprint = checkpoint::spec_fingerprint(&specs);
        t.span("journal", |_| Journal::open(path, false, fingerprint))
            .unwrap_or_else(|e| panic!("journal: {e}"))
    });

    let mut ran = Vec::new();
    for (id, sizes, spec) in planned {
        if spec.families.contains(&sweep::Family::EnumFree) {
            for &n in &spec.sizes {
                counts.trees += t
                    .span("trees.enumerate", |_| rvz_trees::enumerate::free_trees(n).count())
                    as u64;
            }
        }
        let grid = t.span("sweep.plan", |_| sweep::cells(&spec));
        counts.plan_cells += grid.len() as u64;
        let (instances, results) = t.span("pass", |t| {
            let mut by_key: HashMap<(sweep::Family, usize, Option<u64>), Arc<SweepInstance>> =
                HashMap::new();
            let mut instances = Vec::with_capacity(grid.len());
            let mut results = Vec::with_capacity(grid.len());
            for cell in &grid {
                let inst = by_key
                    .entry((cell.family, cell.n, cell.tree_index))
                    .or_insert_with(|| {
                        t.span("sweep.instance", |_| Arc::new(SweepInstance::for_cell(cell)))
                    })
                    .clone();
                let out = t.span("sweep.cell", |_| {
                    sweep::run_cell_with_executor(cell, &inst, spec.executor)
                });
                if let Some(j) = &journal {
                    t.span("journal", |_| {
                        j.record(&CellRecord {
                            cell_seed: cell.cell_seed(),
                            row: out.0.clone(),
                            certificate: out.1.clone(),
                        })
                    });
                    counts.journal_appends += 1;
                }
                instances.push(inst);
                results.push(out);
            }
            if let Some(j) = &journal {
                t.span("journal", |_| j.sync());
            }
            (instances, results)
        });
        ran.push(Ran { id, sizes, spec, grid, instances, results });
    }
    if let Some(j) = &journal {
        counts.journal_bytes = file_len(j.path());
    }

    let (store, records) = t.span("trace.store.encode", |_| stores::encode_trace_store());
    counts.store_records = records as u64;
    counts.store_bytes = store.len() as u64;
    drop(store);

    let replay = ran.iter().any(|r| r.spec.executor == Executor::TraceReplay);
    if replay {
        for (name, executor) in
            [("replay.warm", Executor::TraceReplay), ("stepping", Executor::DynStepping)]
        {
            for r in &ran {
                let again: Vec<Option<SweepRow>> = t.span(name, |_| {
                    r.grid
                        .iter()
                        .zip(&r.instances)
                        .map(|(cell, inst)| sweep::run_cell_with_executor(cell, inst, executor).0)
                        .collect()
                });
                let same = again.iter().zip(&r.results).all(|(a, b)| {
                    a.as_ref().map(serde_json::to_value) == b.0.as_ref().map(serde_json::to_value)
                });
                assert!(same, "the {name} pass produced different rows");
            }
        }
    }

    if let Some(dir) = &args.store {
        t.span("stores.save", |_| stores::save_all(dir)).expect("flush the stores");
        counts.save_bytes = file_len(&dir.join(stores::TRACE_STORE_FILE))
            + file_len(&dir.join(stores::SOLO_STORE_FILE));
    }

    decide_estimates(t, counts, &ran);

    // The CLI prints a summary table per experiment.
    let reports: Vec<(String, Vec<usize>, SweepReport)> =
        ran.into_iter().map(Ran::into_report).collect();
    for (id, _, report) in &reports {
        t.span("report.table", |_| {
            let table = match id.as_str() {
                "e9" => e9::summarize(report).1,
                "e10" => e10::summarize(report).1,
                "e11" => e11::summarize(report).1,
                id => sweep::to_table(id, report),
            };
            std::hint::black_box(table.render());
        });
    }
    write_outputs(t, counts, args, &reports);
    replay
}

/// How the decide executor treats a bw-fsa pair cell's delay axis (the
/// `Path` split of `sweep::run_cell_decide_certified`).
enum PairPath {
    Fixed(u64),
    Universal,
    Scheduled(rvz_sim::Schedule),
}

fn pair_path(delay: Delay, n: usize) -> PairPath {
    match delay {
        Delay::Adversarial => PairPath::Universal,
        Delay::Schedule(spec) if spec.as_start_delay().is_none() => {
            PairPath::Scheduled(spec.resolve(n))
        }
        d => PairPath::Fixed(d.resolve(n)),
    }
}

/// The k-lane schedule of an ensemble cell (`Cell::ensemble_mode`).
fn ensemble_schedule(delay: Delay, n: usize, lanes: usize) -> EnsembleSchedule {
    match delay {
        Delay::Schedule(spec) if spec.as_start_delay().is_none() => spec.resolve_ensemble(n, lanes),
        d => {
            let mut delays = vec![0; lanes];
            delays[lanes - 1] = d.resolve(n);
            EnsembleSchedule::start_delays(&delays)
        }
    }
}

/// Whether a cell goes through the exact decider: every bw-fsa cell under
/// the decide executor, and the ∀-delay cells under any executor.
fn decided(cell: &Cell, executor: Executor) -> bool {
    cell.variant == Variant::BasicWalkFsa
        && (executor == Executor::ExactDecide || cell.delay == Delay::Adversarial)
}

/// Out-of-cell estimates of the decider's layers: solo tabulation per
/// distinct (instance, start) the decide path reads, the orbit quotient per
/// (instance, delay class), the decider walk re-run for every
/// certificate's cell, and verification of the lassos that walk returns.
fn decide_estimates(t: &mut Tracer, counts: &mut Counts, ran: &[Ran]) {
    for r in ran {
        // Instances are keyed by `Arc` identity: the cell pass built one per
        // executor instance key.
        let mut solo_keys: HashSet<(usize, NodeId)> = HashSet::new();
        let mut orbit_memo: HashMap<(usize, bool), Vec<rvz_trees::symmetry::PairOrbit>> =
            HashMap::new();
        let mut classes: HashSet<(usize, String)> = HashSet::new();
        for (cell, inst) in r.grid.iter().zip(&r.instances) {
            if !decided(cell, r.spec.executor) {
                continue;
            }
            let key = Arc::as_ptr(inst) as usize;
            let n = inst.tree.num_nodes();
            if cell.agents > 2 {
                let shape = ensemble_schedule(cell.delay, n, cell.agents);
                if shape.as_start_delays().is_some() {
                    if let Some(tuple) = inst.tuples.get(cell.pair_index) {
                        solo_keys.extend(tuple.iter().map(|&s| (key, s)));
                    }
                }
                continue;
            }
            if cell.pair_index >= inst.pairs.len() {
                continue;
            }
            counts.orbit_cells += 1;
            let path = pair_path(cell.delay, n);
            let allow_swap = match &path {
                PairPath::Fixed(delay) => *delay == 0,
                PairPath::Universal => false,
                PairPath::Scheduled(sched) => sched.lane_symmetric(),
            };
            let orbits = orbit_memo.entry((key, allow_swap)).or_insert_with(|| {
                t.span("decide.orbits", |_| {
                    rvz_trees::symmetry::pair_orbits(&inst.tree, &inst.pairs, allow_swap)
                })
            });
            if classes.insert((key, format!("{:?}", cell.delay))) {
                counts.orbits += orbits.len() as u64;
                if !matches!(path, PairPath::Scheduled(_)) {
                    for orbit in orbits.iter() {
                        let (a, b) = inst.pairs[orbit.rep];
                        solo_keys.insert((key, a));
                        solo_keys.insert((key, b));
                    }
                }
            }
        }
        let by_key: HashMap<usize, &Arc<SweepInstance>> =
            r.instances.iter().map(|i| (Arc::as_ptr(i) as usize, i)).collect();
        let mut solo_keys: Vec<(usize, NodeId)> = solo_keys.into_iter().collect();
        solo_keys.sort_unstable();
        for (key, start) in solo_keys {
            let inst = by_key[&key];
            let fsa = inst.basic_walk_fsa();
            std::hint::black_box(
                t.span("decide.solo", |_| SoloLasso::tabulate(&inst.tree, fsa, start)),
            );
            counts.solo += 1;
        }

        for ((cell, inst), (_, cert)) in r.grid.iter().zip(&r.instances).zip(&r.results) {
            let Some(cert) = cert else { continue };
            let tree = &inst.tree;
            let fsa = inst.basic_walk_fsa();
            let n = tree.num_nodes();
            let verified = if cell.agents > 2 {
                let starts = &inst.tuples[cell.pair_index];
                let sched = ensemble_schedule(cell.delay, n, cell.agents);
                let d = t.span("decide.walk", |_| {
                    rvz_lowerbounds::decide_ensemble(tree, fsa, starts, &sched)
                });
                d.lasso().map(|l| {
                    t.span("verify", |_| {
                        rvz_lowerbounds::verify_ensemble_lasso(tree, fsa, starts, &sched, l)
                    })
                })
            } else {
                let (a, b) = inst.pairs[cell.pair_index];
                match pair_path(cell.delay, n) {
                    PairPath::Fixed(delay) => {
                        let d = t.span("decide.walk", |_| {
                            rvz_lowerbounds::decide_pair(tree, fsa, a, b, delay)
                        });
                        d.lasso().map(|l| {
                            t.span("verify", |_| {
                                rvz_lowerbounds::verify_lasso(tree, fsa, a, b, delay, l)
                            })
                        })
                    }
                    PairPath::Universal => {
                        let wc = t.span("decide.walk", |_| {
                            rvz_lowerbounds::worst_case_delay(tree, fsa, a, b)
                        });
                        match wc {
                            rvz_lowerbounds::WorstCase::Defeated { delay, decision, .. } => {
                                let l = decision.lasso().expect("a defeat carries a lasso");
                                Some(t.span("verify", |_| {
                                    rvz_lowerbounds::verify_lasso(tree, fsa, a, b, delay, l)
                                }))
                            }
                            rvz_lowerbounds::WorstCase::AllMeet { .. } => None,
                        }
                    }
                    PairPath::Scheduled(sched) => {
                        let d = t.span("decide.walk", |_| {
                            rvz_lowerbounds::decide_pair_scheduled(tree, fsa, a, b, &sched)
                        });
                        d.lasso().map(|l| {
                            t.span("verify", |_| {
                                rvz_lowerbounds::verify_schedule_lasso(tree, fsa, a, b, &sched, l)
                            })
                        })
                    }
                }
            };
            if verified != cert.verified {
                counts.verify_mismatches += 1;
            }
        }
    }
}

/// `cli::sweep_schema`: the row schema tag, gated on the optional fields
/// the rows carry.
fn sweep_schema<'a>(rows: impl IntoIterator<Item = &'a SweepRow>) -> &'static str {
    let (mut planned, mut poisoned, mut timed_out, mut schedule) = (false, false, false, false);
    for r in rows {
        if r.agents.is_some() {
            return "rvz-sweep/v7";
        }
        planned |= r.planned.is_some();
        poisoned |= r.poisoned.is_some();
        timed_out |= r.timed_out.is_some();
        schedule |= r.schedule.is_some();
    }
    match (planned, poisoned, timed_out, schedule) {
        (true, ..) => "rvz-sweep/v6",
        (_, true, ..) => "rvz-sweep/v5",
        (_, _, true, _) => "rvz-sweep/v4",
        (.., true) => "rvz-sweep/v3",
        _ => "rvz-sweep/v2",
    }
}

/// Serializes and writes one payload the way `cli::write_json` does.
fn emit(
    t: &mut Tracer,
    counts: &mut Counts,
    path: &Path,
    build: impl FnOnce() -> serde_json::Value,
) {
    let payload = t.span("serialize.tree", |_| build());
    let text = t.span("serialize.print", |_| {
        let mut text = serde_json::to_string_pretty(&payload).expect("serialize");
        text.push('\n');
        text
    });
    // Freeing the tree is part of what building it costs.
    t.span("serialize.tree", |_| drop(payload));
    counts.serialize_bytes += text.len() as u64;
    t.span("write", |_| wire::atomic_write(path, text.as_bytes()))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    counts.write_bytes += text.len() as u64;
}

/// The `--json` and `--certificates` payloads of `cli::run_sweep_mode`.
fn write_outputs(
    t: &mut Tracer,
    counts: &mut Counts,
    args: &Args,
    reports: &[(String, Vec<usize>, SweepReport)],
) {
    let ids: Vec<String> = reports.iter().map(|(id, _, _)| id.clone()).collect();
    emit(t, counts, &args.json, || {
        let all_rows: Vec<&SweepRow> = reports.iter().flat_map(|(_, _, r)| &r.rows).collect();
        let mut all_sizes: Vec<usize> =
            reports.iter().flat_map(|(_, sizes, _)| sizes.iter().copied()).collect();
        all_sizes.sort_unstable();
        all_sizes.dedup();
        serde_json::json!({
            "schema": sweep_schema(all_rows.iter().copied()),
            "experiments": ids,
            "seed": args.seed,
            "sizes": all_sizes,
            "rows": all_rows
        })
    });
    let Some(path) = &args.certificates else { return };
    emit(t, counts, path, || {
        let all_certs: Vec<&Certificate> =
            reports.iter().flat_map(|(_, _, r)| &r.certificates).collect();
        let summaries: Vec<serde_json::Value> = reports
            .iter()
            .filter_map(|(id, _, report)| match id.as_str() {
                "e9" => {
                    Some(serde_json::json!({"experiment": id, "sizes": e9::summarize(report).0}))
                }
                "e10" => Some(
                    serde_json::json!({"experiment": id, "schedules": e10::summarize(report).0}),
                ),
                "e11" => Some(
                    serde_json::json!({"experiment": id, "schedules": e11::summarize(report).0}),
                ),
                _ => None,
            })
            .collect();
        let schema = if all_certs.iter().any(|c| c.agents.is_some()) {
            "rvz-certificates/v3"
        } else if all_certs.iter().any(|c| c.schedule.is_some()) {
            "rvz-certificates/v2"
        } else {
            "rvz-certificates/v1"
        };
        serde_json::json!({
            "schema": schema,
            "experiments": ids,
            "seed": args.seed,
            "summary": summaries,
            "certificates": all_certs
        })
    });
}

fn metrics(t: &Tracer, c: &Counts, replay: bool) -> String {
    let totals = t.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let self_s = |name: &str| get(name).2;
    let total_s = get("run").1;
    let attributed: f64 =
        totals.iter().filter(|(n, _)| !GLUE_SPANS.contains(n)).map(|(_, v)| v.2).sum();
    let cold = if replay { self_s("sweep.cell") } else { 0.0 };
    let warm = self_s("replay.warm");
    let serialize_s = self_s("serialize.tree") + self_s("serialize.print");
    let m: Vec<(&str, f64)> = vec![
        ("trees.enumerate.count", c.trees as f64),
        ("trees.enumerate.s", self_s("trees.enumerate")),
        ("sweep.plan.cells", c.plan_cells as f64),
        ("sweep.plan.s", self_s("sweep.plan")),
        ("sweep.instance.count", get("sweep.instance").0 as f64),
        ("sweep.instance.s", self_s("sweep.instance")),
        ("sweep.cell.count", get("sweep.cell").0 as f64),
        ("sweep.cell.s", self_s("sweep.cell")),
        ("decide.solo.count", c.solo as f64),
        ("decide.solo.s", self_s("decide.solo")),
        ("decide.orbits", c.orbits as f64),
        (
            "decide.orbit_ratio",
            if c.orbit_cells == 0 { 0.0 } else { c.orbits as f64 / c.orbit_cells as f64 },
        ),
        ("decide.walk.count", get("decide.walk").0 as f64),
        ("decide.walk.s", self_s("decide.walk")),
        ("verify.count", get("verify").0 as f64),
        ("verify.s", self_s("verify")),
        ("trace.store.records", c.store_records as f64),
        ("trace.store.bytes", c.store_bytes as f64),
        ("trace.store.encode.s", self_s("trace.store.encode")),
        ("replay.cold.s", cold),
        ("replay.warm.s", warm),
        ("replay.record.s", if replay { cold - warm } else { 0.0 }),
        ("stepping.s", self_s("stepping")),
        ("stores.load.s", self_s("stores.load")),
        ("stores.loaded", c.loaded as f64),
        ("stores.dropped", c.dropped as f64),
        ("stores.skipped", c.skipped as f64),
        ("stores.save.s", self_s("stores.save")),
        ("stores.save.bytes", c.save_bytes as f64),
        ("serialize.tree.s", self_s("serialize.tree")),
        ("serialize.print.s", self_s("serialize.print")),
        ("serialize.bytes", c.serialize_bytes as f64),
        (
            "serialize.mb_per_s",
            if serialize_s > 0.0 { c.serialize_bytes as f64 / 1e6 / serialize_s } else { 0.0 },
        ),
        ("report.table.s", self_s("report.table")),
        ("write.s", self_s("write")),
        ("write.bytes", c.write_bytes as f64),
        ("journal.appends", c.journal_appends as f64),
        ("journal.bytes", c.journal_bytes as f64),
        ("journal.s", self_s("journal")),
        ("trace.total_s", total_s),
        ("trace.unattributed.s", total_s - attributed),
    ];
    let mut body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v:?}")).collect();
    let cells: Vec<String> = t.durations("sweep.cell").iter().map(|d| format!("{d:?}")).collect();
    body.push(format!("\"sweep.cell.durations_s\": [{}]", cells.join(", ")));
    format!("{{{}}}", body.join(", "))
}
