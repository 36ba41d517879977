//! The sweep checkpoint journal: an append-only, per-record-checksummed
//! log of completed cells, so a killed sweep resumes instead of restarting.
//!
//! **Model.** Every grid cell's result is a pure function of the spec
//! (deterministic per-cell seeding, see [`crate::sweep`]), and every cell
//! owns a unique [`crate::sweep::Cell::cell_seed`]. The journal maps that
//! seed to the cell's outcome — its [`SweepRow`] plus optional
//! [`Certificate`], or an explicit "dropped" marker for cells whose
//! instance had too few feasible start pairs. A resumed sweep
//! ([`crate::sweep::run_with_options`]) skips journaled cells and recomputes
//! the rest; because rows are collected in grid order either way, the final
//! report — and its JSON serialization — is byte-identical to an
//! uninterrupted run, for any `--threads` value. That identity is asserted
//! by `crates/bench/tests/crash_resume.rs` and the CI `crash-resume` job.
//!
//! **Framing.** Records use the shared [`crate::wire`] frame
//! (`len | crc32 | body`); bodies are compact JSON. The first record is a
//! header carrying a fingerprint of everything that determines the rows
//! (experiments, sizes, delays, variants, pairs, seed, executor — not
//! `--threads`); resuming against a journal written for a different spec
//! is a hard error, because equal cell seeds under a different spec would
//! splice wrong rows into the output. Loading accepts the longest clean
//! prefix: a torn tail (kill mid-append) or a corrupted record loses that
//! record and everything after it — those cells simply recompute. On
//! resume the journal is compacted (rewritten atomically from the
//! recovered records) so fresh appends never land after garbage.
//!
//! See docs/persistence.md for the crash model and format reference.

use crate::sweep::{Certificate, SweepRow};
use crate::{faults, wire};
use serde_json::Value;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Journal format version (the header record's `version` field).
pub const JOURNAL_VERSION: u64 = 1;

/// One journaled cell outcome. `row: None` is the explicit "dropped cell"
/// marker (the instance had fewer feasible pairs than the cell's index).
#[derive(Debug, Clone)]
pub struct CellRecord {
    pub cell_seed: u64,
    pub row: Option<SweepRow>,
    pub certificate: Option<Certificate>,
}

/// FNV-1a, the journal's fingerprint hash.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of everything that determines a batch of sweeps' rows —
/// the experiment grids minus `threads` (thread count never changes rows).
/// The CLI opens one journal per invocation covering all `--experiment`
/// ids, so the fingerprint spans all their specs.
pub fn spec_fingerprint(specs: &[&crate::sweep::SweepSpec]) -> u64 {
    let desc: Vec<String> = specs
        .iter()
        .map(|s| {
            let mut d = format!(
                "{}|{:?}|{:?}|{:?}|{:?}|pairs={}|seed={}|{:?}",
                s.experiment,
                s.families,
                s.sizes,
                s.delays,
                s.variants,
                s.pairs_per_cell,
                s.seed,
                s.executor
            );
            // The ensemble axis joins the fingerprint only when it widens
            // the grid, so journals written before the axis existed keep
            // matching their (pair) specs.
            if s.agents != 2 {
                d.push_str(&format!("|agents={}", s.agents));
            }
            d
        })
        .collect();
    fnv64(&desc.join("\n"))
}

// ---------------------------------------------------------------------------
// JSON (de)serialization of records. The serde shim is serialize-only, so
// rows and certificates are reconstructed from parsed `Value` trees by
// hand; the structs are then re-serialized through the same derive path as
// fresh rows, which is what makes resumed output byte-identical.

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

fn req_u64(fields: &[(String, Value)], key: &str) -> Option<u64> {
    get(fields, key).and_then(as_u64)
}

fn req_str(fields: &[(String, Value)], key: &str) -> Option<String> {
    match get(fields, key)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn req_bool(fields: &[(String, Value)], key: &str) -> Option<bool> {
    match get(fields, key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// `null` or absent → `None`; present number → `Some` — matching how the
/// derive serializes `Option<u64>` fields without `skip_serializing_if`.
fn opt_u64(fields: &[(String, Value)], key: &str) -> Option<Option<u64>> {
    match get(fields, key) {
        None | Some(Value::Null) => Some(None),
        Some(v) => as_u64(v).map(Some),
    }
}

fn opt_str(fields: &[(String, Value)], key: &str) -> Option<Option<String>> {
    match get(fields, key) {
        None | Some(Value::Null) => Some(None),
        Some(Value::Str(s)) => Some(Some(s.clone())),
        Some(_) => None,
    }
}

fn opt_bool(fields: &[(String, Value)], key: &str) -> Option<Option<bool>> {
    match get(fields, key) {
        None | Some(Value::Null) => Some(None),
        Some(Value::Bool(b)) => Some(Some(*b)),
        Some(_) => None,
    }
}

/// Optional ensemble width (`--agents k > 2` rows/certificates): absent
/// or `null` → `None`, a number → `Some`.
fn opt_usize(fields: &[(String, Value)], key: &str) -> Option<Option<usize>> {
    Some(opt_u64(fields, key)?.map(|v| v as usize))
}

/// Optional node-id list (the ensemble `start_rest` field): absent or
/// `null` → `None`, an array of numbers → `Some`, anything else → parse
/// failure.
fn opt_nodes(fields: &[(String, Value)], key: &str) -> Option<Option<Vec<u32>>> {
    match get(fields, key) {
        None | Some(Value::Null) => Some(None),
        Some(Value::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(u32::try_from(as_u64(item)?).ok()?);
            }
            Some(Some(out))
        }
        Some(_) => None,
    }
}

/// The optional `planned` annotation ([`crate::sweep::Planned`]): absent
/// or `null` → `None` (fixed-executor rows), a well-formed object →
/// `Some`, anything else → parse failure.
fn opt_planned(fields: &[(String, Value)], key: &str) -> Option<Option<crate::sweep::Planned>> {
    match get(fields, key) {
        None | Some(Value::Null) => Some(None),
        Some(Value::Object(f)) => Some(Some(crate::sweep::Planned {
            choice: req_str(f, "choice")?,
            predicted: req_u64(f, "predicted")?,
            actual: req_u64(f, "actual")?,
        })),
        Some(_) => None,
    }
}

/// Rebuilds a [`SweepRow`] from its serialized JSON object; `None` on any
/// missing or mistyped field (the caller drops the record).
pub fn row_from_value(v: &Value) -> Option<SweepRow> {
    let Value::Object(f) = v else { return None };
    Some(SweepRow {
        experiment: Arc::from(req_str(f, "experiment")?.as_str()),
        family: req_str(f, "family")?,
        size: req_u64(f, "size")? as usize,
        n: req_u64(f, "n")? as usize,
        leaves: req_u64(f, "leaves")? as usize,
        variant: req_str(f, "variant")?,
        delay: req_u64(f, "delay")?,
        schedule: opt_str(f, "schedule")?,
        start_a: u32::try_from(req_u64(f, "start_a")?).ok()?,
        start_b: u32::try_from(req_u64(f, "start_b")?).ok()?,
        met: req_bool(f, "met")?,
        rounds: opt_u64(f, "rounds")?,
        crossings: req_u64(f, "crossings")?,
        budget: req_u64(f, "budget")?,
        provisioned_bits: req_u64(f, "provisioned_bits")?,
        measured_bits: req_u64(f, "measured_bits")?,
        tree_seed: req_u64(f, "tree_seed")?,
        pairs_seed: req_u64(f, "pairs_seed")?,
        cell_seed: req_u64(f, "cell_seed")?,
        certified: req_bool(f, "certified")?,
        timed_out: opt_bool(f, "timed_out")?,
        poisoned: opt_bool(f, "poisoned")?,
        planned: opt_planned(f, "planned")?,
        agents: opt_usize(f, "agents")?,
        start_rest: opt_nodes(f, "start_rest")?,
    })
}

/// Rebuilds a [`Certificate`] from its serialized JSON object.
pub fn certificate_from_value(v: &Value) -> Option<Certificate> {
    let Value::Object(f) = v else { return None };
    Some(Certificate {
        experiment: Arc::from(req_str(f, "experiment")?.as_str()),
        family: req_str(f, "family")?,
        size: req_u64(f, "size")? as usize,
        n: req_u64(f, "n")? as usize,
        tree_seed: req_u64(f, "tree_seed")?,
        variant: req_str(f, "variant")?,
        start_a: u32::try_from(req_u64(f, "start_a")?).ok()?,
        start_b: u32::try_from(req_u64(f, "start_b")?).ok()?,
        verdict: req_str(f, "verdict")?,
        schedule: opt_str(f, "schedule")?,
        delay: req_u64(f, "delay")?,
        round: opt_u64(f, "round")?,
        delays_checked: opt_u64(f, "delays_checked")?,
        lasso_stem: opt_u64(f, "lasso_stem")?,
        lasso_period: opt_u64(f, "lasso_period")?,
        verified: opt_bool(f, "verified")?,
        agents: opt_usize(f, "agents")?,
        start_rest: opt_nodes(f, "start_rest")?,
    })
}

/// The JSON body of one cell record, streamed from the row and
/// certificate without an intermediate [`Value`] tree.
fn record_body(rec: &CellRecord) -> Vec<u8> {
    let mut fields: Vec<(&str, &dyn serde::Serialize)> = vec![("cell", &rec.cell_seed)];
    if let Some(row) = &rec.row {
        fields.push(("row", row));
    }
    if let Some(cert) = &rec.certificate {
        fields.push(("certificate", cert));
    }
    serde_json::to_string(&serde::Object(fields)).expect("serialize record").into_bytes()
}

fn header_body(fingerprint: u64) -> Vec<u8> {
    let header = serde::Object(vec![
        ("kind", &"rvz-journal"),
        ("version", &JOURNAL_VERSION),
        ("fingerprint", &fingerprint),
    ]);
    serde_json::to_string(&header).expect("serialize header").into_bytes()
}

/// Serializes a whole journal (header + records) — the compaction writer,
/// also handy for tests that build journals without touching disk.
pub fn encode_journal(fingerprint: u64, records: &[CellRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::frame_record(&mut out, &header_body(fingerprint));
    for rec in records {
        wire::frame_record(&mut out, &record_body(rec));
    }
    out
}

/// What a journal parse recovered: the clean-prefix records (last write
/// per cell seed wins, though duplicates only arise from pre-compaction
/// crash overlap), plus damage counters for reporting.
#[derive(Debug, Default)]
pub struct JournalSnapshot {
    /// Fingerprint from the header record, when one parsed.
    pub fingerprint: Option<u64>,
    /// Recovered outcomes keyed by cell seed.
    pub cells: HashMap<u64, CellRecord>,
    /// Frame-valid records whose JSON failed to parse or validate.
    pub bad_records: usize,
    /// `true` when the byte stream ended mid-frame or failed a checksum —
    /// the torn tail was dropped.
    pub torn_tail: bool,
}

/// Parses journal bytes into the recovered clean prefix. Never panics:
/// any truncation or corruption at any byte offset degrades to fewer
/// recovered cells (the journal-recovery proptests pin this).
pub fn parse_journal(bytes: &[u8]) -> JournalSnapshot {
    let (records, clean) = wire::read_records(bytes);
    let mut snap = JournalSnapshot { torn_tail: !clean, ..Default::default() };
    for (index, body) in records.iter().enumerate() {
        let parsed = std::str::from_utf8(body).ok().and_then(|s| serde_json::from_str(s).ok());
        let Some(Value::Object(fields)) = parsed else {
            snap.bad_records += 1;
            continue;
        };
        if index == 0 {
            if req_str(&fields, "kind").as_deref() == Some("rvz-journal")
                && req_u64(&fields, "version") == Some(JOURNAL_VERSION)
            {
                snap.fingerprint = req_u64(&fields, "fingerprint");
                continue;
            }
            snap.bad_records += 1;
            continue;
        }
        let Some(cell_seed) = req_u64(&fields, "cell") else {
            snap.bad_records += 1;
            continue;
        };
        let row = match get(&fields, "row") {
            None => None,
            Some(v) => match row_from_value(v) {
                Some(row) => Some(row),
                None => {
                    snap.bad_records += 1;
                    continue;
                }
            },
        };
        let certificate = match get(&fields, "certificate") {
            None => None,
            Some(v) => match certificate_from_value(v) {
                Some(cert) => Some(cert),
                None => {
                    snap.bad_records += 1;
                    continue;
                }
            },
        };
        snap.cells.insert(cell_seed, CellRecord { cell_seed, row, certificate });
    }
    snap
}

/// How often appended records are fsynced (every N appends plus once at
/// [`Journal::sync`]). Between fsyncs a record survives a process kill
/// (the OS holds it) but not a power loss — in which case it is a torn
/// tail, recovered from by recomputing that cell.
const SYNC_EVERY: u64 = 64;

/// An open checkpoint journal: the recovered cells of a `--resume`, plus
/// an append handle for cells computed this run. Appends are serialized
/// by a mutex (cells finish on many threads); a failed append (e.g.
/// injected ENOSPC) disables further checkpointing with a warning rather
/// than failing the sweep — the journal degrades, the results do not.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    /// Outcomes recovered from the resumed file, keyed by cell seed.
    recovered: HashMap<u64, CellRecord>,
    appended: AtomicU64,
    dead: AtomicBool,
    /// Appends that failed or were skipped because the journal was already
    /// dead — surfaced as [`crate::sweep::SweepReport::append_failures`].
    lost: AtomicU64,
    /// `--strict-checkpoint`: the first append failure exits the process
    /// instead of degrading to a dead journal.
    strict: AtomicBool,
}

impl Journal {
    /// Opens (or resumes) the journal at `path`. Fresh open truncates and
    /// writes the header; resume parses the existing file, verifies the
    /// fingerprint, compacts the clean prefix back to disk atomically, and
    /// reopens for append. A `--resume` against a missing file starts
    /// fresh (nothing to skip) with a warning.
    pub fn open(path: &Path, resume: bool, fingerprint: u64) -> Result<Journal, String> {
        let mut recovered = HashMap::new();
        if resume {
            match std::fs::read(path) {
                Ok(bytes) => {
                    let snap = parse_journal(&bytes);
                    match snap.fingerprint {
                        Some(fp) if fp == fingerprint => {}
                        Some(fp) => {
                            return Err(format!(
                                "{} was written for a different sweep configuration \
                                 (fingerprint {fp:#018x}, this run is {fingerprint:#018x}); \
                                 resuming would splice wrong rows — use a fresh --checkpoint \
                                 path or drop --resume",
                                path.display()
                            ));
                        }
                        None => {
                            return Err(format!(
                                "{} has no readable journal header; use a fresh --checkpoint \
                                 path or drop --resume",
                                path.display()
                            ));
                        }
                    }
                    if snap.bad_records > 0 || snap.torn_tail {
                        eprintln!(
                            "warning: {}: recovered {} cell(s); dropped {} bad record(s){} — \
                             dropped cells will be recomputed",
                            path.display(),
                            snap.cells.len(),
                            snap.bad_records,
                            if snap.torn_tail { " and a torn tail" } else { "" },
                        );
                    }
                    recovered = snap.cells;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    eprintln!(
                        "warning: --resume: {} does not exist yet; starting a fresh journal",
                        path.display()
                    );
                }
                Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
            }
        }
        // Compact (or initialize): header + recovered records, written
        // atomically so appends never land after a torn tail.
        let mut records: Vec<&CellRecord> = recovered.values().collect();
        records.sort_by_key(|r| r.cell_seed);
        let mut bytes = Vec::new();
        wire::frame_record(&mut bytes, &header_body(fingerprint));
        for rec in records {
            wire::frame_record(&mut bytes, &record_body(rec));
        }
        wire::atomic_write(path, &bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        Ok(Journal {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            recovered,
            appended: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            lost: AtomicU64::new(0),
            strict: AtomicBool::new(false),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `--strict-checkpoint`: make any append failure fatal (exit code 1)
    /// instead of degrading to a dead journal with a warning.
    pub fn set_strict(&self, strict: bool) {
        self.strict.store(strict, Ordering::Relaxed);
    }

    /// Appends that failed or were silently skipped (dead journal) so far.
    pub fn appends_lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// The recovered outcome for a cell seed, if the journal has one.
    pub fn lookup(&self, cell_seed: u64) -> Option<&CellRecord> {
        self.recovered.get(&cell_seed)
    }

    /// Number of cells the resume recovered.
    pub fn recovered_cells(&self) -> usize {
        self.recovered.len()
    }

    /// Appends one completed cell. Errors degrade: the first failure
    /// disables the journal with a warning (the sweep's results are
    /// unaffected; only crash coverage is lost from that point).
    pub fn record(&self, rec: &CellRecord) {
        if self.dead.load(Ordering::Relaxed) {
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut framed = Vec::new();
        wire::frame_record(&mut framed, &record_body(rec));
        let result = (|| -> std::io::Result<()> {
            let fate = faults::mangle_write(faults::Site::JournalAppend, &mut framed)?;
            let mut file = self.file.lock().expect("journal lock");
            match fate {
                faults::WriteFate::Full => file.write_all(&framed)?,
                faults::WriteFate::Short(k) => {
                    file.write_all(&framed[..k])?;
                    file.flush()?;
                    let _ = file.sync_all();
                    faults::finish_short_write();
                }
            }
            file.flush()?;
            if self.appended.fetch_add(1, Ordering::Relaxed) % SYNC_EVERY == SYNC_EVERY - 1 {
                file.sync_all()?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            self.lost.fetch_add(1, Ordering::Relaxed);
            if self.strict.load(Ordering::Relaxed) {
                eprintln!(
                    "error: --strict-checkpoint: journal {} append failed: {e}",
                    self.path.display()
                );
                std::process::exit(1);
            }
            self.dead.store(true, Ordering::Relaxed);
            eprintln!(
                "warning: checkpoint journal {} disabled after append error: {e} \
                 (the sweep continues without crash coverage)",
                self.path.display()
            );
        }
    }

    /// Final fsync (end of sweep).
    pub fn sync(&self) {
        if let Ok(file) = self.file.lock() {
            let _ = file.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{cells, run_cell, SweepSpec};

    fn sample_records() -> Vec<CellRecord> {
        let spec = SweepSpec {
            experiment: "journal-test".into(),
            families: vec![crate::sweep::Family::Line],
            sizes: vec![6],
            delays: vec![crate::sweep::Delay::Zero, crate::sweep::Delay::Fixed(2)],
            variants: vec![crate::sweep::Variant::BasicWalkFsa],
            pairs_per_cell: 2,
            seed: 0x1A,
            threads: 1,
            executor: crate::sweep::Executor::TraceReplay,
            agents: 2,
        };
        cells(&spec)
            .iter()
            .map(|c| CellRecord { cell_seed: c.cell_seed(), row: run_cell(c), certificate: None })
            .collect()
    }

    #[test]
    fn journal_round_trips_rows_byte_identically() {
        let records = sample_records();
        assert!(records.iter().any(|r| r.row.is_some()));
        let bytes = encode_journal(7, &records);
        let snap = parse_journal(&bytes);
        assert_eq!(snap.fingerprint, Some(7));
        assert_eq!(snap.cells.len(), records.len());
        assert!(!snap.torn_tail);
        assert_eq!(snap.bad_records, 0);
        for rec in &records {
            let back = &snap.cells[&rec.cell_seed];
            assert_eq!(
                serde_json::to_string(&back.row).unwrap(),
                serde_json::to_string(&rec.row).unwrap(),
                "recovered row must re-serialize byte-identically"
            );
        }
    }

    #[test]
    fn journal_survives_truncation_anywhere() {
        let records = sample_records();
        let bytes = encode_journal(3, &records);
        for cut in 0..bytes.len() {
            let snap = parse_journal(&bytes[..cut]);
            assert!(snap.cells.len() <= records.len());
            // Every recovered cell must be one we wrote, with the row intact.
            for (seed, rec) in &snap.cells {
                let original = records.iter().find(|r| r.cell_seed == *seed).expect("known cell");
                assert_eq!(
                    serde_json::to_string(&rec.row).unwrap(),
                    serde_json::to_string(&original.row).unwrap()
                );
            }
        }
    }

    #[test]
    fn journal_open_resume_compacts_and_verifies_fingerprint() {
        let dir = std::env::temp_dir().join(format!("rvz-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ckpt");
        let records = sample_records();
        let fp = 0xABCD;
        // Simulate a crashed run: full journal plus a torn trailing frame.
        let mut bytes = encode_journal(fp, &records[..2]);
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        std::fs::write(&path, &bytes).unwrap();
        let journal = Journal::open(&path, true, fp).expect("resume");
        assert_eq!(journal.recovered_cells(), 2);
        journal.record(&records[2]);
        journal.sync();
        drop(journal);
        // The compacted file now parses cleanly with all three records.
        let snap = parse_journal(&std::fs::read(&path).unwrap());
        assert!(!snap.torn_tail);
        assert_eq!(snap.cells.len(), 3);
        // A different fingerprint is a hard error.
        assert!(Journal::open(&path, true, fp ^ 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
