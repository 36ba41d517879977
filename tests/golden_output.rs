//! Golden output, pinned as each file's byte length and CRC-32, so any
//! change to the serialized bytes fails here even when every
//! self-comparison (`cmp` across threads, executors or resume) still
//! agrees:
//!
//! * the certification workload: `experiments --experiment e10,e11
//!   --seed 1` writes rows and certificates at `--threads 2`, and a
//!   checkpoint journal at `--threads 1`;
//! * the bounded executors: `--executor replay` and `--executor stepping`
//!   share the k-lane model, so comparing them with each other does not
//!   compare two independent engines. Each must reproduce the same fixed
//!   rows on pair schedules (e10), the procedural title scenario (e6) and
//!   the delay columns (e1, e5).

use rvz_bench::wire::crc32;
use std::path::Path;
use std::process::Command;

fn run(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run experiments");
    assert!(out.status.success(), "{out:?}");
}

fn assert_golden(path: &Path, len: usize, crc: u32) {
    let bytes = std::fs::read(path).expect("read output");
    assert_eq!(
        (bytes.len(), crc32(&bytes)),
        (len, crc),
        "{}: (bytes, crc32) moved from the golden values",
        path.display()
    );
}

#[test]
fn e10_e11_rows_certificates_and_journal_match_the_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("rvz-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create output dir");
    let e10_e11 = ["--experiment", "e10,e11", "--seed", "1"];
    let outputs = ["--threads", "2", "--json", "rows.json", "--certificates", "certs.json"];
    run(&dir, &[&e10_e11[..], &outputs].concat());
    run(&dir, &[&e10_e11[..], &["--threads", "1", "--checkpoint", "journal.ckpt"]].concat());
    assert_golden(&dir.join("rows.json"), 9_438_827, 0xb7e4_0400);
    assert_golden(&dir.join("certs.json"), 3_856_037, 0xe7a8_d421);
    assert_golden(&dir.join("journal.ckpt"), 9_336_806, 0xff12_d4f8);
    std::fs::remove_dir_all(&dir).expect("remove output dir");
}

#[test]
fn bounded_executors_match_the_golden_rows() {
    let dir = std::env::temp_dir().join(format!("rvz-golden-bounded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create output dir");
    let cases: [(&[&str], usize, u32); 3] = [
        (&["--experiment", "e10", "--seed", "1"], 4_621_179, 0xb84b_954a),
        (&["--experiment", "e6", "--sizes", "64,128", "--pairs", "4"], 24_275, 0xadde_2b30),
        (&["--experiment", "e1,e5", "--sizes", "16,32"], 20_220, 0x4760_6c30),
    ];
    for executor in ["replay", "stepping"] {
        for (i, &(args, len, crc)) in cases.iter().enumerate() {
            let rows = format!("rows-{executor}-{i}.json");
            let common = ["--executor", executor, "--threads", "2", "--json", &rows];
            run(&dir, &[args, &common[..]].concat());
            assert_golden(&dir.join(&rows), len, crc);
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove output dir");
}
