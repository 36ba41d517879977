//! Golden output of the certification workload: `experiments --experiment
//! e10,e11 --seed 1` writes rows and certificates at `--threads 2`, and a
//! checkpoint journal at `--threads 1`. Each file's byte length and CRC-32
//! are pinned, so any change to the serialized bytes fails here even when
//! every self-comparison (`cmp` across threads, executors or resume) still
//! agrees.

use rvz_bench::wire::crc32;
use std::path::Path;
use std::process::Command;

fn run(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--experiment", "e10,e11", "--seed", "1"])
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
    run(&dir, &["--threads", "2", "--json", "rows.json", "--certificates", "certs.json"]);
    run(&dir, &["--threads", "1", "--checkpoint", "journal.ckpt"]);
    assert_golden(&dir.join("rows.json"), 9_438_827, 0xb7e4_0400);
    assert_golden(&dir.join("certs.json"), 3_856_037, 0xe7a8_d421);
    assert_golden(&dir.join("journal.ckpt"), 9_336_806, 0xff12_d4f8);
    std::fs::remove_dir_all(&dir).expect("remove output dir");
}
