//! The streaming serializer against the value tree. For every type the
//! CLI and the checkpoint journal write — sweep rows with each optional
//! field present and absent, pair, schedule and ensemble certificates, the
//! e9/e10/e11 summary rows — and for `Value` edge cases, compact and
//! pretty, three texts must agree: `to_string(x)` (streamed field by
//! field), `to_string(&to_value(x))` (the tree through the same writer),
//! and [`reference`], an independent recursive renderer of the tree. The
//! text must also parse back to a tree that renders the same.

use rvz_bench::sweep::{self, Certificate, Executor, Planned, SweepRow};
use rvz_bench::{e10, e11, e9};
use serde::Serialize;
use serde_json::{json, Value};

/// Renders a tree the way the `serde_json` shim must: compact, or two-space
/// indent with `": "` after keys and `[]`/`{}` for empty containers;
/// non-finite floats as `null`; `"`, `\`, `\n`, `\r`, `\t` escaped by name
/// and other control characters as `\u00XX`.
fn reference(v: &Value, pretty: bool, depth: usize, out: &mut String) {
    let newline = |out: &mut String, depth: usize| {
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(&b.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => quote(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                reference(item, pretty, depth + 1, out);
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                quote(k, out);
                out.push_str(if pretty { ": " } else { ":" });
                reference(item, pretty, depth + 1, out);
            }
            newline(out, depth);
            out.push('}');
        }
    }
}

fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn check<T: Serialize + ?Sized>(what: &str, x: &T) {
    let tree = serde_json::to_value(x);
    for pretty in [false, true] {
        let render = |v: &dyn Serialize| {
            if pretty { serde_json::to_string_pretty(v) } else { serde_json::to_string(v) }
                .expect("serialize")
        };
        let mut expected = String::new();
        reference(&tree, pretty, 0, &mut expected);
        assert_eq!(render(&x), expected, "{what} (pretty: {pretty}): streamed");
        assert_eq!(render(&tree), expected, "{what} (pretty: {pretty}): tree");
        // Re-rendering the parsed text is the round trip that also holds
        // for non-finite floats (written, and read back, as `null`).
        let mut again = String::new();
        reference(&serde_json::from_str(&expected).expect("parse"), pretty, 0, &mut again);
        assert_eq!(again, expected, "{what} (pretty: {pretty}): parse round trip");
    }
}

fn bare_row() -> SweepRow {
    SweepRow {
        experiment: "e10".into(),
        family: "enum-free".into(),
        size: 6,
        n: 6,
        leaves: 3,
        variant: "bw-fsa".into(),
        delay: 0,
        schedule: None,
        start_a: 1,
        start_b: 4,
        met: true,
        rounds: Some(17),
        crossings: 2,
        budget: u64::MAX,
        provisioned_bits: 9,
        measured_bits: 9,
        tree_seed: 3,
        pairs_seed: 0xDEAD_BEEF,
        cell_seed: 0xFEED_FACE_CAFE_F00D,
        certified: true,
        timed_out: None,
        poisoned: None,
        planned: None,
        agents: None,
        start_rest: None,
    }
}

#[test]
fn sweep_rows_with_each_optional_field_present_and_absent() {
    let bare = bare_row();
    check("bare row", &bare);
    let variants: Vec<(&str, SweepRow)> = vec![
        ("schedule", SweepRow { schedule: Some("intermittent(2,0)".into()), ..bare_row() }),
        ("timed_out", SweepRow { timed_out: Some(true), rounds: None, ..bare_row() }),
        ("poisoned", SweepRow { poisoned: Some(true), met: false, ..bare_row() }),
        (
            "planned",
            SweepRow {
                planned: Some(Planned { choice: "decide".into(), predicted: 5, actual: 7 }),
                ..bare_row()
            },
        ),
        ("agents", SweepRow { agents: Some(3), start_rest: Some(vec![2]), ..bare_row() }),
        ("empty start_rest", SweepRow { agents: Some(2), start_rest: Some(vec![]), ..bare_row() }),
        (
            "every optional field",
            SweepRow {
                schedule: Some("crash(1)\t\"quoted\"\n".into()),
                timed_out: Some(false),
                poisoned: Some(false),
                planned: Some(Planned { choice: "batch".into(), predicted: 0, actual: 0 }),
                agents: Some(4),
                start_rest: Some(vec![0, 5]),
                ..bare_row()
            },
        ),
    ];
    for (what, row) in &variants {
        check(what, row);
    }
    let rows: Vec<SweepRow> = variants.into_iter().map(|(_, r)| r).collect();
    check("all rows as one array", &rows);
    check("no rows", &Vec::<SweepRow>::new());
}

/// Runs a preset's grid on the decider, which certifies every cell.
fn decided(id: &str) -> sweep::SweepReport {
    let mut spec = sweep::preset(id, &[4, 5, 6], 1, 7).expect("preset");
    spec.executor = Executor::ExactDecide;
    sweep::run(&spec)
}

fn check_each<T: Serialize>(what: &str, items: &[T]) {
    assert!(!items.is_empty(), "{what}: nothing to check");
    for item in items {
        check(what, item);
    }
    check(what, items);
}

#[test]
fn certificates_and_summaries_of_e9_e10_e11() {
    let e9 = decided("e9");
    let e10 = decided("e10");
    let e11 = decided("e11");
    let pair = [&e9.certificates[..], &e10.certificates[..]].concat();
    assert!(pair.iter().all(|c| c.schedule.is_none() && c.agents.is_none()));
    // Every scheduled pair cell of e10 meets, so no preset emits a pair
    // certificate with a schedule label; relabel the pair ones.
    let schedule: Vec<Certificate> = pair
        .iter()
        .map(|c| Certificate { schedule: Some("crash(2)".into()), ..c.clone() })
        .collect();
    let ensemble = &e11.certificates;
    assert!(ensemble.iter().all(|c| c.agents == Some(3)));
    assert!(ensemble.iter().any(|c| c.schedule.is_some()));
    assert!(ensemble.iter().any(|c| c.schedule.is_none()));
    check_each("pair certificates", &pair);
    check_each("schedule certificates", &schedule);
    check_each("ensemble certificates", ensemble);
    for report in [&e9, &e10, &e11] {
        check_each("rows", &report.rows);
    }
    check_each("e9 summary", &e9::summarize(&e9).0);
    check_each("e10 summary", &e10::summarize(&e10).0);
    check_each("e11 summary", &e11::summarize(&e11).0);
}

#[test]
fn lazy_payload_objects_match_their_tree() {
    let rows = vec![bare_row()];
    let ids = ["e10", "e11"];
    let empty = serde::Object(vec![]);
    let payload = serde::Object(vec![
        ("schema", &"rvz-sweep/v2"),
        ("experiments", &ids),
        ("seed", &1u64),
        ("empty", &empty),
        ("rows", &rows),
    ]);
    check("payload", &payload);
}

#[test]
fn value_edge_cases() {
    let cases: Vec<(&str, Value)> = vec![
        ("empty array", json!([])),
        ("empty object", json!({})),
        ("nested empties", json!([json!([]), json!({}), json!([json!([])])])),
        (
            "object of empties",
            json!({"a": json!([]), "b": json!({}), "c": json!({"d": json!([])})}),
        ),
        ("control characters", json!("\u{0}\u{1}\u{8}\u{c}\u{1f}\t\r\n\"\\/\u{7f}é漢🦀")),
        ("NaN", json!(f64::NAN)),
        ("infinities", json!([f64::INFINITY, f64::NEG_INFINITY, -0.0f64, 1e300f64, 0.1f64])),
        ("null", json!(null)),
        ("true", json!(true)),
        ("integer extremes", json!([i64::MIN, i64::MAX, u64::MAX, 0u64])),
        ("string scalar", json!("plain")),
        ("empty string key", json!({"": ""})),
    ];
    for (what, v) in &cases {
        check(what, v);
    }
}
