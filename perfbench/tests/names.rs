//! The benchmark's own test: every name `BENCHMARK.json` declares is
//! well-formed, and a quick run of every workload prints exactly the
//! declared metrics, on a human-readable line and in the closing JSON.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use ab_scenario::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list")
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("an entry of {key} has no name"),
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn quick_run(workload: &str, trace: u8) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--quick"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    let json = Json::parse(last).expect("the last line is JSON");
    (stdout, json)
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let doc = manifest();
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        all.extend(names(&doc, key));
    }
    for name in &all {
        assert!(well_formed(name), "malformed name {name:?}");
    }
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a name is used twice");
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let doc = manifest();
    for workload in names(&doc, "workloads") {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, json) = quick_run(&workload, trace);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                panic!("no metrics object:\n{stdout}")
            };
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared = names(&doc, key);
            assert_eq!(printed, declared, "{workload} trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {m:?}"
                );
                assert!(
                    stdout.lines().any(|l| l.starts_with(&format!("{name} "))),
                    "{workload}: {name} has no human-readable line"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
