//! Runs the built harness: the names it prints are exactly the lists of
//! `BENCHMARK.json`, the same seed generates the same inputs, and no ledger
//! row can come from a reference path.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_kfds-benchmark");

fn contract() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text after `"key": "` up to the closing quote.
fn string_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let start = object.find(&format!("\"{key}\": \""))? + key.len() + 5;
    Some(&object[start..start + object[start..].find('"')?])
}

/// `name → unit` (or `name → ""`) of the objects in the array under `key`.
fn section(json: &str, key: &str) -> BTreeMap<String, String> {
    let start = json.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key} section"));
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let name = string_field(obj, "name").expect("object has a name");
            (name.to_string(), string_field(obj, "unit").unwrap_or("").to_string())
        })
        .collect()
}

/// `name → unit` of the `metrics` object of a result line.
fn result_metrics(line: &str) -> BTreeMap<String, String> {
    let body = &line[line.find("\"metrics\": {").expect("result has metrics") + 12..];
    body.split("}, ")
        .map(|entry| {
            let name = entry.trim_start_matches('"').split('"').next().expect("metric name");
            (name.to_string(), string_field(entry, "unit").expect("metric unit").to_string())
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> Output {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    Command::new(BIN)
        .args(["--workload", workload, "--quick", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("harness binary runs")
}

fn stdout(output: &Output) -> String {
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8(output.stdout.clone()).expect("utf-8 output")
}

fn inputs_line(text: &str) -> &str {
    text.lines().find(|l| l.starts_with("# inputs")).expect("inputs line")
}

#[test]
fn every_workload_prints_exactly_the_contract_names() {
    let contract = contract();
    let lists = [section(&contract, "end_to_end"), section(&contract, "per_layer")];
    for workload in section(&contract, "workloads").keys() {
        let mut digests = Vec::new();
        for (trace, want) in lists.iter().enumerate() {
            let text = stdout(&run(workload, 1, trace as u8));
            let last = text.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {last}");
            assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
            let got = result_metrics(last);
            assert_eq!(&got, want, "{workload} --trace {trace}");
            for name in got.keys() {
                let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(name.chars().all(ok), "metric name {name}");
                assert!(text.contains(&format!("\n{name} ")), "no text row for {name}");
            }
            digests.push(inputs_line(&text).to_string());
        }
        // The same seed generates the same inputs, another seed others.
        assert_eq!(digests[0], digests[1]);
        assert_ne!(digests[0], inputs_line(&stdout(&run(workload, 2, 0))));
    }
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve_closed_loop-1-1/trace.json");
    let trace = std::fs::read_to_string(trace).expect("the traced pass writes trace.json");
    assert!(trace.contains("\"name\": \"serve.request\"") && trace.contains("\"parent\": "));
}

#[test]
fn refuses_to_run_with_any_switch_off_its_default() {
    assert_eq!(kfds_switches::ALL.len(), 9, "a new switch needs a look at the provenance guard");
    for switch in kfds_switches::ALL {
        let output = Command::new(BIN)
            .args(["--workload", "serve_closed_loop", "--quick", "--seconds", "1"])
            .env(switch.name, switch.off_values[0])
            .output()
            .expect("harness binary runs");
        assert_eq!(output.status.code(), Some(2), "{} was not refused", switch.name);
        assert!(output.stdout.is_empty(), "{}: a refused run printed a result", switch.name);
        assert!(String::from_utf8_lossy(&output.stderr).contains(switch.name));
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let output = Command::new(BIN).args(["--workload", "nope"]).output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
