//! The metric catalogue matches `BENCHMARK.json`.

use hdnh_bench::json::Json;
use hdnh_perfbench::metrics::{Def, END_TO_END, PER_LAYER};
use hdnh_perfbench::workload::Spec;

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} is a list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{section} entry has {k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn ours(defs: &[Def]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
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

#[test]
fn names_are_well_formed_and_unique() {
    let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for name in &all {
        assert!(well_formed(name), "bad metric name {name:?}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a metric name is used twice");
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Spec::NAMES);
    for name in Spec::NAMES {
        assert!(Spec::named(name).is_some(), "{name} has no spec");
    }
}
