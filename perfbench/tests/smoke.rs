//! Tiny-scale smoke of every workload: each run, untraced and traced,
//! passes its oracles and emits exactly the metrics `BENCHMARK.json`
//! names, each with its declared unit.

use std::path::{Path, PathBuf};

use perfbench::{run, Outcome, RunArgs, Scale, Workload};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn work_dir(workload: Workload, trace: bool) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}-{trace}", workload.name()))
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let args = RunArgs {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        work_dir: work_dir(workload, trace),
    };
    let outcome =
        run(&args).unwrap_or_else(|e| panic!("{} (trace={trace}) failed: {e}", workload.name()));
    assert!(
        outcome.correct(),
        "{} (trace={trace}) reported failures: {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted >= 1);
    assert!(
        !args.work_dir.exists(),
        "the run must remove its work directory"
    );
    outcome
}

fn assert_emits(outcome: &Outcome, list: &str, ctx: &str) {
    let expected = declared(list);
    let got: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        got, expected,
        "{ctx}: metrics differ from BENCHMARK.json `{list}`"
    );
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{ctx}: {} is {}", m.name, m.value);
    }
    let line = serde_json::parse(&outcome.to_json()).expect("the result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{ctx}");
}

/// Run `workload` untraced and traced; returns the traced outcome.
fn smoke(workload: Workload) -> Outcome {
    let untraced = tiny(workload, false);
    assert_emits(&untraced, "end_to_end", workload.name());
    for m in &untraced.metrics {
        assert!(
            m.value > 0.0,
            "{}: end-to-end {} is 0",
            workload.name(),
            m.name
        );
    }
    let traced = tiny(workload, true);
    assert_emits(&traced, "per_layer", workload.name());
    traced
}

#[test]
fn paper_sweep_smoke() {
    smoke(Workload::PaperSweep);
}

#[test]
fn tune_a100_smoke() {
    let traced = smoke(Workload::TuneA100);
    // the warm replays resolve every cell from the cache
    let warm = traced.metric("gpu_sim.warm_simulations").expect("emitted");
    assert_eq!(warm.value, 0.0, "warm replays must not simulate");
    let cold = traced.metric("gpu_sim.simulations").expect("emitted");
    assert!(cold.value > 0.0, "the cold replay simulates");
}

#[test]
fn exec_star7_smoke() {
    smoke(Workload::ExecStar7);
}
