//! Every oracle check, fed a perturbed output, must fail — and a run
//! carrying that failure must report itself incorrect.

use brick_codegen::SpecParams;
use brick_dsl::shape::StencilShape;
use brick_tuner::tune_matrix;
use brick_vm::{resolve, run_vector_brick_backend, Backend, ExecutionMode};
use experiments::golden::{self, GOLDEN_N};
use experiments::{sweep_with, CellFilter, ExperimentParams, SweepOptions};
use gpu_sim::{GpuKind, ProgModel};
use perfbench::exec;
use perfbench::host::Stamp;
use perfbench::layers::Layers;
use perfbench::oracle::{chunk_digests, digests_match};
use perfbench::paper::exact_matches;
use perfbench::tune::{candidate_matches, run_candidate, warm_matches};
use perfbench::{Checks, Outcome, Rng, JOBS};

/// A run whose only check returned `verdict` must fail visibly.
fn assert_run_fails(name: &str, verdict: Result<(), String>) {
    let mut checks = Checks::new();
    checks.record(name, verdict);
    let outcome = Outcome::new(Stamp::detect(JOBS, 0), 1, checks, vec![]);
    assert!(
        !outcome.correct(),
        "{name}: the perturbation went unnoticed"
    );
    assert_eq!(outcome.failed, 1, "{name}");
    assert!(outcome.to_json().contains("\"correct\": false"), "{name}");
}

/// [`assert_run_fails`] for checks that report every mismatch.
fn assert_run_fails_all(name: &str, mismatches: Vec<String>) {
    assert!(
        !mismatches.is_empty(),
        "{name}: the perturbation went unnoticed"
    );
    let mut checks = Checks::new();
    checks.record_all(name, mismatches);
    assert_run_fails(name, Err(checks.failures.join("; ")));
}

#[test]
fn exact_resimulation_check_rejects_a_perturbed_record() {
    let filter = CellFilter {
        stencils: Some(vec!["7pt".into()]),
        gpus: Some(vec![GpuKind::A100]),
        models: Some(vec![ProgModel::Cuda]),
        ..CellFilter::default()
    };
    let sweep = sweep_with(
        &SweepOptions::new(ExperimentParams { n: 64 })
            .jobs(JOBS)
            .filter(filter),
    )
    .expect("tiny sweep runs");
    let fast = &sweep.records[0];
    exact_matches(fast, std::slice::from_ref(fast)).expect("an identical record passes");
    let mut perturbed = fast.clone();
    perturbed.dram_bytes += 1;
    assert_run_fails(
        "exact re-simulation",
        exact_matches(fast, std::slice::from_ref(&perturbed)),
    );
}

#[test]
fn golden_checks_reject_perturbed_sweeps() {
    let opts = SweepOptions::new(ExperimentParams { n: GOLDEN_N }).jobs(JOBS);
    let mut sweep = sweep_with(&opts).expect("golden sweep runs");
    assert!(golden::check(&sweep, &golden::golden_dir()).is_empty());
    // 7pt on A100/CUDA: a point of the golden Fig. 3 panel
    sweep.records[0].gflops *= 1.01;
    assert_run_fails_all("goldens", golden::check(&sweep, &golden::golden_dir()));
}

#[test]
fn tuner_checks_reject_perturbed_tables() {
    let opts = experiments::tune::golden_tune_options(Some(JOBS), None);
    let cold = tune_matrix(&opts).expect("golden tune runs");
    warm_matches(&cold, &cold.clone()).expect("an identical rerun passes");

    let mut shifted = cold.clone();
    shifted.groups[0].ranked[0].gflops *= 1.0 + 1e-12;
    assert_run_fails("warm tables", warm_matches(&cold, &shifted));

    let mut missed = cold.clone();
    missed.manifest.cache_misses = 1;
    assert_run_fails("warm misses", warm_matches(&cold, &missed));

    assert!(golden::check_tune(&cold, &golden::golden_dir()).is_empty());
    let mut off = cold.clone();
    off.groups[0].ranked[0].gflops *= 1.01;
    assert_run_fails_all(
        "tuner golden",
        golden::check_tune(&off, &golden::golden_dir()),
    );
}

#[test]
fn candidate_check_rejects_a_perturbed_output() {
    let shape = StencilShape::star(1);
    let p = SpecParams::paper_default(32);
    let (reference, got) = run_candidate(&shape, &p, &mut Rng::new(1, "test")).expect("runs");
    candidate_matches(&p, &reference, &got).expect("the interpreter matches the reference");
    let mut perturbed = got.clone();
    let v = perturbed.get(3, 2, 1);
    perturbed.set(3, 2, 1, f64::from_bits(v.to_bits() ^ 1));
    assert_run_fails("candidate", candidate_matches(&p, &reference, &perturbed));
}

#[test]
fn exec_check_rejects_a_perturbed_output() {
    let backend = resolve(ExecutionMode::Auto).expect("auto always resolves");
    let mut cell = exec::build(64, 5, &Layers::new()).expect("tiny cell builds");
    let mut checks = Checks::new();
    exec::oracles(&mut cell, backend, &mut checks);
    assert!(checks.failures.is_empty(), "{:?}", checks.failures);
    assert_eq!(checks.attempted, exec::DEGREES.len() as u64);

    let vol = cell.input.dims().volume();
    for k in 0..exec::DEGREES.len() {
        let kernel = &cell.kernels[k];
        run_vector_brick_backend(kernel, &cell.input, &mut cell.output, Backend::Interpreter)
            .expect("interpreter runs");
        let oracle = chunk_digests(cell.output.raw(), vol);
        run_vector_brick_backend(kernel, &cell.input, &mut cell.output, backend)
            .expect("native runs");
        digests_match("output", &oracle, &chunk_digests(cell.output.raw(), vol))
            .expect("native matches the interpreter");
        let word = cell.output.raw().len() / 2;
        let v = cell.output.raw()[word];
        cell.output.raw_mut()[word] = f64::from_bits(v.to_bits() ^ 1);
        assert_run_fails(
            "exec",
            digests_match("output", &oracle, &chunk_digests(cell.output.raw(), vol)),
        );
    }
}
