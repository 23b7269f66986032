//! End-to-end critical-path extraction on a hand-built workflow.
//!
//! A three-job linear chain has exactly one possible critical path — the
//! whole chain — so the analyzer's output can be checked job by job: the
//! chain order, the per-state steps, and the invariant that the path
//! tiles the DAG's makespan exactly (every handoff between consecutive
//! states and between parent completion and child readiness happens at a
//! single server-observed instant, so a fault-free run leaves no gaps).
//!
//! Real runs with faults, replans and span eviction also check the
//! production analysis against the scan-based oracle shared with the
//! telemetry crate's property test.

#[path = "../crates/telemetry/tests/support/scan_oracle.rs"]
mod scan_oracle;

use scan_oracle::ScanGraph;
use sphinx::core::report::RunReport;
use sphinx::core::runtime::{RuntimeConfig, SphinxRuntime};
use sphinx::dag::{Dag, DagId, JobId, JobSpec};
use sphinx::data::{FileSpec, LogicalFile, TransferModel};
use sphinx::db::Database;
use sphinx::grid::GridSim;
use sphinx::policy::UserId;
use sphinx::sim::Duration;
use sphinx::telemetry::SpanGraph;
use sphinx::workloads::{grid3, FaultPlan, Scenario};
use std::sync::Arc;

/// jobs 0 -> 1 -> 2, chained by their output files.
fn chain_dag() -> Dag {
    let id = DagId(0);
    let out = |i: u32| LogicalFile::new(format!("chain.out{i}"));
    let jobs = (0..3u32)
        .map(|i| JobSpec {
            id: JobId::new(id, i),
            name: format!("link-{i}"),
            inputs: if i == 0 { vec![] } else { vec![out(i - 1)] },
            output: FileSpec::new(out(i), 50),
            // The sink's own compute is tiny, so its lifetime is
            // dominated by waiting on the 10-minute upstream links.
            compute: Duration::from_mins([10, 10, 2][i as usize]),
        })
        .collect();
    Dag::new(id, jobs).expect("chain is a valid DAG")
}

fn run_chain() -> (SphinxRuntime, RunReport) {
    let grid = GridSim::new(
        grid3::catalog_small(),
        TransferModel::uniform(60.0, Duration::from_secs(3)),
        11,
    );
    let mut rt = SphinxRuntime::with_database(
        grid,
        RuntimeConfig::default(),
        Arc::new(Database::in_memory()),
    );
    rt.submit_dag(&chain_dag(), UserId(1));
    let report = rt.run();
    assert!(report.finished, "{}", report.summary());
    (rt, report)
}

#[test]
fn linear_chain_critical_path_is_the_whole_chain() {
    let (rt, report) = run_chain();
    assert_eq!(report.jobs_completed, 3);
    let paths = &report.analysis.critical_paths;
    assert_eq!(paths.len(), 1, "one DAG, one critical path");
    let path = &paths[0];
    assert_eq!(path.dag, 0);
    // The chain order, upstream first: job keys equal indices for DAG 0.
    assert_eq!(path.jobs, vec![0, 1, 2]);
    // Fault-free, so the causal chain tiles the makespan exactly.
    assert_eq!(
        path.path_ms, path.makespan_ms,
        "chain steps must tile the makespan: {path:?}"
    );
    assert!(path.makespan_ms > 0);
    // Steps are in time order, contiguous per job, and every one belongs
    // to a chained job on its only attempt.
    for pair in path.steps.windows(2) {
        assert!(pair[0].end_ms <= pair[1].start_ms || pair[0].job == pair[1].job);
        assert!(pair[0].start_ms <= pair[1].start_ms);
    }
    for step in &path.steps {
        assert!(path.jobs.contains(&step.job));
        assert!(step.attempt <= 1, "no replans on a fault-free grid");
        assert!(step.end_ms >= step.start_ms);
    }
    // Each chained job contributes a running step.
    for job in &path.jobs {
        assert!(
            path.steps
                .iter()
                .any(|s| s.job == *job && s.name == "state:running"),
            "job {job} must have run on the critical path"
        );
    }
    // The span graph behind the analysis is sound and rooted properly.
    let graph = SpanGraph::new(rt.telemetry().spans());
    assert!(graph.validate().is_empty(), "{:?}", graph.validate());
}

#[test]
fn chain_blames_execution_not_faults() {
    let (_, report) = run_chain();
    let slow = &report.analysis.slowest_jobs;
    assert_eq!(slow.len(), 3);
    // Job 2 lives longest: it waits for 0 and 1 before its own 15 min of
    // compute; its dependency dwell must dominate planner/queue time.
    assert_eq!(slow[0].job, 2);
    assert_eq!(slow[0].attempts, 1);
    assert_eq!(slow[0].blame, "dependencies");
    assert!(slow[0].dwell.dependency_ms > slow[0].dwell.execution_ms);
    assert_eq!(slow[0].dwell.fault_ms, 0, "no faults on a clean grid");
    // The chain root only "waits on dependencies" until the first plan
    // cycle reduces the DAG — at most one planner period.
    let root = slow.iter().find(|j| j.job == 0).expect("job 0 reported");
    assert!(root.dwell.dependency_ms <= 15_000, "{:?}", root.dwell);
    assert!(root.dwell.execution_ms >= Duration::from_mins(4).as_millis());
}

/// The report's analysis equals the scan oracle's over the run's final
/// span forest. `RunReport` analyses keep the ten slowest jobs.
fn assert_analysis_matches_oracle(rt: &SphinxRuntime, report: &RunReport) {
    let expected = ScanGraph::new(rt.telemetry().spans()).analyze(10);
    assert!(!expected.critical_paths.is_empty());
    assert_eq!(report.analysis.critical_paths, expected.critical_paths);
    assert_eq!(report.analysis.slowest_jobs, expected.slowest_jobs);
}

fn run_scenario(scenario: &Scenario) -> (SphinxRuntime, RunReport) {
    let mut rt = scenario.build_runtime();
    let report = rt.run();
    assert!(report.finished, "{}", report.summary());
    (rt, report)
}

#[test]
fn faulty_multi_dag_analysis_matches_scan_oracle() {
    // The first seed whose run both times out and replans is fixed for a
    // given codebase, so the comparison always covers those paths.
    let (rt, report) = (1..40)
        .map(|seed| {
            let scenario = Scenario::builder()
                .seed(seed)
                .faults(FaultPlan::grid3_typical())
                .dags(4, 12)
                .build();
            run_scenario(&scenario)
        })
        .find(|(rt, report)| {
            report.timeouts > 0
                && rt
                    .telemetry()
                    .spans()
                    .iter()
                    .any(|s| s.name == "attempt" && s.attempt.unwrap_or(0) >= 2)
        })
        .expect("some seed in 1..40 must time out and replan");
    assert_eq!(report.analysis.critical_paths.len(), 4);
    assert_analysis_matches_oracle(&rt, &report);
}

#[test]
fn evicting_run_analysis_matches_scan_oracle() {
    let scenario = Scenario::builder()
        .seed(3)
        .faults(FaultPlan::grid3_typical())
        .dags(4, 12)
        .telemetry_capacities(4_096, 300)
        .build();
    let (rt, report) = run_scenario(&scenario);
    assert!(
        report.analysis.spans_dropped > 0,
        "the span store must evict: {:?}",
        report.telemetry
    );
    assert_analysis_matches_oracle(&rt, &report);
}
