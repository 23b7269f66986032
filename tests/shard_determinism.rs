//! Sharded determinism: a crash-free sharded deployment is an
//! implementation detail, not a behaviour change. The aggregate
//! [`RunReport`] and the merged report-hub trace must be invariant to
//! the shard count, the partition salt and the partition map itself.

use proptest::prelude::*;
use sphinx::core::shard::ShardConfig;
use sphinx::core::RunReport;
use sphinx::policy::Requirement;
use sphinx::sim::Duration;
use sphinx::workloads::{grid3, FaultPlan, Scenario, ScenarioBuilder};
use std::collections::BTreeMap;

const DAGS: u32 = 4;
const JOBS: u32 = 8;

fn quick() -> ScenarioBuilder {
    Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(DAGS, JOBS)
        .seed(7)
        .horizon(Duration::from_secs(24 * 3600))
}

fn run_with(builder: ScenarioBuilder, config: ShardConfig) -> (RunReport, String) {
    let mut rt = builder.build().build_sharded_runtime(config);
    let report = rt.try_run().expect("sharded run");
    let trace = rt.telemetry().trace_jsonl();
    (report, trace)
}

#[test]
fn report_and_trace_are_invariant_to_shard_count() {
    let (base, base_trace) = run_with(
        quick(),
        ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        },
    );
    assert!(base.finished, "baseline: {}", base.summary());
    assert_eq!(base.jobs_completed, (DAGS * JOBS) as usize);
    for shards in [2, 4, 8] {
        let (report, trace) = run_with(
            quick(),
            ShardConfig {
                shards,
                ..ShardConfig::default()
            },
        );
        assert_eq!(report, base, "{shards} shards vs single-shard baseline");
        assert_eq!(
            trace, base_trace,
            "merged trace diverged at {shards} shards"
        );
    }
}

/// The two places a one-shard report may differ from the unsharded one,
/// masked: `db.*`/`wal.*` metrics live on the coordination hub when
/// sharded, and per-site averages come from the prediction ledger's mean
/// rather than the statistics row's sum ÷ count (equal up to the last
/// bits, checked separately).
fn masked(mut report: RunReport) -> RunReport {
    let storage = |name: &String| name.starts_with("db.") || name.starts_with("wal.");
    let t = &mut report.telemetry;
    t.counters.retain(|name, _| !storage(name));
    t.gauges.retain(|name, _| !storage(name));
    t.histograms.retain(|name, _| !storage(name));
    for site in &mut report.sites {
        site.avg_completion_secs = None;
    }
    report
}

#[test]
fn sharded_single_shard_matches_the_unsharded_runtime_outcome() {
    // The 1-shard deployment is the plain runtime plus coordination
    // tables: the same loop, plan pass and report assembly, so the run it
    // produces must be the same one, healthy or faulted.
    for faults in [FaultPlan::none(), FaultPlan::grid3_typical()] {
        let scenario = quick().faults(faults.clone()).build();
        let mut plain = scenario.build_runtime();
        let unsharded = plain.try_run().expect("unsharded run");
        let mut sharded_rt = scenario.build_sharded_runtime(ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        });
        let sharded = sharded_rt.try_run().expect("sharded run");
        assert!(unsharded.finished, "{faults:?}: {}", unsharded.summary());
        assert!(
            unsharded
                .telemetry
                .counters
                .keys()
                .any(|k| k.starts_with("db.")),
            "{faults:?}: the unsharded report carries storage counters"
        );
        let (a, b) = (plain.telemetry(), sharded_rt.telemetry());
        assert_eq!(a.trace_jsonl(), b.trace_jsonl(), "{faults:?}: trace");
        assert_eq!(a.spans(), b.spans(), "{faults:?}: span forest");
        assert_eq!(unsharded.analysis, sharded.analysis, "{faults:?}");
        for (u, s) in unsharded.sites.iter().zip(&sharded.sites) {
            match (u.avg_completion_secs, s.avg_completion_secs) {
                (Some(u_avg), Some(s_avg)) => assert!(
                    (u_avg - s_avg).abs() <= 1e-9 * u_avg.abs().max(1.0),
                    "{faults:?} {}: {u_avg} vs {s_avg}",
                    u.name
                ),
                (u_avg, s_avg) => assert_eq!(u_avg, s_avg, "{faults:?} {}", u.name),
            }
        }
        assert_eq!(masked(sharded), masked(unsharded), "{faults:?}");
    }
}

#[test]
fn report_is_invariant_under_policy_and_deadlines() {
    // Quota debits and deadline-ordered planning exercise the ledger and
    // the EDF fast lane; both must still be partition-independent.
    let with_extras = || {
        quick()
            .quota(Requirement::new(10_000_000, 10_000_000))
            .deadline_last(1, Duration::from_secs(8 * 3600))
    };
    let (base, base_trace) = run_with(
        with_extras(),
        ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        },
    );
    assert!(base.finished, "{}", base.summary());
    for shards in [2, 4] {
        let (report, trace) = run_with(
            with_extras(),
            ShardConfig {
                shards,
                ..ShardConfig::default()
            },
        );
        assert_eq!(report, base, "{shards} shards with policy + deadline");
        assert_eq!(trace, base_trace);
    }
}

#[test]
fn partition_salt_does_not_change_the_report() {
    let (base, base_trace) = run_with(
        quick(),
        ShardConfig {
            shards: 4,
            ..ShardConfig::default()
        },
    );
    for salt in [1, 0xDEAD_BEEF, u64::MAX] {
        let (report, trace) = run_with(
            quick(),
            ShardConfig {
                shards: 4,
                partition_salt: salt,
                ..ShardConfig::default()
            },
        );
        assert_eq!(report, base, "salt {salt:#x} changed the report");
        assert_eq!(trace, base_trace, "salt {salt:#x} changed the trace");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any explicit DAG → shard assignment produces the same aggregate
    /// report and trace as the default hash partition.
    #[test]
    fn report_is_invariant_to_the_partition_map(
        shards in 2usize..=5,
        slots in proptest::collection::vec(0usize..64, (DAGS as usize)..(DAGS as usize + 1)),
    ) {
        let (base, base_trace) = run_with(quick(), ShardConfig {
            shards,
            ..ShardConfig::default()
        });
        let assignments: BTreeMap<u64, usize> = slots
            .iter()
            .enumerate()
            .map(|(dag, &slot)| (dag as u64, slot))
            .collect();
        let (report, trace) = run_with(quick(), ShardConfig {
            shards,
            assignments: Some(assignments.clone()),
            ..ShardConfig::default()
        });
        prop_assert_eq!(
            report, base,
            "assignment {:?} over {} shards changed the report",
            assignments, shards
        );
        prop_assert_eq!(trace, base_trace);
    }
}
