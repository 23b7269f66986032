//! Fault-tolerance integration: site failures, middleware crashes, and
//! the write-ahead-log recovery path, exercised through the whole stack.

use sphinx::core::messages::{CancelCause, StatusReport};
use sphinx::core::runtime::SphinxRuntime;
use sphinx::core::state::{DagRow, JobRow, JobState};
use sphinx::core::strategy::{SiteInfo, StrategyKind};
use sphinx::core::{ServerConfig, SphinxServer};
use sphinx::dag::WorkloadSpec;
use sphinx::data::{ReplicaService, SiteId, TransferModel};
use sphinx::db::{CheckpointPolicy, Database, DbConfig, MemWal, Wal};
use sphinx::policy::UserId;
use sphinx::sim::{Duration, SimRng, SimTime};
use sphinx::workloads::experiments::{recovery, ExperimentParams};
use sphinx::workloads::{grid3, FaultPlan, Scenario};
use std::collections::BTreeMap;
use std::sync::Arc;

fn faulty() -> sphinx::workloads::ScenarioBuilder {
    Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(2, 10)
        .seed(21)
        .timeout(Duration::from_mins(10))
        .horizon(Duration::from_secs(24 * 3600))
}

#[test]
fn black_hole_survived_by_every_strategy() {
    for strategy in StrategyKind::ALL {
        let report = faulty()
            .strategy(strategy)
            .faults(FaultPlan {
                black_holes: 1,
                flaky: 0,
                ..FaultPlan::default()
            })
            .build()
            .run();
        assert!(report.finished, "{strategy}: {}", report.summary());
        assert_eq!(report.jobs_completed, 20, "{strategy}");
    }
}

#[test]
fn crash_prone_sites_cause_holds_not_losses() {
    let report = faulty()
        .strategy(StrategyKind::CompletionTime)
        .faults(FaultPlan {
            black_holes: 0,
            flaky: 2,
            mtbf: Duration::from_mins(20),
            mttr: Duration::from_mins(10),
            kill_prob: 0.1,
        })
        .build()
        .run();
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed, 20);
}

#[test]
fn recovery_experiment_completes_after_mid_run_crash() {
    let outcome = recovery(ExperimentParams::quick(5), Duration::from_mins(5));
    assert!(outcome.report.finished, "{}", outcome.report.summary());
    assert_eq!(
        outcome.report.jobs_completed + outcome.report.jobs_eliminated,
        16
    );
    assert!(outcome.wal_entries > 0, "the WAL must have content");
}

#[test]
fn recovery_with_torn_final_wal_line_still_completes() {
    // Crash while a commit was being written: the torn line is dropped,
    // losing at most that one transaction — which the conservative
    // replanning then redoes.
    let scenario = faulty().strategy(StrategyKind::NumCpus).build();
    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
    let mut rt = scenario.build_runtime_with_db(Arc::clone(&db));
    rt.run_until(SimTime::ZERO + Duration::from_mins(4));
    let config = rt.config().clone();
    let grid = rt.into_grid();

    wal.tear_last_line();
    let recovered = Arc::new(Database::recover(Box::new(wal)).expect("torn tail tolerated"));
    let mut rt2 = SphinxRuntime::with_recovered_database(grid, config, recovered).unwrap();
    let report = rt2.run();
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed + report.jobs_eliminated, 20);
}

#[test]
fn double_crash_recovery_still_completes() {
    // Crash, recover, crash again, recover again.
    let scenario = faulty().strategy(StrategyKind::CompletionTime).build();
    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
    let mut rt = scenario.build_runtime_with_db(db);
    rt.run_until(SimTime::ZERO + Duration::from_mins(3));
    let config = rt.config().clone();
    let grid = rt.into_grid();

    let db2 = Arc::new(Database::recover(Box::new(wal.clone())).unwrap());
    let mut rt2 = SphinxRuntime::with_recovered_database(grid, config.clone(), db2).unwrap();
    rt2.run_until(SimTime::ZERO + Duration::from_mins(6));
    let grid2 = rt2.into_grid();

    let db3 = Arc::new(Database::recover(Box::new(wal)).unwrap());
    let mut rt3 = SphinxRuntime::with_recovered_database(grid2, config, db3).unwrap();
    let report = rt3.run();
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed + report.jobs_eliminated, 20);
}

#[test]
fn checkpoint_compaction_preserves_recoverability() {
    let scenario = faulty().build();
    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
    let mut rt = scenario.build_runtime_with_db(Arc::clone(&db));
    rt.run_until(SimTime::ZERO + Duration::from_mins(4));
    // Compact the log mid-run, keep going a little, then crash.
    db.checkpoint().expect("checkpoint succeeds");
    let entries_after_checkpoint = wal.len();
    assert_eq!(entries_after_checkpoint, 1, "compacted to one snapshot");
    rt.run_until(SimTime::ZERO + Duration::from_mins(6));
    let config = rt.config().clone();
    let grid = rt.into_grid();

    let recovered = Arc::new(Database::recover(Box::new(wal)).unwrap());
    let mut rt2 = SphinxRuntime::with_recovered_database(grid, config, recovered).unwrap();
    let report = rt2.run();
    assert!(report.finished, "{}", report.summary());
}

#[test]
fn auto_checkpoint_interleaves_with_crash_recovery() {
    // The same seeded workload, crashed mid-run and recovered, must end in
    // the same place whether the log was never compacted or compacted
    // automatically many times along the way — and the automatic policy
    // must keep the recovery replay bounded by its ratio.
    let aggressive = CheckpointPolicy {
        enabled: true,
        ratio: 2,
        min_log_lines: 8,
    };
    let run = |db_config: DbConfig| {
        let scenario = faulty().strategy(StrategyKind::CompletionTime).build();
        let wal = MemWal::shared();
        let db = Arc::new(Database::with_wal_and_config(
            Box::new(wal.clone()),
            db_config,
        ));
        let mut rt = scenario.build_runtime_with_db(Arc::clone(&db));
        rt.run_until(SimTime::ZERO + Duration::from_mins(4));
        let config = rt.config().clone();
        let grid = rt.into_grid(); // crash

        let recovered =
            Arc::new(Database::recover_with_config(Box::new(wal), db_config).expect("log replays"));
        let replayed = recovered.replayed();
        let live = recovered.live_rows();
        let mut rt2 = SphinxRuntime::with_recovered_database(grid, config, recovered).unwrap();
        let mut report = rt2.run();
        // WAL/cache counter values legitimately differ between the two
        // configurations (auto-checkpointing emits extra `wal:*` spans);
        // the *outcome* — including critical paths and blame — must not.
        report.telemetry = sphinx::telemetry::TelemetrySnapshot::default();
        report.analysis.spans_total = 0;
        report.analysis.spans_live = 0;
        report.analysis.spans_dropped = 0;
        (report, replayed, live)
    };

    let (base_report, base_replayed, _) = run(DbConfig {
        checkpoint: CheckpointPolicy::disabled(),
        ..DbConfig::default()
    });
    let (auto_report, auto_replayed, auto_live) = run(DbConfig {
        checkpoint: aggressive,
        ..DbConfig::default()
    });

    assert!(auto_report.finished, "{}", auto_report.summary());
    assert_eq!(
        auto_report, base_report,
        "auto-checkpointing must not change the scheduling outcome"
    );
    // Post-commit invariant of the policy: the log was either still below
    // min_log_lines or within ratio × live rows when the crash hit.
    let bound = (aggressive.ratio * auto_live).max(aggressive.min_log_lines);
    assert!(
        auto_replayed <= bound,
        "replay {auto_replayed} exceeds policy bound {bound}"
    );
    assert!(
        auto_replayed < base_replayed,
        "auto-checkpointing must shrink replay ({auto_replayed} vs {base_replayed})"
    );
}

#[test]
fn reliability_counts_survive_recovery() {
    // A site flagged before the crash stays known-bad after recovery via
    // the persisted site-stats table.
    let scenario = faulty()
        .strategy(StrategyKind::RoundRobin)
        .faults(FaultPlan {
            black_holes: 1,
            flaky: 0,
            ..FaultPlan::default()
        })
        .timeout(Duration::from_mins(5))
        .build();
    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
    let mut rt = scenario.build_runtime_with_db(db);
    // Run long enough for timeouts on the black hole to be recorded.
    rt.run_until(SimTime::ZERO + Duration::from_mins(20));
    let cancelled_before = rt.server().reliability().total_cancelled();
    let config = rt.config().clone();
    let grid = rt.into_grid();

    let recovered = Arc::new(Database::recover(Box::new(wal)).unwrap());
    let rt2 = SphinxRuntime::with_recovered_database(grid, config, recovered).unwrap();
    assert_eq!(
        rt2.server().reliability().total_cancelled(),
        cancelled_before,
        "lifetime cancellation counts must survive the crash"
    );
}

/// Drive a bare server until every DAG finishes or `max_cycles` plan
/// cycles pass. Plans complete instantly, except that every fourth plan
/// times out, so replans and site-statistics rows reach the log. Returns
/// the time reached.
fn drive_to_completion(
    server: &mut SphinxServer,
    rls: &mut ReplicaService,
    mut now: SimTime,
    max_cycles: usize,
) -> SimTime {
    let mut planned = 0u64;
    for _ in 0..max_cycles {
        if server.all_finished() {
            break;
        }
        let plans = server
            .plan_cycle(now, rls, &BTreeMap::new(), &TransferModel::default())
            .expect("plan cycle");
        for plan in plans {
            planned += 1;
            let report = if planned.is_multiple_of(4) {
                StatusReport::Cancelled {
                    job: plan.job,
                    site: plan.site,
                    cause: CancelCause::Timeout,
                }
            } else {
                rls.register(plan.output.file.clone(), plan.site);
                StatusReport::Completed {
                    job: plan.job,
                    site: plan.site,
                    total: Duration::from_secs(90),
                    exec: Duration::from_secs(60),
                    idle: Duration::from_secs(10),
                }
            };
            server.handle_report(report, now).expect("report handled");
        }
        now += Duration::from_secs(30);
    }
    now
}

#[test]
fn whole_server_recovers_after_every_commit() {
    // Crash the server after each commit of a seeded run and recover it
    // from that log prefix. With checkpointing off, every prefix is a real
    // crash state, including those that tear one tracker report's several
    // commits apart.
    let catalog: Vec<SiteInfo> = (0..3)
        .map(|i| SiteInfo {
            id: SiteId(i),
            name: format!("site{i}"),
            cpus: 4,
        })
        .collect();
    let config = ServerConfig {
        strategy: StrategyKind::RoundRobin,
        ..ServerConfig::default()
    };
    let db_config = DbConfig {
        checkpoint: CheckpointPolicy::disabled(),
        ..DbConfig::default()
    };
    let dags = WorkloadSpec::small(3, 8).generate(&SimRng::new(11), 0);
    let mut rls = ReplicaService::new();
    for dag in &dags {
        for file in dag.external_inputs() {
            rls.register(file, SiteId(0));
        }
    }

    let wal = MemWal::shared();
    let db = Arc::new(Database::with_wal_and_config(
        Box::new(wal.clone()),
        db_config,
    ));
    let mut server = SphinxServer::new(db, catalog.clone(), config.clone());
    for dag in &dags {
        server.submit_dag(dag, UserId(1), SimTime::ZERO).unwrap();
    }
    let crash_at = drive_to_completion(&mut server, &mut rls, SimTime::ZERO, 200);
    assert!(server.all_finished(), "the uncrashed run must finish");
    let lines = wal.read_all().unwrap();
    assert!(lines.len() > 100, "only {} commits", lines.len());

    let mut failed = Vec::new();
    for k in 1..=lines.len() {
        let outcome = std::panic::catch_unwind(|| {
            let mut prefix = MemWal::shared();
            prefix.rewrite(&lines[..k]).unwrap();
            let db = Database::recover_with_config(Box::new(prefix), db_config).unwrap();
            let mut server =
                SphinxServer::recover(Arc::new(db), catalog.clone(), config.clone(), crash_at)
                    .unwrap();
            // The grid survived the crash, so its replica catalog is the
            // finished run's.
            let mut rls = rls.clone();
            drive_to_completion(&mut server, &mut rls, crash_at, 200);
            let db = server.database();
            let expected: usize = db
                .scan::<DagRow>()
                .unwrap()
                .iter()
                .map(|d| d.dag.len())
                .sum();
            let jobs = db.scan::<JobRow>().unwrap();
            server.all_finished()
                && jobs.len() == expected
                && jobs
                    .iter()
                    .all(|j| matches!(j.state, JobState::Finished | JobState::Eliminated))
        });
        if !matches!(outcome, Ok(true)) {
            failed.push(k);
        }
    }
    assert!(
        failed.is_empty(),
        "recovery failed after {} of {} commits: {failed:?}",
        failed.len(),
        lines.len()
    );
}
