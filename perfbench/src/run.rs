//! One repeat of a workload through the real runtimes, untraced, and the
//! checks every repeat must pass.

use crate::driver;
use crate::tracer::{Layer, Profile};
use crate::workload::{Deployment, Workload};
use sphinx_core::{CoreResult, RunReport};
use sphinx_db::{Database, MemWal, Wal};
use sphinx_sim::SimTime;
use sphinx_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Machine-independent counters that must repeat exactly across repeats
/// at one seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// Recovery replays timed per repeat; the median is kept.
const RECOVER_REPS: usize = 5;

/// Set-ups timed per repeat; the median is kept and the last one driven.
const SETUP_SAMPLES: usize = 3;

/// One untraced repeat.
#[derive(Debug)]
pub struct Outcome {
    /// Scenario build, DAG generation, replica seeding and submission
    /// (median of `SETUP_SAMPLES` builds).
    pub setup_s: f64,
    /// The drive loop to completion.
    pub drive_s: f64,
    /// `build_report` after the drive.
    pub report_s: f64,
    /// The run's report.
    pub report: RunReport,
    /// Exact counters of this repeat.
    pub counts: Counts,
    /// Adoptions a sharded run performed (0 unsharded).
    pub adoptions: usize,
}

/// What a traced repeat needs from the untraced run it is checked
/// against: the runtime's telemetry hub and, unsharded, its final WAL.
struct Reference {
    telemetry: Arc<Telemetry>,
    wal: Option<MemWal>,
}

/// Whether two hubs hold the same trace ring and the same span forest:
/// the evidence that two runs executed the same program.
pub fn same_trace(a: &Telemetry, b: &Telemetry) -> bool {
    a.trace_jsonl() == b.trace_jsonl() && a.spans() == b.spans()
}

impl Outcome {
    /// Jobs completed per host second of drive plus report.
    pub fn jobs_per_s(&self) -> f64 {
        self.report.jobs_completed as f64 / (self.drive_s + self.report_s)
    }
}

fn report_counts(report: &RunReport, counts: &mut Counts) {
    let t = &report.telemetry;
    counts.insert("plans", report.plans);
    counts.insert("timeouts", report.timeouts);
    counts.insert("holds", report.holds);
    counts.insert("jobs_completed", report.jobs_completed as u64);
    counts.insert("plan.score_cache.hits", t.counter("plan.score_cache.hits"));
    counts.insert(
        "plan.score_cache.misses",
        t.counter("plan.score_cache.misses"),
    );
    counts.insert("telemetry.trace.recorded", t.trace_recorded);
    counts.insert("telemetry.trace.dropped", t.trace_dropped);
    counts.insert("telemetry.spans.total", t.spans_total);
    counts.insert("telemetry.spans.dropped", t.spans_dropped);
}

/// Run one repeat of `workload` at `seed` through the real runtime.
pub fn untraced(workload: &Workload, seed: u64) -> CoreResult<Outcome> {
    Ok(reference(workload, seed)?.0)
}

fn reference(workload: &Workload, seed: u64) -> CoreResult<(Outcome, Reference)> {
    match &workload.deployment {
        Deployment::Unsharded => unsharded(workload, seed),
        Deployment::Sharded { .. } => sharded(workload, seed),
    }
}

/// Build `SETUP_SAMPLES` times, dropping each build before the next;
/// returns the median build time and the last build.
fn set_up<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_SAMPLES);
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&mut times), built.expect("SETUP_SAMPLES > 0"))
}

fn unsharded(workload: &Workload, seed: u64) -> CoreResult<(Outcome, Reference)> {
    let (setup_s, (wal, db, mut rt)) = set_up(|| {
        let scenario = workload.scenario(seed);
        let wal = MemWal::shared();
        let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
        let rt = scenario.build_runtime_with_db(Arc::clone(&db));
        (wal, db, rt)
    });

    let t1 = Instant::now();
    rt.try_run_until(SimTime::MAX)?;
    let drive_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let report = rt.build_report()?;
    let report_s = t2.elapsed().as_secs_f64();

    let mut counts = Counts::new();
    report_counts(&report, &mut counts);
    let stats = db.read_stats();
    counts.insert("db.rows_read", stats.rows_read);
    counts.insert("db.rows_decoded", stats.rows_decoded);
    counts.insert("db.cache_hits", stats.cache_hits);
    let lines = wal.read_all()?;
    counts.insert("db.wal.lines", lines.len() as u64);
    counts.insert(
        "db.wal.bytes",
        lines.iter().map(|l| l.len() as u64 + 1).sum(),
    );
    counts.insert("db.wal.rewrites", report.telemetry.counter("wal.rewrites"));
    let outcome = Outcome {
        setup_s,
        drive_s,
        report_s,
        report,
        counts,
        adoptions: 0,
    };
    let reference = Reference {
        telemetry: Arc::clone(rt.telemetry()),
        wal: Some(wal),
    };
    Ok((outcome, reference))
}

fn sharded(workload: &Workload, seed: u64) -> CoreResult<(Outcome, Reference)> {
    let (setup_s, mut rt) = set_up(|| {
        let scenario = workload.scenario(seed);
        scenario.build_sharded_runtime(workload.shard_config().expect("sharded workload"))
    });

    let t1 = Instant::now();
    rt.try_run_until(SimTime::MAX)?;
    let drive_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let report = rt.build_report()?;
    let report_s = t2.elapsed().as_secs_f64();

    let mut counts = Counts::new();
    report_counts(&report, &mut counts);
    let adoptions = rt.adoptions();
    let sum = |f: fn(&sphinx_core::AdoptionRecord) -> u64| adoptions.iter().map(f).sum::<u64>();
    counts.insert("shard.adoptions", adoptions.len() as u64);
    counts.insert("shard.adoption.replayed", sum(|a| a.replayed));
    counts.insert("shard.adoption.redelivered", sum(|a| a.redelivered));
    counts.insert("shard.adoption.reset", sum(|a| a.reset));
    counts.insert("shard.adoption.repaired", sum(|a| a.repaired));
    counts.insert(
        "shard.heartbeats",
        rt.coord_telemetry().counter("shard.heartbeats"),
    );
    let outcome = Outcome {
        setup_s,
        drive_s,
        report_s,
        report,
        counts,
        adoptions: adoptions.len(),
    };
    let reference = Reference {
        telemetry: Arc::clone(rt.telemetry()),
        wal: None,
    };
    Ok((outcome, reference))
}

/// Median seconds of repeated `Database::recover` calls on a final WAL,
/// with the entries each replayed.
pub fn recovery(wal: &MemWal) -> CoreResult<(f64, u64)> {
    let mut times = Vec::with_capacity(RECOVER_REPS);
    let mut replayed = 0;
    for _ in 0..RECOVER_REPS {
        let t = Instant::now();
        let db = Database::recover(Box::new(wal.clone()))?;
        times.push(t.elapsed().as_secs_f64());
        replayed = db.replayed();
        drop(db);
    }
    Ok((median(&mut times), replayed))
}

/// One traced repeat: the real runtime (untraced, for the reference
/// trace and the overhead baseline), then the traced driver on the same
/// scenario.
#[derive(Debug)]
pub struct TracedOutcome {
    /// The untraced repeat.
    pub base: Outcome,
    /// Per-layer profile of the traced driver (unsharded only).
    pub profile: Option<Profile>,
    /// Drive seconds with spans on (the traced driver's drive span, or
    /// a second timed drive for the sharded loop).
    pub traced_drive_s: f64,
    /// Post-run analysis seconds.
    pub analyze_s: f64,
    /// Grid events processed (unsharded only).
    pub grid_events: u64,
    /// Median `Database::recover` seconds on the final WAL.
    pub recover_s: f64,
    /// WAL entries that recovery replayed.
    pub recover_replayed: u64,
    /// Whether the traced run's trace ring, span forest and report equal
    /// the untraced run's.
    pub matches_runtime: bool,
}

/// Run one traced repeat of `workload` at `seed`.
pub fn traced(workload: &Workload, seed: u64) -> CoreResult<TracedOutcome> {
    let (base, reference) = reference(workload, seed)?;
    match &workload.deployment {
        Deployment::Unsharded => {
            let wal = reference.wal.expect("unsharded runs keep their WAL");
            let (recover_s, recover_replayed) = recovery(&wal)?;
            drop(wal);
            let scenario = workload.scenario(seed);
            let db = Arc::new(Database::with_wal(Box::new(MemWal::shared())));
            let run = driver::run(&scenario, db)?;
            let matches_runtime =
                same_trace(&reference.telemetry, &run.telemetry) && base.report == run.report;
            let drive = run.profile.layer(Layer::Drive).total_ns;
            let analyze = run.profile.layer(Layer::TelemetryAnalyze).total_ns;
            Ok(TracedOutcome {
                base,
                traced_drive_s: drive as f64 * 1e-9,
                analyze_s: analyze as f64 * 1e-9,
                grid_events: run.grid_events,
                profile: Some(run.profile),
                recover_s,
                recover_replayed,
                matches_runtime,
            })
        }
        Deployment::Sharded { .. } => {
            // The sharded loop is private: its drive is one span, and the
            // analysis is timed by calling it again on the same hub.
            let scenario = workload.scenario(seed);
            let mut rt = scenario.build_sharded_runtime(workload.shard_config().expect("sharded"));
            let t = Instant::now();
            rt.try_run_until(SimTime::MAX)?;
            let traced_drive_s = t.elapsed().as_secs_f64();
            let report = rt.build_report()?;
            let t = Instant::now();
            let analysis = rt.telemetry().analyze(10);
            let analyze_s = t.elapsed().as_secs_f64();
            let matches_runtime = same_trace(&reference.telemetry, rt.telemetry())
                && report == base.report
                && analysis == base.report.analysis;
            Ok(TracedOutcome {
                base,
                profile: None,
                traced_drive_s,
                analyze_s,
                grid_events: 0,
                recover_s: 0.0,
                recover_replayed: 0,
                matches_runtime,
            })
        }
    }
}

/// Median of a non-empty sample (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The output checks one repeat must pass; returns the failures found.
pub fn check(workload: &Workload, outcome: &Outcome) -> Vec<String> {
    let mut failures = Vec::new();
    let r = &outcome.report;
    if !r.finished {
        failures.push("not every DAG finished".to_owned());
    }
    if r.dags != workload.dags as usize {
        failures.push(format!(
            "{} DAGs reported, {} submitted",
            r.dags, workload.dags
        ));
    }
    if workload.expects_every_job_completed() && r.jobs_completed as u64 != workload.jobs() {
        failures.push(format!(
            "{} jobs completed, {} submitted",
            r.jobs_completed,
            workload.jobs()
        ));
    }
    if matches!(workload.deployment, Deployment::Sharded { .. }) && outcome.adoptions != 1 {
        failures.push(format!(
            "{} adoptions, expected exactly 1",
            outcome.adoptions
        ));
    }
    failures
}
