//! Repeats a workload for the measurement window, checks every repeat,
//! and folds the repeats into the named metrics.

use crate::run::{self, median, Counts, Outcome, TracedOutcome};
use crate::tracer::{tail, Layer, Profile};
use crate::workload::Workload;
use std::time::{Duration, Instant};

/// Share of the traced drive that layer spans should cover; the rest is
/// loop glue the driver cannot attribute. Below it a run says so on
/// standard error (tiny self-test sizes fall below it; full sizes do not).
pub const MIN_LAYER_COVERAGE: f64 = 0.95;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("avg_dag_sim_s", "sim_s"),
    ("makespan_sim_s", "sim_s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("server.handle_report.calls", "count"),
    ("server.handle_report.s", "s"),
    ("server.handle_report.p50_us", "us"),
    ("server.handle_report.tail_us", "us"),
    ("server.handle_report.tail_pct", "%"),
    ("server.plan_cycle.calls", "count"),
    ("server.plan_cycle.s", "s"),
    ("server.plan_cycle.p50_us", "us"),
    ("server.plan_cycle.tail_us", "us"),
    ("server.plan_cycle.tail_pct", "%"),
    ("plan.score_cache.hits", "count"),
    ("plan.score_cache.misses", "count"),
    ("server.plans", "count"),
    ("server.replans", "count"),
    ("server.timeouts", "count"),
    ("db.inbox_push.calls", "count"),
    ("db.inbox_push.s", "s"),
    ("db.inbox_drain.calls", "count"),
    ("db.inbox_drain.s", "s"),
    ("db.outbox.calls", "count"),
    ("db.outbox.s", "s"),
    ("db.rows_read", "count"),
    ("db.rows_decoded", "count"),
    ("db.cache_hits", "count"),
    ("db.wal.lines", "count"),
    ("db.wal.bytes", "bytes"),
    ("db.wal.rewrites", "count"),
    ("db.recover.s", "s"),
    ("db.recover.replayed", "count"),
    ("grid.step.calls", "count"),
    ("grid.step.s", "s"),
    ("grid.step.ns_per_event", "ns"),
    ("grid.poll.s", "s"),
    ("client.on_notification.calls", "count"),
    ("client.on_notification.s", "s"),
    ("client.submit_plan.calls", "count"),
    ("client.submit_plan.s", "s"),
    ("client.scan_timeouts.calls", "count"),
    ("client.scan_timeouts.s", "s"),
    ("monitor.sample.s", "s"),
    ("monitor.reports.s", "s"),
    ("ops.tick.calls", "count"),
    ("ops.tick.s", "s"),
    ("telemetry.analyze.s", "s"),
    ("telemetry.trace.recorded", "count"),
    ("telemetry.trace.dropped", "count"),
    ("telemetry.spans.total", "count"),
    ("telemetry.spans.dropped", "count"),
    ("report.build.s", "s"),
    ("shard.drive.s", "s"),
    ("shard.adoption.replayed", "count"),
    ("shard.adoption.redelivered", "count"),
    ("shard.adoption.reset", "count"),
    ("drive.untraced.s", "s"),
    ("drive.traced.s", "s"),
    ("drive.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed with the name.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Every check of every repeat passed.
    pub correct: bool,
    /// Jobs submitted over all repeats.
    pub attempted: u64,
    /// Jobs not completed, plus every job of a repeat that failed a check.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Repeats measured.
    pub repeats: usize,
    /// Peak resident memory of the process after its first repeat.
    pub peak_rss_mb: f64,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
    /// Notes for the human reader (telemetry overflow and the like).
    pub notes: Vec<String>,
}

/// The scenario seed of repeat `repeat` of a run at `seed`: the run
/// cycles through the workload's `seeds_per_run` scenario seeds.
pub fn scenario_seed(workload: &Workload, seed: u64, repeat: usize) -> u64 {
    let k = u64::from(workload.seeds_per_run);
    seed.wrapping_mul(k).wrapping_add(repeat as u64 % k)
}

/// Run `workload` at `seed` for at least `budget`, traced or not. A run
/// covers every one of the workload's scenario seeds and then repeats at
/// least the first, so the exact-count guard always has a pair to
/// compare.
pub fn run(workload: &Workload, seed: u64, budget: Duration, trace: bool) -> BenchResult {
    let start = Instant::now();
    let jobs = workload.jobs();
    let k = workload.seeds_per_run as usize;
    let mut result = BenchResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        repeats: 0,
        peak_rss_mb: f64::NAN,
        problems: Vec::new(),
        notes: Vec::new(),
    };
    let mut repeats: Vec<TracedOutcome> = Vec::new();
    while repeats.len() <= k || start.elapsed() < budget {
        result.attempted += jobs;
        let sub_seed = scenario_seed(workload, seed, repeats.len());
        let outcome = if trace {
            run::traced(workload, sub_seed)
        } else {
            run::untraced(workload, sub_seed).map(untraced_only)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(err) => {
                result.failed += jobs;
                result
                    .problems
                    .push(format!("repeat {}: {err}", repeats.len()));
                break;
            }
        };
        eprintln!(
            "repeat {} (scenario seed {sub_seed}): setup {:.4}s drive {:.4}s report {:.4}s{}",
            repeats.len(),
            outcome.base.setup_s,
            outcome.base.drive_s,
            outcome.base.report_s,
            if trace {
                format!(" traced drive {:.4}s", outcome.traced_drive_s)
            } else {
                String::new()
            }
        );
        let mut failures = run::check(workload, &outcome.base);
        if trace && !outcome.matches_runtime {
            failures.push("traced driver diverged from the runtime's trace or report".to_owned());
        }
        if let Some(same_seed) = repeats.len().checked_sub(k).map(|i| &repeats[i]) {
            failures.extend(exact_count_drift(same_seed, &outcome));
        }
        if failures.is_empty() {
            let completed = outcome.base.report.jobs_completed as u64;
            result.failed += jobs.saturating_sub(completed);
        } else {
            result.failed += jobs;
            for f in failures {
                result
                    .problems
                    .push(format!("repeat {}: {f}", repeats.len()));
            }
        }
        repeats.push(outcome);
        if repeats.len() == 1 {
            // Later repeats reuse the first one's heap; the peak after it is
            // the peak of one run of the workload.
            result.peak_rss_mb = peak_rss_mb();
        }
    }
    result.repeats = repeats.len();
    result.correct = result.problems.is_empty();
    if repeats.is_empty() {
        return result;
    }
    let first = &repeats[0].base;
    let (spans_dropped, trace_dropped) = (
        first.report.telemetry.spans_dropped,
        first.report.telemetry.trace_dropped,
    );
    if spans_dropped > 0 || trace_dropped > 0 {
        result.notes.push(format!(
            "{}: telemetry overflow: {spans_dropped} spans and {trace_dropped} trace events \
             evicted; the post-run analysis covers a truncated span forest",
            workload.name
        ));
    }
    let covered = repeats
        .iter()
        .filter_map(|r| r.profile.as_ref())
        .map(|p| 1.0 - p.unattributed_frac())
        .fold(f64::INFINITY, f64::min);
    if covered < MIN_LAYER_COVERAGE {
        result.notes.push(format!(
            "layer self times cover only {:.1}% of the traced drive (target {:.0}%): \
             the per-layer split misses loop glue",
            covered * 100.0,
            MIN_LAYER_COVERAGE * 100.0
        ));
    }
    result.metrics = if trace {
        per_layer(&repeats)
    } else {
        end_to_end(
            &repeats[..k.min(repeats.len())],
            &repeats,
            result.peak_rss_mb,
        )
    };
    if let Some(bad) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        result
            .problems
            .push(format!("{} is not a finite number", bad.name));
        result.correct = false;
    }
    result
}

fn untraced_only(base: Outcome) -> TracedOutcome {
    TracedOutcome {
        base,
        profile: None,
        traced_drive_s: 0.0,
        analyze_s: 0.0,
        grid_events: 0,
        recover_s: 0.0,
        recover_replayed: 0,
        matches_runtime: true,
    }
}

/// Counters and simulated results that differ from an earlier repeat's
/// at the same scenario seed.
fn exact_count_drift(earlier: &TracedOutcome, now: &TracedOutcome) -> Vec<String> {
    let mut drift = Vec::new();
    if earlier.base.counts != now.base.counts {
        drift.push(format!(
            "exact counters changed between repeats: {:?} then {:?}",
            diff(&earlier.base.counts, &now.base.counts),
            diff(&now.base.counts, &earlier.base.counts)
        ));
    }
    if earlier.base.report != now.base.report {
        drift.push("the report changed between repeats at one seed".to_owned());
    }
    if earlier.grid_events != now.grid_events || earlier.recover_replayed != now.recover_replayed {
        drift.push("grid events or replayed WAL entries changed between repeats".to_owned());
    }
    let calls = |p: &Option<Profile>| -> Vec<u64> {
        p.as_ref()
            .map(|p| Layer::ALL.iter().map(|l| p.layer(*l).calls).collect())
            .unwrap_or_default()
    };
    if calls(&earlier.profile) != calls(&now.profile) {
        drift.push("per-layer call counts changed between repeats".to_owned());
    }
    drift
}

fn diff(a: &Counts, b: &Counts) -> Counts {
    a.iter()
        .filter(|(k, v)| b.get(*k) != Some(v))
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Median over repeats of one per-repeat value.
fn med(repeats: &[TracedOutcome], f: impl Fn(&TracedOutcome) -> f64) -> f64 {
    let mut values: Vec<f64> = repeats.iter().map(f).collect();
    median(&mut values)
}

fn metrics(table: &[(&'static str, &'static str)], value: impl Fn(&str) -> f64) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect()
}

/// `per_seed` holds one repeat of each scenario seed; `repeats` all of
/// them.
fn end_to_end(
    per_seed: &[TracedOutcome],
    repeats: &[TracedOutcome],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let mean_dag_s = per_seed
        .iter()
        .map(|r| r.base.report.avg_dag_completion_secs)
        .sum::<f64>()
        / per_seed.len() as f64;
    metrics(&END_TO_END, |name| match name {
        "jobs_per_s" => med(repeats, |r| r.base.jobs_per_s()),
        "setup_s" => med(repeats, |r| r.base.setup_s),
        "peak_rss_mb" => peak_rss_mb,
        "avg_dag_sim_s" => mean_dag_s,
        "makespan_sim_s" => med(per_seed, |r| r.base.report.makespan_secs),
        other => unreachable!("no end-to-end metric {other}"),
    })
}

fn per_layer(repeats: &[TracedOutcome]) -> Vec<Metric> {
    let first = &repeats[0];
    let counts = &first.base.counts;
    let count = |key: &str| counts.get(key).copied().unwrap_or(0) as f64;
    let profile = first.profile.as_ref();
    let calls = |layer: Layer| profile.map_or(0.0, |p| p.layer(layer).calls as f64);
    // Self seconds of one layer, median over repeats.
    let self_s = |layer: Layer| {
        med(repeats, |r| {
            r.profile
                .as_ref()
                .map_or(0.0, |p| p.layer(layer).self_ns as f64 * 1e-9)
        })
    };
    let latency = |layer: Layer, pick: fn(&crate::tracer::Tail) -> f64| {
        med(repeats, |r| {
            r.profile
                .as_ref()
                .and_then(|p| tail(&p.layer(layer).durations_ns))
                .map_or(0.0, |t| pick(&t))
        })
    };
    let sharded = profile.is_none();
    let report = &first.base.report;
    metrics(&PER_LAYER, |name| match name {
        "server.handle_report.calls" => calls(Layer::ServerHandleReport),
        "server.handle_report.s" => self_s(Layer::ServerHandleReport),
        "server.handle_report.p50_us" => latency(Layer::ServerHandleReport, |t| t.p50_us),
        "server.handle_report.tail_us" => latency(Layer::ServerHandleReport, |t| t.tail_us),
        "server.handle_report.tail_pct" => latency(Layer::ServerHandleReport, |t| t.tail_pct),
        "server.plan_cycle.calls" => calls(Layer::ServerPlanCycle),
        "server.plan_cycle.s" => self_s(Layer::ServerPlanCycle),
        "server.plan_cycle.p50_us" => latency(Layer::ServerPlanCycle, |t| t.p50_us),
        "server.plan_cycle.tail_us" => latency(Layer::ServerPlanCycle, |t| t.tail_us),
        "server.plan_cycle.tail_pct" => latency(Layer::ServerPlanCycle, |t| t.tail_pct),
        "plan.score_cache.hits" => count("plan.score_cache.hits"),
        "plan.score_cache.misses" => count("plan.score_cache.misses"),
        "server.plans" => report.plans as f64,
        "server.replans" => report.reschedules() as f64,
        "server.timeouts" => report.timeouts as f64,
        "db.inbox_push.calls" => calls(Layer::DbInboxPush),
        "db.inbox_push.s" => self_s(Layer::DbInboxPush),
        "db.inbox_drain.calls" => calls(Layer::DbInboxDrain),
        "db.inbox_drain.s" => self_s(Layer::DbInboxDrain),
        "db.outbox.calls" => calls(Layer::DbOutbox),
        "db.outbox.s" => self_s(Layer::DbOutbox),
        "db.rows_read" => count("db.rows_read"),
        "db.rows_decoded" => count("db.rows_decoded"),
        "db.cache_hits" => count("db.cache_hits"),
        "db.wal.lines" => count("db.wal.lines"),
        "db.wal.bytes" => count("db.wal.bytes"),
        "db.wal.rewrites" => count("db.wal.rewrites"),
        "db.recover.s" => med(repeats, |r| r.recover_s),
        "db.recover.replayed" => first.recover_replayed as f64,
        "grid.step.calls" => calls(Layer::GridStep),
        "grid.step.s" => self_s(Layer::GridStep),
        "grid.step.ns_per_event" => {
            let steps = calls(Layer::GridStep);
            if steps == 0.0 {
                0.0
            } else {
                self_s(Layer::GridStep) * 1e9 / steps
            }
        }
        "grid.poll.s" => self_s(Layer::GridPoll),
        "client.on_notification.calls" => calls(Layer::ClientOnNotification),
        "client.on_notification.s" => self_s(Layer::ClientOnNotification),
        "client.submit_plan.calls" => calls(Layer::ClientSubmitPlan),
        "client.submit_plan.s" => self_s(Layer::ClientSubmitPlan),
        "client.scan_timeouts.calls" => calls(Layer::ClientScanTimeouts),
        "client.scan_timeouts.s" => self_s(Layer::ClientScanTimeouts),
        "monitor.sample.s" => self_s(Layer::MonitorSample),
        "monitor.reports.s" => self_s(Layer::MonitorReports),
        "ops.tick.calls" => calls(Layer::OpsTick),
        "ops.tick.s" => self_s(Layer::OpsTick),
        "telemetry.analyze.s" => med(repeats, |r| r.analyze_s),
        "telemetry.trace.recorded" => count("telemetry.trace.recorded"),
        "telemetry.trace.dropped" => count("telemetry.trace.dropped"),
        "telemetry.spans.total" => count("telemetry.spans.total"),
        "telemetry.spans.dropped" => count("telemetry.spans.dropped"),
        "report.build.s" => med(repeats, |r| match &r.profile {
            Some(p) => p.layer(Layer::ReportBuild).total_ns as f64 * 1e-9,
            None => r.base.report_s,
        }),
        "shard.drive.s" if sharded => med(repeats, |r| r.traced_drive_s),
        "shard.drive.s" => 0.0,
        "shard.adoption.replayed" => count("shard.adoption.replayed"),
        "shard.adoption.redelivered" => count("shard.adoption.redelivered"),
        "shard.adoption.reset" => count("shard.adoption.reset"),
        "drive.untraced.s" => med(repeats, |r| r.base.drive_s),
        "drive.traced.s" => med(repeats, |r| r.traced_drive_s),
        "drive.unattributed_frac" => med(repeats, |r| {
            r.profile.as_ref().map_or(0.0, Profile::unattributed_frac)
        }),
        "trace.overhead_frac" => med(repeats, |r| r.traced_drive_s / r.base.drive_s - 1.0),
        other => unreachable!("no per-layer metric {other}"),
    })
}

/// Peak resident memory of this process, megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result as the one-line JSON object the benchmark prints last.
pub fn to_json(result: &BenchResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}
