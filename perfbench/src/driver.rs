//! The traced driver: `SphinxRuntime::drive`, step for step, through
//! public calls only, with a wall-clock span around every call into a
//! layer.
//!
//! It assembles the same components `Scenario::build_runtime_with_db`
//! and `SphinxRuntime::with_database` do, runs the same loop, and builds
//! the same report. A run is only trusted when its trace ring, span forest
//! and report equal the real runtime's for the same scenario, which shows
//! that the spans time the program as it is and not a look-alike.

use crate::tracer::{Layer, Profile, Tracer};
use parking_lot::Mutex;
use sphinx_core::client::ClientConfig;
use sphinx_core::messages::{PlanNotice, StatusReport, INBOX, OUTBOX};
use sphinx_core::report::SiteOutcome;
use sphinx_core::runtime::RuntimeConfig;
use sphinx_core::state::{DagRow, JobRow, SiteStatsRow};
use sphinx_core::strategy::SiteInfo;
use sphinx_core::{CoreResult, RunReport, ServerConfig, SphinxClient, SphinxServer};
use sphinx_data::{SiteId, TransferModel};
use sphinx_db::{Database, Queue};
use sphinx_grid::{FaultProfile, GridSim, Notification, SiteSpec};
use sphinx_monitor::Monitor;
use sphinx_ops::{OpsAggregator, OpsDetector, OpsSnapshot};
use sphinx_policy::UserId;
use sphinx_sim::{Duration, SimRng, SimTime};
use sphinx_telemetry::Telemetry;
use sphinx_workloads::Scenario;
use std::collections::BTreeMap;
use std::sync::Arc;

// The runtime's wakeup tokens.
const TOKEN_PLANNER: u64 = 1;
const TOKEN_MONITOR: u64 = 2;
const TOKEN_TIMEOUT: u64 = 3;

/// What one traced run leaves behind.
#[derive(Debug)]
pub struct TracedRun {
    /// Per-layer span totals.
    pub profile: Profile,
    /// The run's telemetry hub (trace ring and span forest).
    pub telemetry: Arc<Telemetry>,
    /// The report, assembled as `SphinxRuntime::build_report` does.
    pub report: RunReport,
    /// Simulation events the grid processed.
    pub grid_events: u64,
}

/// The components of one unsharded deployment, owned by the driver.
struct Parts {
    grid: GridSim,
    monitor: Monitor,
    server: SphinxServer,
    client: SphinxClient,
    db: Arc<Database>,
    config: RuntimeConfig,
    transfer_model: TransferModel,
    ops: Option<OpsAggregator>,
    ops_shared: Option<Arc<Mutex<OpsSnapshot>>>,
}

/// Build, drive and report one unsharded scenario over `db`, tracing
/// every layer call.
pub fn run(scenario: &Scenario, db: Arc<Database>) -> CoreResult<TracedRun> {
    let mut parts = assemble(scenario, db);
    let mut tracer = Tracer::new();
    let grid_events = parts.drive(&mut tracer)?;
    let report = parts.build_report(&mut tracer)?;
    Ok(TracedRun {
        profile: tracer.profile(),
        telemetry: Arc::clone(parts.server.telemetry()),
        report,
        grid_events,
    })
}

/// The fault plan applied as `Scenario` does: a seed-derived choice of
/// victim sites.
fn faulted_sites(scenario: &Scenario) -> Vec<SiteSpec> {
    let mut sites = scenario.sites.clone();
    let mut order: Vec<usize> = (0..sites.len()).collect();
    let mut rng = SimRng::new(scenario.seed).derive("fault-assign");
    rng.shuffle(&mut order);
    let mut it = order.into_iter();
    for _ in 0..scenario.faults.black_holes {
        if let Some(i) = it.next() {
            sites[i].faults = FaultProfile::black_hole();
        }
    }
    for _ in 0..scenario.faults.flaky {
        if let Some(i) = it.next() {
            sites[i].faults = FaultProfile {
                mtbf: Some(scenario.faults.mtbf),
                mttr: scenario.faults.mttr,
                kill_prob: scenario.faults.kill_prob,
                ..FaultProfile::default()
            };
        }
    }
    sites
}

/// Per-site bandwidth derived from CPU speed, as `Scenario` does.
fn transfer_model(scenario: &Scenario) -> TransferModel {
    let mut model = TransferModel::uniform(60.0, Duration::from_secs(3));
    for s in &scenario.sites {
        model.set_bandwidth(s.id, 40.0 + 40.0 * s.cpu_speed);
    }
    model
}

fn catalog(grid: &GridSim) -> Vec<SiteInfo> {
    grid.site_specs()
        .iter()
        .map(|s| SiteInfo {
            id: s.id,
            name: s.name.clone(),
            cpus: s.cpus,
        })
        .collect()
}

/// `Scenario::build_runtime_with_db` followed by
/// `SphinxRuntime::with_database`, for scenarios without quotas or
/// deadlines (the benchmark's workloads use neither).
fn assemble(scenario: &Scenario, db: Arc<Database>) -> Parts {
    assert!(
        scenario.quota.is_none() && scenario.deadline_last.is_none(),
        "the traced driver mirrors quota- and deadline-free scenarios only"
    );
    let sites = faulted_sites(scenario);
    let site_ids: Vec<SiteId> = sites.iter().map(|s| s.id).collect();
    let mut grid = GridSim::new(sites, transfer_model(scenario), scenario.seed);
    let dags = scenario.dags();
    let mut rng = SimRng::new(scenario.seed).derive("replica-seed");
    for dag in &dags {
        for file in dag.external_inputs() {
            for _ in 0..scenario.external_replicas.max(1) {
                let site = *rng.choose(&site_ids);
                grid.rls_mut().register(file.clone(), site);
            }
        }
    }
    let mut config = RuntimeConfig {
        strategy: scenario.strategy,
        feedback: scenario.feedback,
        policy_enabled: false,
        archive_site: scenario.archive_site,
        timeout: scenario.timeout,
        monitor: scenario.monitor.clone(),
        horizon: scenario.horizon,
        seed: scenario.seed,
        score_cache: !scenario.no_score_cache,
        ops: scenario.ops.clone(),
        ops_fast_path: scenario.ops_fast_path,
        ..RuntimeConfig::default()
    };
    config.telemetry.wall_clock = scenario.wall_clock_telemetry;
    if let Some((trace, span)) = scenario.telemetry_capacities {
        config.telemetry.trace_capacity = trace;
        config.telemetry.span_capacity = span;
    }

    let transfer_model = grid.transfer_model().clone();
    let telemetry = Arc::new(Telemetry::with_config(config.telemetry.clone()));
    grid.set_telemetry(Arc::clone(&telemetry));
    db.attach_telemetry(Arc::clone(&telemetry));
    let mut server = SphinxServer::new(
        Arc::clone(&db),
        catalog(&grid),
        ServerConfig {
            strategy: config.strategy,
            feedback: config.feedback,
            policy_enabled: config.policy_enabled,
            archive_site: config.archive_site,
            score_cache: config.score_cache,
            ops_fast_path: config.ops_fast_path,
        },
    );
    server.set_telemetry(Arc::clone(&telemetry));
    let client = SphinxClient::new(ClientConfig {
        timeout: config.timeout,
    });
    let mut monitor = Monitor::new(config.monitor.clone(), config.seed);
    monitor.set_telemetry(telemetry);
    let ops = config.ops.clone().map(OpsAggregator::new);
    let ops_shared = ops
        .is_some()
        .then(|| Arc::new(Mutex::new(OpsSnapshot::default())));
    for dag in &dags {
        server
            .submit_dag(dag, UserId(1), grid.now())
            .expect("dag submission");
    }
    Parts {
        grid,
        monitor,
        server,
        client,
        db,
        config,
        transfer_model,
        ops,
        ops_shared,
    }
}

impl Parts {
    /// The runtime's drive loop to completion; returns the grid events
    /// processed.
    fn drive(&mut self, t: &mut Tracer) -> CoreResult<u64> {
        t.enter(Layer::Drive);
        let now = self.grid.now();
        self.grid
            .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
        self.grid.schedule_wakeup(now, TOKEN_MONITOR);
        self.grid
            .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
        let stop = SimTime::ZERO + self.config.horizon;
        let mut events = 0u64;
        while !self.server.all_finished() && self.grid.now() < stop {
            if !t.span(Layer::GridStep, || self.grid.step()) {
                break;
            }
            events += 1;
            let now = self.grid.now();
            let notifications = t.span(Layer::GridPoll, || self.grid.poll());
            let db = Arc::clone(&self.db);
            let inbox: Queue<StatusReport> = Queue::new(&db, INBOX);
            for n in notifications {
                match n {
                    Notification::Wakeup {
                        token: TOKEN_PLANNER,
                    } => self.planner_tick(t)?,
                    Notification::Wakeup {
                        token: TOKEN_MONITOR,
                    } => self.monitor_tick(t),
                    Notification::Wakeup {
                        token: TOKEN_TIMEOUT,
                    } => self.timeout_tick(t)?,
                    Notification::Wakeup { .. } => {}
                    other => {
                        let report = t.span(Layer::ClientOnNotification, || {
                            self.client.on_notification(&other, now)
                        });
                        if let Some(report) = report {
                            t.span(Layer::DbInboxPush, || inbox.push(&report))?;
                        }
                    }
                }
            }
        }
        t.exit();
        Ok(events)
    }

    fn planner_tick(&mut self, t: &mut Tracer) -> CoreResult<()> {
        let now = self.grid.now();
        let track_span = self.server.telemetry().span_start("phase:track", now);
        let inbox: Queue<StatusReport> = Queue::new(&self.db, INBOX);
        for report in t.span(Layer::DbInboxDrain, || inbox.drain())? {
            t.span(Layer::ServerHandleReport, || {
                self.server.handle_report(report, now)
            })?;
        }
        self.server.telemetry().span_end(track_span, now);
        let reports: BTreeMap<SiteId, sphinx_monitor::Report> =
            t.span(Layer::MonitorReports, || {
                self.monitor
                    .reports(now)
                    .into_iter()
                    .map(|r| (r.site, r))
                    .collect()
            });
        let plans = t.span(Layer::ServerPlanCycle, || {
            self.server
                .plan_cycle(now, self.grid.rls_mut(), &reports, &self.transfer_model)
        })?;
        let submit_span = self.server.telemetry().span_start("phase:submit", now);
        let outbox: Queue<PlanNotice> = Queue::new(&self.db, OUTBOX);
        let planned = t.span(Layer::DbOutbox, || -> CoreResult<Vec<PlanNotice>> {
            for plan in &plans {
                outbox.push(plan)?;
            }
            Ok(outbox.drain()?)
        })?;
        for plan in planned {
            t.span(Layer::ClientSubmitPlan, || {
                self.client.submit_plan(&mut self.grid, &plan, now)
            });
        }
        self.server.telemetry().span_end(submit_span, now);
        if let Some(ops) = self.ops.as_mut() {
            t.span(Layer::OpsTick, || {
                let telemetry = Arc::clone(self.server.telemetry());
                let alerts = ops.tick(now, &telemetry);
                for alert in alerts {
                    if alert.detector == OpsDetector::BlackHole {
                        self.server.apply_ops_flag(SiteId(alert.site), now);
                    }
                }
                if let Some(shared) = &self.ops_shared {
                    ops.publish_into(now, &mut shared.lock());
                }
            });
        }
        self.grid
            .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
        Ok(())
    }

    fn monitor_tick(&mut self, t: &mut Tracer) {
        let now = self.grid.now();
        t.span(Layer::MonitorSample, || {
            let truth = self.grid.snapshots();
            self.monitor.sample(now, &truth);
        });
        self.grid
            .schedule_wakeup(now + self.config.monitor.update_period, TOKEN_MONITOR);
    }

    fn timeout_tick(&mut self, t: &mut Tracer) -> CoreResult<()> {
        let now = self.grid.now();
        let reports = t.span(Layer::ClientScanTimeouts, || {
            self.client.scan_timeouts(&mut self.grid, now)
        });
        let inbox: Queue<StatusReport> = Queue::new(&self.db, INBOX);
        for report in reports {
            t.span(Layer::DbInboxPush, || inbox.push(&report))?;
        }
        self.grid
            .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
        Ok(())
    }

    /// `SphinxRuntime::build_report`, with the analysis as a child span.
    fn build_report(&self, t: &mut Tracer) -> CoreResult<RunReport> {
        t.enter(Layer::ReportBuild);
        let dags = self.db.scan::<DagRow>()?;
        let mut dag_completion_secs = Vec::new();
        let mut deadlines_met = 0usize;
        let mut deadlines_missed = 0usize;
        for d in &dags {
            if let Some(fin) = d.finished_at {
                dag_completion_secs.push(fin.since(d.submitted_at).as_secs_f64());
            }
            if let Some(deadline) = d.deadline {
                match d.finished_at {
                    Some(fin) if fin <= deadline => deadlines_met += 1,
                    _ => deadlines_missed += 1,
                }
            }
        }
        let avg_dag = if dag_completion_secs.is_empty() {
            0.0
        } else {
            dag_completion_secs.iter().sum::<f64>() / dag_completion_secs.len() as f64
        };
        let finished = self
            .db
            .scan_where::<JobRow>("/state", &serde_json::json!("Finished"))?;
        let mut exec_sum = 0.0;
        let mut idle_sum = 0.0;
        let completed = finished.len();
        for j in &finished {
            exec_sum += j.exec_secs.unwrap_or(0.0);
            idle_sum += j.idle_secs.unwrap_or(0.0);
        }
        let eliminated = self
            .db
            .scan_where::<JobRow>("/state", &serde_json::json!("Eliminated"))?
            .len();
        let names: BTreeMap<SiteId, String> = self
            .grid
            .site_specs()
            .iter()
            .map(|s| (s.id, s.name.clone()))
            .collect();
        let sites = self
            .db
            .scan::<SiteStatsRow>()?
            .into_iter()
            .map(|row| SiteOutcome {
                site: SiteId(row.site),
                name: names
                    .get(&SiteId(row.site))
                    .cloned()
                    .unwrap_or_else(|| format!("site{}", row.site)),
                completed: row.completed,
                cancelled: row.cancelled,
                avg_completion_secs: (row.completion_samples > 0)
                    .then(|| row.completion_secs_sum / row.completion_samples as f64),
            })
            .collect();
        let stats = self.server.stats();
        let telemetry = self.server.telemetry_snapshot();
        let analysis = t.span(Layer::TelemetryAnalyze, || {
            self.server.telemetry().analyze(10)
        });
        let per_job = |sum: f64| {
            if completed > 0 {
                sum / completed as f64
            } else {
                0.0
            }
        };
        let report = RunReport {
            strategy: self.config.strategy.label().to_owned(),
            feedback: self.config.feedback || self.config.strategy.implies_feedback(),
            policy: self.config.policy_enabled,
            seed: self.config.seed,
            finished: self.server.all_finished(),
            makespan_secs: self.grid.now().as_secs_f64(),
            dags: dags.len(),
            avg_dag_completion_secs: avg_dag,
            dag_completion_secs,
            jobs_completed: completed,
            jobs_eliminated: eliminated,
            avg_exec_secs: per_job(exec_sum),
            avg_idle_secs: per_job(idle_sum),
            plans: stats.plans,
            timeouts: stats.reschedules_timeout,
            holds: stats.reschedules_held,
            deadlines_met,
            deadlines_missed,
            sites,
            telemetry,
            analysis,
        };
        t.exit();
        Ok(report)
    }
}
