//! The composed system: grid + monitor + scheduler tier + client.
//!
//! [`Runtime`] runs an experiment. It steps the grid's event loop
//! and multiplexes three periodic activities over wakeup events,
//! mirroring how the real deployment's processes ran concurrently:
//!
//! * **Planner cycle** — drain tracker reports from the inbox table,
//!   advance the server automaton, plan ready jobs, hand plans to the
//!   client for submission, then tick the live ops plane.
//! * **Monitor cycle** — the monitoring system's query jobs sample the
//!   sites.
//! * **Timeout scan** — the tracker cancels overdue submissions.
//!
//! All client ↔ server traffic goes through the database message queues
//! ([`crate::messages::INBOX`] / [`crate::messages::OUTBOX`]), exactly as
//! §3.2's message-handling module describes — which is also what makes the
//! mid-run server-crash experiment possible: the queues are part of the
//! WAL-protected state.
//!
//! The loop exists once. The paper's agents talk only through tables, so
//! the same loop drives one server or many: it is generic over a
//! [`SchedulerTier`], which supplies only what differs between the two —
//! where a report goes, how plans are made and accounted, the
//! coordination hooks around a planner tick, and which servers the report
//! reads. [`SphinxRuntime`] runs the [`SingleServer`] tier;
//! [`crate::shard::ShardedRuntime`] runs a [`crate::shard::ShardSet`].

use crate::client::{ClientConfig, SphinxClient};
use crate::error::CoreResult;
use crate::messages::{PlanNotice, StatusReport, INBOX, OUTBOX};
use crate::report::{RunReport, SiteOutcome};
use crate::server::{ServerConfig, ServerStats, SphinxServer};
use crate::state::{DagRow, JobRow, SiteStatsRow};
use crate::strategy::{SiteInfo, StrategyKind};
use parking_lot::Mutex;
use sphinx_dag::Dag;
use sphinx_data::{ReplicaService, SiteId, TransferModel};
use sphinx_db::{Database, Queue};
use sphinx_grid::{GridSim, Notification};
use sphinx_monitor::{Monitor, MonitorConfig, Report};
use sphinx_ops::{OpsAggregator, OpsConfig, OpsDetector, OpsSnapshot};
use sphinx_policy::{PolicyEngine, UserId};
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::{Telemetry, TelemetryConfig, TraceKind};
use std::collections::BTreeMap;
use std::sync::Arc;

const TOKEN_PLANNER: u64 = 1;
const TOKEN_MONITOR: u64 = 2;
const TOKEN_TIMEOUT: u64 = 3;

/// Everything configurable about a run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The scheduling algorithm.
    pub strategy: StrategyKind,
    /// Use tracker feedback for site reliability.
    pub feedback: bool,
    /// Apply eq. 4 policy constraints.
    pub policy_enabled: bool,
    /// Persistent-storage site for sink outputs (planner step 4).
    pub archive_site: Option<SiteId>,
    /// Tracker timeout per submission.
    pub timeout: Duration,
    /// Planner cycle period.
    pub planner_period: Duration,
    /// Timeout-scan period.
    pub timeout_scan_period: Duration,
    /// Monitoring-system behaviour.
    pub monitor: MonitorConfig,
    /// Hard stop: give up (reporting `finished = false`) at this time.
    pub horizon: Duration,
    /// Seed for the monitor's randomness (grid has its own seed).
    pub seed: u64,
    /// Telemetry hub behaviour (trace capacity, wall-clock opt-in).
    pub telemetry: TelemetryConfig,
    /// Per-cycle planner score cache (decision-invariant; off = reference
    /// path for the equivalence suite).
    pub score_cache: bool,
    /// Live ops plane: run the streaming aggregator and online anomaly
    /// detectors each planner cycle. `None` disables the plane entirely.
    pub ops: Option<OpsConfig>,
    /// Let ops black-hole alerts feed the reliability index immediately
    /// (see [`ServerConfig::ops_fast_path`]). Requires `ops`.
    pub ops_fast_path: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            strategy: StrategyKind::CompletionTime,
            feedback: true,
            policy_enabled: false,
            archive_site: None,
            timeout: Duration::from_mins(30),
            planner_period: Duration::from_secs(15),
            timeout_scan_period: Duration::from_mins(1),
            monitor: MonitorConfig::default(),
            horizon: Duration::from_secs(7 * 24 * 3600),
            seed: 0,
            telemetry: TelemetryConfig::default(),
            score_cache: true,
            ops: None,
            ops_fast_path: false,
        }
    }
}

impl RuntimeConfig {
    /// The configuration every server of this runtime runs with.
    pub(crate) fn server_config(&self) -> ServerConfig {
        ServerConfig {
            strategy: self.strategy,
            feedback: self.feedback,
            policy_enabled: self.policy_enabled,
            archive_site: self.archive_site,
            score_cache: self.score_cache,
            ops_fast_path: self.ops_fast_path,
        }
    }
}

/// The scheduler tier under the [`Runtime`] event loop: one server, or a
/// set of shards. Everything above this seam — grid, monitor, client,
/// wakeups, the planner-tick skeleton, the ops plane and the report — is
/// shared; the hooks with default bodies are no-ops for a single server.
pub trait SchedulerTier {
    /// The run-comparable telemetry hub (servers, grid, monitor, ops).
    fn telemetry(&self) -> &Arc<Telemetry>;
    /// The database holding the `INBOX`/`OUTBOX` message queues.
    fn queues(&self) -> &Arc<Database>;
    /// The policy engine planning consults (VOs, users, quotas).
    fn policy_mut(&mut self) -> &mut PolicyEngine;
    /// Accept a DAG on the server that owns it.
    fn submit(
        &mut self,
        dag: &Dag,
        user: UserId,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> CoreResult<()>;
    /// True when every submitted DAG finished.
    fn all_finished(&self) -> bool;
    /// First drive only: write the tier's coordination rows.
    fn first_drive(&mut self, _now: SimTime) -> CoreResult<()> {
        Ok(())
    }
    /// A planner tick begins (before the inbox is drained).
    fn begin_tick(&mut self) {}
    /// Hand one tracker report to the server owning its job.
    fn deliver(&mut self, report: StatusReport, now: SimTime) -> CoreResult<()>;
    /// Between tracking and planning, with the tracker's view of the grid.
    fn after_track(&mut self, _client: &SphinxClient, _now: SimTime) -> CoreResult<()> {
        Ok(())
    }
    /// One plan pass over every live server.
    fn plan_ready(
        &mut self,
        now: SimTime,
        rls: &mut ReplicaService,
        reports: &BTreeMap<SiteId, Report>,
        transfers: &TransferModel,
    ) -> CoreResult<Vec<PlanNotice>>;
    /// Account one plan on its way to the outbox.
    fn debit(&self, _plan: &PlanNotice) -> CoreResult<()> {
        Ok(())
    }
    /// Live ops decided `site` is a black hole (the fast path).
    fn apply_ops_flag(&mut self, site: SiteId, now: SimTime);
    /// A planner tick ends (after the next tick is scheduled).
    fn end_tick(&mut self) {}
    /// Every live server, whose tables the report reads.
    fn servers(&self) -> Vec<&SphinxServer>;
    /// Planning and rescheduling counters.
    fn stats(&self) -> ServerStats;
    /// Average completion time of the site whose (merged) statistics row
    /// this is — the report's only per-tier input.
    fn site_average(&self, row: &SiteStatsRow) -> Option<f64>;
}

/// The composed SPHINX deployment over a [`SchedulerTier`].
pub struct Runtime<T> {
    pub(crate) grid: GridSim,
    monitor: Monitor,
    client: SphinxClient,
    config: RuntimeConfig,
    transfer_model: TransferModel,
    started: bool,
    ops: Option<OpsAggregator>,
    /// Snapshot handle shared with the HTTP ops endpoint; rebuilt by the
    /// aggregator after every planner cycle.
    ops_shared: Option<Arc<Mutex<OpsSnapshot>>>,
    pub(crate) tier: T,
}

impl<T: SchedulerTier> Runtime<T> {
    /// Put a grid, monitor, client and ops plane around a tier; the grid
    /// and monitor record on the tier's hub.
    pub(crate) fn assemble(mut grid: GridSim, config: RuntimeConfig, tier: T) -> Self {
        let telemetry = Arc::clone(tier.telemetry());
        grid.set_telemetry(Arc::clone(&telemetry));
        let transfer_model = grid.transfer_model().clone();
        let client = SphinxClient::new(ClientConfig {
            timeout: config.timeout,
        });
        let mut monitor = Monitor::new(config.monitor.clone(), config.seed);
        monitor.set_telemetry(telemetry);
        let ops = config.ops.clone().map(OpsAggregator::new);
        let ops_shared = ops
            .is_some()
            .then(|| Arc::new(Mutex::new(OpsSnapshot::default())));
        Runtime {
            grid,
            monitor,
            client,
            config,
            transfer_model,
            started: false,
            ops,
            ops_shared,
            tier,
        }
    }

    /// The underlying grid (e.g. to pre-seed replicas before submitting).
    pub fn grid_mut(&mut self) -> &mut GridSim {
        &mut self.grid
    }

    /// The tracker.
    pub fn client(&self) -> &SphinxClient {
        &self.client
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The run-comparable telemetry hub (servers, grid, monitor, ops).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.tier.telemetry()
    }

    /// The policy engine (to register VOs, users and quotas).
    pub fn policy_mut(&mut self) -> &mut PolicyEngine {
        self.tier.policy_mut()
    }

    /// The live-ops snapshot handle (for the HTTP endpoint or a harness);
    /// `None` unless [`RuntimeConfig::ops`] is set. The aggregator
    /// republishes into it after every planner cycle.
    pub fn ops_snapshot_handle(&self) -> Option<Arc<Mutex<OpsSnapshot>>> {
        self.ops_shared.clone()
    }

    /// True when every submitted DAG finished.
    pub fn all_finished(&self) -> bool {
        self.tier.all_finished()
    }

    /// Submit a DAG on behalf of a user, optionally with a QoS deadline
    /// `within` of now (the §6 future-work extension: its ready jobs are
    /// planned earliest-deadline-first ahead of deadline-free work).
    pub fn try_submit_dag(
        &mut self,
        dag: &Dag,
        user: UserId,
        within: Option<Duration>,
    ) -> CoreResult<()> {
        let now = self.grid.now();
        self.tier.submit(dag, user, now, within.map(|w| now + w))
    }

    // sphinx-hot
    fn planner_tick(&mut self) -> CoreResult<()> {
        self.tier.begin_tick();
        let now = self.grid.now();
        let telemetry = Arc::clone(self.tier.telemetry());
        let queues = Arc::clone(self.tier.queues());
        // 1. Message handling: drain tracker reports from the inbox, in
        // sequence order, each to the server owning its job.
        let track_span = telemetry.span_start("phase:track", now);
        let inbox: Queue<StatusReport> = Queue::new(&queues, INBOX);
        for report in inbox.drain()? {
            self.tier.deliver(report, now)?;
        }
        telemetry.span_end(track_span, now);
        self.tier.after_track(&self.client, now)?;
        // 2. Planning: advance the automaton, write plans to the outbox.
        let reports: BTreeMap<SiteId, Report> = self
            .monitor
            .reports(now)
            .into_iter()
            .map(|r| (r.site, r))
            .collect();
        // Wall-clock timing is opt-in: reading `Instant` inside the sim
        // path would not change the trace, but keeping it off by default
        // guarantees the deterministic profile never touches the host
        // clock at all.
        let wall_start = telemetry.wall_clock_enabled().then(std::time::Instant::now); // sphinx-lint: allow(wall-clock)
        let plans =
            self.tier
                .plan_ready(now, self.grid.rls_mut(), &reports, &self.transfer_model)?;
        if let Some(start) = wall_start {
            telemetry.observe("wall.plan_cycle_us", start.elapsed().as_micros() as f64);
        }
        // 3. Submission: plans travel through the outbox table in
        // planning order; the client consumes it and submits.
        let submit_span = telemetry.span_start("phase:submit", now);
        let outbox: Queue<PlanNotice> = Queue::new(&queues, OUTBOX);
        for plan in &plans {
            self.tier.debit(plan)?;
            outbox.push(plan)?;
        }
        for plan in outbox.drain()? {
            self.client.submit_plan(&mut self.grid, &plan, now);
        }
        telemetry.span_end(submit_span, now);
        // 4. Live ops plane: fold this cycle's trace and metrics into the
        // rolling windows, run the online detectors, publish the snapshot
        // for the HTTP endpoint, and (fast path only) feed black-hole
        // verdicts into the reliability index.
        if let Some(ops) = self.ops.as_mut() {
            for alert in ops.tick(now, &telemetry) {
                if alert.detector == OpsDetector::BlackHole {
                    self.tier.apply_ops_flag(SiteId(alert.site), now);
                }
            }
            if let Some(shared) = &self.ops_shared {
                ops.publish_into(now, &mut shared.lock());
            }
        }
        self.grid
            .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
        self.tier.end_tick();
        Ok(())
    }

    fn monitor_tick(&mut self) {
        let now = self.grid.now();
        let truth = self.grid.snapshots();
        self.monitor.sample(now, &truth);
        self.grid
            .schedule_wakeup(now + self.config.monitor.update_period, TOKEN_MONITOR);
    }

    fn timeout_tick(&mut self) -> CoreResult<()> {
        let now = self.grid.now();
        let reports = self.client.scan_timeouts(&mut self.grid, now);
        let inbox: Queue<StatusReport> = Queue::new(self.tier.queues(), INBOX);
        for report in reports {
            inbox.push(&report)?;
        }
        self.grid
            .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
        Ok(())
    }

    /// The event loop behind every run method: step the grid and dispatch
    /// notifications until every DAG finishes, the grid drains, or `stop`
    /// passes on the simulation clock.
    fn drive(&mut self, stop: SimTime) -> CoreResult<()> {
        if !self.started {
            self.started = true;
            let now = self.grid.now();
            self.grid
                .schedule_wakeup(now + self.config.planner_period, TOKEN_PLANNER);
            self.grid.schedule_wakeup(now, TOKEN_MONITOR);
            self.grid
                .schedule_wakeup(now + self.config.timeout_scan_period, TOKEN_TIMEOUT);
            self.tier.first_drive(now)?;
        }
        let horizon = SimTime::ZERO + self.config.horizon;
        let stop = stop.min(horizon);
        while !self.tier.all_finished() && self.grid.now() < stop {
            if !self.grid.step() {
                break; // grid drained (no recurring processes configured)
            }
            let now = self.grid.now();
            let notifications = self.grid.poll();
            let queues = Arc::clone(self.tier.queues());
            let inbox: Queue<StatusReport> = Queue::new(&queues, INBOX);
            for n in notifications {
                match n {
                    Notification::Wakeup {
                        token: TOKEN_PLANNER,
                    } => self.planner_tick()?,
                    Notification::Wakeup {
                        token: TOKEN_MONITOR,
                    } => self.monitor_tick(),
                    Notification::Wakeup {
                        token: TOKEN_TIMEOUT,
                    } => self.timeout_tick()?,
                    Notification::Wakeup { .. } => {}
                    other => {
                        if let Some(report) = self.client.on_notification(&other, now) {
                            inbox.push(&report)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Run until every DAG finishes, the grid drains, the horizon is hit,
    /// or `stop_at` passes on the simulation clock. Returns whether
    /// everything finished; a database failure surfaces as a typed error.
    pub fn try_run_until(&mut self, stop_at: SimTime) -> CoreResult<bool> {
        self.drive(stop_at)?;
        Ok(self.tier.all_finished())
    }

    /// Like [`Self::try_run_until`], panicking on database failure (the
    /// in-memory experiment configurations cannot fail).
    pub fn run_until(&mut self, stop_at: SimTime) -> bool {
        self.try_run_until(stop_at).expect("runtime drive")
    }

    /// Run until every DAG finishes or the horizon is hit, then build the
    /// report. A database failure surfaces as a typed error.
    pub fn try_run(&mut self) -> CoreResult<RunReport> {
        self.drive(SimTime::MAX)?;
        self.build_report()
    }

    /// Like [`Self::try_run`], panicking on database failure (the
    /// in-memory experiment configurations cannot fail).
    pub fn run(&mut self) -> RunReport {
        self.try_run().expect("runtime drive")
    }

    /// Tear the runtime down to its surviving grid ("the server process
    /// died; the grid did not notice").
    pub fn into_grid(self) -> GridSim {
        self.grid
    }

    /// Assemble the [`RunReport`] from every live server's tables.
    ///
    /// Job tallies come from the `/state` secondary index (registered by
    /// the server), so report assembly reads the finished/eliminated rows
    /// rather than decoding the whole job table. Rows are merged and
    /// sorted by id before any floating-point accumulation and per-site
    /// tallies merge-add, so the sums do not depend on how DAGs were
    /// spread over servers; per-site averages come from the tier.
    pub fn build_report(&self) -> CoreResult<RunReport> {
        let mut dags: Vec<DagRow> = Vec::new();
        let mut finished: Vec<JobRow> = Vec::new();
        let mut eliminated = 0usize;
        let mut tallies: BTreeMap<u32, SiteStatsRow> = BTreeMap::new();
        for server in self.tier.servers() {
            let db = server.database();
            dags.extend(db.scan::<DagRow>()?);
            finished.extend(db.scan_where::<JobRow>("/state", &serde_json::json!("Finished"))?);
            eliminated += db
                .scan_where::<JobRow>("/state", &serde_json::json!("Eliminated"))?
                .len();
            for row in db.scan::<SiteStatsRow>()? {
                let t = tallies.entry(row.site).or_insert_with(|| SiteStatsRow {
                    site: row.site,
                    ..SiteStatsRow::default()
                });
                t.completed += row.completed;
                t.cancelled += row.cancelled;
                t.completion_secs_sum += row.completion_secs_sum;
                t.completion_samples += row.completion_samples;
            }
        }
        dags.sort_by_key(|d| d.id);
        finished.sort_by_key(|j| j.id.as_key());
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
        let completed = finished.len();
        let mut exec_sum = 0.0;
        let mut idle_sum = 0.0;
        for j in &finished {
            exec_sum += j.exec_secs.unwrap_or(0.0);
            idle_sum += j.idle_secs.unwrap_or(0.0);
        }
        let per_job = |sum: f64| {
            if completed > 0 {
                sum / completed as f64
            } else {
                0.0
            }
        };
        let names: BTreeMap<SiteId, String> = self
            .grid
            .site_specs()
            .iter()
            .map(|s| (s.id, s.name.clone()))
            .collect();
        let sites = tallies
            .values()
            .map(|row| SiteOutcome {
                site: SiteId(row.site),
                name: names
                    .get(&SiteId(row.site))
                    .cloned()
                    .unwrap_or_else(|| format!("site{}", row.site)),
                completed: row.completed,
                cancelled: row.cancelled,
                avg_completion_secs: self.tier.site_average(row),
            })
            .collect();
        let stats = self.tier.stats();
        let telemetry = self.tier.telemetry();
        Ok(RunReport {
            strategy: self.config.strategy.label().to_owned(),
            feedback: self.config.feedback || self.config.strategy.implies_feedback(),
            policy: self.config.policy_enabled,
            seed: self.config.seed,
            finished: self.tier.all_finished(),
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
            telemetry: telemetry.snapshot(),
            analysis: telemetry.analyze(10),
        })
    }
}

/// The unsharded tier: one [`SphinxServer`], with the message queues on
/// its own database.
pub struct SingleServer {
    server: SphinxServer,
}

impl SchedulerTier for SingleServer {
    fn telemetry(&self) -> &Arc<Telemetry> {
        self.server.telemetry()
    }

    fn queues(&self) -> &Arc<Database> {
        self.server.database()
    }

    fn policy_mut(&mut self) -> &mut PolicyEngine {
        self.server.policy_mut()
    }

    fn submit(
        &mut self,
        dag: &Dag,
        user: UserId,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> CoreResult<()> {
        self.server
            .submit_dag_with_deadline(dag, user, now, deadline)
    }

    fn all_finished(&self) -> bool {
        self.server.all_finished()
    }

    fn deliver(&mut self, report: StatusReport, now: SimTime) -> CoreResult<()> {
        self.server.handle_report(report, now)
    }

    fn plan_ready(
        &mut self,
        now: SimTime,
        rls: &mut ReplicaService,
        reports: &BTreeMap<SiteId, Report>,
        transfers: &TransferModel,
    ) -> CoreResult<Vec<PlanNotice>> {
        self.server.plan_cycle(now, rls, reports, transfers)
    }

    fn apply_ops_flag(&mut self, site: SiteId, now: SimTime) {
        self.server.apply_ops_flag(site, now);
    }

    fn servers(&self) -> Vec<&SphinxServer> {
        vec![&self.server]
    }

    fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Sum ÷ count of the server's persisted per-site statistics row.
    fn site_average(&self, row: &SiteStatsRow) -> Option<f64> {
        (row.completion_samples > 0)
            .then(|| row.completion_secs_sum / row.completion_samples as f64)
    }
}

/// The unsharded SPHINX deployment: one server over one database, which
/// also carries the message queues.
pub type SphinxRuntime = Runtime<SingleServer>;

impl SphinxRuntime {
    /// Assemble a runtime over a grid, with a fresh in-memory database.
    pub fn new(grid: GridSim, config: RuntimeConfig) -> Self {
        Self::with_database(grid, config, Arc::new(Database::in_memory()))
    }

    /// Assemble a runtime over a grid with an explicit database (use a
    /// WAL-backed one to run the crash-recovery experiment).
    pub fn with_database(grid: GridSim, config: RuntimeConfig, db: Arc<Database>) -> Self {
        // One shared hub for every module: server FSA transitions, grid
        // lifecycle events, monitor sampling, and WAL activity all land in
        // the same trace, ordered by the single simulation clock.
        let telemetry = Arc::new(Telemetry::with_config(config.telemetry.clone()));
        db.attach_telemetry(Arc::clone(&telemetry));
        let mut server = SphinxServer::new(db, SiteInfo::catalog(&grid), config.server_config());
        server.set_telemetry(telemetry);
        Runtime::assemble(grid, config, SingleServer { server })
    }

    /// Assemble a runtime whose server is **recovered** from an existing
    /// database (the mid-run crash experiment). The grid — with whatever
    /// jobs are still in flight — survives; the server conservatively
    /// replans everything that was in flight, and the fresh client simply
    /// ignores notifications for attempts it never made.
    ///
    /// The surviving grid's pending wakeup chains keep driving the
    /// periodic cycles, so none are rescheduled here.
    pub fn with_recovered_database(
        grid: GridSim,
        config: RuntimeConfig,
        db: Arc<Database>,
    ) -> CoreResult<Self> {
        let telemetry = Arc::new(Telemetry::with_config(config.telemetry.clone()));
        db.attach_telemetry(Arc::clone(&telemetry));
        let now = grid.now();
        // Recovery runs on the server's private hub; the shared one takes
        // over from the `Recovery` trace on.
        let mut server = SphinxServer::recover(
            Arc::clone(&db),
            SiteInfo::catalog(&grid),
            config.server_config(),
            now,
        )?;
        telemetry.trace(
            TraceKind::Recovery,
            now,
            None,
            None,
            format!("replayed={}", db.replayed()),
        );
        server.set_telemetry(telemetry);
        let mut rt = Runtime::assemble(grid, config, SingleServer { server });
        rt.started = true; // reuse the surviving wakeup chains
        Ok(rt)
    }

    /// The server (e.g. to configure policy quotas).
    pub fn server_mut(&mut self) -> &mut SphinxServer {
        &mut self.tier.server
    }

    /// Immutable server access.
    pub fn server(&self) -> &SphinxServer {
        &self.tier.server
    }

    /// Submit a DAG on behalf of a user. Panics on an invalid DAG or a
    /// database failure — use [`Self::try_submit_dag`] for a typed error.
    pub fn submit_dag(&mut self, dag: &Dag, user: UserId) {
        self.try_submit_dag(dag, user, None)
            .expect("dag submission");
    }

    /// Submit a DAG with a QoS deadline relative to now (the §6
    /// future-work extension): its ready jobs are planned
    /// earliest-deadline-first ahead of deadline-free work.
    pub fn submit_dag_with_deadline(&mut self, dag: &Dag, user: UserId, within: Duration) {
        self.try_submit_dag(dag, user, Some(within))
            .expect("dag submission");
    }
}

impl std::fmt::Debug for SphinxRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SphinxRuntime")
            .field("strategy", &self.config.strategy)
            .field("now", &self.grid.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphinx_dag::WorkloadSpec;
    use sphinx_grid::{FaultProfile, SiteSpec};
    use sphinx_sim::SimRng;

    fn healthy_grid(sites: u32, cpus: u32, seed: u64) -> GridSim {
        let specs = (0..sites)
            .map(|i| SiteSpec::new(SiteId(i), format!("site{i}"), cpus))
            .collect();
        GridSim::new(specs, TransferModel::default(), seed)
    }

    fn seed_externals(grid: &mut GridSim, dags: &[Dag]) {
        for dag in dags {
            for file in dag.external_inputs() {
                grid.rls_mut().register(file, SiteId(0));
            }
        }
    }

    fn quick_config(strategy: StrategyKind) -> RuntimeConfig {
        RuntimeConfig {
            strategy,
            horizon: Duration::from_secs(48 * 3600),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn small_workload_completes_end_to_end() {
        let mut grid = healthy_grid(3, 8, 42);
        let dags = WorkloadSpec::small(2, 10).generate(&SimRng::new(42), 0);
        seed_externals(&mut grid, &dags);
        let mut rt = SphinxRuntime::new(grid, quick_config(StrategyKind::CompletionTime));
        for dag in &dags {
            rt.submit_dag(dag, UserId(1));
        }
        let report = rt.run();
        assert!(report.finished, "{}", report.summary());
        assert_eq!(report.jobs_completed, 20);
        assert_eq!(report.dags, 2);
        assert!(report.avg_dag_completion_secs > 0.0);
        assert!(report.avg_exec_secs > 30.0, "{}", report.avg_exec_secs);
        assert_eq!(report.timeouts, 0);
    }

    #[test]
    fn all_strategies_complete_on_a_healthy_grid() {
        for strategy in StrategyKind::ALL {
            let mut grid = healthy_grid(3, 8, 7);
            let dags = WorkloadSpec::small(1, 12).generate(&SimRng::new(7), 0);
            seed_externals(&mut grid, &dags);
            let mut rt = SphinxRuntime::new(grid, quick_config(strategy));
            rt.submit_dag(&dags[0], UserId(1));
            let report = rt.run();
            assert!(report.finished, "{strategy}: {}", report.summary());
            assert_eq!(report.jobs_completed, 12, "{strategy}");
        }
    }

    #[test]
    fn black_hole_site_is_survived_via_timeouts() {
        let specs = vec![
            SiteSpec::new(SiteId(0), "good", 8),
            SiteSpec::new(SiteId(1), "hole", 8).with_faults(FaultProfile::black_hole()),
        ];
        let mut grid = GridSim::new(specs, TransferModel::default(), 3);
        let dags = WorkloadSpec::small(1, 10).generate(&SimRng::new(3), 0);
        seed_externals(&mut grid, &dags);
        let config = RuntimeConfig {
            strategy: StrategyKind::RoundRobin,
            feedback: true,
            timeout: Duration::from_mins(10),
            horizon: Duration::from_secs(48 * 3600),
            ..RuntimeConfig::default()
        };
        let mut rt = SphinxRuntime::new(grid, config);
        rt.submit_dag(&dags[0], UserId(1));
        let report = rt.run();
        assert!(report.finished, "{}", report.summary());
        assert_eq!(report.jobs_completed, 10);
        assert!(report.timeouts >= 1, "black hole must cost timeouts");
        // Feedback eventually shuns the hole: the good site does the work.
        let good = report.sites.iter().find(|s| s.name == "good").unwrap();
        assert_eq!(good.completed, 10);
    }

    #[test]
    fn determinism_same_seeds_same_report() {
        let run = || {
            let mut grid = healthy_grid(2, 4, 11);
            let dags = WorkloadSpec::small(1, 8).generate(&SimRng::new(11), 0);
            seed_externals(&mut grid, &dags);
            let mut rt = SphinxRuntime::new(grid, quick_config(StrategyKind::QueueLength));
            rt.submit_dag(&dags[0], UserId(1));
            rt.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn policy_mode_completes_with_ample_quota() {
        let mut grid = healthy_grid(3, 8, 5);
        let dags = WorkloadSpec::small(1, 10).generate(&SimRng::new(5), 0);
        seed_externals(&mut grid, &dags);
        let config = RuntimeConfig {
            strategy: StrategyKind::NumCpus,
            policy_enabled: true,
            horizon: Duration::from_secs(48 * 3600),
            ..RuntimeConfig::default()
        };
        let mut rt = SphinxRuntime::new(grid, config);
        let policy = rt.server_mut().policy_mut();
        policy.add_user(UserId(1), sphinx_policy::VoId(0), 1);
        for i in 0..3 {
            policy.grant(
                UserId(1),
                SiteId(i),
                sphinx_policy::Requirement::new(1_000_000, 1_000_000),
            );
        }
        rt.submit_dag(&dags[0], UserId(1));
        let report = rt.run();
        assert!(report.finished, "{}", report.summary());
        assert!(report.policy);
    }
}
