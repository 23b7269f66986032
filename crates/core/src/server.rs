//! The SPHINX server.
//!
//! "The server has a control process, which completes the scheduling by
//! managing several SPHINX inner service modules such as resource
//! monitoring interface, replica management interface, prediction, message
//! handling, DAG reducing and planning. Each module performs its
//! corresponding function on a DAG and/or a job, and changes the state to
//! the next according to the predefined order of states" (§3.2).
//!
//! All entity state lives in [`sphinx_db`] tables ([`DagRow`], [`JobRow`],
//! [`SiteStatsRow`]), so the server can be killed at any point and
//! [`SphinxServer::recover`]ed from its write-ahead log: in-flight
//! submissions are conservatively reset to `Ready` and replanned, which is
//! the fault-tolerance property the paper's §3.1 claims.

use crate::error::{CoreError, CoreResult};
use crate::messages::{CancelCause, PlanNotice, StatusReport};
use crate::prediction::Prediction;
use crate::reliability::{FlagTransition, Reliability};
use crate::state::{DagRow, DagState, JobRow, JobState, SiteStatsRow};
use crate::strategy::{PlanningView, ScoreCache, SiteInfo, StrategyKind, StrategyState};
use sphinx_dag::{reduce, Dag, DagId, Frontier, JobId};
use sphinx_data::{LogicalFile, ReplicaService, SiteId, TransferModel};
use sphinx_db::Database;
use sphinx_grid::StagedInput;
use sphinx_monitor::Report;
use sphinx_policy::{PolicyEngine, Requirement, UserId};
use sphinx_sim::SimTime;
use sphinx_telemetry::{Telemetry, TelemetrySnapshot, TraceKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which §4.1 algorithm plans jobs.
    pub strategy: StrategyKind,
    /// Use tracker feedback to exclude unreliable sites. Queue-length and
    /// completion-time imply feedback regardless (the paper evaluates them
    /// only with it).
    pub feedback: bool,
    /// Apply eq. 4 policy constraints before the strategy runs.
    pub policy_enabled: bool,
    /// Persistent-storage site for final (sink) outputs — the planner's
    /// step 4 ("decide whether the output files must be copied to
    /// persistent storage"). `None` disables archival.
    pub archive_site: Option<SiteId>,
    /// Use the per-cycle site scoring cache ([`ScoreCache`]). Off runs
    /// the full-rescore reference path; decisions are identical either
    /// way (asserted by `tests/planner_equivalence.rs`).
    pub score_cache: bool,
    /// Let live-ops black-hole alerts exclude a site from planning
    /// immediately ([`Reliability::ops_flag`]) instead of waiting for the
    /// post-hoc cancelled-vs-completed tally. Off by default so the
    /// reference runs are untouched.
    pub ops_fast_path: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            strategy: StrategyKind::CompletionTime,
            feedback: true,
            policy_enabled: false,
            archive_site: None,
            score_cache: true,
            ops_fast_path: false,
        }
    }
}

impl ServerConfig {
    fn effective_feedback(&self) -> bool {
        self.feedback || self.strategy.implies_feedback()
    }
}

/// Planning/rescheduling counters (Figure 8's data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Plans handed to the client.
    pub plans: u64,
    /// Reschedules caused by held/killed reports.
    pub reschedules_held: u64,
    /// Reschedules caused by tracker timeouts.
    pub reschedules_timeout: u64,
}

impl ServerStats {
    /// Total reschedules of either cause.
    pub fn reschedules_total(&self) -> u64 {
        self.reschedules_held + self.reschedules_timeout
    }
}

/// Mutable scheduling state — the planner's view of the *grid*, as opposed
/// to the per-server view of its own DAGs.
///
/// Extracted from [`SphinxServer`] so a sharded deployment
/// ([`crate::shard`]) can run several servers over partitioned DAG storage
/// while planning against one global view: per-site outstanding counts,
/// prediction/reliability ledgers, quota accounts and the score cache all
/// describe shared grid resources, so splitting them per shard would change
/// placement decisions. The unsharded server simply owns one instance; the
/// sharded coordinator owns one instance and threads it through every
/// shard's `*_shared` calls in a deterministic global order.
pub struct SchedulerState {
    pub(crate) policy: PolicyEngine,
    pub(crate) prediction: Prediction,
    pub(crate) reliability: Reliability,
    /// Jobs planned to each site and not yet finished (eq. 1/2 input).
    pub(crate) outstanding: BTreeMap<SiteId, u64>,
    pub(crate) strategy_state: StrategyState,
    /// Per-cycle site-ranking memo (the planner hot path).
    pub(crate) score_cache: ScoreCache,
    pub(crate) stats: ServerStats,
    pub(crate) last_plan_at: Option<SimTime>,
    /// Reused per-job candidate buffer (allocated once, not per job).
    pub(crate) candidates_scratch: Vec<SiteId>,
    /// Jobs this cycle that reused the scratch buffer's capacity.
    pub(crate) scratch_reused: u64,
}

impl Default for SchedulerState {
    fn default() -> Self {
        SchedulerState {
            policy: PolicyEngine::new(),
            prediction: Prediction::new(),
            reliability: Reliability::new(),
            outstanding: BTreeMap::new(),
            strategy_state: StrategyState::new(),
            score_cache: ScoreCache::new(),
            stats: ServerStats::default(),
            last_plan_at: None,
            candidates_scratch: Vec::new(),
            scratch_reused: 0,
        }
    }
}

impl SchedulerState {
    pub(crate) fn dec_outstanding(&mut self, site: SiteId) {
        if let Some(n) = self.outstanding.get_mut(&site) {
            *n = n.saturating_sub(1);
        }
    }
}

/// One ready job with its planning-order keys (deadline for EDF, user
/// priority for §5 ordering), as produced by `SphinxServer::ready_entries`.
#[derive(Debug, Clone, Copy)]
struct ReadyEntry {
    job: JobId,
    deadline: Option<SimTime>,
    priority: u32,
}

/// Per-cycle bookkeeping emitted once per plan pass, before any per-DAG
/// work: cycle counters, monitoring staleness, the `PlanCycle` trace line.
fn cycle_prolog(
    telemetry: &Telemetry,
    sched: &mut SchedulerState,
    now: SimTime,
    reports: &BTreeMap<SiteId, Report>,
) {
    telemetry.counter_add("plan.cycles", 1);
    if let Some(prev) = sched.last_plan_at {
        telemetry.observe_ms("plan.cycle_gap_ms", now.since(prev));
    }
    sched.last_plan_at = Some(now);
    // Staleness of the monitoring data this cycle plans against —
    // "sample age at use", the paper's §2 imperfection made visible.
    for report in reports.values() {
        telemetry.observe_ms("monitor.sample_age_ms", report.age(now));
    }
    telemetry.trace(
        TraceKind::PlanCycle,
        now,
        None,
        None,
        format!("reports={}", reports.len()),
    );
    sched.scratch_reused = 0;
}

/// Per-cycle epilogue: flush the score-cache and scratch-reuse counters.
fn cycle_epilog(telemetry: &Telemetry, sched: &mut SchedulerState) {
    let (cache_hits, cache_misses) = sched.score_cache.take_counters();
    if cache_hits > 0 {
        telemetry.counter_add("plan.score_cache.hits", cache_hits);
    }
    if cache_misses > 0 {
        telemetry.counter_add("plan.score_cache.misses", cache_misses);
    }
    if sched.scratch_reused > 0 {
        telemetry.counter_add("plan.scratch.reused", sched.scratch_reused);
    }
    sched.scratch_reused = 0;
}

/// In-memory planner view of one active DAG — a mirror of its [`DagRow`]
/// (shared `Arc`, not a copy) plus derived data the planner needs per
/// ready job. Kept in lock-step with the row: inserted on submit/recover,
/// dropped when the DAG finishes.
struct DagMeta {
    dag: Arc<Dag>,
    user: UserId,
    deadline: Option<SimTime>,
    /// `sinks[i]`: job `i` has no children (its output is final and gets
    /// archived). Precomputed once — `Dag::children()` allocates O(V+E).
    sinks: Vec<bool>,
}

/// The SPHINX server.
pub struct SphinxServer {
    db: Arc<Database>,
    config: ServerConfig,
    catalog: Vec<SiteInfo>,
    /// Grid-wide scheduling state (see [`SchedulerState`]). The unsharded
    /// server owns its own; a sharded coordinator substitutes a shared one
    /// through the `*_shared` entry points.
    sched: SchedulerState,
    frontiers: BTreeMap<DagId, Frontier>,
    /// Planner-side mirror of active DAG rows (see [`DagMeta`]).
    dag_meta: BTreeMap<DagId, DagMeta>,
    dags_total: u64,
    dags_finished: u64,
    telemetry: Arc<Telemetry>,
    /// Every catalog site id, in catalog order (catalog is immutable).
    all_site_ids: Vec<SiteId>,
}

/// The JSON value a [`DagId`] takes at the `/id/dag` pointer of a `JobRow`
/// (a bare number — `DagId` is a serde newtype), i.e. the lookup key for
/// the "all jobs of this DAG" secondary index.
fn dag_key(id: DagId) -> CoreResult<serde_json::Value> {
    serde_json::to_value(id).map_err(|_| CoreError::Invariant("dag id must serialize"))
}

impl SphinxServer {
    /// A fresh server over an (empty) database.
    pub fn new(db: Arc<Database>, catalog: Vec<SiteInfo>, config: ServerConfig) -> Self {
        // The control process finds entities by state (and a DAG's jobs by
        // owner); index the tables the way the original's SQL schema would
        // have.
        db.create_index::<DagRow>("/state");
        db.create_index::<JobRow>("/state");
        db.create_index::<JobRow>("/id/dag");
        let all_site_ids = catalog.iter().map(|s| s.id).collect();
        SphinxServer {
            db,
            config,
            catalog,
            sched: SchedulerState::default(),
            frontiers: BTreeMap::new(),
            dag_meta: BTreeMap::new(),
            dags_total: 0,
            dags_finished: 0,
            telemetry: Telemetry::shared(),
            all_site_ids,
        }
    }

    /// Mirror one active DAG into the planner's in-memory metadata.
    fn remember_dag(&mut self, id: DagId, dag: Arc<Dag>, user: UserId, deadline: Option<SimTime>) {
        let sinks = dag.children().iter().map(|c| c.is_empty()).collect();
        self.dag_meta.insert(
            id,
            DagMeta {
                dag,
                user,
                deadline,
                sinks,
            },
        );
    }

    /// Replace the server's private telemetry hub with a shared one (the
    /// runtime hands every layer the same hub). Call before submitting
    /// work; events recorded earlier stay on the old hub.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = telemetry;
    }

    /// The telemetry hub in use.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Snapshot of every metric recorded so far.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    fn note_flag_transition(&self, transition: FlagTransition, site: SiteId, now: SimTime) {
        match transition {
            FlagTransition::Flagged => {
                self.telemetry.counter_add("reliability.flagged", 1);
                self.telemetry
                    .trace(TraceKind::SiteFlagged, now, None, Some(site), String::new());
            }
            FlagTransition::Unflagged => {
                self.telemetry.counter_add("reliability.unflagged", 1);
                self.telemetry.trace(
                    TraceKind::SiteUnflagged,
                    now,
                    None,
                    Some(site),
                    String::new(),
                );
            }
            FlagTransition::Unchanged => {}
        }
    }

    /// Rebuild a server from a recovered database (crash recovery): a shard
    /// adoption whose tracker died too. Every DAG goes through
    /// [`Self::restore_dag`], then [`Self::reconcile_inflight`] against an
    /// empty tracker resets every in-flight attempt to `Ready` — the safe
    /// cancel-and-replan move the paper's tracker makes for held jobs.
    pub fn recover(
        db: Arc<Database>,
        catalog: Vec<SiteInfo>,
        config: ServerConfig,
        now: SimTime,
    ) -> CoreResult<Self> {
        let mut server = SphinxServer::new(db, catalog, config);
        // Restore tracker-derived statistics.
        for row in server.db.scan::<SiteStatsRow>()? {
            let site = SiteId(row.site);
            server
                .sched
                .reliability
                .restore(site, row.completed, row.cancelled);
            server
                .sched
                .prediction
                .restore(site, row.completion_secs_sum, row.completion_samples);
        }
        let mut dags = Vec::new();
        for dag_row in server.db.scan::<DagRow>()? {
            let jobs = server
                .db
                .scan_where::<JobRow>("/id/dag", &dag_key(dag_row.id)?)?;
            server.restore_dag(&dag_row, &jobs, now)?;
            dags.push(dag_row.id);
        }
        // The fresh tracker tracks nothing.
        let mut sched = std::mem::take(&mut server.sched);
        server.reconcile_inflight(&mut sched, &dags, &BTreeMap::new(), now)?;
        server.sched = sched;
        Ok(server)
    }

    /// Adopt every DAG of a crashed peer from its recovered database
    /// (the sharded failover path; see DESIGN.md "Sharded scheduling").
    ///
    /// Rows are copied verbatim — DAG and job state is exactly what the
    /// dead shard's WAL committed — and per-site statistics are
    /// merge-added, because both shards planned onto the same grid sites.
    /// Each DAG is then rebuilt by [`Self::restore_dag`], which keeps
    /// in-flight attempts in flight: unlike a whole-server crash, the grid
    /// and its tracker survived, so reports for those attempts will still
    /// arrive. [`Self::reconcile_inflight`] then repairs the torn tail
    /// against the client's tracking table.
    ///
    /// Returns the adopted DAG ids, in id order.
    pub(crate) fn adopt_from(&mut self, donor: &Database, now: SimTime) -> CoreResult<Vec<DagId>> {
        // Group the donor's job rows by owning DAG (full scan, no reliance
        // on secondary indexes existing in the bare recovered database).
        let mut jobs_of: BTreeMap<DagId, Vec<JobRow>> = BTreeMap::new();
        for job in donor.scan::<JobRow>()? {
            jobs_of.entry(job.id.dag).or_default().push(job);
        }
        let mut adopted = Vec::new();
        for dag_row in donor.scan::<DagRow>()? {
            let jobs = jobs_of.remove(&dag_row.id).unwrap_or_default();
            // Copy the rows verbatim, atomically per DAG.
            let mut txn = self.db.txn();
            txn.put(&dag_row)?;
            for job in &jobs {
                txn.put(job)?;
            }
            txn.commit()?;
            adopted.push(dag_row.id);
            self.restore_dag(&dag_row, &jobs, now)?;
        }
        // Fold the donor's per-site tallies into ours: site keys collide
        // across shards, so this must merge-add, never overwrite.
        for stats in donor.scan::<SiteStatsRow>()? {
            self.bump_site_stats(SiteId(stats.site), |s| {
                s.completed += stats.completed;
                s.cancelled += stats.cancelled;
                s.completion_secs_sum += stats.completion_secs_sum;
                s.completion_samples += stats.completion_samples;
            })?;
        }
        Ok(adopted)
    }

    /// Rebuild one DAG's in-memory view from its committed rows. The rows
    /// may be torn (a crash can fall between one report's commits), so two
    /// rules repair them (DESIGN.md "Crash recovery"): the frontier built
    /// from committed completions is the authority on readiness, and a DAG
    /// whose jobs are all terminal is finished. In-flight jobs stay out of
    /// the ready set for the caller's [`Self::reconcile_inflight`].
    fn restore_dag(&mut self, dag_row: &DagRow, jobs: &[JobRow], now: SimTime) -> CoreResult<()> {
        self.dags_total += 1;
        if dag_row.state == DagState::Finished {
            self.dags_finished += 1;
            return Ok(());
        }
        if dag_row.state == DagState::Running {
            let terminal: Vec<u32> = jobs
                .iter()
                .filter(|j| j.state.is_terminal())
                .map(|j| j.id.index)
                .collect();
            let mut frontier = Frontier::with_completed(&dag_row.dag, &terminal);
            for job in jobs {
                if job.state.is_outstanding() {
                    frontier.take(job.id.index);
                } else if job.state == JobState::Unready && frontier.is_ready(job.id.index) {
                    // The parent's completion committed, the child's
                    // Unready -> Ready update did not: repair the row.
                    self.db.update::<JobRow>(job.id.as_key(), |j| {
                        // sphinx-fsa: Unready -> Ready
                        j.advance(JobState::Ready);
                    })?;
                    self.telemetry.note_job_state(
                        job.id.as_key(),
                        dag_row.id.0,
                        "ready",
                        None,
                        None,
                        now,
                    );
                }
            }
            self.frontiers.insert(dag_row.id, frontier);
        }
        // `Received` DAGs will be reduced by the next plan cycle.
        self.remember_dag(
            dag_row.id,
            Arc::clone(&dag_row.dag),
            dag_row.user,
            dag_row.deadline,
        );
        // Finishes a DAG whose last completion committed but whose
        // Running -> Finished update did not.
        self.maybe_finish_dag(dag_row.id, now)
    }

    /// Reconcile adopted in-flight attempts against the client tracker
    /// (which survived the shard crash). Two torn-tail shapes exist:
    ///
    /// * A row says `Submitted` but the client never tracked the job —
    ///   the dead shard committed the plan row and crashed before the
    ///   submit reached the grid. Release the reservation, rebalance the
    ///   outstanding count, and put the job back in the ready set.
    /// * A row says `Ready` but the client *is* tracking the job — the
    ///   submit reached the grid but the crash tore the WAL line carrying
    ///   the row update. Re-advance the row so the eventual completion
    ///   report passes the FSA guards. (The reservation id died with the
    ///   torn line; that quota stays reserved — a documented leak bounded
    ///   by one job per crash.)
    ///
    /// Returns `(reset, repaired)` counts.
    pub(crate) fn reconcile_inflight(
        &mut self,
        sched: &mut SchedulerState,
        adopted: &[DagId],
        tracked: &BTreeMap<JobId, SiteId>,
        now: SimTime,
    ) -> CoreResult<(u64, u64)> {
        let mut reset = 0u64;
        let mut repaired = 0u64;
        for &dag_id in adopted {
            for job in self.db.scan_where::<JobRow>("/id/dag", &dag_key(dag_id)?)? {
                if job.state.is_outstanding() && !tracked.contains_key(&job.id) {
                    if let Some(res) = job.reservation {
                        let _ = sched.policy.release(res);
                    }
                    if let Some(site) = job.site {
                        sched.dec_outstanding(site);
                    }
                    // reset_for_replan is the Submitted|Queued|Running -> Ready edge.
                    self.db
                        .update::<JobRow>(job.id.as_key(), |j| j.reset_for_replan())?;
                    if let Some(frontier) = self.frontiers.get_mut(&dag_id) {
                        frontier.put_back(job.id.index);
                    }
                    self.telemetry.note_job_state(
                        job.id.as_key(),
                        dag_id.0,
                        "ready",
                        None,
                        None,
                        now,
                    );
                    reset += 1;
                } else if job.state == JobState::Ready {
                    if let Some(&site) = tracked.get(&job.id) {
                        self.db.update::<JobRow>(job.id.as_key(), |j| {
                            // sphinx-fsa: Ready -> Submitted
                            j.advance(JobState::Submitted);
                            j.site = Some(site);
                            j.attempts += 1;
                            j.submitted_at = Some(now);
                        })?;
                        if let Some(frontier) = self.frontiers.get_mut(&dag_id) {
                            frontier.take(job.id.index);
                        }
                        self.telemetry.note_job_state(
                            job.id.as_key(),
                            dag_id.0,
                            "submitted",
                            Some(site),
                            None,
                            now,
                        );
                        repaired += 1;
                    }
                }
            }
        }
        Ok((reset, repaired))
    }

    /// The policy engine (to register VOs, users and quotas).
    pub fn policy_mut(&mut self) -> &mut PolicyEngine {
        &mut self.sched.policy
    }

    /// Immutable policy access.
    pub fn policy(&self) -> &PolicyEngine {
        &self.sched.policy
    }

    /// Planning statistics.
    pub fn stats(&self) -> ServerStats {
        self.sched.stats
    }

    /// Reliability index (for reporting).
    pub fn reliability(&self) -> &Reliability {
        &self.sched.reliability
    }

    /// Live-ops fast path: an online detector decided `site` is swallowing
    /// jobs, so exclude it from planning now rather than after the
    /// post-hoc tally catches up. Gated on [`ServerConfig::ops_fast_path`]
    /// — a no-op (and thus trace-invariant) when the flag is off.
    pub fn apply_ops_flag(&mut self, site: SiteId, now: SimTime) {
        let mut sched = std::mem::take(&mut self.sched);
        self.apply_ops_flag_shared(&mut sched, site, now);
        self.sched = sched;
    }

    /// [`Self::apply_ops_flag`] against an external [`SchedulerState`]
    /// (the sharded coordinator's shared one).
    pub(crate) fn apply_ops_flag_shared(
        &self,
        sched: &mut SchedulerState,
        site: SiteId,
        now: SimTime,
    ) {
        if !self.config.ops_fast_path || !self.config.effective_feedback() {
            return;
        }
        let transition = sched.reliability.ops_flag(site, now);
        self.note_flag_transition(transition, site, now);
    }

    /// Completion-time statistics (for reporting).
    pub fn prediction(&self) -> &Prediction {
        &self.sched.prediction
    }

    /// `(submitted, finished)` DAG counts, for aggregate progress checks.
    pub(crate) fn progress(&self) -> (u64, u64) {
        (self.dags_total, self.dags_finished)
    }

    /// The shared database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Accept a DAG scheduling request from a client.
    pub fn submit_dag(&mut self, dag: &Dag, user: UserId, now: SimTime) -> CoreResult<()> {
        self.submit_dag_with_deadline(dag, user, now, None)
    }

    /// Accept a DAG with a QoS deadline: ready jobs of tighter-deadline
    /// DAGs are planned first (earliest-deadline-first), the paper's §6
    /// future-work item.
    pub fn submit_dag_with_deadline(
        &mut self,
        dag: &Dag,
        user: UserId,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> CoreResult<()> {
        dag.validate()?;
        let dag_shared = Arc::new(dag.clone());
        let mut txn = self.db.txn();
        txn.put(&DagRow {
            id: dag.id,
            dag: Arc::clone(&dag_shared),
            user,
            state: DagState::Received, // sphinx-fsa: init Received
            submitted_at: now,
            finished_at: None,
            deadline,
        })?;
        for job in &dag.jobs {
            txn.put(&JobRow::new(job.id))?;
        }
        txn.commit()?;
        self.remember_dag(dag.id, dag_shared, user, deadline);
        self.dags_total += 1;
        self.telemetry.counter_add("dag.submitted", 1);
        self.telemetry.trace(
            TraceKind::DagSubmitted,
            now,
            None,
            None,
            format!("dag={} jobs={}", dag.id.0, dag.jobs.len()),
        );
        self.telemetry.dag_span_start(dag.id.0, dag.jobs.len(), now);
        for job in &dag.jobs {
            self.telemetry
                .note_job_state(job.id.as_key(), dag.id.0, "unready", None, None, now);
        }
        Ok(())
    }

    /// True when every submitted DAG reached `Finished`.
    pub fn all_finished(&self) -> bool {
        self.dags_total > 0 && self.dags_finished == self.dags_total
    }

    /// Completion check for one DAG.
    fn maybe_finish_dag(&mut self, dag_id: DagId, now: SimTime) -> CoreResult<()> {
        let finished = self.frontiers.get(&dag_id).is_some_and(|f| f.is_finished());
        if finished {
            self.db.update::<DagRow>(dag_id.0, |d| {
                // sphinx-fsa: Running -> Finished
                d.advance(DagState::Finished);
                d.finished_at = Some(now);
            })?;
            self.frontiers.remove(&dag_id);
            self.dag_meta.remove(&dag_id);
            self.dags_finished += 1;
            self.telemetry.counter_add("dag.finished", 1);
            self.telemetry.trace(
                TraceKind::DagFinished,
                now,
                None,
                None,
                format!("dag={}", dag_id.0),
            );
            self.telemetry.dag_span_end(dag_id.0, now);
        }
        Ok(())
    }

    fn bump_site_stats(&self, site: SiteId, f: impl FnOnce(&mut SiteStatsRow)) -> CoreResult<()> {
        let key = site.0 as u64;
        if !self.db.contains::<SiteStatsRow>(key) {
            self.db.put(&SiteStatsRow {
                site: site.0,
                ..SiteStatsRow::default()
            })?;
        }
        self.db.update::<SiteStatsRow>(key, f)?;
        Ok(())
    }

    /// Process one tracker report (the message-handling module's work).
    ///
    /// Reports can be late, duplicated or outright bogus (a report for a
    /// job that was never planned); each arm guards on the automaton's
    /// current state and ignores reports the transition table forbids.
    pub fn handle_report(&mut self, report: StatusReport, now: SimTime) -> CoreResult<()> {
        let mut sched = std::mem::take(&mut self.sched);
        let result = self.handle_report_shared(&mut sched, report, now);
        self.sched = sched;
        result
    }

    /// [`Self::handle_report`] against an external [`SchedulerState`] (the
    /// sharded coordinator's shared one).
    pub(crate) fn handle_report_shared(
        &mut self,
        sched: &mut SchedulerState,
        report: StatusReport,
        now: SimTime,
    ) -> CoreResult<()> {
        let job = report.job();
        let key = job.as_key();
        match report {
            StatusReport::Queued { site, .. } => {
                let mut advanced = false;
                self.db.update::<JobRow>(key, |j| {
                    if j.state == JobState::Submitted {
                        // sphinx-fsa: Submitted -> Queued
                        j.advance(JobState::Queued);
                        advanced = true;
                    }
                })?;
                if advanced {
                    self.telemetry
                        .note_job_state(key, job.dag.0, "queued", Some(site), None, now);
                    self.telemetry.trace(
                        TraceKind::JobQueued,
                        now,
                        Some(key),
                        Some(site),
                        String::new(),
                    );
                }
            }
            StatusReport::Running { site, .. } => {
                let mut advanced = false;
                self.db.update::<JobRow>(key, |j| {
                    if matches!(j.state, JobState::Submitted | JobState::Queued) {
                        // sphinx-fsa: Submitted|Queued -> Running
                        j.advance(JobState::Running);
                        advanced = true;
                    }
                })?;
                if advanced {
                    self.telemetry
                        .note_job_state(key, job.dag.0, "running", Some(site), None, now);
                    self.telemetry.trace(
                        TraceKind::JobRunning,
                        now,
                        Some(key),
                        Some(site),
                        String::new(),
                    );
                }
            }
            StatusReport::Completed {
                site,
                total,
                exec,
                idle,
                ..
            } => {
                let Some(row) = self.db.get::<JobRow>(key) else {
                    return Ok(());
                };
                if !row.state.is_outstanding() {
                    return Ok(()); // duplicate, stale (post-replan) or bogus
                }
                self.db.update::<JobRow>(key, |j| {
                    // sphinx-fsa: Submitted|Queued|Running -> Finished
                    j.advance(JobState::Finished);
                    j.exec_secs = Some(exec.as_secs_f64());
                    j.idle_secs = Some(idle.as_secs_f64());
                })?;
                if let Some(res) = row.reservation {
                    let actual = Requirement::new(exec.as_secs_f64() as u64, 0);
                    let _ = sched.policy.commit(res, actual);
                }
                sched.prediction.record(site, total);
                let transition = sched.reliability.record_completed_at(site, now);
                self.note_flag_transition(transition, site, now);
                self.telemetry
                    .note_job_state(key, job.dag.0, "finished", Some(site), None, now);
                self.telemetry.observe_ms("job.completion_ms", total);
                self.telemetry.trace(
                    TraceKind::JobCompleted,
                    now,
                    Some(key),
                    Some(site),
                    String::new(),
                );
                self.bump_site_stats(site, |s| {
                    s.completed += 1;
                    s.completion_secs_sum += total.as_secs_f64();
                    s.completion_samples += 1;
                })?;
                sched.dec_outstanding(site);
                if let Some(frontier) = self.frontiers.get_mut(&job.dag) {
                    frontier.complete(job.index);
                    // Children whose last parent completed become Ready.
                    let ready = frontier.ready();
                    for idx in ready {
                        let child = JobId::new(job.dag, idx);
                        let mut advanced = false;
                        self.db.update::<JobRow>(child.as_key(), |j| {
                            if j.state == JobState::Unready {
                                // sphinx-fsa: Unready -> Ready
                                j.advance(JobState::Ready);
                                advanced = true;
                            }
                        })?;
                        if advanced {
                            // The completing job is the ready-cause: its
                            // span is what critical-path extraction links
                            // this child's readiness back to.
                            self.telemetry.note_job_state(
                                child.as_key(),
                                job.dag.0,
                                "ready",
                                None,
                                Some(key),
                                now,
                            );
                            self.telemetry.trace(
                                TraceKind::JobReady,
                                now,
                                Some(child.as_key()),
                                None,
                                String::new(),
                            );
                        }
                    }
                }
                self.maybe_finish_dag(job.dag, now)?;
            }
            StatusReport::Cancelled { site, cause, .. } => {
                let Some(row) = self.db.get::<JobRow>(key) else {
                    return Ok(());
                };
                if !row.state.is_outstanding() {
                    return Ok(()); // raced with completion, already replanned, or bogus
                }
                if let Some(res) = row.reservation {
                    let _ = sched.policy.release(res);
                }
                // reset_for_replan is the Submitted|Queued|Running -> Ready edge.
                self.db.update::<JobRow>(key, |j| j.reset_for_replan())?;
                let transition = sched.reliability.record_cancelled_at(site, now);
                self.note_flag_transition(transition, site, now);
                self.telemetry
                    .note_job_state(key, job.dag.0, "ready", None, None, now);
                self.bump_site_stats(site, |s| s.cancelled += 1)?;
                sched.dec_outstanding(site);
                let cause_label = match cause {
                    CancelCause::Held => {
                        sched.stats.reschedules_held += 1;
                        self.telemetry.counter_add("plan.reschedules_held", 1);
                        "held"
                    }
                    CancelCause::Timeout => {
                        sched.stats.reschedules_timeout += 1;
                        self.telemetry.counter_add("plan.reschedules_timeout", 1);
                        "timeout"
                    }
                };
                self.telemetry.trace(
                    TraceKind::JobCancelled,
                    now,
                    Some(key),
                    Some(site),
                    cause_label.to_owned(),
                );
                if let Some(frontier) = self.frontiers.get_mut(&job.dag) {
                    frontier.put_back(job.index);
                }
            }
        }
        Ok(())
    }

    /// This server's `Received` DAG rows, in DAG-id order ([`plan_pass`]
    /// merges these across servers and reduces in global id order).
    fn received_dags(&self) -> CoreResult<Vec<DagRow>> {
        Ok(self
            .db
            .scan_where::<DagRow>("/state", &serde_json::json!("Received"))?)
    }

    /// Reduce one newly received DAG (one iteration of the reducer loop).
    fn reduce_dag_row(
        &mut self,
        dag_row: &DagRow,
        rls: &mut ReplicaService,
        now: SimTime,
    ) -> CoreResult<()> {
        {
            let outputs: Vec<LogicalFile> = dag_row
                .dag
                .jobs
                .iter()
                .map(|j| j.output.file.clone())
                .collect();
            // One clubbed RLS call for the whole DAG (§3.4).
            let existing = rls.exists_batch(&outputs);
            let exists_of: BTreeMap<&LogicalFile, bool> =
                outputs.iter().zip(existing.iter().copied()).collect();
            let reduction = reduce(&dag_row.dag, |f| exists_of.get(f).copied().unwrap_or(false));
            let mut txn = self.db.txn();
            for &idx in &reduction.eliminated {
                let mut row = JobRow::new(JobId::new(dag_row.id, idx));
                // sphinx-fsa: Unready -> Eliminated
                row.advance(JobState::Eliminated);
                txn.put(&row)?;
            }
            let frontier = Frontier::with_completed(&dag_row.dag, &reduction.eliminated);
            // Mark the initially ready jobs.
            for idx in frontier.ready() {
                let mut row = JobRow::new(JobId::new(dag_row.id, idx));
                // sphinx-fsa: Unready -> Ready
                row.advance(JobState::Ready);
                txn.put(&row)?;
            }
            let mut updated = dag_row.clone();
            // sphinx-fsa: Received -> Running
            updated.advance(DagState::Running);
            txn.put(&updated)?;
            txn.commit()?;
            for &idx in &reduction.eliminated {
                let jid = JobId::new(dag_row.id, idx).as_key();
                self.telemetry.counter_add("job.eliminated", 1);
                self.telemetry
                    .note_job_state(jid, dag_row.id.0, "eliminated", None, None, now);
                self.telemetry.trace(
                    TraceKind::JobEliminated,
                    now,
                    Some(jid),
                    None,
                    String::new(),
                );
            }
            for idx in frontier.ready() {
                let jid = JobId::new(dag_row.id, idx).as_key();
                self.telemetry
                    .note_job_state(jid, dag_row.id.0, "ready", None, None, now);
                self.telemetry
                    .trace(TraceKind::JobReady, now, Some(jid), None, String::new());
            }
            self.frontiers.insert(dag_row.id, frontier);
            self.maybe_finish_dag(dag_row.id, now)?;
        }
        Ok(())
    }

    /// The resource requirement of one job (eq. 4's `required`).
    fn requirement_of(job: &sphinx_dag::JobSpec) -> Requirement {
        Requirement::new(job.compute.as_secs_f64().ceil() as u64, job.output.size_mb)
    }

    /// Choose transfer sources for a job's inputs ("choose the optimal
    /// transfer source": the replica whose site has the fattest access
    /// link; ties to the lowest id for determinism).
    fn plan_staging(
        dag: &Dag,
        job: &sphinx_dag::JobSpec,
        exec_site: SiteId,
        rls: &mut ReplicaService,
        transfers: &TransferModel,
    ) -> Option<Vec<StagedInput>> {
        let producers = dag.producers();
        // One clubbed locate call for all inputs (§3.4).
        let located = rls.locate_batch(&job.inputs);
        let mut staging = Vec::with_capacity(located.len());
        for (file, sites) in located {
            if sites.contains(&exec_site) {
                staging.push(StagedInput {
                    file,
                    size_mb: 0,
                    source: None,
                });
                continue;
            }
            // Size: sibling outputs carry their spec'd size; external
            // datasets use a nominal analysis-input size.
            let size_mb = producers
                .get(&file)
                .and_then(|&p| dag.jobs.get(p as usize))
                .map_or(100, |j| j.output.size_mb);
            let best = sites.iter().copied().max_by(|a, b| {
                transfers
                    .bandwidth(*a)
                    .partial_cmp(&transfers.bandwidth(*b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(a)) // ties: prefer lower id
            })?;
            staging.push(StagedInput {
                file,
                size_mb,
                source: Some(best),
            });
        }
        Some(staging)
    }

    /// One planner pass over this server alone (the shared `plan_pass`):
    /// reduce received DAGs, then plan every ready job. Returns the plans
    /// for the client to submit.
    // sphinx-hot
    pub fn plan_cycle(
        &mut self,
        now: SimTime,
        rls: &mut ReplicaService,
        reports: &BTreeMap<SiteId, Report>,
        transfers: &TransferModel,
    ) -> CoreResult<Vec<PlanNotice>> {
        let mut sched = std::mem::take(&mut self.sched);
        let telemetry = Arc::clone(&self.telemetry);
        let result = plan_pass(self, &mut sched, &telemetry, now, rls, reports, transfers);
        self.sched = sched;
        result
    }

    /// Append every ready job across this server's frontiers to `out`, in
    /// (dag, index) order, annotated with its planning-order keys.
    fn ready_entries(&self, sched: &SchedulerState, out: &mut Vec<ReadyEntry>) {
        for (&dag, frontier) in &self.frontiers {
            let meta = self.dag_meta.get(&dag);
            let deadline = meta.and_then(|m| m.deadline);
            let priority = meta
                .and_then(|m| sched.policy.priority_of(m.user))
                .unwrap_or(0);
            out.extend(frontier.ready_iter().map(|i| ReadyEntry {
                job: JobId::new(dag, i),
                deadline,
                priority,
            }));
        }
    }

    /// The fastest-predicted site with at least one completion sample —
    /// the QoS fast lane's soft reservation target.
    fn fast_lane_site(&self, sched: &SchedulerState) -> Option<SiteId> {
        self.all_site_ids
            .iter()
            .copied()
            .filter(|&s| sched.prediction.samples(s) > 0)
            .min_by(|&a, &b| {
                sched
                    .prediction
                    .average(a)
                    .unwrap_or(f64::INFINITY)
                    .total_cmp(&sched.prediction.average(b).unwrap_or(f64::INFINITY))
            })
    }

    /// Plan one ready job (one iteration of the planner's job loop).
    /// Returns `None` when the job must stay `Ready`: no feasible site, an
    /// input without a replica, or a quota race.
    #[allow(clippy::too_many_arguments)]
    fn plan_one(
        &mut self,
        sched: &mut SchedulerState,
        job_id: JobId,
        fast_lane: Option<SiteId>,
        now: SimTime,
        rls: &mut ReplicaService,
        reports: &BTreeMap<SiteId, Report>,
        transfers: &TransferModel,
    ) -> CoreResult<Option<PlanNotice>> {
        // Every planning input for the job's DAG comes from the
        // in-memory mirror: no row fetch, no spec clone.
        let Some(meta) = self.dag_meta.get(&job_id.dag) else {
            return Ok(None);
        };
        let dag = Arc::clone(&meta.dag);
        let user = meta.user;
        let urgent = meta.deadline.is_some();
        // Step 4 input: final outputs (nothing downstream consumes
        // them) go to persistent storage; precomputed per DAG.
        let is_sink = meta
            .sinks
            .get(job_id.index as usize)
            .copied()
            .unwrap_or(true);
        let spec = dag
            .job(job_id.index)
            .ok_or(CoreError::Invariant("frontier index outside its dag"))?;
        let requirement = Self::requirement_of(spec);
        // Candidate scratch buffer: owned by the scheduler state so one
        // allocation serves every job of every cycle.
        if sched.candidates_scratch.capacity() >= self.all_site_ids.len() {
            sched.scratch_reused += 1;
        }
        sched.candidates_scratch.clear();
        // Policy filter (eq. 4) …
        if self.config.policy_enabled {
            let feasible = sched
                .policy
                .feasible_sites(user, requirement, &self.all_site_ids);
            sched.candidates_scratch.extend(feasible);
        } else {
            sched
                .candidates_scratch
                .extend_from_slice(&self.all_site_ids);
        }
        // … then the feedback filter (in place; the all-flagged
        // fallback keeps the list intact).
        if self.config.effective_feedback() {
            sched
                .reliability
                .retain_reliable(&mut sched.candidates_scratch, now);
        }
        // … then the QoS fast-lane reservation.
        if let Some(fast) = fast_lane {
            if !urgent && sched.candidates_scratch.len() > 1 {
                sched.candidates_scratch.retain(|&s| s != fast);
            }
        }
        let view = PlanningView {
            catalog: &self.catalog,
            candidates: &sched.candidates_scratch,
            outstanding: &sched.outstanding,
            reports,
            prediction: &sched.prediction,
        };
        let chosen = if self.config.score_cache {
            self.config.strategy.choose_cached(
                &view,
                &mut sched.strategy_state,
                &mut sched.score_cache,
            )
        } else {
            // Reference path: identical decisions by full rescoring;
            // still count would-be hits/misses so telemetry snapshots
            // match the optimized path bit for bit.
            if !sched.candidates_scratch.is_empty() {
                sched
                    .score_cache
                    .note_reference(self.config.strategy, &sched.candidates_scratch);
            }
            self.config
                .strategy
                .choose(&view, &mut sched.strategy_state)
        };
        let Some(site) = chosen else {
            return Ok(None); // no feasible site now; stays Ready
        };
        let Some(staging) = Self::plan_staging(&dag, spec, site, rls, transfers) else {
            return Ok(None); // an input has no replica yet; stays Ready
        };
        // Reserve quota for the attempt.
        let reservation = if self.config.policy_enabled {
            match sched.policy.reserve(user, site, requirement) {
                Ok(r) => Some(r),
                Err(_) => return Ok(None), // quota raced away; stays Ready
            }
        } else {
            None
        };
        self.db.update::<JobRow>(job_id.as_key(), |j| {
            // sphinx-fsa: Ready -> Submitted
            j.advance(JobState::Submitted);
            j.site = Some(site);
            j.reservation = reservation;
            j.attempts += 1;
            j.submitted_at = Some(now);
        })?;
        if let Some(frontier) = self.frontiers.get_mut(&job_id.dag) {
            frontier.take(job_id.index);
        }
        *sched.outstanding.entry(site).or_default() += 1;
        sched.stats.plans += 1;
        self.telemetry.counter_add("plan.jobs_submitted", 1);
        self.telemetry.note_job_state(
            job_id.as_key(),
            job_id.dag.0,
            "submitted",
            Some(site),
            None,
            now,
        );
        self.telemetry.trace(
            TraceKind::JobSubmitted,
            now,
            Some(job_id.as_key()),
            Some(site),
            String::new(),
        );
        let archive_to = self.config.archive_site.filter(|_| is_sink);
        Ok(Some(PlanNotice {
            job: job_id,
            site,
            staging,
            compute: spec.compute,
            output: spec.output.clone(),
            planned_at: now,
            archive_to,
        }))
    }
}

/// The servers one [`plan_pass`] covers: a lone [`SphinxServer`], or the
/// shard slots of a sharded deployment (dead slots answer `None`).
pub(crate) trait ServerSet {
    /// Number of server slots, dead ones included.
    fn slots(&self) -> usize;
    /// The live server in slot `i`.
    fn server(&self, i: usize) -> Option<&SphinxServer>;
    /// The live server in slot `i`, mutably.
    fn server_mut(&mut self, i: usize) -> Option<&mut SphinxServer>;
    /// The slot owning a DAG.
    fn owner_of(&self, dag: DagId) -> usize;
    /// Called after each `plan_one` on `owner`; `true` means the owner
    /// just died (a fault-injected mid-plan crash), so this cycle's plans
    /// from it never reach the client.
    fn planned_one(&mut self, _owner: usize) -> bool {
        false
    }
}

impl ServerSet for SphinxServer {
    fn slots(&self) -> usize {
        1
    }

    fn server(&self, i: usize) -> Option<&SphinxServer> {
        (i == 0).then_some(self)
    }

    fn server_mut(&mut self, i: usize) -> Option<&mut SphinxServer> {
        (i == 0).then_some(self)
    }

    fn owner_of(&self, _dag: DagId) -> usize {
        0
    }
}

/// Planning order: earliest deadline first, then higher user priority,
/// then stable (dag, index) order.
fn planning_key(e: &ReadyEntry) -> (SimTime, std::cmp::Reverse<u32>, DagId, u32) {
    (
        e.deadline.unwrap_or(SimTime::MAX),
        std::cmp::Reverse(e.priority),
        e.job.dag,
        e.job.index,
    )
}

/// One planner pass over one or many servers sharing one
/// [`SchedulerState`]: prolog, reduce, predict, plan, epilog.
///
/// Every stage runs in an order that is a pure function of global state,
/// never of how DAGs are spread over servers: received DAGs are reduced
/// in dag-id order, ready entries are merged and sorted into planning
/// order, and cycle telemetry is emitted exactly once. A single server
/// and any shard count therefore plan the same jobs onto the same sites.
pub(crate) fn plan_pass(
    set: &mut impl ServerSet,
    sched: &mut SchedulerState,
    telemetry: &Telemetry,
    now: SimTime,
    rls: &mut ReplicaService,
    reports: &BTreeMap<SiteId, Report>,
    transfers: &TransferModel,
) -> CoreResult<Vec<PlanNotice>> {
    cycle_prolog(telemetry, sched, now, reports);
    // Phase spans mark the FSA pipeline stages inside one plan cycle;
    // instantaneous in sim time (the cycle itself consumes no simulated
    // duration) but causally ordered by span id.
    let reduce_span = telemetry.span_start("phase:reduce", now);
    let mut received: Vec<(usize, DagRow)> = Vec::new();
    for i in 0..set.slots() {
        if let Some(server) = set.server(i) {
            received.extend(server.received_dags()?.into_iter().map(|row| (i, row)));
        }
    }
    received.sort_by_key(|(_, row)| row.id);
    for (i, row) in &received {
        if let Some(server) = set.server_mut(*i) {
            server.reduce_dag_row(row, rls, now)?;
        }
    }
    telemetry.span_end(reduce_span, now);
    let predict_span = telemetry.span_start("phase:predict", now);
    // The frontiers' ready sets mirror the `Ready` rows exactly and avoid
    // deserializing the whole job table every cycle.
    let mut entries = Vec::new();
    for i in 0..set.slots() {
        if let Some(server) = set.server(i) {
            server.ready_entries(sched, &mut entries);
        }
    }
    // Planning order (QoS + §5 "policy and priorities of these jobs").
    // Deadlines and priorities come from the in-memory DAG metadata (no
    // row decode). One server's entries arrive in (dag, index) order, so
    // the sort runs only when deadlines, priorities or the concatenation
    // of several servers' entries can change that order.
    if !entries.is_sorted_by_key(planning_key) {
        entries.sort_by_key(planning_key);
    }
    // QoS fast lane: while deadline work is pending, reserve the
    // fastest-predicted site for it by steering deadline-free jobs
    // elsewhere (soft reservation — it is released the moment no deadline
    // DAG has ready work).
    let fast_lane = if entries.iter().any(|e| e.deadline.is_some()) {
        (0..set.slots())
            .find_map(|i| set.server(i))
            .and_then(|server| server.fast_lane_site(sched))
    } else {
        None
    };
    telemetry.span_end(predict_span, now);
    let plan_span = telemetry.span_start("phase:plan", now);
    // The monotonicity argument that makes the lazy ranking exact only
    // holds within one plan phase; start every cycle cold.
    sched.score_cache.begin_cycle();
    let mut plans = Vec::new();
    for entry in &entries {
        let owner = set.owner_of(entry.job.dag);
        let Some(server) = set.server_mut(owner) else {
            continue; // owner crashed mid-cycle; replanned after adoption
        };
        if let Some(plan) =
            server.plan_one(sched, entry.job, fast_lane, now, rls, reports, transfers)?
        {
            plans.push(plan);
        }
        if set.planned_one(owner) {
            plans.retain(|p| set.owner_of(p.job.dag) != owner);
        }
    }
    cycle_epilog(telemetry, sched);
    telemetry.span_end(plan_span, now);
    Ok(plans)
}

impl std::fmt::Debug for SphinxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SphinxServer")
            .field("strategy", &self.config.strategy)
            .field("dags", &self.db.count::<DagRow>())
            .field("stats", &self.sched.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphinx_dag::WorkloadSpec;
    use sphinx_sim::{Duration, SimRng};

    fn catalog(n: u32, cpus: u32) -> Vec<SiteInfo> {
        (0..n)
            .map(|i| SiteInfo {
                id: SiteId(i),
                name: format!("site{i}"),
                cpus,
            })
            .collect()
    }

    fn seeded_rls(dag: &Dag) -> ReplicaService {
        let mut rls = ReplicaService::new();
        for file in dag.external_inputs() {
            rls.register(file, SiteId(0));
        }
        rls
    }

    fn small_dag(seed: u64) -> Dag {
        WorkloadSpec::small(1, 6)
            .generate(&SimRng::new(seed), 0)
            .remove(0)
    }

    fn server(strategy: StrategyKind) -> SphinxServer {
        SphinxServer::new(
            Arc::new(Database::in_memory()),
            catalog(3, 4),
            ServerConfig {
                strategy,
                feedback: true,
                policy_enabled: false,
                archive_site: None,
                score_cache: true,
                ops_fast_path: false,
            },
        )
    }

    #[test]
    fn submit_and_reduce_creates_ready_roots() {
        let dag = small_dag(1);
        let mut s = server(StrategyKind::RoundRobin);
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        assert!(!plans.is_empty());
        // Planned jobs are the DAG's roots.
        let frontier = Frontier::new(&dag);
        let roots = frontier.ready();
        assert_eq!(plans.len(), roots.len());
        for p in &plans {
            assert!(roots.contains(&p.job.index));
        }
        assert!(!s.all_finished());
    }

    #[test]
    fn fully_materialized_dag_finishes_without_planning() {
        let dag = small_dag(2);
        let mut s = server(StrategyKind::RoundRobin);
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        // Every output already exists: the reducer eliminates everything.
        for job in &dag.jobs {
            rls.register(job.output.file.clone(), SiteId(1));
        }
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        assert!(plans.is_empty());
        assert!(s.all_finished());
    }

    #[test]
    fn completion_reports_advance_the_dag_to_finish() {
        let dag = small_dag(3);
        let mut s = server(StrategyKind::RoundRobin);
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let model = TransferModel::default();
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while !s.all_finished() {
            guard += 1;
            assert!(guard < 100, "dag should finish");
            let plans = s
                .plan_cycle(now, &mut rls, &BTreeMap::new(), &model)
                .unwrap();
            for p in plans {
                // Pretend the grid ran the job instantly and registered
                // its output.
                rls.register(p.output.file.clone(), p.site);
                s.handle_report(
                    StatusReport::Completed {
                        job: p.job,
                        site: p.site,
                        total: Duration::from_secs(100),
                        exec: Duration::from_secs(60),
                        idle: Duration::from_secs(20),
                    },
                    now,
                )
                .unwrap();
            }
            now += Duration::from_secs(10);
        }
        assert_eq!(s.stats().plans as usize, dag.len());
        assert_eq!(s.reliability().total_completed() as usize, dag.len());
    }

    #[test]
    fn cancellation_triggers_replan_away_from_bad_site() {
        let dag = small_dag(4);
        let mut s = server(StrategyKind::RoundRobin);
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let model = TransferModel::default();
        let plans = s
            .plan_cycle(SimTime::ZERO, &mut rls, &BTreeMap::new(), &model)
            .unwrap();
        let victim = plans[0].clone();
        s.handle_report(
            StatusReport::Cancelled {
                job: victim.job,
                site: victim.site,
                cause: CancelCause::Timeout,
            },
            SimTime::from_secs(60),
        )
        .unwrap();
        assert_eq!(s.stats().reschedules_timeout, 1);
        assert!(!s
            .reliability()
            .is_reliable(victim.site, SimTime::from_secs(60)));
        // The job is planned again, and feedback steers it elsewhere.
        let replans = s
            .plan_cycle(SimTime::from_secs(60), &mut rls, &BTreeMap::new(), &model)
            .unwrap();
        let rp = replans
            .iter()
            .find(|p| p.job == victim.job)
            .expect("job replanned");
        assert_ne!(rp.site, victim.site);
        let row = s.db.get::<JobRow>(victim.job.as_key()).unwrap();
        assert_eq!(row.attempts, 2);
    }

    #[test]
    fn policy_constraints_restrict_sites() {
        let dag = small_dag(5);
        let mut s = SphinxServer::new(
            Arc::new(Database::in_memory()),
            catalog(3, 4),
            ServerConfig {
                strategy: StrategyKind::RoundRobin,
                feedback: false,
                policy_enabled: true,
                archive_site: None,
                score_cache: true,
                ops_fast_path: false,
            },
        );
        s.policy_mut()
            .add_user(UserId(1), sphinx_policy::VoId(0), 1);
        // Quota only at site 2.
        s.policy_mut()
            .grant(UserId(1), SiteId(2), Requirement::new(1_000_000, 1_000_000));
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.site == SiteId(2)));
        assert!(s.policy().outstanding_reservations() > 0);
    }

    #[test]
    fn user_without_quota_gets_no_plans() {
        let dag = small_dag(6);
        let mut s = SphinxServer::new(
            Arc::new(Database::in_memory()),
            catalog(2, 4),
            ServerConfig {
                strategy: StrategyKind::RoundRobin,
                feedback: false,
                policy_enabled: true,
                archive_site: None,
                score_cache: true,
                ops_fast_path: false,
            },
        );
        s.submit_dag(&dag, UserId(9), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        assert!(plans.is_empty());
    }

    #[test]
    fn recovery_resets_inflight_and_keeps_finished() {
        let dag = small_dag(7);
        let wal = sphinx_db::MemWal::shared();
        let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
        let mut s = SphinxServer::new(db, catalog(3, 4), ServerConfig::default());
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let model = TransferModel::default();
        let plans = s
            .plan_cycle(SimTime::ZERO, &mut rls, &BTreeMap::new(), &model)
            .unwrap();
        assert!(!plans.is_empty());
        // Complete exactly one job, leave the rest in flight; then crash.
        let done = plans[0].clone();
        rls.register(done.output.file.clone(), done.site);
        s.handle_report(
            StatusReport::Completed {
                job: done.job,
                site: done.site,
                total: Duration::from_secs(90),
                exec: Duration::from_secs(60),
                idle: Duration::from_secs(10),
            },
            SimTime::from_secs(90),
        )
        .unwrap();
        drop(s); // crash

        let recovered_db = Arc::new(Database::recover(Box::new(wal)).unwrap());
        let mut s2 = SphinxServer::recover(
            recovered_db,
            catalog(3, 4),
            ServerConfig::default(),
            SimTime::from_secs(95),
        )
        .unwrap();
        // The finished job stayed finished; in-flight ones are replanned.
        let row = s2.db.get::<JobRow>(done.job.as_key()).unwrap();
        assert_eq!(row.state, JobState::Finished);
        let replans = s2
            .plan_cycle(SimTime::from_secs(100), &mut rls, &BTreeMap::new(), &model)
            .unwrap();
        // Every in-flight job is replanned (plus any children the one
        // completion made ready); the finished job is not.
        assert!(replans.len() >= plans.len() - 1);
        assert!(replans.iter().all(|p| p.job != done.job));
        // Reliability stats survived the crash.
        assert_eq!(s2.reliability().total_completed(), 1);
        assert_eq!(s2.prediction().samples(done.site), 1);
    }

    #[test]
    fn duplicate_completion_reports_are_idempotent() {
        let dag = small_dag(8);
        let mut s = server(StrategyKind::RoundRobin);
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        let p = plans[0].clone();
        let report = StatusReport::Completed {
            job: p.job,
            site: p.site,
            total: Duration::from_secs(100),
            exec: Duration::from_secs(60),
            idle: Duration::from_secs(20),
        };
        s.handle_report(report.clone(), SimTime::from_secs(100))
            .unwrap();
        s.handle_report(report, SimTime::from_secs(101)).unwrap();
        assert_eq!(s.reliability().total_completed(), 1);
        assert_eq!(s.prediction().samples(p.site), 1);
    }

    #[test]
    fn higher_priority_users_plan_first() {
        let dag_low = small_dag(30);
        let mut dag_high = small_dag(31);
        dag_high.id = sphinx_dag::DagId(1);
        for (i, j) in dag_high.jobs.iter_mut().enumerate() {
            j.id = JobId::new(dag_high.id, i as u32);
        }
        let mut s = server(StrategyKind::RoundRobin);
        s.policy_mut()
            .add_user(UserId(1), sphinx_policy::VoId(0), 1);
        s.policy_mut()
            .add_user(UserId(2), sphinx_policy::VoId(0), 50);
        s.submit_dag(&dag_low, UserId(1), SimTime::ZERO).unwrap();
        s.submit_dag(&dag_high, UserId(2), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag_low);
        for f in dag_high.external_inputs() {
            rls.register(f, SiteId(0));
        }
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        let first_low = plans
            .iter()
            .position(|p| p.job.dag == dag_low.id)
            .unwrap_or(plans.len());
        let last_high = plans
            .iter()
            .rposition(|p| p.job.dag == dag_high.id)
            .expect("high-priority jobs planned");
        assert!(last_high < first_low, "priority 50 plans before priority 1");
    }

    #[test]
    fn deadline_dags_plan_first_and_get_the_fast_lane() {
        let dag_slow = small_dag(20);
        let mut dag_urgent = small_dag(21);
        dag_urgent.id = sphinx_dag::DagId(1);
        for (i, j) in dag_urgent.jobs.iter_mut().enumerate() {
            j.id = JobId::new(dag_urgent.id, i as u32);
        }
        let mut s = server(StrategyKind::CompletionTime);
        // Teach the prediction module which site is fastest.
        s.sched
            .prediction
            .record(SiteId(1), sphinx_sim::Duration::from_secs(50));
        s.sched
            .prediction
            .record(SiteId(0), sphinx_sim::Duration::from_secs(500));
        s.sched
            .prediction
            .record(SiteId(2), sphinx_sim::Duration::from_secs(500));
        s.submit_dag(&dag_slow, UserId(1), SimTime::ZERO).unwrap();
        s.submit_dag_with_deadline(
            &dag_urgent,
            UserId(1),
            SimTime::ZERO,
            Some(SimTime::from_secs(600)),
        )
        .unwrap();
        let mut rls = seeded_rls(&dag_slow);
        for f in dag_urgent.external_inputs() {
            rls.register(f, SiteId(0));
        }
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        // Urgent jobs are planned before deadline-free ones (EDF)…
        let first_non_urgent = plans
            .iter()
            .position(|p| p.job.dag == dag_slow.id)
            .unwrap_or(plans.len());
        let last_urgent = plans
            .iter()
            .rposition(|p| p.job.dag == dag_urgent.id)
            .expect("urgent jobs planned");
        assert!(
            last_urgent < first_non_urgent,
            "EDF: urgent before deadline-free"
        );
        // …and the fast site is reserved for them.
        for p in &plans {
            if p.job.dag == dag_slow.id {
                assert_ne!(p.site, SiteId(1), "fast lane leaked to {:?}", p.job);
            }
        }
    }

    #[test]
    fn queued_and_running_reports_advance_state() {
        let dag = small_dag(9);
        let mut s = server(StrategyKind::RoundRobin);
        s.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
        let mut rls = seeded_rls(&dag);
        let plans = s
            .plan_cycle(
                SimTime::ZERO,
                &mut rls,
                &BTreeMap::new(),
                &TransferModel::default(),
            )
            .unwrap();
        let p = &plans[0];
        s.handle_report(
            StatusReport::Queued {
                job: p.job,
                site: p.site,
            },
            SimTime::from_secs(10),
        )
        .unwrap();
        assert_eq!(
            s.db.get::<JobRow>(p.job.as_key()).unwrap().state,
            JobState::Queued
        );
        s.handle_report(
            StatusReport::Running {
                job: p.job,
                site: p.site,
            },
            SimTime::from_secs(20),
        )
        .unwrap();
        assert_eq!(
            s.db.get::<JobRow>(p.job.as_key()).unwrap().state,
            JobState::Running
        );
    }
}
