//! Sharded multi-scheduler deployment with lease/epoch failover.
//!
//! The paper's §3.1 describes SPHINX as "a system of agents communicating
//! exclusively through database tables", and observes that this makes the
//! scheduling tier horizontally scalable: several server processes can
//! divide the DAG space between them as long as every coordination fact —
//! liveness, epoch, grid-quota accounting — is itself a table. This module
//! is that deployment, simulated: [`ShardedRuntime`] runs N
//! [`SphinxServer`]s over a deterministic hash partition of DAG ids, each
//! shard owning its **own WAL-backed database namespace**, all of them
//! planning against one shared [`SchedulerState`] (grid truth must be
//! global — see that type's docs) and coordinating only through tables on
//! a shared coordination database:
//!
//! * **Lease table** ([`LeaseRow`]) — every shard heartbeats a sim-time
//!   row each planner cycle. A row whose heartbeat is older than
//!   [`ShardConfig::lease_ttl`] marks a dead shard.
//! * **Epoch table** ([`EpochRow`]) — a single monotone counter bumped at
//!   every adoption, so late messages from a previous epoch are
//!   distinguishable in the trace.
//! * **Quota-lease ledger** ([`SiteLeaseRow`]) — per-site grid capacity
//!   debited at submission, once under the owning shard's namespace and
//!   once in a global accounting row; the invariant `global == Σ shards`
//!   is what the fairness tests check, and folding a dead shard's rows
//!   into its adopter's keeps it through failover.
//!
//! **Failover.** When a lease expires, the lowest-numbered surviving shard
//! adopts the dead shard's DAGs by recovering the dead shard's WAL
//! segment ([`SphinxServer::adopt_from`]), re-delivering its un-acked
//! reports, and reconciling in-flight attempts against the client tracker
//! — the one component the paper keeps *outside* the server precisely so
//! it survives server deaths ([`SphinxServer::reconcile_inflight`]).
//!
//! **One loop.** [`ShardedRuntime`] is the same [`Runtime`] event loop as
//! the unsharded [`SphinxRuntime`], over the [`ShardSet`] scheduler tier
//! instead of a single server. The loop owns the grid, monitor, client,
//! ops plane, wakeups, planner-tick skeleton (track → plan → submit → ops
//! → reschedule) and report assembly; the tier adds only what is truly
//! sharded — routing with at-least-once delivery, the lease heartbeat and
//! adoption, the quota-ledger debit, the [`CrashPoint`] hooks and the
//! coordination hub. Planning is the one plan pass every deployment uses,
//! run over all live shards at once.
//!
//! **Determinism.** A crash-free run is invariant to the shard count:
//! DAG reduction, planning and report handling all happen in a global
//! deterministic order (dag-id order, sorted ready entries, inbox
//! sequence order), and per-cycle telemetry is emitted once per *global*
//! cycle. Crash runs are reproducible: the same seed and the same
//! [`ShardCrash`] schedule give the same report, byte for byte.
//!
//! A one-shard run and the unsharded runtime produce the same trace, span
//! forest and post-run analysis, byte for byte. Their [`RunReport`]s
//! differ in exactly two places: the `db.*`/`wal.*` counters are on the
//! coordination hub here, not in the report's telemetry, and per-site
//! `avg_completion_secs` comes from the global prediction ledger's mean
//! rather than the unsharded statistics row's sum ÷ count, so the two can
//! differ in the last bits.
//!
//! [`Runtime`]: crate::runtime::Runtime
//! [`SphinxRuntime`]: crate::runtime::SphinxRuntime
//! [`RunReport`]: crate::RunReport

use crate::client::SphinxClient;
use crate::error::{CoreError, CoreResult};
use crate::messages::{PlanNotice, StatusReport};
use crate::runtime::{Runtime, RuntimeConfig, SchedulerTier};
use crate::server::{plan_pass, SchedulerState, ServerSet, ServerStats, SphinxServer};
use crate::state::SiteStatsRow;
use crate::strategy::SiteInfo;
use serde::{Deserialize, Serialize};
use sphinx_dag::{Dag, DagId};
use sphinx_data::{ReplicaService, SiteId, TransferModel};
use sphinx_db::{Database, DbConfig, MemWal, Queue, Record};
use sphinx_grid::GridSim;
use sphinx_monitor::Report;
use sphinx_policy::{PolicyEngine, UserId};
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::{Telemetry, TraceKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// SplitMix64 finalizer: the DAG-id partition hash. Chosen because it is
/// trivially portable (the partition must be identical on every shard and
/// every run) and avalanches well enough that consecutive DAG ids spread
/// across shards.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of the sharded deployment (on top of a [`RuntimeConfig`]).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of scheduler shards.
    pub shards: usize,
    /// Salt mixed into the partition hash (vary to test partition
    /// independence without changing anything else).
    pub partition_salt: u64,
    /// Explicit DAG-id → slot overrides (tests use this to prove results
    /// are invariant to the partition map). Slots are taken modulo the
    /// shard count.
    pub assignments: Option<BTreeMap<u64, usize>>,
    /// Heartbeat lease time-to-live: a shard whose lease row is older
    /// than this is declared dead and its DAGs are adopted.
    pub lease_ttl: Duration,
    /// Crash schedule for fault-injection experiments.
    pub crashes: Vec<ShardCrash>,
    /// Database behaviour of every per-shard store (checkpoint policy
    /// bounds adoption replay length).
    pub db_config: DbConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            partition_salt: 0,
            assignments: None,
            lease_ttl: Duration::from_secs(60),
            crashes: Vec::new(),
            db_config: DbConfig::default(),
        }
    }
}

/// One scheduled shard crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrash {
    /// Which shard dies.
    pub shard: usize,
    /// During which global planner cycle (0-based).
    pub at_cycle: u64,
    /// Where inside the cycle the crash lands.
    pub point: CrashPoint,
}

/// Where inside a planner cycle a [`ShardCrash`] strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Cleanly between cycles: the shard's last WAL line is intact.
    BeforeTick,
    /// After the shard's k-th `plan_one` call of the cycle: plan rows for
    /// already-planned jobs are committed, but none of this cycle's plans
    /// reach the grid — the submitted-but-never-tracked torn shape.
    MidPlan(usize),
    /// At the end of the cycle, tearing the shard's final WAL line — the
    /// mid-append torn shape recovery must discard and repair.
    TornWal,
}

/// The retained WAL segments of every shard, indexed by shard id. Only the
/// adoption path may read another shard's segment; the `shard-wal-read`
/// lint enforces that every [`ShardWalSet::segment_of`] call site is
/// explicitly annotated.
#[derive(Debug, Default)]
struct ShardWalSet {
    segments: Vec<MemWal>,
}

impl ShardWalSet {
    fn register(&mut self, wal: MemWal) {
        self.segments.push(wal);
    }

    /// The shared WAL segment of one shard (the crash-adoption read).
    // sphinx-lint: allow(shard-wal-read)
    fn segment_of(&self, shard: usize) -> Option<MemWal> {
        self.segments.get(shard).cloned()
    }

    /// Simulate an OS-level torn final append on one shard's segment.
    fn tear_tail(&self, shard: usize) {
        if let Some(wal) = self.segments.get(shard) {
            wal.tear_last_line();
        }
    }
}

/// Liveness lease of one shard: heartbeat + epoch, stored on the shared
/// coordination database (the only channel shards may share).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LeaseRow {
    shard: u64,
    epoch: u64,
    last_heartbeat: SimTime,
    alive: bool,
}

impl Record for LeaseRow {
    const TABLE: &'static str = "shard_leases";
    fn key(&self) -> u64 {
        self.shard
    }
}

/// The deployment-wide epoch, bumped at every adoption.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EpochRow {
    id: u64,
    epoch: u64,
}

impl Record for EpochRow {
    const TABLE: &'static str = "shard_epoch";
    fn key(&self) -> u64 {
        self.id
    }
}

/// Per-site quota-lease accounting: grid capacity a shard has debited at
/// submission time. Written twice per plan — once under the owning
/// shard's namespace, once to the global (un-namespaced) row — so the
/// cross-shard fairness invariant `global == Σ shards` is checkable from
/// the tables alone.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteLeaseRow {
    /// The grid site.
    pub site: u32,
    /// CPU-seconds debited against this site.
    pub cpu_seconds: u64,
    /// Jobs planned onto this site.
    pub jobs: u64,
}

impl Record for SiteLeaseRow {
    const TABLE: &'static str = "site_leases";
    fn key(&self) -> u64 {
        self.site as u64
    }
}

/// What one adoption did (the failover audit record).
#[derive(Debug, Clone)]
pub struct AdoptionRecord {
    /// The shard whose lease expired.
    pub dead: usize,
    /// The surviving shard that adopted its DAGs (lowest surviving id).
    pub adopter: usize,
    /// The deployment epoch after the adoption.
    pub epoch: u64,
    /// WAL lines replayed to recover the dead shard's database.
    pub replayed: u64,
    /// The adopted DAG ids, in id order.
    pub dags: Vec<DagId>,
    /// In-flight attempts reset to `Ready` (planned but never reached the
    /// grid).
    pub reset: u64,
    /// Rows re-advanced to `Submitted` (reached the grid but the row
    /// update was torn off the WAL).
    pub repaired: u64,
    /// Reports re-delivered from the dead shard's un-acked inbox and the
    /// coordinator's orphan buffer.
    pub redelivered: u64,
}

/// The sharded scheduler tier: N [`SphinxServer`]s over a partitioned DAG
/// space, one shared [`SchedulerState`], and the coordination tables.
///
/// It implements only what is truly sharded — report routing with
/// at-least-once delivery, lease heartbeat and adoption, the quota-ledger
/// debit, the crash hooks and the coordination hub; the event loop, the
/// plan pass and the report are the ones [`SphinxRuntime`] uses.
///
/// [`SphinxRuntime`]: crate::runtime::SphinxRuntime
pub struct ShardSet {
    /// Coordination database: global message queues, lease/epoch tables,
    /// quota-lease ledger. *Not* WAL-backed — it stands in for the
    /// paper's central DBMS, which is assumed durable.
    coord_db: Arc<Database>,
    /// One server per shard, each over its own WAL-backed database;
    /// `None` marks a crashed shard.
    shards: Vec<Option<SphinxServer>>,
    wals: ShardWalSet,
    /// The one global planning state (see [`SchedulerState`]).
    sched: SchedulerState,
    shard_config: ShardConfig,
    /// Run-comparable telemetry: grid, monitor, servers, per-cycle
    /// planner events. Invariant to the shard count on crash-free runs.
    report_hub: Arc<Telemetry>,
    /// Coordination telemetry: WAL/db activity, leases, heartbeats,
    /// adoptions. Varies with the shard count by construction, so it is
    /// kept off the [`RunReport`](crate::RunReport).
    coord_hub: Arc<Telemetry>,
    /// Global planner cycles completed.
    cycle: u64,
    /// `plan_one` calls per shard in the current cycle (what a
    /// [`CrashPoint::MidPlan`] counts).
    plan_calls: Vec<usize>,
    epoch: u64,
    submitted_dags: u64,
    /// Partition slot → currently owning shard (identity until failovers
    /// remap dead slots to adopters).
    remap: Vec<usize>,
    /// Reports routed to a dead, not-yet-adopted shard; re-delivered at
    /// adoption.
    orphans: Vec<StatusReport>,
    adoptions: Vec<AdoptionRecord>,
    /// Precomputed `shard{i}` namespace names, so per-plan ledger writes
    /// address the coordination db without formatting a fresh String.
    ns_names: Vec<String>,
}

impl ShardSet {
    fn new(catalog: Vec<SiteInfo>, config: &RuntimeConfig, shard_config: ShardConfig) -> Self {
        let n = shard_config.shards.max(1);
        let report_hub = Arc::new(Telemetry::with_config(config.telemetry.clone()));
        let coord_hub = Arc::new(Telemetry::with_config(config.telemetry.clone()));
        let coord_db = Arc::new(Database::in_memory());
        coord_db.attach_telemetry(Arc::clone(&coord_hub));
        let mut wals = ShardWalSet::default();
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let wal = MemWal::shared();
            wals.register(wal.clone());
            let db = Arc::new(Database::with_wal_and_config(
                Box::new(wal),
                shard_config.db_config,
            ));
            db.attach_telemetry(Arc::clone(&coord_hub));
            let mut server = SphinxServer::new(db, catalog.clone(), config.server_config());
            server.set_telemetry(Arc::clone(&report_hub));
            shards.push(Some(server));
        }
        ShardSet {
            coord_db,
            shards,
            wals,
            sched: SchedulerState::default(),
            shard_config,
            report_hub,
            coord_hub,
            cycle: 0,
            plan_calls: vec![0; n],
            epoch: 0,
            submitted_dags: 0,
            remap: (0..n).collect(),
            orphans: Vec::new(),
            adoptions: Vec::new(),
            ns_names: (0..n).map(|i| format!("shard{i}")).collect(),
        }
    }

    /// Crash every shard scheduled for (`cycle`, `point`).
    fn apply_crashes(&mut self, point: CrashPoint) {
        let cycle = self.cycle;
        let due: Vec<usize> = self
            .shard_config
            .crashes
            .iter()
            .filter(|c| c.at_cycle == cycle && c.point == point)
            .map(|c| c.shard)
            .collect();
        for shard in due {
            self.crash_shard(shard, point == CrashPoint::TornWal);
        }
    }

    fn crash_shard(&mut self, i: usize, torn: bool) {
        if let Some(slot) = self.shards.get_mut(i) {
            if slot.take().is_some() {
                self.coord_hub.counter_add("shard.crashes", 1);
                if torn {
                    self.wals.tear_tail(i);
                }
            }
        }
    }

    /// Adopt a dead shard's DAGs into the lowest surviving shard.
    ///
    /// Order matters and is load-bearing:
    ///
    /// 1. Recover the dead shard's WAL segment and copy its rows
    ///    ([`SphinxServer::adopt_from`] — in-flight attempts stay in
    ///    flight, because the grid and tracker survived).
    /// 2. Re-deliver its un-acked local inbox, then the coordinator's
    ///    orphaned reports for the adopted DAGs. This must precede step 3:
    ///    a completion that arrived while the shard was dead removed the
    ///    job from the tracker, and reconciling first would misread that
    ///    as planned-but-never-submitted and double-submit the job.
    /// 3. Reconcile remaining in-flight rows against the tracker
    ///    ([`SphinxServer::reconcile_inflight`]).
    /// 4. Fold the dead shard's quota-lease ledger into the adopter's and
    ///    remap the dead partition slots.
    fn adopt(&mut self, dead: usize, client: &SphinxClient, now: SimTime) -> CoreResult<()> {
        let Some(adopter) = self.shards.iter().position(|s| s.is_some()) else {
            return Ok(()); // no survivors; the run will report unfinished
        };
        // sphinx-lint: allow(shard-wal-read)
        let Some(segment) = self.wals.segment_of(dead) else {
            return Ok(());
        };
        let donor = Database::recover_with_config(Box::new(segment), self.shard_config.db_config)?;
        let replayed = donor.replayed();
        self.epoch += 1;
        let epoch = self.epoch;
        self.coord_db.update::<EpochRow>(0, |e| e.epoch = epoch)?;
        let mut record = AdoptionRecord {
            dead,
            adopter,
            epoch,
            replayed,
            dags: Vec::new(),
            reset: 0,
            repaired: 0,
            redelivered: 0,
        };
        let orphans = std::mem::take(&mut self.orphans);
        let mut kept = Vec::new();
        {
            let ShardSet {
                shards,
                sched,
                ns_names,
                ..
            } = &mut *self;
            let Some(server) = shards.get_mut(adopter).and_then(|s| s.as_mut()) else {
                self.orphans = orphans;
                return Ok(());
            };
            record.dags = server.adopt_from(&donor, now)?;
            let adopted: BTreeSet<DagId> = record.dags.iter().copied().collect();
            // Un-acked reports the dead shard pushed to its local inbox
            // but crashed before acknowledging (at-least-once delivery;
            // the FSA guards make re-handling idempotent).
            let adopter_ns = ns_of(ns_names, adopter);
            let pending: Queue<StatusReport> =
                Queue::namespaced(&donor, ns_of(ns_names, dead), "inbox");
            for report in pending.peek_all()? {
                deliver_at_least_once(server, adopter_ns, sched, report, now)?;
                record.redelivered += 1;
            }
            for report in orphans {
                if adopted.contains(&report.job().dag) {
                    deliver_at_least_once(server, adopter_ns, sched, report, now)?;
                    record.redelivered += 1;
                } else {
                    kept.push(report);
                }
            }
            let tracked = client.tracked_jobs();
            let (reset, repaired) =
                server.reconcile_inflight(sched, &record.dags, &tracked, now)?;
            record.reset = reset;
            record.repaired = repaired;
        }
        self.orphans = kept;
        self.fold_ledger(dead, adopter)?;
        for slot in self.remap.iter_mut() {
            if *slot == dead {
                *slot = adopter;
            }
        }
        self.coord_hub.counter_add("shard.adoptions", 1);
        self.coord_hub.trace(
            TraceKind::ShardAdoption,
            now,
            None,
            None,
            format!(
                "dead={dead} adopter={adopter} epoch={epoch} dags={} replayed={replayed}",
                record.dags.len()
            ),
        );
        self.adoptions.push(record);
        Ok(())
    }

    /// Fold a dead shard's ledger rows into its adopter's (merge-add,
    /// then delete), preserving `global == Σ shards` through failover.
    fn fold_ledger(&self, dead: usize, adopter: usize) -> CoreResult<()> {
        let from = self.coord_db.namespace_ref(ns_of(&self.ns_names, dead));
        let to = self.coord_db.namespace_ref(ns_of(&self.ns_names, adopter));
        for row in from.scan::<SiteLeaseRow>()? {
            let key = row.site as u64;
            if !to.contains::<SiteLeaseRow>(key) {
                to.put(&SiteLeaseRow {
                    site: row.site,
                    ..SiteLeaseRow::default()
                })?;
            }
            to.update::<SiteLeaseRow>(key, |l| {
                l.cpu_seconds += row.cpu_seconds;
                l.jobs += row.jobs;
            })?;
            from.delete::<SiteLeaseRow>(key)?;
        }
        Ok(())
    }
}

impl SchedulerTier for ShardSet {
    fn telemetry(&self) -> &Arc<Telemetry> {
        &self.report_hub
    }

    /// The global queues live on the coordination database.
    fn queues(&self) -> &Arc<Database> {
        &self.coord_db
    }

    fn policy_mut(&mut self) -> &mut PolicyEngine {
        &mut self.sched.policy
    }

    /// Route the DAG to its partition owner.
    fn submit(
        &mut self,
        dag: &Dag,
        user: UserId,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> CoreResult<()> {
        let owner = self.owner_of(dag.id);
        let Some(server) = self.shards.get_mut(owner).and_then(|s| s.as_mut()) else {
            return Err(CoreError::Invariant(
                "dag routed to a dead, unadopted shard",
            ));
        };
        server.submit_dag_with_deadline(dag, user, now, deadline)?;
        self.submitted_dags += 1;
        Ok(())
    }

    /// A dead shard's finished DAGs stop counting until adopted, which is
    /// what keeps the event loop driving through a failover.
    fn all_finished(&self) -> bool {
        if self.submitted_dags == 0 {
            return false;
        }
        let finished: u64 = self.shards.iter().flatten().map(|s| s.progress().1).sum();
        finished == self.submitted_dags
    }

    /// Write the epoch row and grant every shard its lease.
    fn first_drive(&mut self, now: SimTime) -> CoreResult<()> {
        self.coord_db.put(&EpochRow { id: 0, epoch: 0 })?;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.is_some() {
                self.coord_db.put(&LeaseRow {
                    shard: i as u64,
                    epoch: 0,
                    last_heartbeat: now,
                    alive: true,
                })?;
                self.coord_hub.counter_add("shard.leases.granted", 1);
                self.coord_hub.trace(
                    TraceKind::LeaseGranted,
                    now,
                    None,
                    None,
                    format!("shard={i} epoch=0"),
                );
            }
        }
        Ok(())
    }

    fn begin_tick(&mut self) {
        self.plan_calls.fill(0);
        self.apply_crashes(CrashPoint::BeforeTick);
    }

    /// Route one report to the shard owning its DAG, or park it in the
    /// orphan buffer if that shard is dead and not yet adopted.
    fn deliver(&mut self, report: StatusReport, now: SimTime) -> CoreResult<()> {
        let owner = self.owner_of(report.job().dag);
        let ShardSet {
            shards,
            sched,
            ns_names,
            orphans,
            ..
        } = self;
        match shards.get_mut(owner).and_then(|s| s.as_mut()) {
            Some(server) => {
                deliver_at_least_once(server, ns_of(ns_names, owner), sched, report, now)
            }
            None => {
                orphans.push(report);
                Ok(())
            }
        }
    }

    /// Heartbeat every live shard's lease, then expire stale leases and
    /// adopt their DAGs. Detection is purely table-driven: a shard is
    /// dead *because* its lease row went stale, not because anyone saw it
    /// die.
    fn after_track(&mut self, client: &SphinxClient, now: SimTime) -> CoreResult<()> {
        let epoch = self.epoch;
        let alive: Vec<u64> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u64))
            .collect();
        self.coord_hub
            .counter_add("shard.heartbeats", alive.len() as u64);
        for shard in alive {
            self.coord_db.update::<LeaseRow>(shard, |l| {
                l.last_heartbeat = now;
                l.epoch = epoch;
            })?;
        }
        let ttl = self.shard_config.lease_ttl;
        let expired: Vec<u64> = self
            .coord_db
            .scan::<LeaseRow>()?
            .into_iter()
            .filter(|l| l.alive && now > l.last_heartbeat + ttl)
            .map(|l| l.shard)
            .collect();
        for dead in expired {
            self.coord_db
                .update::<LeaseRow>(dead, |l| l.alive = false)?;
            self.coord_hub.counter_add("shard.leases.expired", 1);
            self.coord_hub.trace(
                TraceKind::LeaseExpired,
                now,
                None,
                None,
                format!("shard={dead}"),
            );
            self.adopt(dead as usize, client, now)?;
        }
        Ok(())
    }

    fn plan_ready(
        &mut self,
        now: SimTime,
        rls: &mut ReplicaService,
        reports: &BTreeMap<SiteId, Report>,
        transfers: &TransferModel,
    ) -> CoreResult<Vec<PlanNotice>> {
        let mut sched = std::mem::take(&mut self.sched);
        let hub = Arc::clone(&self.report_hub);
        let result = plan_pass(self, &mut sched, &hub, now, rls, reports, transfers);
        self.sched = sched;
        result
    }

    /// Debit one plan against the quota-lease ledger: the owning shard's
    /// namespaced row and the global accounting row move together.
    fn debit(&self, plan: &PlanNotice) -> CoreResult<()> {
        let site = plan.site.0;
        let key = site as u64;
        let cpu = plan.compute.as_secs_f64().ceil() as u64;
        let owner = self.owner_of(plan.job.dag);
        let ns = self.coord_db.namespace_ref(ns_of(&self.ns_names, owner));
        if !ns.contains::<SiteLeaseRow>(key) {
            ns.put(&SiteLeaseRow {
                site,
                ..SiteLeaseRow::default()
            })?;
        }
        ns.update::<SiteLeaseRow>(key, |l| {
            l.cpu_seconds += cpu;
            l.jobs += 1;
        })?;
        if !self.coord_db.contains::<SiteLeaseRow>(key) {
            self.coord_db.put(&SiteLeaseRow {
                site,
                ..SiteLeaseRow::default()
            })?;
        }
        self.coord_db.update::<SiteLeaseRow>(key, |l| {
            l.cpu_seconds += cpu;
            l.jobs += 1;
        })?;
        Ok(())
    }

    fn apply_ops_flag(&mut self, site: SiteId, now: SimTime) {
        if let Some(server) = self.shards.iter().flatten().next() {
            server.apply_ops_flag_shared(&mut self.sched, site, now);
        }
    }

    /// Tear the final WAL line of any shard scheduled to die mid-append.
    fn end_tick(&mut self) {
        self.apply_crashes(CrashPoint::TornWal);
        self.cycle += 1;
    }

    fn servers(&self) -> Vec<&SphinxServer> {
        self.shards.iter().flatten().collect()
    }

    fn stats(&self) -> ServerStats {
        self.sched.stats
    }

    /// The *global* prediction ledger's mean (accumulated in global report
    /// order), not a merge of per-shard float sums, so the average is
    /// invariant to the partition.
    fn site_average(&self, row: &SiteStatsRow) -> Option<f64> {
        self.sched.prediction.average(SiteId(row.site))
    }
}

impl ServerSet for ShardSet {
    fn slots(&self) -> usize {
        self.shards.len()
    }

    fn server(&self, i: usize) -> Option<&SphinxServer> {
        self.shards.get(i).and_then(Option::as_ref)
    }

    fn server_mut(&mut self, i: usize) -> Option<&mut SphinxServer> {
        self.shards.get_mut(i).and_then(Option::as_mut)
    }

    /// The DAG's partition slot — an explicit assignment if the config
    /// has one, else the salted SplitMix64 hash, so every run and every
    /// shard agrees on it — remapped through any completed failovers.
    fn owner_of(&self, dag: DagId) -> usize {
        let n = self.remap.len().max(1);
        let slot = match self
            .shard_config
            .assignments
            .as_ref()
            .and_then(|a| a.get(&dag.0))
        {
            Some(&s) => s % n,
            None => (splitmix64(dag.0 ^ self.shard_config.partition_salt) % n as u64) as usize,
        };
        self.remap.get(slot).copied().unwrap_or(0)
    }

    /// The shard dies with plan rows committed but none of this cycle's
    /// plans handed to the client: the planned-but-never-submitted torn
    /// shape.
    fn planned_one(&mut self, owner: usize) -> bool {
        let Some(calls) = self.plan_calls.get_mut(owner) else {
            return false;
        };
        *calls += 1;
        let k = *calls;
        let cycle = self.cycle;
        let due =
            self.shard_config.crashes.iter().any(|c| {
                c.shard == owner && c.at_cycle == cycle && c.point == CrashPoint::MidPlan(k)
            });
        if due {
            self.crash_shard(owner, false);
        }
        due
    }
}

/// N SPHINX servers over a partitioned DAG space, one grid, driven by the
/// same event loop as the unsharded [`SphinxRuntime`].
///
/// [`SphinxRuntime`]: crate::runtime::SphinxRuntime
pub type ShardedRuntime = Runtime<ShardSet>;

impl ShardedRuntime {
    /// Assemble a sharded deployment over a grid.
    pub fn new(grid: GridSim, config: RuntimeConfig, shard_config: ShardConfig) -> Self {
        let tier = ShardSet::new(SiteInfo::catalog(&grid), &config, shard_config);
        Runtime::assemble(grid, config, tier)
    }

    /// The shard currently owning a DAG id (its partition slot, remapped
    /// through any completed failovers).
    pub fn owner_of(&self, dag: DagId) -> usize {
        self.tier.owner_of(dag)
    }

    /// Number of shards still alive.
    pub fn alive_shards(&self) -> usize {
        self.tier.shards.iter().flatten().count()
    }

    /// The coordination telemetry hub (leases, heartbeats, adoptions,
    /// WAL/db activity).
    pub fn coord_telemetry(&self) -> &Arc<Telemetry> {
        &self.tier.coord_hub
    }

    /// Every adoption performed so far, in order.
    pub fn adoptions(&self) -> &[AdoptionRecord] {
        &self.tier.adoptions
    }

    /// The current deployment epoch (bumped once per adoption).
    pub fn epoch(&self) -> u64 {
        self.tier.epoch
    }

    /// The global quota-lease ledger rows, in site order.
    pub fn site_ledger(&self) -> CoreResult<Vec<SiteLeaseRow>> {
        Ok(self.tier.coord_db.scan::<SiteLeaseRow>()?)
    }

    /// One shard's quota-lease ledger rows, in site order.
    pub fn site_ledger_of(&self, shard: usize) -> CoreResult<Vec<SiteLeaseRow>> {
        Ok(self
            .tier
            .coord_db
            .namespace_ref(ns_of(&self.tier.ns_names, shard))
            .scan::<SiteLeaseRow>()?)
    }

    /// Submit a DAG on behalf of a user, routed to its partition owner.
    pub fn submit_dag(&mut self, dag: &Dag, user: UserId) -> CoreResult<()> {
        self.try_submit_dag(dag, user, None)
    }

    /// Submit a DAG with a QoS deadline relative to now.
    pub fn submit_dag_with_deadline(
        &mut self,
        dag: &Dag,
        user: UserId,
        within: Duration,
    ) -> CoreResult<()> {
        self.try_submit_dag(dag, user, Some(within))
    }
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("shards", &self.tier.shards.len())
            .field("alive", &self.alive_shards())
            .field("epoch", &self.tier.epoch)
            .field("now", &self.grid.now())
            .finish()
    }
}

/// The precomputed `shard{i}` namespace name. Shard indices are internal
/// and always in range; the fallback only guards against a future refactor
/// breaking that invariant without a panic path.
fn ns_of(ns_names: &[String], i: usize) -> &str {
    ns_names.get(i).map_or("shard-invalid", String::as_str)
}

/// Deliver one report to a shard with at-least-once semantics: push to the
/// shard's namespaced inbox table, handle, then acknowledge (pop). A crash
/// between push and ack leaves the report in the recovered inbox for the
/// adopter to re-deliver; the server's FSA guards make duplicate handling
/// a no-op.
fn deliver_at_least_once(
    server: &mut SphinxServer,
    ns: &str,
    sched: &mut SchedulerState,
    report: StatusReport,
    now: SimTime,
) -> CoreResult<()> {
    let db = Arc::clone(server.database());
    let inbox: Queue<StatusReport> = Queue::namespaced(&db, ns, "inbox");
    inbox.push(&report)?;
    server.handle_report_shared(sched, report, now)?;
    inbox.pop()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_partition_is_stable_and_spread() {
        let a: Vec<u64> = (0..16).map(|i| splitmix64(i) % 4).collect();
        let b: Vec<u64> = (0..16).map(|i| splitmix64(i) % 4).collect();
        assert_eq!(a, b);
        // Not all ids on one shard.
        let distinct: BTreeSet<u64> = a.iter().copied().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn wal_set_tear_is_bounds_checked() {
        let set = ShardWalSet::default();
        set.tear_tail(3); // no panic on unknown shard
        assert!(set.segment_of(0).is_none());
    }

    #[test]
    fn lease_rows_round_trip_through_tables() {
        let db = Database::in_memory();
        db.put(&LeaseRow {
            shard: 1,
            epoch: 0,
            last_heartbeat: SimTime::ZERO,
            alive: true,
        })
        .unwrap();
        db.update::<LeaseRow>(1, |l| l.alive = false).unwrap();
        let rows = db.scan::<LeaseRow>().unwrap();
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].alive);
    }

    #[test]
    fn ledger_rows_are_namespaced_per_shard() {
        let db = Database::in_memory();
        db.namespace("shard0")
            .put(&SiteLeaseRow {
                site: 7,
                cpu_seconds: 10,
                jobs: 1,
            })
            .unwrap();
        assert!(db.scan::<SiteLeaseRow>().unwrap().is_empty());
        assert_eq!(db.namespace("shard0").count::<SiteLeaseRow>(), 1);
        assert_eq!(db.namespace("shard1").count::<SiteLeaseRow>(), 0);
    }
}
