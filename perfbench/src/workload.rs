//! The benchmark's named workloads, each a batch run to completion.
//!
//! Every DAG is submitted at simulation time 0, so a workload has no
//! arrival process: the scheduler is handed the whole batch and the run
//! ends when the last DAG finishes. Inputs come only from the seed.

use sphinx_core::shard::{CrashPoint, ShardConfig, ShardCrash};
use sphinx_data::SiteId;
use sphinx_grid::SiteSpec;
use sphinx_ops::OpsConfig;
use sphinx_workloads::{grid3, FaultPlan, Scenario};

/// Names accepted by `--workload`, in the order the docs list them.
pub const NAMES: [&str; 3] = ["scale-10k", "grid3-faults", "shard-failover"];

/// How the scheduler is deployed for a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Deployment {
    /// One `SphinxRuntime` over a WAL-backed in-memory database.
    Unsharded,
    /// A `ShardedRuntime` with a scheduled shard crash.
    Sharded {
        /// Scheduler shards.
        shards: usize,
        /// The crash every run injects.
        crash: ShardCrash,
    },
}

/// Which site catalog a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sites {
    /// `n` healthy sites cycling the Grid3 pattern, background load off.
    Scaled(u32),
    /// The paper's 15-site Grid3 catalog with background load.
    Grid3,
}

/// One named workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The site catalog.
    pub sites: Sites,
    /// Fault injection on the sites.
    pub faults: FaultPlan,
    /// DAGs submitted.
    pub dags: u32,
    /// Jobs per DAG.
    pub jobs_per_dag: u32,
    /// Run the live ops plane every planner cycle.
    pub ops: bool,
    /// How the scheduler is deployed.
    pub deployment: Deployment,
    /// Distinct scenario seeds one benchmark run covers, so that its
    /// simulated metrics average over fault placements and DAG shapes
    /// rather than resting on one draw.
    pub seeds_per_run: u32,
}

impl Workload {
    /// The workload called `name`, at full size.
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            "scale-10k" => Workload {
                name: "scale-10k",
                sites: Sites::Scaled(120),
                faults: FaultPlan::none(),
                dags: 200,
                jobs_per_dag: 50,
                ops: false,
                deployment: Deployment::Unsharded,
                seeds_per_run: 4,
            },
            "grid3-faults" => Workload {
                name: "grid3-faults",
                sites: Sites::Grid3,
                faults: FaultPlan::grid3_typical(),
                dags: 12,
                jobs_per_dag: 500,
                ops: true,
                deployment: Deployment::Unsharded,
                seeds_per_run: 8,
            },
            "shard-failover" => Workload {
                name: "shard-failover",
                sites: Sites::Scaled(60),
                faults: FaultPlan::none(),
                dags: 100,
                jobs_per_dag: 50,
                ops: false,
                deployment: Deployment::Sharded {
                    shards: 4,
                    crash: ShardCrash {
                        shard: 1,
                        at_cycle: 40,
                        point: CrashPoint::TornWal,
                    },
                },
                seeds_per_run: 6,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The same shape at a size small enough for unit tests: fewer sites
    /// and DAGs, same faults, ops and deployment. The shard crash moves
    /// earlier so it still lands mid-run.
    pub fn tiny(mut self) -> Workload {
        self.sites = match self.sites {
            Sites::Scaled(_) => Sites::Scaled(8),
            Sites::Grid3 => Sites::Grid3,
        };
        self.dags = self.dags.min(8);
        self.jobs_per_dag = self.jobs_per_dag.min(20);
        if let Deployment::Sharded { crash, .. } = &mut self.deployment {
            crash.at_cycle = 4;
        }
        self
    }

    /// Jobs submitted by one run.
    pub fn jobs(&self) -> u64 {
        u64::from(self.dags) * u64::from(self.jobs_per_dag)
    }

    /// Whether every submitted job must complete (no job may be
    /// eliminated or left behind) for the run to count as correct.
    pub fn expects_every_job_completed(&self) -> bool {
        self.faults == FaultPlan::none()
    }

    /// The scenario one run builds from `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let sites = match self.sites {
            Sites::Scaled(n) => scaled_catalog(n),
            Sites::Grid3 => grid3::catalog(),
        };
        let mut builder = Scenario::builder()
            .sites(sites)
            .faults(self.faults.clone())
            .dags(self.dags, self.jobs_per_dag)
            .seed(seed);
        if self.ops {
            builder = builder.ops(OpsConfig::default());
        }
        builder.build()
    }

    /// The shard configuration of a sharded workload.
    pub fn shard_config(&self) -> Option<ShardConfig> {
        match &self.deployment {
            Deployment::Unsharded => None,
            Deployment::Sharded { shards, crash } => Some(ShardConfig {
                shards: *shards,
                crashes: vec![*crash],
                ..ShardConfig::default()
            }),
        }
    }
}

/// A catalog of `n` healthy sites: the Grid3 pattern cycled with fresh
/// ids and background load off (the scale sweep's catalog).
pub fn scaled_catalog(n: u32) -> Vec<SiteSpec> {
    let pattern = grid3::catalog_with_background(false);
    (0..n)
        .map(|i| {
            let proto = &pattern[i as usize % pattern.len()];
            let mut site = proto.clone();
            site.id = SiteId(i);
            if i as usize >= pattern.len() {
                site.name = format!("{}-{}", proto.name, i as usize / pattern.len());
            }
            site
        })
        .collect()
}
