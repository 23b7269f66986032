//! Post-run span-graph analysis: critical paths, dwell blame, slow jobs.
//!
//! The instrumented pipeline leaves behind a span forest (see
//! [`crate::span`]): one `dag` root per workflow, one `job` span per
//! job, per-attempt and per-state child spans, and `link` edges that
//! record causality across subtrees — a job's first `state:ready` span
//! links to the job span whose completion made it ready, and a replan
//! `attempt` span links to the attempt it replaces.
//!
//! [`SpanGraph`] walks that forest to answer the question the flat
//! trace cannot: *why did DAG N finish when it did?* The critical path
//! of a DAG is recovered by starting from its last-finishing job and
//! following ready-cause links backwards to a root job; the chain's
//! state spans tile the makespan, each attributed to planner wait,
//! queue wait, execution, or fault recovery.
//!
//! [`SpanGraph::new`] indexes the forest in one pass; the scan-per-query
//! analyzer it replaced survives as a test-only oracle
//! (`crates/telemetry/tests/support/scan_oracle.rs`) that the property
//! and real-run tests compare against.
//!
//! Everything here is pure post-processing over an immutable span list:
//! deterministic input (same seed) gives identical [`TraceAnalysis`]
//! output, which `RunReport` carries and the determinism suite asserts.

use crate::span::{Span, SpanId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// DAG id component of a dense job key (see `sphinx_dag::JobId::as_key`).
pub fn job_key_dag(key: u64) -> u64 {
    key >> 24
}

/// Index component of a dense job key.
pub fn job_key_index(key: u64) -> u64 {
    key & 0x00FF_FFFF
}

/// Where one job's lifetime went, in sim-milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DwellBreakdown {
    /// Waiting for upstream jobs (`state:unready`).
    pub dependency_ms: u64,
    /// Ready and waiting for the planner's first placement
    /// (`state:ready` before any attempt).
    pub planner_ms: u64,
    /// Submitted/queued on the final, successful attempt.
    pub queue_ms: u64,
    /// Running on the final attempt.
    pub execution_ms: u64,
    /// Everything spent on failed attempts and post-fault re-readiness.
    pub fault_ms: u64,
}

impl DwellBreakdown {
    fn add(&mut self, category: &'static str, ms: u64) {
        match category {
            "dependencies" => self.dependency_ms += ms,
            "planner" => self.planner_ms += ms,
            "queue" => self.queue_ms += ms,
            "execution" => self.execution_ms += ms,
            _ => self.fault_ms += ms,
        }
    }

    /// The dominant category name ("execution", "queue", "planner",
    /// "fault-recovery" or "dependencies"); ties break toward the
    /// earlier pipeline stage.
    pub fn blame(&self) -> &'static str {
        let cats: [(&'static str, u64); 5] = [
            ("dependencies", self.dependency_ms),
            ("planner", self.planner_ms),
            ("queue", self.queue_ms),
            ("execution", self.execution_ms),
            ("fault-recovery", self.fault_ms),
        ];
        let mut best = cats[0];
        for c in cats {
            if c.1 > best.1 {
                best = c;
            }
        }
        best.0
    }
}

/// One step of a critical path: a single dwell-state span of a chained
/// job, in sim-milliseconds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalStep {
    /// Span name (`state:unready`, `state:ready`, `state:submitted`,
    /// `state:queued`, `state:running`).
    pub name: String,
    /// Dense job key the step belongs to.
    pub job: u64,
    /// Site, where the state is site-bound.
    pub site: Option<u32>,
    /// Planning attempt the step belongs to.
    pub attempt: u64,
    /// Step start (sim ms).
    pub start_ms: u64,
    /// Step end (sim ms).
    pub end_ms: u64,
}

impl CriticalStep {
    /// Step length in sim-milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// The chain of spans that determined one DAG's completion time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CriticalPath {
    /// DAG id.
    pub dag: u64,
    /// DAG span length (submission to finish), sim-ms.
    pub makespan_ms: u64,
    /// Sum of step durations along the path, sim-ms.
    pub path_ms: u64,
    /// Chained job keys, upstream first.
    pub jobs: Vec<u64>,
    /// Per-state steps of every chained job, in time order.
    pub steps: Vec<CriticalStep>,
}

/// A slow job with the blame for its latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobBlame {
    /// Dense job key.
    pub job: u64,
    /// Owning DAG.
    pub dag: u64,
    /// Job span length (first state to terminal), sim-ms.
    pub total_ms: u64,
    /// Planning attempts consumed.
    pub attempts: u64,
    /// Where the time went.
    pub dwell: DwellBreakdown,
    /// Dominant category (`dwell.blame()`), denormalised for reports.
    pub blame: String,
}

/// Post-run causal analysis attached to `RunReport`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceAnalysis {
    /// One critical path per finished DAG, by DAG id.
    pub critical_paths: Vec<CriticalPath>,
    /// Top-N slowest jobs, slowest first.
    pub slowest_jobs: Vec<JobBlame>,
    /// Spans ever started by the hub.
    pub spans_total: u64,
    /// Spans still live when the analysis ran.
    pub spans_live: u64,
    /// Finished spans evicted from the bounded store.
    pub spans_dropped: u64,
}

/// An indexed, immutable view over a span forest.
///
/// [`SpanGraph::new`] makes one pass over the spans and builds every
/// index the queries read, so a full [`SpanGraph::analyze`] costs
/// O(S log S) for S spans plus the length of the chains it walks,
/// instead of a rescan of the whole forest per DAG and per chained job.
/// Each index keeps span order, so every tie-break below is the one a
/// front-to-back scan would make.
pub struct SpanGraph {
    spans: Vec<Span>,
    by_id: BTreeMap<SpanId, usize>,
    /// Per job key: the indices of that job's spans, in span order.
    by_job: BTreeMap<u64, Vec<usize>>,
    /// Per DAG id: the first `dag` span in span order.
    dag_span: BTreeMap<u64, usize>,
    /// Per DAG id (the span's `dag` attribute): its finished `job`
    /// spans, in span order.
    dag_jobs: BTreeMap<u64, Vec<usize>>,
}

impl SpanGraph {
    /// Index a span list (as returned by `Telemetry::spans`).
    pub fn new(spans: Vec<Span>) -> Self {
        let mut by_id = BTreeMap::new();
        let mut by_job: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut dag_span = BTreeMap::new();
        let mut dag_jobs: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_id.insert(s.id, i);
            if let Some(job) = s.job {
                by_job.entry(job).or_default().push(i);
            }
            match (s.name, s.dag) {
                ("dag", Some(dag)) => {
                    dag_span.entry(dag).or_insert(i);
                }
                ("job", Some(dag)) if s.end.is_some() => dag_jobs.entry(dag).or_default().push(i),
                _ => {}
            }
        }
        SpanGraph {
            spans,
            by_id,
            by_job,
            dag_span,
            dag_jobs,
        }
    }

    /// The underlying spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Lookup by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.by_id.get(&id).and_then(|&i| self.spans.get(i))
    }

    /// The spans at `indices` (one of the index lists), in order.
    fn at<'a>(&'a self, indices: Option<&'a Vec<usize>>) -> impl Iterator<Item = &'a Span> + 'a {
        indices
            .into_iter()
            .flatten()
            .filter_map(|&i| self.spans.get(i))
    }

    /// Every span of `job`, in span order.
    fn job_spans(&self, job: u64) -> impl Iterator<Item = &Span> + '_ {
        self.at(self.by_job.get(&job))
    }

    /// Structural invariant check. Returns one message per violation:
    /// a dangling parent id, a child starting before its parent, a
    /// closed parent ending before a closed child, or a job span that is
    /// not rooted at its DAG's span. Empty means the graph is sound.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for span in &self.spans {
            if let (Some(start), Some(end)) = (Some(span.start), span.end) {
                if end < start {
                    problems.push(format!(
                        "span {} ({}) ends at {}ms before it starts at {}ms",
                        span.id.0,
                        span.name,
                        end.as_millis(),
                        start.as_millis()
                    ));
                }
            }
            if let Some(pid) = span.parent {
                match self.get(pid) {
                    None => problems.push(format!(
                        "span {} ({}) has dangling parent {}",
                        span.id.0, span.name, pid.0
                    )),
                    Some(parent) => {
                        if span.start < parent.start {
                            problems.push(format!(
                                "span {} ({}) starts before its parent {} ({})",
                                span.id.0, span.name, parent.id.0, parent.name
                            ));
                        }
                        if let (Some(pend), Some(cend)) = (parent.end, span.end) {
                            if cend > pend {
                                problems.push(format!(
                                    "span {} ({}) outlives its parent {} ({})",
                                    span.id.0, span.name, parent.id.0, parent.name
                                ));
                            }
                        }
                    }
                }
            }
            if span.name == "job" {
                let under_dag = span
                    .parent
                    .and_then(|p| self.get(p))
                    .map(|p| p.name == "dag" && p.dag == span.dag)
                    .unwrap_or(false);
                if !under_dag {
                    problems.push(format!(
                        "job span {} (job {:?}) is not rooted at its dag span",
                        span.id.0, span.job
                    ));
                }
            }
        }
        problems
    }

    fn first_ready_span(&self, job: u64) -> Option<&Span> {
        self.job_spans(job)
            .filter(|s| s.name == "state:ready")
            .min_by_key(|s| s.id)
    }

    fn state_steps(&self, job: u64) -> Vec<CriticalStep> {
        let mut steps: Vec<CriticalStep> = self
            .job_spans(job)
            .filter(|s| s.name.starts_with("state:") && s.end.is_some())
            .map(|s| CriticalStep {
                name: s.name.to_owned(),
                job,
                site: s.site,
                attempt: s.attempt.unwrap_or(0),
                start_ms: s.start.as_millis(),
                end_ms: s.end.map(|e| e.as_millis()).unwrap_or(0),
            })
            .collect();
        steps.sort_by_key(|s| (s.start_ms, s.end_ms));
        steps
    }

    /// Recover the critical path of one DAG: start from its
    /// last-finishing job span and follow each job's first ready-cause
    /// link upstream to a root job. `None` when the DAG has no finished
    /// job spans in the graph.
    pub fn critical_path(&self, dag: u64) -> Option<CriticalPath> {
        let dag_span = self.dag_span.get(&dag).and_then(|&i| self.spans.get(i));
        let last = self
            .at(self.dag_jobs.get(&dag))
            .max_by(|a, b| a.end.cmp(&b.end).then(b.id.cmp(&a.id)))?;
        let mut chain = vec![last];
        let mut cur = last;
        // Bounded walk: a link cycle is impossible by construction (links
        // point at earlier ids) but guard anyway.
        for _ in 0..self.spans.len() {
            let link = self
                .first_ready_span(cur.job.unwrap_or(u64::MAX))
                .and_then(|s| s.link);
            let Some(parent) = link.and_then(|id| self.get(id)) else {
                break;
            };
            chain.push(parent);
            cur = parent;
        }
        // `cur` is now the chain root: `chain[0]` once reversed.
        chain.reverse();
        let jobs: Vec<u64> = chain.iter().filter_map(|s| s.job).collect();
        let mut steps = Vec::new();
        for (pos, job) in jobs.iter().enumerate() {
            // A chained job's `state:unready` dwell overlaps its upstream's
            // whole lifetime (it ends exactly when the linked parent
            // completes), so only the chain root contributes it — the
            // remaining steps tile the makespan without double counting.
            steps.extend(
                self.state_steps(*job)
                    .into_iter()
                    .filter(|s| pos == 0 || s.name != "state:unready"),
            );
        }
        let path_ms = steps.iter().map(CriticalStep::duration_ms).sum();
        let dag_start = dag_span.map(|s| s.start).unwrap_or(cur.start);
        let dag_end = dag_span
            .and_then(|s| s.end)
            .or(last.end)
            .unwrap_or(dag_start);
        Some(CriticalPath {
            dag,
            makespan_ms: dag_end.as_millis().saturating_sub(dag_start.as_millis()),
            path_ms,
            jobs,
            steps,
        })
    }

    fn final_attempt(&self, job: u64) -> u64 {
        self.job_spans(job)
            .filter(|s| s.name == "attempt")
            .filter_map(|s| s.attempt)
            .max()
            .unwrap_or(0)
    }

    /// Classify every finished dwell-state span of `job` into the
    /// breakdown categories, plus the number of planning attempts.
    pub fn job_dwell(&self, job: u64) -> (DwellBreakdown, u64) {
        let final_attempt = self.final_attempt(job);
        let mut dwell = DwellBreakdown::default();
        for s in self.job_spans(job) {
            if s.end.is_none() || !s.name.starts_with("state:") {
                continue;
            }
            let ms = s.duration_ms();
            let attempt = s.attempt.unwrap_or(0);
            let category = match s.name {
                "state:unready" => "dependencies",
                "state:ready" if attempt == 0 => "planner",
                "state:submitted" | "state:queued" if attempt == final_attempt => "queue",
                "state:running" if attempt == final_attempt => "execution",
                _ => "fault-recovery",
            };
            dwell.add(category, ms);
        }
        (dwell, final_attempt)
    }

    /// The `n` longest-lived finished jobs, slowest first, each with its
    /// dwell breakdown and dominant blame category.
    pub fn slowest_jobs(&self, n: usize) -> Vec<JobBlame> {
        let mut jobs: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.name == "job" && s.end.is_some())
            .collect();
        jobs.sort_by(|a, b| {
            b.duration_ms()
                .cmp(&a.duration_ms())
                .then(a.job.cmp(&b.job))
        });
        jobs.truncate(n);
        jobs.into_iter()
            .map(|s| {
                let key = s.job.unwrap_or(0);
                let (dwell, attempts) = self.job_dwell(key);
                JobBlame {
                    job: key,
                    dag: s.dag.unwrap_or_else(|| job_key_dag(key)),
                    total_ms: s.duration_ms(),
                    attempts,
                    dwell,
                    blame: dwell.blame().to_owned(),
                }
            })
            .collect()
    }

    /// Full report: a critical path per DAG (ascending id) and the
    /// top-`top_n` slowest jobs. Span-store counters are filled in by
    /// `Telemetry::analyze`.
    pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
        TraceAnalysis {
            critical_paths: self
                .dag_span
                .keys()
                .filter_map(|&d| self.critical_path(d))
                .collect(),
            slowest_jobs: self.slowest_jobs(top_n),
            spans_total: 0,
            spans_live: 0,
            spans_dropped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanAttrs, SpanStore};
    use sphinx_sim::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Two-job chain: A runs 0–10s, B becomes ready at 10s (cause A),
    /// runs to 30s.
    fn chain_graph() -> SpanGraph {
        let mut store = SpanStore::new(1024);
        let dag = store.start(
            "dag",
            t(0),
            SpanAttrs {
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        let a = store.start(
            "job",
            t(0),
            SpanAttrs {
                parent: Some(dag),
                job: Some(10),
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        let a_run = store.start(
            "state:running",
            t(0),
            SpanAttrs {
                parent: Some(a),
                job: Some(10),
                dag: Some(1),
                attempt: Some(1),
                ..SpanAttrs::default()
            },
        );
        let b = store.start(
            "job",
            t(0),
            SpanAttrs {
                parent: Some(dag),
                job: Some(11),
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        let b_wait = store.start(
            "state:unready",
            t(0),
            SpanAttrs {
                parent: Some(b),
                job: Some(11),
                dag: Some(1),
                ..SpanAttrs::default()
            },
        );
        store.end(a_run, t(10));
        store.end(a, t(10));
        store.end(b_wait, t(10));
        let b_ready = store.start(
            "state:ready",
            t(10),
            SpanAttrs {
                parent: Some(b),
                job: Some(11),
                dag: Some(1),
                attempt: Some(0),
                link: Some(a),
                ..SpanAttrs::default()
            },
        );
        store.end(b_ready, t(12));
        let b_run = store.start(
            "state:running",
            t(12),
            SpanAttrs {
                parent: Some(b),
                job: Some(11),
                dag: Some(1),
                attempt: Some(1),
                ..SpanAttrs::default()
            },
        );
        store.end(b_run, t(30));
        store.end(b, t(30));
        store.end(dag, t(30));
        SpanGraph::new(store.spans())
    }

    #[test]
    fn critical_path_follows_ready_links() {
        let g = chain_graph();
        let path = g.critical_path(1).expect("path exists");
        assert_eq!(path.jobs, vec![10, 11]);
        assert_eq!(path.makespan_ms, 30_000);
        // A's running (10s) + B's ready (2s) + running (18s); B's unready
        // overlaps A entirely and is excluded from the tally.
        assert_eq!(path.path_ms, 30_000);
        assert_eq!(path.steps.len(), 3);
        assert_eq!(path.steps[0].name, "state:running");
        assert_eq!(path.steps[0].job, 10);
    }

    #[test]
    fn validate_accepts_sound_graph_and_flags_violations() {
        let g = chain_graph();
        assert!(g.validate().is_empty(), "{:?}", g.validate());

        let mut store = SpanStore::new(8);
        let orphan = store.start(
            "job",
            t(1),
            SpanAttrs {
                parent: Some(SpanId(999)),
                job: Some(1),
                ..SpanAttrs::default()
            },
        );
        store.end(orphan, t(2));
        let bad = SpanGraph::new(store.spans());
        let problems = bad.validate();
        assert_eq!(problems.len(), 2); // dangling parent + not rooted at dag
        assert!(problems[0].contains("dangling parent"));
    }

    #[test]
    fn dwell_classifies_fault_attempts() {
        let mut store = SpanStore::new(64);
        let job = store.start(
            "job",
            t(0),
            SpanAttrs {
                job: Some(5),
                dag: Some(0),
                ..SpanAttrs::default()
            },
        );
        // Attempt 1 fails after 10s of running.
        for (name, s, e, attempt) in [
            ("state:ready", 0, 1, 0),
            ("state:submitted", 1, 2, 1),
            ("state:running", 2, 12, 1),
            ("state:ready", 12, 13, 1), // re-ready after fault
            ("state:submitted", 13, 14, 2),
            ("state:running", 14, 20, 2),
        ] {
            let id = store.start(
                name,
                t(s),
                SpanAttrs {
                    parent: Some(job),
                    job: Some(5),
                    attempt: Some(attempt),
                    ..SpanAttrs::default()
                },
            );
            store.end(id, t(e));
        }
        for attempt in [1u64, 2] {
            let id = store.start(
                "attempt",
                t(0),
                SpanAttrs {
                    job: Some(5),
                    attempt: Some(attempt),
                    ..SpanAttrs::default()
                },
            );
            store.end(id, t(20));
        }
        let g = SpanGraph::new(store.spans());
        let (dwell, attempts) = g.job_dwell(5);
        assert_eq!(attempts, 2);
        assert_eq!(dwell.planner_ms, 1_000);
        // Failed attempt 1: submitted (1s) + running (10s) + re-ready (1s).
        assert_eq!(dwell.fault_ms, 12_000);
        assert_eq!(dwell.queue_ms, 1_000);
        assert_eq!(dwell.execution_ms, 6_000);
        assert_eq!(dwell.blame(), "fault-recovery");
    }

    #[test]
    fn slowest_jobs_orders_by_duration() {
        let g = chain_graph();
        let slow = g.slowest_jobs(5);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].job, 11);
        assert_eq!(slow[0].total_ms, 30_000);
        assert_eq!(slow[1].job, 10);
    }

    #[test]
    fn job_key_split_round_trips() {
        let key = (17u64 << 24) | 42;
        assert_eq!(job_key_dag(key), 17);
        assert_eq!(job_key_index(key), 42);
    }
}
