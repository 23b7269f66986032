//! Reference analyzer for `SpanGraph`: the original scan-based queries.
//!
//! Every query here rescans the whole span list (per DAG, then again
//! per chained job), which makes a full analysis O(DAGs × chain × S).
//! That is too slow to run after every benchmark repeat, but each query
//! is a literal filter over public `Span` fields, so it is easy to check
//! by eye. The production `SpanGraph` indexes the forest once and must
//! produce exactly the same `TraceAnalysis`; the property and real-run
//! tests assert that equality against this oracle.
//!
//! Shared by `crates/telemetry/tests/analysis_oracle.rs` and the root
//! `tests/critical_path.rs` (via `#[path]`).

use sphinx_telemetry::analysis::job_key_dag;
use sphinx_telemetry::{
    CriticalPath, CriticalStep, DwellBreakdown, JobBlame, Span, SpanId, TraceAnalysis,
};
use std::collections::BTreeMap;

fn add(dwell: &mut DwellBreakdown, category: &'static str, ms: u64) {
    match category {
        "dependencies" => dwell.dependency_ms += ms,
        "planner" => dwell.planner_ms += ms,
        "queue" => dwell.queue_ms += ms,
        "execution" => dwell.execution_ms += ms,
        _ => dwell.fault_ms += ms,
    }
}

/// The scan-based analyzer over an immutable span list.
pub struct ScanGraph {
    spans: Vec<Span>,
    by_id: BTreeMap<SpanId, usize>,
}

impl ScanGraph {
    /// Index a span list by id only.
    pub fn new(spans: Vec<Span>) -> Self {
        let by_id = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        ScanGraph { spans, by_id }
    }

    fn get(&self, id: SpanId) -> Option<&Span> {
        self.by_id.get(&id).map(|&i| &self.spans[i])
    }

    fn first_ready_span(&self, job: u64) -> Option<&Span> {
        self.spans
            .iter()
            .filter(|s| s.name == "state:ready" && s.job == Some(job))
            .min_by_key(|s| s.id)
    }

    fn state_steps(&self, job: u64) -> Vec<CriticalStep> {
        let mut steps: Vec<CriticalStep> = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with("state:") && s.job == Some(job) && s.end.is_some())
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

    /// Critical path of one DAG by full scans.
    pub fn critical_path(&self, dag: u64) -> Option<CriticalPath> {
        let dag_span = self
            .spans
            .iter()
            .find(|s| s.name == "dag" && s.dag == Some(dag));
        let last = self
            .spans
            .iter()
            .filter(|s| s.name == "job" && s.dag == Some(dag) && s.end.is_some())
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
        chain.reverse();
        let jobs: Vec<u64> = chain.iter().filter_map(|s| s.job).collect();
        let mut steps = Vec::new();
        for (pos, job) in jobs.iter().enumerate() {
            steps.extend(
                self.state_steps(*job)
                    .into_iter()
                    .filter(|s| pos == 0 || s.name != "state:unready"),
            );
        }
        let path_ms = steps.iter().map(CriticalStep::duration_ms).sum();
        let dag_start = dag_span.map(|s| s.start).unwrap_or(chain[0].start);
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
        self.spans
            .iter()
            .filter(|s| s.name == "attempt" && s.job == Some(job))
            .filter_map(|s| s.attempt)
            .max()
            .unwrap_or(0)
    }

    /// Dwell breakdown and attempt count of one job by full scans.
    pub fn job_dwell(&self, job: u64) -> (DwellBreakdown, u64) {
        let final_attempt = self.final_attempt(job);
        let mut dwell = DwellBreakdown::default();
        for s in &self.spans {
            if s.job != Some(job) || s.end.is_none() || !s.name.starts_with("state:") {
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
            add(&mut dwell, category, ms);
        }
        (dwell, final_attempt)
    }

    fn slowest_jobs(&self, n: usize) -> Vec<JobBlame> {
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

    /// Full report, span-store counters left at zero (as
    /// `SpanGraph::analyze` does).
    pub fn analyze(&self, top_n: usize) -> TraceAnalysis {
        let mut dag_ids: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == "dag")
            .filter_map(|s| s.dag)
            .collect();
        dag_ids.sort_unstable();
        dag_ids.dedup();
        TraceAnalysis {
            critical_paths: dag_ids
                .into_iter()
                .filter_map(|d| self.critical_path(d))
                .collect(),
            slowest_jobs: self.slowest_jobs(top_n),
            spans_total: 0,
            spans_live: 0,
            spans_dropped: 0,
        }
    }
}
