//! The indexed `SpanGraph` against the scan-based oracle.
//!
//! `SpanGraph::new` indexes the span forest once; the oracle in
//! `support/scan_oracle.rs` answers every query by rescanning all spans.
//! The property test drives random forests through a real `SpanStore`
//! and requires the two to agree exactly, tie-breaks included. The
//! scaling gate checks that the indexed analysis stays near-linear in
//! the number of DAGs, which the scan version does not.

#[path = "support/scan_oracle.rs"]
mod scan_oracle;

use proptest::prelude::*;
use scan_oracle::ScanGraph;
use sphinx_sim::SimTime;
use sphinx_telemetry::{Span, SpanAttrs, SpanGraph, SpanId, SpanStore, TraceAnalysis};
use std::collections::BTreeMap;
use std::time::Instant;

const STATES: [&str; 5] = [
    "state:unready",
    "state:ready",
    "state:submitted",
    "state:queued",
    "state:running",
];

/// DAG ids the generator uses; the tests also query ids outside it.
const DAGS: u64 = 4;

fn at(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Pick one element of `pool` by `c`, if the pool is not empty.
fn pick(pool: &[SpanId], c: u64) -> Option<SpanId> {
    pool.get((c as usize).checked_rem(pool.len())?).copied()
}

/// Replay `ops` against a `SpanStore` of `capacity` finished spans.
///
/// Each op is `(kind, a, b, c)`: `a` picks the DAG, `b` the job within
/// it, `c` drives every other choice (attempt numbers, link targets,
/// which live span ends, time steps). Time often stands still, so end
/// times tie. With `close_most`, two in three spans still live at the
/// end are closed; the rest stay live.
fn build_forest(capacity: usize, ops: &[(u8, u64, u64, u64)], close_most: bool) -> Vec<Span> {
    let mut store = SpanStore::new(capacity);
    let mut now = 0u64;
    let mut started: Vec<SpanId> = Vec::new();
    let mut live: Vec<SpanId> = Vec::new();
    let mut job_spans: Vec<SpanId> = Vec::new();
    let mut dag_spans: BTreeMap<u64, SpanId> = BTreeMap::new();
    for &(kind, a, b, c) in ops {
        let dag = a % DAGS;
        let job = (dag << 24) | (b % 5);
        let job_attrs =
            |parent: Option<SpanId>, attempt: Option<u64>, link: Option<SpanId>| SpanAttrs {
                parent,
                job: Some(job),
                dag: Some(dag),
                attempt,
                link,
                site: Some((c % 3) as u32),
                ..SpanAttrs::default()
            };
        let id = match kind {
            // A `dag` root; a second one for the same id loses to the first.
            0 => {
                let id = store.start(
                    "dag",
                    at(now),
                    SpanAttrs {
                        dag: Some(dag),
                        ..SpanAttrs::default()
                    },
                );
                dag_spans.entry(dag).or_insert(id);
                id
            }
            // A `job` span, sometimes with no `dag` root, sometimes with
            // a `dag` attribute that disagrees with its job key.
            1 => {
                let mut attrs = job_attrs(dag_spans.get(&dag).copied(), None, None);
                attrs.dag = match c % 6 {
                    0 => None,
                    1 => Some((dag + 1) % DAGS),
                    _ => Some(dag),
                };
                let id = store.start("job", at(now), attrs);
                job_spans.push(id);
                id
            }
            // A ready-cause link: usually to a job span, sometimes to any
            // span (a non-job one or an evicted one), sometimes dangling.
            2 => {
                let link = match c % 8 {
                    0 => pick(&started, c / 8),
                    1 => Some(SpanId(1 << 40)),
                    2 => None,
                    _ => pick(&job_spans, c / 8),
                };
                store.start(
                    "state:ready",
                    at(now),
                    job_attrs(pick(&job_spans, c), Some(c % 3), link),
                )
            }
            3 => store.start(
                STATES[(c % 5) as usize],
                at(now),
                job_attrs(pick(&job_spans, c), Some(c % 4), None),
            ),
            // A planning attempt; replans link to an earlier span.
            4 => store.start(
                "attempt",
                at(now),
                job_attrs(None, Some(1 + c % 3), pick(&started, c)),
            ),
            // A span with no job at all.
            5 => store.start("phase:plan", at(now), SpanAttrs::default()),
            6 | 7 => {
                if let Some(i) = (c as usize).checked_rem(live.len()) {
                    store.end(live.swap_remove(i), at(now));
                }
                continue;
            }
            _ => {
                now += c % 3;
                continue;
            }
        };
        started.push(id);
        live.push(id);
    }
    if close_most {
        now += 1;
        for (i, id) in live.into_iter().enumerate() {
            if i % 3 != 0 {
                store.end(id, at(now));
            }
        }
    }
    store.spans()
}

/// Every job key that appears on any span, plus one that never does.
fn job_keys(spans: &[Span]) -> Vec<u64> {
    let mut keys: Vec<u64> = spans.iter().filter_map(|s| s.job).collect();
    keys.push(u64::MAX);
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn assert_matches_oracle(spans: Vec<Span>) {
    let indexed = SpanGraph::new(spans.clone());
    let oracle = ScanGraph::new(spans.clone());
    for top_n in [0, 1, 3, 10, 1_000] {
        assert_eq!(
            indexed.analyze(top_n),
            oracle.analyze(top_n),
            "top_n {top_n}"
        );
    }
    for dag in (0..DAGS + 2).chain([u64::MAX]) {
        assert_eq!(
            indexed.critical_path(dag),
            oracle.critical_path(dag),
            "dag {dag}"
        );
    }
    for job in job_keys(&spans) {
        assert_eq!(indexed.job_dwell(job), oracle.job_dwell(job), "job {job}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_analysis_matches_scan_oracle(
        capacity in 1usize..96,
        ops in proptest::collection::vec((0u8..10, 0u64..8, 0u64..8, 0u64..64), 0..160),
        close_most in any::<bool>(),
    ) {
        assert_matches_oracle(build_forest(capacity, &ops, close_most));
    }
}

#[test]
fn many_tied_steps_keep_span_order() {
    // Random forests give each job only a few state spans, and slices
    // that short sort the same way stably or not. One job with dozens of
    // steps on a handful of (start, end) keys, out of key order, pins
    // the stable sort over span order.
    let mut store = SpanStore::new(1_024);
    let dag = store.start(
        "dag",
        at(0),
        SpanAttrs {
            dag: Some(0),
            ..SpanAttrs::default()
        },
    );
    let job = store.start(
        "job",
        at(0),
        SpanAttrs {
            parent: Some(dag),
            job: Some(1),
            dag: Some(0),
            ..SpanAttrs::default()
        },
    );
    for i in 0..64u64 {
        let start = (i * 7) % 4;
        let id = store.start(
            STATES[(i % 5) as usize],
            at(start),
            SpanAttrs {
                parent: Some(job),
                job: Some(1),
                dag: Some(0),
                site: Some(i as u32),
                attempt: Some(i % 3),
                ..SpanAttrs::default()
            },
        );
        store.end(id, at(start + 1 + i % 2));
    }
    store.end(job, at(10));
    store.end(dag, at(10));
    assert_matches_oracle(store.spans());
}

#[test]
fn generated_forests_cover_the_tricky_shapes() {
    // The property test is only as good as its forests: check that its
    // generator produces every shape the index must get right.
    let mut evicted = false;
    let mut live = false;
    let mut two_dag_spans = false;
    let mut orphan_job = false;
    let mut replan = false;
    let mut late_ready = false;
    let mut tied_ends = false;
    let mut non_job_link = false;
    for case in 0..256u64 {
        let mut rng = proptest::test_runner::Rng::from_seed(case);
        let ops = proptest::collection::vec((0u8..10, 0u64..8, 0u64..8, 0u64..64), 40..160)
            .generate(&mut rng);
        let spans = build_forest(8 + (case as usize % 64), &ops, case % 2 == 0);
        let graph = SpanGraph::new(spans.clone());
        evicted |= spans
            .iter()
            .any(|s| s.parent.is_some_and(|p| graph.get(p).is_none()));
        live |= spans.iter().any(|s| s.end.is_none());
        let dag_roots: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "dag")
            .filter_map(|s| s.dag)
            .collect();
        two_dag_spans |= (0..DAGS).any(|d| dag_roots.iter().filter(|&&x| x == d).count() > 1);
        orphan_job |= spans
            .iter()
            .any(|s| s.name == "job" && s.dag.is_some_and(|d| !dag_roots.contains(&d)));
        replan |= spans
            .iter()
            .any(|s| s.name == "attempt" && s.attempt > Some(1));
        late_ready |= spans
            .iter()
            .any(|s| s.name == "state:ready" && s.attempt > Some(0));
        let mut ends: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "job")
            .filter_map(|s| s.end)
            .collect();
        let n = ends.len();
        ends.sort_unstable();
        ends.dedup();
        tied_ends |= ends.len() < n;
        non_job_link |= spans.iter().any(|s| {
            s.name == "state:ready"
                && s.link
                    .and_then(|l| graph.get(l))
                    .is_some_and(|t| t.name != "job")
        });
    }
    assert!(evicted, "no forest evicted a parent");
    assert!(live, "no forest kept a live span");
    assert!(two_dag_spans, "no forest had two dag spans for one id");
    assert!(orphan_job, "no forest had a job span without a dag span");
    assert!(replan, "no forest replanned");
    assert!(late_ready, "no forest had a ready span after an attempt");
    assert!(tied_ends, "no forest had equal job end times");
    assert!(
        non_job_link,
        "no forest linked a ready span to a non-job span"
    );
}

/// `dags` chain-shaped DAGs of `chain` jobs each: every job has the full
/// unready → ready → submitted → running sequence plus one attempt span,
/// and its ready span links to the previous job's span.
fn chain_forest(dags: u64, chain: u64) -> Vec<Span> {
    let mut store = SpanStore::new(usize::MAX);
    for dag in 0..dags {
        let root = store.start(
            "dag",
            at(0),
            SpanAttrs {
                dag: Some(dag),
                ..SpanAttrs::default()
            },
        );
        let mut prev: Option<SpanId> = None;
        for j in 0..chain {
            let job = (dag << 24) | j;
            let attrs = |parent: SpanId, attempt: u64, link: Option<SpanId>| SpanAttrs {
                parent: Some(parent),
                job: Some(job),
                dag: Some(dag),
                attempt: Some(attempt),
                link,
                ..SpanAttrs::default()
            };
            let t0 = j * 100;
            let span = store.start("job", at(0), attrs(root, 0, None));
            let unready = store.start("state:unready", at(0), attrs(span, 0, None));
            store.end(unready, at(t0));
            let ready = store.start("state:ready", at(t0), attrs(span, 0, prev));
            store.end(ready, at(t0 + 10));
            let attempt = store.start("attempt", at(t0 + 10), attrs(span, 1, None));
            for (name, s, e) in [("state:submitted", 10, 20), ("state:running", 20, 100)] {
                let id = store.start(name, at(t0 + s), attrs(attempt, 1, None));
                store.end(id, at(t0 + e));
            }
            store.end(attempt, at(t0 + 100));
            store.end(span, at(t0 + 100));
            prev = Some(span);
        }
        store.end(root, at(chain * 100));
    }
    store.spans()
}

/// Fastest of five timed runs of `analyze` over a fresh copy of `spans`.
fn min_time(spans: &[Span], analyze: &dyn Fn(Vec<Span>) -> TraceAnalysis) -> f64 {
    (0..5)
        .map(|_| {
            let input = spans.to_vec();
            let start = Instant::now();
            let out = analyze(input);
            let secs = start.elapsed().as_secs_f64();
            assert!(!out.critical_paths.is_empty());
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn analysis_cost_grows_near_linearly_in_dags() {
    const D: u64 = 40;
    const CHAIN: u64 = 10;
    let small = chain_forest(D, CHAIN);
    let large = chain_forest(10 * D, CHAIN);
    let analyze = |spans: Vec<Span>| SpanGraph::new(spans).analyze(10);
    let ratio = min_time(&large, &analyze) / min_time(&small, &analyze);
    // One index pass is O(S log S): ten times the spans costs ≈10–13×.
    // A rescan per DAG and per chained job costs ≈100×.
    assert!(
        ratio < 25.0,
        "10x the DAGs cost {ratio:.1}x the time; the analysis is not near-linear"
    );
}
