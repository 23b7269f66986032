//! Wall-clock spans recorded from outside the program, around each call
//! the traced driver makes into a layer.
//!
//! Spans are kept in memory (name, start, duration, parent) and folded
//! into per-layer totals when the run ends. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::time::Instant;

/// The layer boundaries the traced driver wraps, named by module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The whole drive loop (root span; its self time is loop glue).
    Drive,
    /// `GridSim::step`: one simulation event.
    GridStep,
    /// `GridSim::poll`: take pending notifications.
    GridPoll,
    /// `SphinxClient::on_notification`: the job tracker.
    ClientOnNotification,
    /// `SphinxClient::submit_plan`.
    ClientSubmitPlan,
    /// `SphinxClient::scan_timeouts`.
    ClientScanTimeouts,
    /// `Queue::push` on `INBOX`.
    DbInboxPush,
    /// `Queue::drain` on `INBOX`.
    DbInboxDrain,
    /// `Queue::push` and `Queue::drain` on `OUTBOX`.
    DbOutbox,
    /// `SphinxServer::handle_report`.
    ServerHandleReport,
    /// `SphinxServer::plan_cycle`.
    ServerPlanCycle,
    /// `GridSim::snapshots` plus `Monitor::sample`.
    MonitorSample,
    /// `Monitor::reports`, keyed by site for the planner.
    MonitorReports,
    /// `OpsAggregator::tick`, alert feedback and snapshot publication.
    OpsTick,
    /// Report assembly (`build_report`), including the analysis.
    ReportBuild,
    /// `Telemetry::analyze`, the post-run span analysis.
    TelemetryAnalyze,
}

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; 16] = [
        Layer::Drive,
        Layer::GridStep,
        Layer::GridPoll,
        Layer::ClientOnNotification,
        Layer::ClientSubmitPlan,
        Layer::ClientScanTimeouts,
        Layer::DbInboxPush,
        Layer::DbInboxDrain,
        Layer::DbOutbox,
        Layer::ServerHandleReport,
        Layer::ServerPlanCycle,
        Layer::MonitorSample,
        Layer::MonitorReports,
        Layer::OpsTick,
        Layer::ReportBuild,
        Layer::TelemetryAnalyze,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Index of the enclosing span, `u32::MAX` for a root.
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Records nested spans against one monotonic base instant.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; times are measured from now.
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span for `layer` under the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            dur_ns: 0,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        let span = &mut self.spans[idx];
        span.dur_ns = end - span.start_ns;
    }

    /// Run `f` inside a span for `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    /// Fold the recorded spans into per-layer totals.
    pub fn profile(&self) -> Profile {
        assert!(self.open.is_empty(), "every span closed before profiling");
        let mut layers = vec![LayerStats::default(); Layer::ALL.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != u32::MAX {
                child_ns[span.parent as usize] += span.dur_ns;
            }
        }
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let stats = &mut layers[span.layer.index()];
            stats.calls += 1;
            stats.total_ns += span.dur_ns;
            stats.self_ns += span.dur_ns.saturating_sub(*children);
            if matches!(
                span.layer,
                Layer::ServerHandleReport | Layer::ServerPlanCycle
            ) {
                stats.durations_ns.push(span.dur_ns);
            }
        }
        Profile { layers }
    }
}

/// Totals of one layer over a traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
    /// Per-call durations, kept for the layers whose latency
    /// distribution is reported.
    pub durations_ns: Vec<u64>,
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone)]
pub struct Profile {
    layers: Vec<LayerStats>,
}

impl Profile {
    /// The totals of one layer.
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer.index()]
    }

    /// Share of the drive span not covered by any layer's self time
    /// other than the drive loop's own glue.
    pub fn unattributed_frac(&self) -> f64 {
        let drive = self.layer(Layer::Drive);
        if drive.total_ns == 0 {
            return 0.0;
        }
        drive.self_ns as f64 / drive.total_ns as f64
    }
}

/// A latency percentile summary: the median and the highest percentile
/// from a fixed ladder that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median, microseconds.
    pub p50_us: f64,
    /// The tail percentile's value, microseconds.
    pub tail_us: f64,
    /// Which percentile `tail_us` is (50 when there are too few samples
    /// for any higher one).
    pub tail_pct: f64,
}

/// Summarise durations (nanoseconds) as a [`Tail`]; `None` when empty.
pub fn tail(durations_ns: &[u64]) -> Option<Tail> {
    if durations_ns.is_empty() {
        return None;
    }
    let mut sorted = durations_ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    // Percentiles in basis points, so the "ten beyond" test is exact.
    let at = |bp: usize| -> f64 {
        let rank = (n * bp).div_ceil(10_000);
        sorted[rank.clamp(1, n) - 1] as f64 / 1000.0
    };
    let tail_bp = [9_999, 9_990, 9_900, 9_000]
        .into_iter()
        .find(|bp| n * (10_000 - bp) / 10_000 >= 10)
        .unwrap_or(5_000);
    Some(Tail {
        p50_us: at(5_000),
        tail_us: at(tail_bp),
        tail_pct: tail_bp as f64 / 100.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter(Layer::Drive);
        t.span(Layer::GridStep, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let p = t.profile();
        let drive = p.layer(Layer::Drive);
        let step = p.layer(Layer::GridStep);
        assert_eq!((drive.calls, step.calls), (1, 1));
        assert_eq!(drive.self_ns, drive.total_ns - step.total_ns);
        assert!(p.unattributed_frac() < 0.5);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let d: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        let t = tail(&d).unwrap();
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.p50_us, 500.0);
        assert_eq!(t.tail_us, 990.0);
        assert_eq!(tail(&d[..15]).unwrap().tail_pct, 50.0);
        assert!(tail(&[]).is_none());
    }
}
