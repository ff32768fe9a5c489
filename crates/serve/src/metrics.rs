//! Per-request outcomes and aggregate serving metrics.

use mas_dataflow::DataflowKind;

use crate::queue::RejectReason;

/// Nearest-rank percentile of a set of values: the smallest value whose rank
/// is at least `⌈p/100 · n⌉`. `None` for an empty set. The single percentile
/// definition used by every latency figure in this crate (aggregate and
/// per-network rollups alike).
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile values are finite"));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over values the caller has *already sorted ascending* —
/// the fast path when several percentiles are read from one set (sort once,
/// index many). Equal to [`percentile`] on sorted input by construction;
/// unsorted input yields nonsense, not an error.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // `p·n/100` multiplied before dividing: `(p/100)·n` rounds up through an
    // inexact intermediate exactly at rank boundaries (e.g.
    // `(55/100)·100 = 55.000000000000007` puts p55 of 100 samples at rank 56
    // instead of 55), while `p·n` is exact for every realistic p and n.
    let rank = ((p * n as f64) / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The latency summary every report in this crate exposes: sample count,
/// mean and the p50/p99 nearest-rank percentiles, computed by the one
/// [`percentile`] definition. Built once from a latency set
/// ([`LatencyStats::of`]) instead of re-deriving each figure ad hoc — the
/// prefill and decode reports and the engine report all share this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of latency samples.
    pub count: usize,
    /// Mean latency in seconds.
    pub mean_s: f64,
    /// Median (nearest-rank p50) latency in seconds.
    pub p50_s: f64,
    /// Nearest-rank 99th-percentile latency in seconds.
    pub p99_s: f64,
}

impl LatencyStats {
    /// Summarizes a latency set, or `None` for an empty one.
    #[must_use]
    pub fn of(latencies: &[f64]) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        // Sum in arrival order *before* sorting: the mean's f64 accumulation
        // order is part of the pinned bit-exact report contract.
        let sum: f64 = latencies.iter().sum();
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency values are finite"));
        Some(Self {
            count: latencies.len(),
            mean_s: sum / latencies.len() as f64,
            p50_s: percentile_sorted(&sorted, 50.0).expect("non-empty"),
            p99_s: percentile_sorted(&sorted, 99.0).expect("non-empty"),
        })
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.3} ms p99 {:.3} ms mean {:.3} ms (n={})",
            self.p50_s * 1e3,
            self.p99_s * 1e3,
            self.mean_s * 1e3,
            self.count
        )
    }
}

/// The fate of one completed (admitted and executed) request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The request id.
    pub id: u64,
    /// Name of the requested workload (for reporting; not part of any key).
    pub workload: String,
    /// The dataflow method that ran.
    pub method: DataflowKind,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Virtual time the request's batch started on its device.
    pub start_s: f64,
    /// Virtual time the request's batch completed.
    pub completion_s: f64,
    /// Simulated service time of the batch that carried this request.
    pub service_s: f64,
    /// The request's relative deadline, if any.
    pub deadline_s: Option<f64>,
    /// Whether the end-to-end latency met the deadline (`true` when no
    /// deadline was set).
    pub deadline_met: bool,
    /// Energy attributed to this request (its share of the batch's energy,
    /// proportional to its batch dimension).
    pub energy_pj: f64,
    /// Whether the batch's plan came from the schedule cache.
    pub cache_hit: bool,
    /// Id of the batch that carried this request.
    pub batch_id: u64,
    /// Virtual device the batch ran on.
    pub device: usize,
}

impl RequestOutcome {
    /// End-to-end latency: completion minus arrival (queueing + batching +
    /// service).
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// A request refused at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedRequest {
    /// The request id.
    pub id: u64,
    /// Name of the requested workload.
    pub workload: String,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// Aggregate result of replaying one request trace.
///
/// Every field is a deterministic function of the trace and the engine
/// configuration, so reports can be compared exactly across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Completed requests in device launch order (batch order, members in
    /// arrival order).
    pub outcomes: Vec<RequestOutcome>,
    /// Rejected requests in arrival order.
    pub rejected: Vec<RejectedRequest>,
    /// Number of micro-batches launched.
    pub batches: usize,
    /// Batches whose plan was answered from the schedule cache.
    pub cache_hits: usize,
    /// Batches that had to be planned (and were then memoized).
    pub cache_misses: usize,
    /// Virtual time at which the last batch completed.
    pub makespan_s: f64,
    /// Total energy across all completed requests, in picojoules.
    pub total_energy_pj: f64,
    /// Seconds each virtual device spent busy with *this class* of launches,
    /// indexed by device. Empty when the class never dispatched, so a
    /// single-class replay leaves the absent class's report at its default.
    pub device_busy_s: Vec<f64>,
}

impl ServeReport {
    /// Number of completed requests.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Sustained throughput: completed requests per second of makespan.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / self.makespan_s
    }

    /// Latency at percentile `p` in `[0, 100]` (nearest-rank), or `None`
    /// with no completed requests.
    #[must_use]
    pub fn latency_percentile_s(&self, p: f64) -> Option<f64> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::latency_s)
            .collect();
        percentile(&latencies, p)
    }

    /// The report's latency summary (count, mean, p50, p99), or `None` with
    /// no completed requests. The single source for every headline latency
    /// figure below.
    #[must_use]
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::latency_s)
            .collect();
        LatencyStats::of(&latencies)
    }

    /// Median end-to-end latency.
    #[must_use]
    pub fn p50_latency_s(&self) -> Option<f64> {
        self.latency_stats().map(|s| s.p50_s)
    }

    /// 99th-percentile end-to-end latency.
    #[must_use]
    pub fn p99_latency_s(&self) -> Option<f64> {
        self.latency_stats().map(|s| s.p99_s)
    }

    /// Completed requests that met their deadline (requests without a
    /// deadline count as met).
    #[must_use]
    pub fn deadline_met(&self) -> usize {
        self.outcomes.iter().filter(|o| o.deadline_met).count()
    }

    /// Completed requests that missed their deadline.
    #[must_use]
    pub fn deadline_missed(&self) -> usize {
        self.completed() - self.deadline_met()
    }

    /// Fraction of completed requests that missed their deadline.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.deadline_missed() as f64 / self.completed() as f64
    }

    /// Fraction of batches answered from the schedule cache.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// A compact human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let fmt_ms =
            |s: Option<f64>| s.map_or_else(|| "-".to_string(), |v| format!("{:.3} ms", v * 1e3));
        let mut out = format!(
            "completed {} / rejected {} in {} batches | throughput {:.1} req/s | \
             latency p50 {} p99 {} | deadline misses {} ({:.1}%) | \
             cache {}/{} hits ({:.0}%) | energy {:.3e} pJ",
            self.completed(),
            self.rejected.len(),
            self.batches,
            self.throughput_rps(),
            fmt_ms(self.p50_latency_s()),
            fmt_ms(self.p99_latency_s()),
            self.deadline_missed(),
            self.deadline_miss_rate() * 100.0,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.total_energy_pj,
        );
        if !self.device_busy_s.is_empty() {
            let per_device: Vec<String> = self
                .device_busy_s
                .iter()
                .enumerate()
                .map(|(d, &busy)| {
                    let pct = if self.makespan_s > 0.0 {
                        busy / self.makespan_s * 100.0
                    } else {
                        0.0
                    };
                    format!("d{d} {pct:.1}%")
                })
                .collect();
            out.push_str(&format!(" | busy {}", per_device.join(" ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, arrival_s: f64, completion_s: f64, deadline_met: bool) -> RequestOutcome {
        RequestOutcome {
            id,
            workload: format!("w{id}"),
            method: DataflowKind::MasAttention,
            arrival_s,
            start_s: arrival_s,
            completion_s,
            service_s: completion_s - arrival_s,
            deadline_s: Some(1.0),
            deadline_met,
            energy_pj: 10.0,
            cache_hit: false,
            batch_id: id,
            device: 0,
        }
    }

    fn report(latencies: &[f64]) -> ServeReport {
        ServeReport {
            outcomes: latencies
                .iter()
                .enumerate()
                .map(|(i, &l)| outcome(i as u64, 0.0, l, true))
                .collect(),
            makespan_s: latencies.iter().copied().fold(0.0, f64::max),
            ..ServeReport::default()
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = report(&[0.4, 0.1, 0.3, 0.2]);
        assert!((r.p50_latency_s().unwrap() - 0.2).abs() < 1e-12);
        assert!((r.p99_latency_s().unwrap() - 0.4).abs() < 1e-12);
        assert!((r.latency_percentile_s(0.0).unwrap() - 0.1).abs() < 1e-12);
        assert!((r.latency_percentile_s(100.0).unwrap() - 0.4).abs() < 1e-12);
        assert!(report(&[]).p50_latency_s().is_none());
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample_at_every_p() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5), "p{p}");
        }
    }

    #[test]
    fn percentile_of_two_samples_splits_at_the_median() {
        let v = [2.0, 1.0];
        // Nearest rank: p ≤ 50 → rank 1 (minimum), p > 50 → rank 2.
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(1.0));
        assert_eq!(percentile(&v, 50.001), Some(2.0));
        assert_eq!(percentile(&v, 99.0), Some(2.0));
        assert_eq!(percentile(&v, 100.0), Some(2.0));
    }

    #[test]
    fn percentile_of_three_samples_hits_every_rank_boundary() {
        let v = [3.0, 1.0, 2.0];
        // Rank boundaries at 33.3̅% and 66.6̅%.
        assert_eq!(percentile(&v, 33.0), Some(1.0));
        assert_eq!(percentile(&v, 34.0), Some(2.0));
        assert_eq!(percentile(&v, 50.0), Some(2.0), "p50 of 3 is the middle");
        assert_eq!(percentile(&v, 66.0), Some(2.0));
        assert_eq!(percentile(&v, 67.0), Some(3.0));
        assert_eq!(percentile(&v, 99.0), Some(3.0));
    }

    #[test]
    fn percentile_rank_boundaries_are_exact_not_float_rounded() {
        // Regression: computing `(p/100)·n` rounds through an inexact
        // intermediate — 0.55·100 = 55.000000000000007 shifted p55 of 100
        // samples to rank 56, 0.07·100 = 7.000000000000001 shifted p7 to
        // rank 8. `p·n/100` keeps integer-valued ranks exact.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 55.0), Some(55.0), "p55 of 100 is rank 55");
        assert_eq!(percentile(&v, 7.0), Some(7.0), "p7 of 100 is rank 7");
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        // Same failure shape at small n: 0.28·25 = 7.000000000000001.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(percentile(&v, 28.0), Some(7.0), "p28 of 25 is rank 7");
        assert_eq!(percentile(&v, 56.0), Some(14.0), "p56 of 25 is rank 14");
    }

    #[test]
    fn out_of_range_p_clamps_to_the_extremes() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -10.0), Some(1.0));
        assert_eq!(percentile(&v, 250.0), Some(3.0));
    }

    #[test]
    fn throughput_and_deadline_accounting() {
        let mut r = report(&[0.1, 0.2]);
        r.outcomes.push(outcome(9, 0.0, 0.5, false));
        r.makespan_s = 0.5;
        assert_eq!(r.completed(), 3);
        assert_eq!(r.deadline_met(), 2);
        assert_eq!(r.deadline_missed(), 1);
        assert!((r.deadline_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.throughput_rps() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn cache_hit_rate_handles_empty() {
        let mut r = ServeReport::default();
        assert_eq!(r.cache_hit_rate(), 0.0);
        r.cache_hits = 3;
        r.cache_misses = 1;
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_stats_match_the_ad_hoc_figures() {
        let r = report(&[0.4, 0.1, 0.3, 0.2]);
        let stats = r.latency_stats().unwrap();
        assert_eq!(stats.count, 4);
        assert_eq!(Some(stats.p50_s), r.latency_percentile_s(50.0));
        assert_eq!(Some(stats.p99_s), r.latency_percentile_s(99.0));
        assert!((stats.mean_s - 0.25).abs() < 1e-12);
        assert!(report(&[]).latency_stats().is_none());
        assert_eq!(LatencyStats::of(&[]), None);
        let one = LatencyStats::of(&[0.002]).unwrap();
        assert_eq!(
            (one.count, one.p50_s, one.p99_s, one.mean_s),
            (1, 0.002, 0.002, 0.002)
        );
        let shown = stats.to_string();
        assert!(
            shown.contains("p50") && shown.contains("p99") && shown.contains("n=4"),
            "{shown}"
        );
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let r = report(&[0.1, 0.2]);
        let s = r.summary();
        assert!(s.contains("completed 2"));
        assert!(s.contains("p50"));
    }

    #[test]
    fn percentile_sorted_equals_percentile_on_sorted_input() {
        let unsorted = [0.4, 0.1, 0.3, 0.2, 0.9, 0.5];
        let mut sorted = unsorted.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 1.0, 7.0, 28.0, 33.0, 50.0, 55.0, 66.7, 99.0, 100.0] {
            assert_eq!(
                percentile(&unsorted, p),
                percentile_sorted(&sorted, p),
                "p{p}"
            );
        }
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn summary_shows_device_busy_only_when_attributed() {
        let mut r = report(&[0.1, 0.2]);
        assert!(!r.summary().contains("busy"));
        r.device_busy_s = vec![0.1, 0.05];
        r.makespan_s = 0.2;
        let s = r.summary();
        assert!(s.contains("busy d0 50.0% d1 25.0%"), "{s}");
    }
}
