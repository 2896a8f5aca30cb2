//! The measured window (tracing off): one closed-loop session with zero think
//! time, one record per op, and the end-to-end metrics cut from the
//! records afterwards.
//!
//! The host this runs on is shared, and what its neighbours do slows the
//! mediator's planning code (parsing, the chase, translation, report
//! building: small allocations, hashing, string building) by up to a third
//! for seconds to minutes at a time. The session therefore runs
//! [`reference_kernel`], a fixed piece of work of the same kind, every
//! [`PROBE_EVERY`] between ops, and the planning share of every read is
//! corrected to the host's quiet speed before any percentile is cut: with
//! `f` the median kernel duration of the op's half second ÷
//! [`REFERENCE_NS`] and `exec` the plan's execution time as the call's own
//! report gives it (`Report::exec.total_time`: the operators and the stores
//! with their simulated, wall-clock latency),
//! `corrected = exec + (latency − exec) ÷ f`. Execution time and writes stay
//! as measured: the kernel says nothing about scans, batches or view
//! maintenance; and a window that holds writes is not corrected at all, since
//! after maintenance the kernel times the heap, not the host. The
//! uncorrected numbers and `f` are reported beside the corrected ones.

use crate::drive::{exec_read, exec_write, read_is_correct, write_is_correct, Deployment};
use crate::host::{reference_kernel, REFERENCE_NS};
use crate::ops::{Workload, CLASS_NAMES};
use crate::stats::{
    check_class_boundaries, highest_supported_percentile, median, percentile, slice_index,
    ClassShare,
};
use estocada::PlanCacheStats;
use std::time::{Duration, Instant};

/// Slices the window is cut into; every timing metric is the median of
/// its per-slice values.
pub const SLICES: usize = 5;

/// How long the session runs the workload before the window opens. The
/// first seconds of a busy period run a few percent faster than the steady
/// state (measured on this host: the median lookup settles ~5 % higher
/// after 8 s); the window starts once that has passed.
pub const RAMP: Duration = Duration::from_secs(4);

/// Every op checks its row count; every this-many-th op the full row
/// multiset.
pub const FULL_CHECK_EVERY: u64 = 64;

/// The session runs the reference kernel before an op whenever the last run
/// is this long ago (~0.1 ms of every 10 ms).
pub const PROBE_EVERY: Duration = Duration::from_millis(10);

/// Length of the buckets the host-speed factor is taken over.
pub const BUCKET_NS: u64 = 500_000_000;

/// One op of the window.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// When the op started, in nanoseconds since the window opened.
    pub start_ns: u64,
    /// Wall time of the engine call alone.
    pub latency_ns: u64,
    /// The part of the call the reference kernel does not speak for: a
    /// read's plan execution (`Report::exec.total_time`), all of a write or
    /// of a failed read.
    pub exec_ns: u64,
    /// The op's class.
    pub class: u8,
    /// The op succeeded and its answer was right.
    pub ok: bool,
}

/// What a window produced.
#[derive(Debug)]
pub struct Window {
    /// Every op, in order.
    pub records: Vec<OpRecord>,
    /// Reference-kernel runs inside the window: (nanoseconds since the
    /// window opened, duration in nanoseconds).
    pub probes: Vec<(u64, u64)>,
    /// Window length.
    pub window: Duration,
    /// Plan-cache counters when the session started and stopped.
    pub plan_cache: (PlanCacheStats, PlanCacheStats),
}

/// Run `d`'s workload for [`RAMP`] and then `window`: one session (an
/// application thread, closed loop, zero think time) takes op after op off
/// the stream and waits for each reply. Only ops that start inside the
/// window are recorded. All checking and the reference kernel happen outside
/// the timed call.
pub fn run_window(d: &mut Deployment, workload: Workload, window: Duration) -> Window {
    let before = d.est.plan_cache_stats();
    let end = RAMP + window;
    let mut records = Vec::with_capacity(1 << 16);
    let mut probes = Vec::new();
    let mut last_probe = None;
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed();
        if last_probe.is_none_or(|at| now - at >= PROBE_EVERY) {
            last_probe = Some(now);
            let took = reference_kernel(d.cursor);
            if let Some(in_window) = now.checked_sub(RAMP) {
                probes.push((in_window.as_nanos() as u64, took.as_nanos() as u64));
            }
        }
        let started = t0.elapsed();
        if started >= end {
            break;
        }
        let i = d.cursor;
        d.cursor += 1;
        let op = d.stream.op_at(i);
        let (took, exec, ok) = if op.is_write() {
            let (result, took) = exec_write(&mut d.est, &op);
            let ok = write_is_correct(&d.est, &op, &result);
            if result.is_ok() {
                d.model.apply(&op);
            }
            (took, took, ok)
        } else {
            // `readwrite`'s shadow model changes with every write: there
            // every read is checked in full against its current state.
            let full = workload == Workload::ReadWrite || i.is_multiple_of(FULL_CHECK_EVERY);
            let (result, took) = exec_read(&d.est, &op);
            let exec = result
                .as_ref()
                .map_or(took, |r| r.report.exec.total_time.min(took));
            let ok = read_is_correct(&d.model, &d.expected, &op, &result, full);
            (took, exec, ok)
        };
        if let Some(in_window) = started.checked_sub(RAMP) {
            records.push(OpRecord {
                start_ns: in_window.as_nanos() as u64,
                latency_ns: took.as_nanos() as u64,
                exec_ns: exec.as_nanos() as u64,
                class: op.class(),
                ok,
            });
        }
    }
    Window {
        records,
        probes,
        window,
        plan_cache: (before, d.est.plan_cache_stats()),
    }
}

/// One op class as realised in the window.
#[derive(Debug, Clone)]
pub struct ClassSummary {
    /// Class name.
    pub name: &'static str,
    /// Ops of the class.
    pub count: usize,
    /// Median latency in milliseconds.
    pub median_ms: f64,
}

/// The timing metrics of a window under one view of its latencies.
#[derive(Debug, Clone)]
pub struct Timings {
    /// Completed ops ÷ Σ op latencies: harness checking time is excluded.
    /// Median of the per-slice values.
    pub throughput_ops_s: f64,
    /// Median read latency. Median of the per-slice values.
    pub read_p50_ms: f64,
    /// 95th percentile of read latency: median of the per-slice values
    /// when every slice has ten reads beyond it, else over the whole
    /// window.
    pub read_p95_ms: f64,
    /// Whether `read_p95_ms` had ten samples beyond it (per slice or over
    /// the window).
    pub read_p95_supported: bool,
    /// Per-slice throughput.
    pub slice_throughput_ops_s: Vec<f64>,
    /// Per-slice median read latency.
    pub slice_read_p50_ms: Vec<f64>,
    /// Per-slice 95th percentile of read latency (empty when cut from the
    /// whole window).
    pub slice_read_p95_ms: Vec<f64>,
}

/// End-to-end numbers of one window.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that errored or answered wrongly.
    pub failed: usize,
    /// The reported timings: latencies corrected to the host's quiet speed.
    pub corrected: Timings,
    /// The same cut from the latencies as the clock read them.
    pub raw: Timings,
    /// Median of the half-second host-speed factors as measured (1 = quiet
    /// host), whether or not the window was corrected by them.
    pub host_factor: f64,
    /// Mean corrected wall time of the DML calls, when the workload writes.
    pub write_mean_ms: Option<f64>,
    /// Op classes seen, by class index (corrected latencies).
    pub classes: Vec<ClassSummary>,
}

fn is_write_class(class: u8) -> bool {
    class >= 9
}

/// Whether `n` samples leave ten beyond their 95th percentile.
fn supports_p95(n: usize) -> bool {
    highest_supported_percentile(n).is_some_and(|p| p >= 95.0)
}

/// The host-speed factor of every [`BUCKET_NS`] bucket of the window: the
/// median reference-kernel duration inside it ÷ [`REFERENCE_NS`]. A bucket
/// without a probe (an op outlasted it) takes the factor of the nearest
/// earlier bucket that has one, else of the nearest later one; without any
/// probe every factor is 1.
pub fn host_factors(probes: &[(u64, u64)], window_ns: u64) -> Vec<f64> {
    let buckets = window_ns.div_ceil(BUCKET_NS).max(1) as usize;
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); buckets];
    for (at, took) in probes {
        if let Some(b) = samples.get_mut((at / BUCKET_NS) as usize) {
            b.push(*took as f64);
        }
    }
    let measured: Vec<Option<f64>> = samples
        .iter()
        .map(|b| (!b.is_empty()).then(|| median(b) / REFERENCE_NS))
        .collect();
    (0..buckets)
        .map(|i| {
            measured[..=i]
                .iter()
                .rev()
                .chain(&measured[i..])
                .find_map(|f| *f)
                .unwrap_or(1.0)
        })
        .collect()
}

/// An op's latency at the host's quiet speed, in milliseconds: plan
/// execution stays as measured, the rest shrinks by the factor of the op's
/// bucket.
fn corrected_ms(r: &OpRecord, factors: &[f64]) -> f64 {
    let f = factors[((r.start_ns / BUCKET_NS) as usize).min(factors.len() - 1)];
    (r.exec_ns as f64 + (r.latency_ns - r.exec_ns) as f64 / f) / 1e6
}

/// Cut the timing metrics from a window, `lat_ms` holding each record's
/// latency. Errors when a slice holds no completed read.
fn cut(w: &Window, lat_ms: &[f64]) -> Result<Timings, String> {
    let window_ns = w.window.as_nanos() as u64;
    let mut slices: Vec<Vec<(&OpRecord, f64)>> = vec![Vec::new(); SLICES];
    for (r, lat) in w.records.iter().zip(lat_ms) {
        if let Some(s) = slice_index(r.start_ns, window_ns, SLICES) {
            slices[s].push((r, *lat));
        }
    }
    let mut slice_throughput = Vec::new();
    let mut slice_p50 = Vec::new();
    let mut slice_p95 = Vec::new();
    let mut p95_per_slice = true;
    for (i, s) in slices.iter().enumerate() {
        let busy_ms: f64 = s.iter().map(|(_, lat)| lat).sum();
        let completed = s.iter().filter(|(r, _)| r.ok).count();
        let mut reads: Vec<f64> = s
            .iter()
            .filter(|(r, _)| r.ok && !is_write_class(r.class))
            .map(|(_, lat)| *lat)
            .collect();
        if completed == 0 || reads.is_empty() {
            return Err(format!("slice {i} has no completed read"));
        }
        reads.sort_by(f64::total_cmp);
        slice_throughput.push(completed as f64 / (busy_ms / 1e3));
        slice_p50.push(percentile(&reads, 50.0));
        slice_p95.push(percentile(&reads, 95.0));
        p95_per_slice &= supports_p95(reads.len());
    }
    let (read_p95_ms, read_p95_supported) = if p95_per_slice {
        (median(&slice_p95), true)
    } else {
        slice_p95.clear();
        let mut all_reads: Vec<f64> = w
            .records
            .iter()
            .zip(lat_ms)
            .filter(|(r, _)| r.ok && !is_write_class(r.class))
            .map(|(_, lat)| *lat)
            .collect();
        all_reads.sort_by(f64::total_cmp);
        (percentile(&all_reads, 95.0), supports_p95(all_reads.len()))
    };
    Ok(Timings {
        throughput_ops_s: median(&slice_throughput),
        read_p50_ms: median(&slice_p50),
        read_p95_ms,
        read_p95_supported,
        slice_throughput_ops_s: slice_throughput,
        slice_read_p50_ms: slice_p50,
        slice_read_p95_ms: slice_p95,
    })
}

/// Cut the end-to-end metrics from a window's records. Errors when a
/// slice is empty or a reported percentile sits on a cost-class boundary.
pub fn summarize(w: &Window) -> Result<Summary, String> {
    let mut factors = host_factors(&w.probes, w.window.as_nanos() as u64);
    let host_factor = median(&factors);
    if w.records.iter().any(|r| is_write_class(r.class)) {
        // View maintenance leaves the heap in a state in which the kernel
        // times the allocator's free lists (5–20× its quiet duration,
        // growing through the window), not the host.
        factors.fill(1.0);
    }
    let raw_ms: Vec<f64> = w
        .records
        .iter()
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    let corrected_ms: Vec<f64> = w
        .records
        .iter()
        .map(|r| corrected_ms(r, &factors))
        .collect();
    let raw = cut(w, &raw_ms)?;
    let corrected = cut(w, &corrected_ms)?;

    let of_class = |keep: &dyn Fn(u8) -> bool| -> Vec<f64> {
        w.records
            .iter()
            .zip(&corrected_ms)
            .filter(|(r, _)| r.ok && keep(r.class))
            .map(|(_, lat)| *lat)
            .collect()
    };
    let reads = of_class(&|c| !is_write_class(c)).len();
    let mut classes = Vec::new();
    let mut read_classes = Vec::new();
    for (class, name) in CLASS_NAMES.iter().enumerate() {
        let lat = of_class(&|c| c as usize == class);
        if lat.is_empty() {
            continue;
        }
        let summary = ClassSummary {
            name,
            count: lat.len(),
            median_ms: median(&lat),
        };
        if !is_write_class(class as u8) {
            read_classes.push(ClassShare {
                name,
                share: summary.count as f64 / reads as f64,
                median: summary.median_ms,
            });
        }
        classes.push(summary);
    }
    check_class_boundaries(&read_classes, &[50.0, 95.0])?;

    let writes = of_class(&is_write_class);
    Ok(Summary {
        attempted: w.records.len(),
        failed: w.records.iter().filter(|r| !r.ok).count(),
        corrected,
        raw,
        host_factor,
        write_mean_ms: (!writes.is_empty())
            .then(|| writes.iter().sum::<f64>() / writes.len() as f64),
        classes,
    })
}

/// Plan-cache hit ratio over a window.
pub fn hit_ratio(before: &PlanCacheStats, after: &PlanCacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The cache-regime assertions: `kv_lookup_hot` must run from the plan
/// cache without ever evicting, `lookup_cold` must never hit. A run in the
/// wrong regime fails rather than report numbers.
pub fn check_cache_regime(
    workload: Workload,
    before: &PlanCacheStats,
    after: &PlanCacheStats,
) -> Result<(), String> {
    let ratio = hit_ratio(before, after);
    match workload {
        Workload::KvLookupHot if ratio < 0.99 => Err(format!(
            "kv_lookup_hot ran at plan-cache hit ratio {ratio:.4} (< 0.99)"
        )),
        Workload::KvLookupHot if after.entries > 512 => Err(format!(
            "kv_lookup_hot holds {} plan-cache entries (> 512: the FIFO may evict)",
            after.entries
        )),
        Workload::LookupCold if ratio > 0.01 => Err(format!(
            "lookup_cold ran at plan-cache hit ratio {ratio:.4} (> 0.01)"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_ms: u64, latency_us: u64, class: u8, ok: bool) -> OpRecord {
        OpRecord {
            start_ns: start_ms * 1_000_000,
            latency_ns: latency_us * 1_000,
            exec_ns: 0,
            class,
            ok,
        }
    }

    fn window(records: Vec<OpRecord>) -> Window {
        let none = PlanCacheStats::default();
        Window {
            records,
            probes: Vec::new(),
            window: Duration::from_secs(5),
            plan_cache: (none, none),
        }
    }

    #[test]
    fn metrics_are_slice_medians_and_exclude_checking_time() {
        // Five 1 s slices, 300 reads of 1 ms each; slice 4 is disturbed
        // (10 ms ops). Ops are spaced 3 ms apart: the 2 ms gaps are harness
        // time and must not count.
        let mut records = Vec::new();
        for i in 0..1500u64 {
            let slow = i / 300 == 4;
            records.push(rec(
                i * 3 + i / 300 * 100,
                if slow { 10_000 } else { 1_000 },
                0,
                true,
            ));
        }
        let s = summarize(&window(records)).unwrap();
        assert_eq!(s.attempted, 1500);
        assert_eq!(s.failed, 0);
        assert_eq!(s.corrected.read_p50_ms, 1.0);
        assert_eq!(s.corrected.read_p95_ms, 1.0);
        assert!(s.corrected.read_p95_supported);
        // n ops ÷ (n × 1 ms busy).
        assert!((s.corrected.throughput_ops_s - 1000.0).abs() < 1e-6);
        assert_eq!(s.corrected.slice_throughput_ops_s.len(), SLICES);
        assert!(s.write_mean_ms.is_none());
    }

    #[test]
    fn sparse_reads_take_p95_from_the_whole_window() {
        // 50 reads per slice: p95 has 2 beyond it per slice, 12 over the
        // window. Writes count for throughput and the write mean only.
        let mut records = Vec::new();
        for i in 0..250u64 {
            records.push(rec(i * 20, 1_000 + i, 2, true));
            records.push(rec(i * 20 + 10, 5_000, 9, true));
        }
        let s = summarize(&window(records)).unwrap();
        assert!(s.corrected.slice_read_p95_ms.is_empty());
        assert!(s.corrected.read_p95_supported);
        assert_eq!(s.write_mean_ms, Some(5.0));
        assert_eq!(s.classes.len(), 2);
        // Too few reads for even that: still reported, flagged unsupported.
        let few: Vec<OpRecord> = (0..100).map(|i| rec(i * 50, 1_000, 2, true)).collect();
        assert!(
            !summarize(&window(few))
                .unwrap()
                .corrected
                .read_p95_supported
        );
    }

    #[test]
    fn host_factors_are_bucket_medians_and_fill_gaps() {
        let ref_ns = REFERENCE_NS as u64;
        // 2 s window: bucket 0 quiet, bucket 1 without a probe, bucket 2
        // 30 % slow (one outlier ignored by the median), bucket 3 empty.
        let probes = [
            (100, ref_ns),
            (200, ref_ns),
            (2 * BUCKET_NS + 1, ref_ns * 13 / 10),
            (2 * BUCKET_NS + 2, ref_ns * 13 / 10),
            (2 * BUCKET_NS + 3, ref_ns * 5),
            (9 * BUCKET_NS, ref_ns * 9),
        ];
        let f = host_factors(&probes, 4 * BUCKET_NS);
        assert_eq!(f.len(), 4);
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!((f[1] - 1.0).abs() < 1e-9, "gap takes the earlier bucket");
        assert!((f[2] - 1.3).abs() < 1e-4);
        assert!((f[3] - 1.3).abs() < 1e-4);
        // A leading gap takes the next measured bucket; no probes: 1.
        let late = host_factors(&[(BUCKET_NS + 5, ref_ns * 2)], 2 * BUCKET_NS);
        assert!((late[0] - 2.0).abs() < 1e-9);
        assert_eq!(host_factors(&[], 3 * BUCKET_NS), vec![1.0; 3]);
    }

    #[test]
    fn correction_scales_planning_and_keeps_execution() {
        // 1 ms reads holding 0.4 ms of plan execution, on a host running at
        // half its quiet speed: 0.4 + 0.6 / 2 = 0.7 ms.
        let mut records = Vec::new();
        for i in 0..1500u64 {
            let mut r = rec(i * 3 + i / 300 * 100, 1_000, 0, true);
            r.exec_ns = 400_000;
            records.push(r);
        }
        let mut w = window(records);
        w.probes = (0..500)
            .map(|i| (i * 10_000_000, REFERENCE_NS as u64 * 2))
            .collect();
        let s = summarize(&w).unwrap();
        assert!((s.host_factor - 2.0).abs() < 1e-9);
        assert!((s.corrected.read_p50_ms - 0.7).abs() < 1e-9);
        assert!((s.corrected.read_p95_ms - 0.7).abs() < 1e-9);
        assert!((s.corrected.throughput_ops_s - 1000.0 / 0.7).abs() < 1e-6);
        assert_eq!(s.raw.read_p50_ms, 1.0);
        assert!((s.raw.throughput_ops_s - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn a_window_with_writes_is_not_corrected() {
        let mut records = Vec::new();
        for i in 0..250u64 {
            records.push(rec(i * 20, 1_000, 2, true));
            records.push(rec(i * 20 + 10, 5_000, 9, true));
        }
        let mut w = window(records);
        w.probes = (0..500)
            .map(|i| (i * 10_000_000, REFERENCE_NS as u64 * 8))
            .collect();
        let s = summarize(&w).unwrap();
        assert!((s.host_factor - 8.0).abs() < 1e-9);
        assert_eq!(s.corrected.read_p50_ms, 1.0);
        assert_eq!(s.write_mean_ms, Some(5.0));
    }

    #[test]
    fn failures_are_counted_and_carry_no_latency() {
        let mut records: Vec<OpRecord> = (0..500).map(|i| rec(i * 10, 1_000, 0, true)).collect();
        records.push(rec(2_500, 1, 0, false));
        let s = summarize(&window(records)).unwrap();
        assert_eq!((s.attempted, s.failed), (501, 1));
        assert_eq!(s.corrected.read_p50_ms, 1.0);
    }

    #[test]
    fn an_empty_slice_is_an_error() {
        let records: Vec<OpRecord> = (0..100).map(|i| rec(i, 1_000, 0, true)).collect();
        assert!(summarize(&window(records)).is_err());
    }

    #[test]
    fn cache_regime_assertions() {
        let stats = |hits, misses, entries| PlanCacheStats {
            hits,
            misses,
            entries,
        };
        let zero = stats(0, 200, 200);
        assert!(check_cache_regime(Workload::KvLookupHot, &zero, &stats(10_000, 200, 200)).is_ok());
        assert!(check_cache_regime(Workload::KvLookupHot, &zero, &stats(900, 300, 200)).is_err());
        assert!(
            check_cache_regime(Workload::KvLookupHot, &zero, &stats(10_000, 200, 600)).is_err()
        );
        assert!(check_cache_regime(Workload::LookupCold, &zero, &stats(0, 5_000, 1024)).is_ok());
        assert!(check_cache_regime(Workload::LookupCold, &zero, &stats(500, 5_000, 1024)).is_err());
        assert!(check_cache_regime(Workload::Analytics, &zero, &stats(500, 5_000, 1024)).is_ok());
    }
}
