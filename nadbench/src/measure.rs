//! One benchmark invocation: repeated identical rounds for host time, the
//! virtual-time results of those rounds, the `slo_rps` rate search, and
//! the per-layer counters read back through each crate's stats getters.

use std::rc::Rc;
use std::time::{Duration, Instant};

use simcore::Histogram;

use crate::bed::{self, Bed, Horizon, RunResult};
use crate::calib;
use crate::gen;
use crate::trace;
use crate::{Spec, Workload};

/// Fewest rounds a run measures, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 2;
/// Segments that completed fewer requests (the drain tail) are not host
/// time samples.
pub const MIN_SEGMENT_COMPLETIONS: u64 = 1_000;
/// Fewest setups whose median `setup_s` reports.
pub const MIN_SETUPS: usize = 15;
/// Head-sampling modulus of the traced run's virtual-time tracer.
pub const TRACE_SAMPLE_EVERY: u64 = 32;
/// Per-node span ring capacity of the traced run.
pub const TRACE_RING: usize = 1 << 20;

/// Counters read from the crates after one round.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub tx_posted: u64,
    pub rx_delivered: u64,
    pub retries: u64,
    pub failovers: u64,
    pub give_ups: u64,
    pub drops: u64,
    pub replenish_failures: u64,
    pub conn_hits: u64,
    pub conn_misses: u64,
    pub tx_queue_wait: Histogram,
    pub sched_delay: Histogram,
    pub post_to_completion: Histogram,
    pub fabric_sends: u64,
    pub peak_active_qps: usize,
    pub lost: u64,
    /// Busy core-seconds over the run's virtual window.
    pub engine_core_s: f64,
    pub host_core_s: f64,
    pub gateway_core_s: f64,
    pub window_s: f64,
    pub pool_gets: u64,
    pub failed_gets: u64,
    pub failed_redeems: u64,
    pub local_sends: u64,
    pub remote_sends: u64,
    pub io_dropped: u64,
    pub gateway: ingress::GatewayStats,
    pub peak_pending: usize,
}

/// Reads every crate's counters after `run`.
pub fn layers(bed: &Bed, run: &RunResult) -> Layers {
    let mut l = Layers::default();
    let cluster = &bed.cluster;
    let (a, b) = (run.t0, run.t_last);
    let window_s = b.saturating_since(a).as_secs_f64();
    for node in &cluster.nodes {
        let s = node.dne.stats();
        l.tx_posted += s.tx_posted;
        l.rx_delivered += s.rx_delivered;
        l.retries += s.retries;
        l.failovers += s.failovers;
        l.give_ups += s.give_ups;
        l.drops += s.drops;
        l.replenish_failures += s.replenish_failures;
        l.tx_queue_wait.merge(&s.tx_queue_wait);
        l.sched_delay.merge(&s.sched_delay);
        l.post_to_completion.merge(&s.post_to_completion);
        let (hits, misses) = node.dne.conn_hit_miss();
        l.conn_hits += hits;
        l.conn_misses += misses;
        l.fabric_sends += cluster.fabric.node_counters(node.id).0;
        l.peak_active_qps = l
            .peak_active_qps
            .max(cluster.fabric.peak_active_qp_count(node.id));
        let io = node.iolib.stats();
        l.local_sends += io.local_sends;
        l.remote_sends += io.remote_sends;
        l.io_dropped += io.dropped;
    }
    l.lost = cluster.fabric.fault_stats().lost;
    l.engine_core_s = cluster.engine_utilization(a, b) * window_s;
    l.host_core_s = cluster.host_utilization(a, b) * window_s;
    l.window_s = window_s;
    for (_, _, pool) in cluster.pools_snapshot() {
        let s = pool.stats();
        l.pool_gets += s.gets;
        l.failed_gets += s.failed_gets;
        l.failed_redeems += s.failed_redeems;
    }
    if let Some(gw) = &bed.gateway {
        l.gateway = gw.stats();
        l.gateway_core_s = gw.utilization_cores(a, b) * window_s;
    }
    l.peak_pending = bed.sim.profile().peak_pending;
    l
}

/// FNV-1a over the virtual results of a run: every request's latency and
/// the outcome counters.
pub fn digest(run: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(run.offered);
    for &c in &run.counts {
        eat(c);
    }
    for &ns in &run.latency_ns {
        eat(ns);
    }
    h
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of host-time samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A probe run's p99.9 latency over *every* offered request — a request
/// that failed or had not finished counts as missing the limit — or
/// `None` when under 99 % of arrivals finished by the end of the horizon
/// (the backlog is growing).
pub fn probe_p999(run: &RunResult) -> Option<u64> {
    let finished = run.offered - run.unresolved();
    if (finished as f64) < 0.99 * run.offered as f64 {
        return None;
    }
    let mut lat = run.latency_ns.clone();
    lat.sort_unstable();
    Some(percentile(&lat, 0.999))
}

/// The correctness gate's verdict on one round.
pub fn check(run: &RunResult) -> Vec<String> {
    let mut errors = Vec::new();
    let sum: u64 = run.counts[1..].iter().sum();
    if sum != run.offered || run.unresolved() != 0 {
        errors.push(format!(
            "accounting: {} offered but {sum} resolved ({} still open)",
            run.offered,
            run.unresolved()
        ));
    }
    if run.engine_in_flight != 0 || run.events_pending != 0 {
        errors.push(format!(
            "drain: {} engine items and {} events left in flight",
            run.engine_in_flight, run.events_pending
        ));
    }
    if run.duplicates != 0 {
        errors.push(format!("{} duplicate or unknown outcomes", run.duplicates));
    }
    if run.bad != 0 {
        errors.push(format!("{} malformed requests or responses", run.bad));
    }
    if run.completed() == 0 {
        errors.push("no request completed".to_string());
    }
    errors
}

/// Everything one invocation measured.
pub struct Measurement {
    pub workload: Workload,
    pub spec: Spec,
    /// Raw host seconds of each setup.
    pub setup_s: Vec<f64>,
    /// Raw host ns per completed request of each segment.
    pub host_ns_per_req: Vec<f64>,
    /// The same, each scaled by the calibration pass timed before it.
    pub host_scaled: Vec<f64>,
    /// Calibration passes timed during the run.
    pub calib_ns: Vec<u64>,
    /// The first round (all rounds are checked to be identical).
    pub first: RunResult,
    pub first_layers: Layers,
    /// The process's peak resident set after the rounds, in MB.
    pub peak_rss_mb: f64,
    pub digest: u64,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `None` in the traced run, which skips the search.
    pub slo_rps: Option<f64>,
    pub probes: usize,
    /// Traced run: allocation counts and the critical-path stage split
    /// over all rounds (span totals stay in [`trace::totals`]).
    pub allocs: (u64, u64),
    pub completed_total: u64,
    pub events_total: u64,
    pub run_host_ns_total: u64,
    pub stages: bed::StageAcc,
    pub spans_dropped: u64,
}

/// Runs `spec`'s load on the workload for `seconds` of host time (at least [`MIN_ROUNDS`]
/// rounds of identical inputs), then the rate search and any extra setups
/// `setup_s` needs.
pub fn measure(
    workload: Workload,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Measurement {
    let inputs = Rc::new(gen::generate(workload, seed, spec.rate_rps, spec.requests));
    if traced {
        trace::enable();
    }
    let mut setup_s = Vec::new();
    let mut host = Vec::new();
    let mut host_scaled = Vec::new();
    let mut calib_ns = Vec::new();
    let mut allocs = (0, 0);
    let mut errors = Vec::new();
    let mut first: Option<(Layers, RunResult, u64)> = None;
    let mut rounds = 0;
    let (mut attempted, mut failed) = (0, 0);
    let (mut completed_total, mut events_total, mut run_host_ns_total) = (0, 0, 0);
    let mut stages = bed::StageAcc::default();
    let mut spans_dropped = 0;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while rounds < MIN_ROUNDS || started.elapsed() < budget {
        let t = Instant::now();
        let mut bed = bed::setup(workload, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let tracer = traced.then(|| {
            let t = obs::Tracer::with_capacity(TRACE_RING);
            t.set_head_sample(TRACE_SAMPLE_EVERY);
            t
        });
        let run = bed::run(
            &mut bed,
            inputs.clone(),
            Horizon::Drain,
            tracer.as_ref(),
            true,
        );
        let round_calib: Vec<u64> = run.segments.iter().map(|s| s.calib_ns).collect();
        rounds += 1;
        attempted += run.offered;
        failed += run.not_completed();
        completed_total += run.completed();
        events_total += run.events;
        run_host_ns_total += run.host_ns();
        allocs.0 += run.allocs.0;
        allocs.1 += run.allocs.1;
        let samples = host.len();
        for s in &run.segments {
            if s.completed >= MIN_SEGMENT_COMPLETIONS {
                let raw = s.host_ns as f64 / s.completed as f64;
                host.push(raw);
                host_scaled.push(raw * calib::NOMINAL_NS / s.calib_ns as f64);
            }
        }
        if host.len() == samples {
            // A round too short for a full segment is one sample.
            let raw = run.host_ns() as f64 / run.completed().max(1) as f64;
            host.push(raw);
            host_scaled.push(raw * calib::scale(&round_calib));
        }
        calib_ns.extend_from_slice(&round_calib);
        if let Some(t) = &tracer {
            spans_dropped += t.dropped();
        }
        for e in check(&run) {
            errors.push(format!("round {rounds}: {e}"));
        }
        stages.merge(&run.stages);
        let d = digest(&run);
        match &first {
            None => first = Some((layers(&bed, &run), run, d)),
            Some((_, _, d0)) if *d0 != d => errors.push(format!(
                "round {rounds}: digest {d:016x} differs from round 1's {d0:016x}"
            )),
            Some(_) => {}
        }
    }
    let (first_layers, first, digest) = first.expect("at least one round");
    // Before the rate search, whose overloaded probes hold far more
    // requests in flight than the workload does.
    let peak_rss_mb = peak_rss_mb();
    let mut slo_rps = None;
    let mut probes = 0;
    if !traced {
        let (rps, n) = slo_search(workload, spec, seed, &mut setup_s);
        slo_rps = Some(rps);
        probes = n;
        while setup_s.len() < MIN_SETUPS {
            let t = Instant::now();
            let bed = bed::setup(workload, seed);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(bed);
        }
    }
    Measurement {
        workload,
        spec: *spec,
        setup_s,
        host_ns_per_req: host,
        host_scaled,
        calib_ns,
        first,
        first_layers,
        peak_rss_mb,
        digest,
        rounds,
        attempted,
        failed,
        errors,
        slo_rps,
        probes,
        allocs,
        completed_total,
        events_total,
        run_host_ns_total,
        stages,
        spans_dropped,
    }
}

/// The highest offered rate whose probe run meets the workload's latency
/// limit. Bisection over the workload's rate range brackets the limit
/// between a passing and a failing probe; the rate is then interpolated
/// linearly in p99.9 between the two, so it moves continuously with the
/// measured latencies instead of in steps of the bracket width.
/// Deterministic for a seed. Each probe's setup time joins `setup_s`.
/// Returns the rate and the number of probes.
pub fn slo_search(
    workload: Workload,
    spec: &Spec,
    seed: u64,
    setup_s: &mut Vec<f64>,
) -> (f64, usize) {
    let limit = spec.slo_limit.as_nanos();
    let mut probes = 0;
    let mut probe = |rate: f64| {
        probes += 1;
        let inputs = Rc::new(gen::generate(
            workload,
            seed ^ PROBE_SEED,
            rate,
            spec.probe_requests,
        ));
        let t = Instant::now();
        let mut bed = bed::setup(workload, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let run = bed::run(&mut bed, inputs, Horizon::Cut(spec.slo_limit), None, false);
        probe_p999(&run).unwrap_or(u64::MAX)
    };
    let (mut lo, mut hi) = spec.search;
    let mut p_lo = probe(lo);
    if p_lo > limit {
        return (0.0, probes);
    }
    let mut p_hi = probe(hi);
    if p_hi <= limit {
        return (hi, probes);
    }
    for _ in 0..spec.search_steps {
        let mid = (lo + hi) / 2.0;
        let p = probe(mid);
        if p <= limit {
            (lo, p_lo) = (mid, p);
        } else {
            (hi, p_hi) = (mid, p);
        }
    }
    let rps = if p_hi == u64::MAX {
        lo
    } else {
        lo + (hi - lo) * (limit - p_lo) as f64 / (p_hi - p_lo) as f64
    };
    (rps, probes)
}

/// Mixed into the seed of the rate-search inputs so probes do not replay
/// the main rounds' arrivals.
const PROBE_SEED: u64 = 0x5107_5ea2_c4a7_e000;
