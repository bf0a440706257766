//! Command line, metric assembly and output of both benchmark binaries.
//!
//! Usage: `nadbench --workload <echo|boutique|tenants> --seed <n>
//! --seconds <s> [--trace 0]`, or `nadbench-traced ... --trace 1
//! [--untraced-host-ns <ns>]`. Every metric is printed as a table row with
//! its unit and sample count; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits 1 when the correctness gate fails and 2 on bad arguments.

use crate::bed::Outcome;
use crate::calib;
use crate::measure::{self, median, percentile, Measurement};
use crate::trace::{self, Span};
use crate::{spec, Workload};

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The untraced run's `host_ns_per_req`, for `obs.trace_overhead_pct`.
    pub untraced_host_ns: Option<f64>,
}

/// Parses `--workload`, `--seed`, `--seconds`, `--trace` and
/// `--untraced-host-ns`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut untraced_host_ns = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--untraced-host-ns" => {
                let ns = value.parse::<f64>().map_err(|_| bad())?;
                if !(ns.is_finite() && ns > 0.0) {
                    return Err(bad());
                }
                untraced_host_ns = Some(ns);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        untraced_host_ns,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Completed latencies of a round, ascending.
fn completed_latencies(m: &Measurement) -> Vec<u64> {
    let mut lat: Vec<u64> = m
        .first
        .latency_ns
        .iter()
        .copied()
        .filter(|&ns| ns != u64::MAX)
        .collect();
    lat.sort_unstable();
    lat
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measurement) -> Vec<Metric> {
    let lat = completed_latencies(m);
    let done = m.first.completed();
    let l = &m.first_layers;
    let per_krps = |core_s: f64| core_s * 1000.0 / done as f64;
    vec![
        metric(
            "setup_s",
            median(&m.setup_s) * calib::scale(&m.calib_ns),
            "s",
            m.setup_s.len() as u64,
        ),
        metric(
            "host_ns_per_req",
            median(&m.host_scaled),
            "ns",
            m.host_ns_per_req.len() as u64,
        ),
        metric("peak_rss_mb", m.peak_rss_mb, "MB", 1),
        metric("sim_p50_us", percentile(&lat, 0.5) as f64 / 1e3, "us", done),
        metric(
            "sim_p999_us",
            percentile(&lat, 0.999) as f64 / 1e3,
            "us",
            done,
        ),
        metric(
            "slo_rps",
            m.slo_rps.expect("untraced runs search"),
            "1/s",
            m.probes as u64,
        ),
        metric(
            "dpu_cores_per_krps",
            per_krps(l.engine_core_s),
            "cores/krps",
            done,
        ),
        metric(
            "host_cores_per_krps",
            per_krps(l.host_core_s),
            "cores/krps",
            done,
        ),
    ]
}

/// The per-layer metrics of a traced run, named `<crate>.<metric>`. Host
/// times come from this thread's span totals ([`trace::totals`]).
pub fn per_layer(m: &Measurement, untraced_host_ns: Option<f64>) -> Vec<Metric> {
    let r = &m.first;
    let l = &m.first_layers;
    let done = r.completed().max(1) as f64;
    let all_done = m.completed_total.max(1) as f64;
    let rounds = m.rounds as u64;
    let n = r.offered;
    let span = trace::totals;
    let per_call = |s: Span| {
        let t = span(s);
        (t.total_ns as f64 / t.calls.max(1) as f64, t.calls)
    };
    let q = |h: &simcore::Histogram, p: f64| h.percentile(p).as_micros_f64();
    let setups = span(Span::ClusterNew).calls.max(1) as f64;
    let (parse_ns, parses) = per_call(Span::Parse);
    let (submit_ns, submits) = per_call(Span::Submit);
    let (inject_ns, injects) = per_call(Span::Inject);
    let (sample_ns, samples) = per_call(Span::Sample);
    let (add_ns, adds) = per_call(Span::AddTenant);
    let run = span(Span::Run);
    let host_ns_per_req = median(&m.host_scaled);
    let overhead = untraced_host_ns.map_or(0.0, |u| (host_ns_per_req / u - 1.0) * 100.0);
    let traces = m.stages.traces.max(1) as f64;
    let gw = &l.gateway;
    let window = l.window_s.max(f64::MIN_POSITIVE);
    let mut out = vec![
        metric("simcore.events_per_req", r.events as f64 / done, "count", n),
        metric(
            "simcore.cancelled_per_req",
            r.cancelled as f64 / done,
            "count",
            n,
        ),
        metric("simcore.peak_pending", l.peak_pending as f64, "count", 1),
        metric(
            "simcore.events_per_s",
            m.events_total as f64 / (m.run_host_ns_total as f64 / 1e9),
            "1/s",
            rounds,
        ),
        metric(
            "simcore.run_self_ns_per_req",
            run.self_ns() as f64 / all_done,
            "ns",
            rounds,
        ),
        metric(
            "process.allocs_per_req",
            m.allocs.0 as f64 / all_done,
            "count",
            rounds,
        ),
        metric(
            "process.alloc_bytes_per_req",
            m.allocs.1 as f64 / all_done,
            "B",
            rounds,
        ),
        metric(
            "dne.tx_posted_per_req",
            l.tx_posted as f64 / done,
            "count",
            n,
        ),
        metric(
            "dne.rx_delivered_per_req",
            l.rx_delivered as f64 / done,
            "count",
            n,
        ),
        metric(
            "dne.tx_queue_wait_p50_us",
            q(&l.tx_queue_wait, 50.0),
            "us",
            l.tx_queue_wait.count(),
        ),
        metric(
            "dne.tx_queue_wait_p99_us",
            q(&l.tx_queue_wait, 99.0),
            "us",
            l.tx_queue_wait.count(),
        ),
        metric(
            "dne.sched_delay_p50_us",
            q(&l.sched_delay, 50.0),
            "us",
            l.sched_delay.count(),
        ),
        metric(
            "dne.sched_delay_p99_us",
            q(&l.sched_delay, 99.0),
            "us",
            l.sched_delay.count(),
        ),
        metric(
            "dne.post_to_completion_p50_us",
            q(&l.post_to_completion, 50.0),
            "us",
            l.post_to_completion.count(),
        ),
        metric(
            "dne.post_to_completion_p99_us",
            q(&l.post_to_completion, 99.0),
            "us",
            l.post_to_completion.count(),
        ),
        metric("dne.retries", l.retries as f64, "count", n),
        metric("dne.failovers", l.failovers as f64, "count", n),
        metric("dne.give_ups", l.give_ups as f64, "count", n),
        metric("dne.drops", l.drops as f64, "count", n),
        metric(
            "dne.replenish_failures",
            l.replenish_failures as f64,
            "count",
            n,
        ),
        metric(
            "dne.conn_hit_ratio",
            l.conn_hits as f64 / (l.conn_hits + l.conn_misses).max(1) as f64,
            "ratio",
            l.conn_hits + l.conn_misses,
        ),
        metric(
            "rdma-sim.sends_per_req",
            l.fabric_sends as f64 / done,
            "count",
            n,
        ),
        metric(
            "rdma-sim.peak_active_qps",
            l.peak_active_qps as f64,
            "count",
            1,
        ),
        metric("rdma-sim.lost", l.lost as f64, "count", n),
        metric("dpu-sim.engine_cores", l.engine_core_s / window, "cores", n),
        metric("membuf.gets_per_req", l.pool_gets as f64 / done, "count", n),
        metric("membuf.failed_gets", l.failed_gets as f64, "count", n),
        metric("membuf.failed_redeems", l.failed_redeems as f64, "count", n),
        metric("ingress.parse_ns_per_req", parse_ns, "ns", parses),
        metric("ingress.submit_ns_per_req", submit_ns, "ns", submits),
        metric("ingress.accepted", gw.accepted as f64, "count", n),
        metric("ingress.shed", gw.shed as f64, "count", n),
        metric("ingress.dropped", gw.dropped as f64, "count", n),
        metric("ingress.expired", gw.expired as f64, "count", n),
        metric("ingress.failed", gw.failed as f64, "count", n),
        metric(
            "ingress.gateway_cores",
            l.gateway_core_s / window,
            "cores",
            n,
        ),
        metric(
            "runtime.local_sends_per_req",
            l.local_sends as f64 / done,
            "count",
            n,
        ),
        metric(
            "runtime.remote_sends_per_req",
            l.remote_sends as f64 / done,
            "count",
            n,
        ),
        metric("runtime.dropped", l.io_dropped as f64, "count", n),
        metric("runtime.host_cores", l.host_core_s / window, "cores", n),
        metric(
            "core.cluster_new_ms",
            span(Span::ClusterNew).total_ns as f64 / setups / 1e6,
            "ms",
            span(Span::ClusterNew).calls,
        ),
        metric("core.add_tenant_ms_per_tenant", add_ns / 1e6, "ms", adds),
        metric(
            "core.register_ms",
            span(Span::RegisterChain).total_ns as f64 / setups / 1e6,
            "ms",
            span(Span::RegisterChain).calls,
        ),
        metric("core.inject_ns_per_req", inject_ns, "ns", injects),
        metric(
            "core.fail_ratio",
            r.not_completed() as f64 / n as f64,
            "ratio",
            n,
        ),
        metric("obs.sample_ns_per_call", sample_ns, "ns", samples),
        metric(
            "obs.spans_recorded",
            m.stages.spans as f64,
            "count",
            m.stages.traces,
        ),
        metric("obs.spans_dropped", m.spans_dropped as f64, "count", rounds),
        metric("obs.trace_overhead_pct", overhead, "%", rounds),
    ];
    let stage_names = obs::Stage::ALL
        .iter()
        .map(|s| s.name())
        .chain([obs::critical_path::UNTRACKED]);
    for stage in stage_names {
        let ns = m
            .stages
            .ns
            .iter()
            .find(|(s, _)| s == stage)
            .map_or(0, |(_, ns)| *ns);
        out.push(metric(
            &format!("stage.{stage}_us"),
            ns as f64 / traces / 1e3,
            "us",
            m.stages.traces,
        ));
    }
    out
}

/// Formats a value for JSON: finite numbers with all their digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the table and the final JSON line.
pub fn print(m: &Measurement, metrics: &[Metric], trace: bool) {
    let r = &m.first;
    println!(
        "workload {} ({}), {} rounds of {} open-loop arrivals at {} rps, digest {:016x}",
        m.workload.name(),
        if trace { "traced" } else { "untraced" },
        m.rounds,
        r.offered,
        m.spec.rate_rps,
        m.digest
    );
    println!(
        "generator lateness 0 ns: each arrival fires at its due time in virtual time, \
         and latency is measured from that due time"
    );
    println!(
        "outcomes per round: completed {} failed {} shed {} dropped {} expired {} in flight {}",
        r.completed(),
        r.counts[Outcome::Failed as usize],
        r.counts[Outcome::Shed as usize],
        r.counts[Outcome::Dropped as usize],
        r.counts[Outcome::Expired as usize],
        r.unresolved()
    );
    let mut host = m.host_ns_per_req.clone();
    host.sort_by(f64::total_cmp);
    println!(
        "raw host ns per completed request over {} segments: min {:.0} median {:.0} max {:.0}; \
         calibration median {:.0} ns over {} passes, which scales setup times by {:.4}",
        host.len(),
        host[0],
        median(&host),
        host[host.len() - 1],
        calib::NOMINAL_NS / calib::scale(&m.calib_ns),
        m.calib_ns.len(),
        calib::scale(&m.calib_ns)
    );

    if m.workload == Workload::Boutique {
        println!("responses re-parsed and checked: {}", r.responses_checked);
    }
    for e in &m.errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "{:<34} {:>16} {:<11} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for x in metrics {
        println!(
            "{:<34} {:>16.4} {:<11} {:>9}",
            x.name, x.value, x.unit, x.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.errors.is_empty(),
        m.attempted,
        m.failed,
        body.join(", ")
    );
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's mmap threshold at its 128 KiB default. glibc otherwise
/// raises the threshold after the first large free, so every round after
/// the first would carve the clusters' multi-megabyte pool segments out of
/// the heap and zero them eagerly: later rounds would pay page faults and
/// resident memory the first one did not.
fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called before
    // any other thread exists and with a value glibc documents as valid.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Entry point shared by both binaries; returns the process exit code.
pub fn main(traced_binary: bool) -> i32 {
    pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "error: --trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace {
                "nadbench-traced"
            } else {
                "nadbench"
            }
        );
        return 2;
    }
    let m = measure::measure(
        args.workload,
        &spec(args.workload),
        args.seed,
        args.seconds,
        args.trace,
    );
    let metrics = if args.trace {
        per_layer(&m, args.untraced_host_ns)
    } else {
        end_to_end(&m)
    };
    print(&m, &metrics, args.trace);
    i32::from(!m.errors.is_empty())
}
