//! Regenerates the paper's tables and figures.
//!
#![doc = concat!("```text\n", include_str!("experiments_usage.txt"), "```")]
//!
//! Each experiment prints its table(s) and writes a JSON twin under
//! `results/`. With `--jobs N` each requested figure runs on its own
//! thread, and fig06/fig09/fig11/fig12 further split into one thread per
//! independent sweep cell; results are printed and written in request
//! order, so the text and JSON are byte-identical whatever `N` is.

use std::path::PathBuf;

use nadino::experiment::parallel::{pmap, resolve_jobs};
use nadino::experiment::{
    ablations, churn, fig06, fig09, fig11, fig12, fig13, fig14, fig15, fig16, fig17, summary,
    upgrade,
};
use obs::ToJson;

/// The command-line usage, shared with the module doc above.
const USAGE: &str = include_str!("experiments_usage.txt");

#[derive(Clone, Copy)]
struct Budget {
    /// Virtual milliseconds per steady-state cell.
    millis: u64,
    /// Echo requests per microbenchmark cell.
    requests: u64,
    /// Timeline compression for the multi-tenant experiments.
    scale: f64,
    /// Virtual seconds for the autoscaling ramp.
    ramp_secs: u64,
    /// Whether this is the `--quick` budget (shrinks the churn, upgrade
    /// and report runs).
    quick: bool,
}

impl Budget {
    fn full() -> Budget {
        Budget {
            millis: 400,
            requests: 2_000,
            scale: 0.1,
            ramp_secs: 48,
            quick: false,
        }
    }

    fn quick() -> Budget {
        Budget {
            millis: 60,
            requests: 300,
            scale: 0.04,
            ramp_secs: 16,
            quick: true,
        }
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// One figure's finished output: results-file stem, rendered table text
/// and pretty JSON. Produced on a worker thread, emitted in request order
/// by the main thread.
struct Output {
    stem: &'static str,
    text: String,
    json: String,
}

fn out<T: ToJson>(stem: &'static str, text: String, value: &T) -> Output {
    Output {
        stem,
        text,
        json: value.to_json().to_string_pretty(),
    }
}

/// Runs one experiment; `jobs` is the sweep-cell fan-out for the figures
/// that decompose into independent `Sim`s.
fn run_one(name: &str, b: &Budget, jobs: usize) -> Output {
    match name {
        "fig06" => {
            let fig = fig06::run_jobs(b.requests, b.millis, jobs);
            out("fig06", fig.render(), &fig)
        }
        "fig09" => {
            let fig = fig09::run_jobs(b.requests, jobs);
            out("fig09", fig.render(), &fig)
        }
        "fig11" => {
            let fig = fig11::run_jobs(b.millis, jobs);
            out("fig11", fig.render(), &fig)
        }
        "fig12" => {
            let fig = fig12::run_jobs(b.requests, jobs);
            out("fig12", fig.render(), &fig)
        }
        "fig13" => {
            let fig = fig13::run(b.millis);
            out("fig13", fig.render(), &fig)
        }
        "fig14" => {
            let fig = fig14::run(b.ramp_secs);
            out("fig14", fig.render(), &fig)
        }
        "fig15" => {
            let fig = fig15::run(b.scale);
            out("fig15", fig.render(), &fig)
        }
        "fig16" | "table2" => {
            let fig = fig16::run(b.millis);
            let mut text = fig.render();
            text.push('\n');
            text.push_str(&fig.render_table2());
            out("fig16", text, &fig)
        }
        "fig17" => {
            let fig = fig17::run(b.scale);
            out("fig17", fig.render(), &fig)
        }
        "ablations" => {
            let fig = ablations::run(b.millis, b.scale.min(0.05));
            out("ablations", fig.render(), &fig)
        }
        "summary" => {
            let fig = summary::run(b.millis, b.requests);
            out("summary", fig.render(), &fig)
        }
        "churn" => {
            let rep = churn::run_jobs(b.quick, jobs);
            out("BENCH_churn", rep.render(), &rep)
        }
        "upgrade" => {
            let rep = upgrade::run(b.quick);
            out("BENCH_upgrade", rep.render(), &rep)
        }
        "report" => {
            // The fleet observability report. Deliberately budget-invariant
            // apart from `--quick` (which shrinks the boutique cell), so the
            // CI obs-report job can diff two invocations byte-for-byte.
            let mut fleet_cfg = nadino::fleet::FleetConfig {
                seed: nadino::fleet::seed_from_env(42),
                ..nadino::fleet::FleetConfig::default()
            };
            if b.quick {
                fleet_cfg.horizon = simcore::SimDuration::from_millis(20);
                fleet_cfg.clients = 8;
            }
            let doc = nadino::fleet::build_report(&fleet_cfg);
            out("report", nadino::fleet::render_summary(&doc), &doc)
        }
        other => unreachable!("unvalidated experiment name {other:?}"),
    }
}

fn emit(o: &Output, report_out: Option<&PathBuf>) {
    println!("{}", o.text);
    let path = match (o.stem, report_out) {
        ("report", Some(p)) => p.clone(),
        _ => results_dir().join(format!("{}.json", o.stem)),
    };
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, &o.json)
    };
    match write() {
        Ok(()) => println!("[wrote {}]\n", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]\n", path.display()),
    }
}

/// Runs a short instrumented Online Boutique workload with cluster-wide
/// tracing and periodic metrics sampling, writing the requested outputs.
/// With `tail_sample` the trace pipeline drains completed traces through
/// the tail sampler (slowest-k + errors) and the export covers only the
/// kept traces; `flight_out` dumps the flight-recorder bundle at the end.
fn instrumented_run(
    trace_out: Option<&PathBuf>,
    metrics_out: Option<&PathBuf>,
    tail_sample: bool,
    flight_out: Option<&PathBuf>,
) {
    use membuf::tenant::TenantId;
    use nadino::boutique;
    use nadino::cluster::{Cluster, ClusterConfig};
    use nadino::workload::ClosedLoop;
    use obs::ToJson;
    use simcore::{Sim, SimDuration};
    use std::rc::Rc;

    eprintln!(">>> running instrumented boutique (trace/metrics export)");
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
    let tenant = TenantId(1);
    cluster
        .add_tenant(&mut sim, tenant, 1)
        .expect("tenant provisioning");
    let chain = boutique::home_query(tenant);
    for f in chain.functions() {
        cluster.place(f, boutique::hotspot_placement(f));
    }
    let tracer = obs::Tracer::enabled();
    cluster.set_tracer(&tracer);
    let pipelined = tail_sample || flight_out.is_some();
    if pipelined {
        cluster.enable_trace_pipeline(obs::PipelineConfig::default());
    }
    let stop = sim.now() + SimDuration::from_millis(20);
    let driver = ClosedLoop::new(stop);
    cluster.register_chain(&chain, boutique::exec_cost, driver.completion());
    driver.start(&mut sim, &cluster, &chain, 8, 256);
    let cluster = Rc::new(cluster);
    let reg = Rc::new(obs::MetricsRegistry::new());
    cluster.export_latency_histograms(&reg);
    cluster.with_trace_pipeline(|p| p.attach_metrics((*reg).clone()));
    cluster.start_obs_sampler(&mut sim, Rc::clone(&reg), SimDuration::from_millis(1), stop);
    sim.run();
    // With the pipeline on, completed traces were drained out of the
    // tracer: the export covers the retained (slowest/error) traces, and
    // the critical-path table attributes their latency per tenant.
    let records: Vec<obs::SpanRecord> = if tail_sample {
        let mut spans: Vec<obs::SpanRecord> = cluster
            .with_trace_pipeline(|p| {
                p.tail()
                    .kept()
                    .iter()
                    .flat_map(|t| t.spans.iter().copied())
                    .collect()
            })
            .unwrap_or_default();
        spans.sort_by_key(|r| (r.start_ns, r.req_id, r.span_id));
        spans
    } else {
        tracer.records()
    };
    println!(
        "instrumented run: {} requests, {} exported spans",
        driver.completed(),
        records.len()
    );
    if tail_sample {
        let (kept, discarded) = cluster
            .with_trace_pipeline(|p| (p.tail().kept().len(), p.tail().discarded()))
            .unwrap_or((0, 0));
        println!("tail sampler: kept {kept} traces, discarded {discarded}");
        let paths: Vec<obs::CriticalPath> = cluster
            .with_trace_pipeline(|p| {
                p.tail()
                    .kept()
                    .iter()
                    .filter_map(|t| obs::critical_path::analyze(&t.spans))
                    .collect()
            })
            .unwrap_or_default();
        let rows = obs::critical_path::tenant_breakdown(&paths);
        print!("{}", obs::critical_path::render_breakdown(&rows));
    }
    if let Some(path) = trace_out {
        let doc = obs::chrome_trace(&records);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, doc.to_string_pretty()) {
            Ok(()) => println!("[wrote {}]", path.display()),
            Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
        }
    }
    if let Some(path) = flight_out {
        if let Some(dump) = cluster.dump_flight_recorder(&sim) {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(path, dump.to_string_pretty()) {
                Ok(()) => println!("[wrote {}]", path.display()),
                Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
            }
        }
    }
    if let Some(path) = metrics_out {
        let snap = reg.snapshot();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, snap.to_json().to_string_pretty()) {
            Ok(()) => println!("[wrote {}]", path.display()),
            Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    // 0 means "auto"; resolved below via `resolve_jobs`.
    let mut jobs = 0usize;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut tail_sample = false;
    let mut flight_out: Option<PathBuf> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs needs an integer (0 = available cores)");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--metrics-out needs a path");
                    std::process::exit(2);
                }
            },
            "--report-out" => match it.next() {
                Some(p) => report_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--report-out needs a path");
                    std::process::exit(2);
                }
            },
            "--tail-sample" => tail_sample = true,
            "--flight-out" => match it.next() {
                Some(p) => flight_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--flight-out needs a path");
                    std::process::exit(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option {flag:?}\n\n{USAGE}");
                std::process::exit(2);
            }
            _ => names.push(a),
        }
    }
    let budget = if quick {
        Budget::quick()
    } else {
        Budget::full()
    };
    // `0` means "auto", resolved to available_parallelism() in one place
    // and announced up front so logs state the actual fan-out.
    let jobs = resolve_jobs(jobs);
    eprintln!(
        ">>> run header: jobs={jobs} budget={}",
        if quick { "quick" } else { "full" }
    );
    let instrumented =
        trace_out.is_some() || metrics_out.is_some() || tail_sample || flight_out.is_some();
    let mut names: Vec<String> = if names.iter().any(|a| a == "all")
        || (names.is_empty() && !instrumented && report_out.is_none())
    {
        bench::EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        names
    };
    // `--report-out` implies the fleet report even when no names are given.
    if report_out.is_some() && !names.iter().any(|n| n == "report") {
        names.push("report".to_string());
    }
    for name in &names {
        if !bench::is_known(name) {
            eprintln!(
                "unknown experiment {name:?}; known: {:?}",
                bench::EXPERIMENTS
            );
            std::process::exit(2);
        }
    }
    // Each figure runs on its own thread (and the sweep figures fan their
    // cells out further); outputs are emitted strictly in request order.
    let tasks: Vec<_> = names
        .iter()
        .map(|name| {
            let name = name.clone();
            move || {
                eprintln!(">>> running {name}");
                run_one(&name, &budget, jobs)
            }
        })
        .collect();
    for output in pmap(tasks, jobs) {
        emit(&output, report_out.as_ref());
    }
    if instrumented {
        instrumented_run(
            trace_out.as_ref(),
            metrics_out.as_ref(),
            tail_sample,
            flight_out.as_ref(),
        );
    }
}
