//! The fleet-level observability report (`results/report.json`).
//!
//! This module assembles everything the obs v3 stack produces into one
//! deterministic document — the "fleet report" the evaluation and the CI
//! `obs-report` job are built on:
//!
//! - a **boutique cell**: the fig16-shaped Online Boutique chain behind
//!   a NADINO ingress, run on the full-fidelity DNE cluster with the
//!   tracer, trace pipeline (multi-window SLO burn monitor included),
//!   exemplar-carrying latency histograms and the windowed
//!   [`obs::Aggregator`] all enabled — producing per-window fleet
//!   rollups, merged histograms whose every exemplar resolves to a
//!   retained flight-recorder/tail-sampler trace, the per-tenant
//!   burn-rate series, and a flight-recorder dump;
//! - a **host-only baseline**: the same cell on the CNE (engine on a
//!   host core) to price the "SoC cores freed" table
//!   ([`obs::CoresFreed`]) next to the per-stage SoC profiler
//!   ([`obs::SocStageTable`]);
//! - a **churn phase**: the elastic cell's per-window QP-thrash series.
//!
//! Determinism contract: for a fixed [`FleetConfig`] seed the rendered
//! JSON is byte-identical across processes — every number in it derives
//! from virtual time and seeded streams, and wall-clock self-observation
//! metrics are dropped by the aggregator.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use ingress::gateway::{Gateway, GatewayConfig, Reply, Upstream};
use ingress::rss::FlowId;
use membuf::tenant::TenantId;
use obs::JsonValue;
use simcore::{Sim, SimDuration, SimTime};

use crate::boutique;
use crate::churn::{self, ChurnConfig};
use crate::cluster::{Cluster, ClusterConfig};

/// The tenant the boutique cell runs as (on-wire id 1).
const TENANT: u16 = 1;

/// Configuration of one fleet report.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root seed for every phase.
    pub seed: u64,
    /// Closed-loop clients driving the boutique cell.
    pub clients: usize,
    /// Virtual time of the boutique cell.
    pub horizon: SimDuration,
    /// Aggregation window (= obs sampling cadence) of the boutique cell.
    pub obs_window: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            clients: 20,
            horizon: SimDuration::from_millis(40),
            obs_window: SimDuration::from_millis(5),
        }
    }
}

/// `REPORT_SEED` env override (decimal or `0x`-hex), mirroring the churn
/// sweep's `CHURN_SEED`: the CI `obs-report` job sweeps a seed matrix and
/// asserts byte identity per seed.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("REPORT_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim().to_string();
            match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(default)
}

/// What one boutique cell leaves behind.
struct CellOut {
    completed: u64,
    agg: obs::Aggregator,
    burn: JsonValue,
    flight: JsonValue,
    retained: BTreeSet<u64>,
    soc: obs::SocStageTable,
    engine_cores: f64,
    host_cores: f64,
    exemplars_kept: usize,
    exemplars_dropped: usize,
}

/// Closed-loop driver state over the gateway.
struct Driver {
    gateway: Gateway,
    upstream: Upstream,
    completed: u64,
    stop_at: SimTime,
}

fn issue(state: &Rc<RefCell<Driver>>, sim: &mut Sim, client: u32) {
    let (gateway, upstream) = {
        let st = state.borrow();
        if sim.now() >= st.stop_at {
            return;
        }
        (st.gateway.clone(), st.upstream.clone())
    };
    let st2 = state.clone();
    gateway.submit_tenant(
        sim,
        TENANT,
        FlowId::from_client(client, 0),
        boutique::PAYLOAD_BYTES,
        upstream,
        Box::new(move |sim, result| {
            if result.is_ok() {
                st2.borrow_mut().completed += 1;
            }
            issue(&st2, sim, client);
        }),
    );
}

/// Recurring obs tick: sample the cluster into the registry and close
/// one aggregation window over the snapshot.
fn obs_tick(
    cluster: Rc<Cluster>,
    reg: Rc<obs::MetricsRegistry>,
    agg: Rc<RefCell<obs::Aggregator>>,
    sim: &mut Sim,
    every: SimDuration,
    until: SimTime,
) {
    sim.schedule_after(every, move |sim| {
        cluster.sample_obs(sim.now(), &reg, every);
        agg.borrow_mut().observe(sim.now(), &reg.snapshot());
        if sim.now() < until {
            obs_tick(cluster, reg, agg, sim, every, until);
        }
    });
}

/// Runs the boutique cell once. `dne_cfg` selects the engine placement
/// (DPU-resident DNE vs host-resident CNE for the baseline).
fn run_cell(cfg: &FleetConfig, dne_cfg: dne::DneConfig) -> CellOut {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(
        &mut sim,
        ClusterConfig {
            dne: dne_cfg,
            pool_bufs: 4096,
            ..ClusterConfig::default()
        },
    );
    cluster
        .add_tenant(&mut sim, TenantId(TENANT), 1)
        .expect("fresh cluster");
    let cluster = Rc::new(cluster);
    for f in boutique::all_functions() {
        cluster.place(f, boutique::hotspot_placement(f));
    }

    // Tracing: ingress-decided sampling every 2nd request, pipeline with
    // the multi-window burn monitor sized to the cell's latency scale.
    let tracer = obs::Tracer::enabled();
    tracer.set_head_sample(2);
    cluster.set_tracer(&tracer);
    cluster.enable_trace_pipeline(obs::PipelineConfig {
        burn: Some(obs::BurnConfig {
            target_ns: 2_000_000, // 2 ms — near the cell's mean latency
            budget: 0.05,
            fast_window: SimDuration::from_millis(2),
            slow_window: SimDuration::from_millis(24),
            burn_threshold: 2.0,
            min_events: 4,
        }),
        ..obs::PipelineConfig::default()
    });

    // Exemplar-carrying observation sites: per-node engine histograms
    // plus the gateway admission-wait histogram.
    let reg = Rc::new(obs::MetricsRegistry::new());
    cluster.export_latency_histograms(&reg);

    // Completions resolve the per-request reply registered at injection.
    let chain = boutique::home_query(TenantId(TENANT));
    let pending: Rc<RefCell<HashMap<u64, Reply>>> = Rc::new(RefCell::new(HashMap::new()));
    let p2 = pending.clone();
    cluster.register_chain(
        &chain,
        boutique::exec_cost,
        Rc::new(move |sim, req| {
            if let Some(reply) = p2.borrow_mut().remove(&req) {
                reply(sim, Ok(boutique::PAYLOAD_BYTES));
            }
        }),
    );
    let p3 = pending.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |sim, failure| {
        if let Some(reply) = p3.borrow_mut().remove(&failure.req_id) {
            reply(sim, Err(ingress::DeliveryFailed));
        }
    }));

    let gateway = Gateway::new(GatewayConfig {
        kind: ingress::stack::GatewayKind::Nadino,
        initial_workers: 2,
        max_backlog: SimDuration::from_millis(500),
        ..GatewayConfig::default()
    });
    gateway.set_tracer(tracer.clone());
    gateway.register_tenant(TENANT, 1);
    gateway.set_admission_histogram(Some(reg.histogram("gw_admission_wait_ns", &[])));

    // Ingress → cluster upstream: RDMA transport, then inject.
    let transport = SimDuration::from_micros(3);
    let pools = cluster.pools_snapshot();
    let entry_idx = cluster.node_index_of(chain.entry()).expect("placed");
    let entry_iolib = cluster.nodes[entry_idx].iolib.clone();
    let chain2 = chain.clone();
    let upstream: Upstream = Rc::new(move |sim, ctx: ingress::ReqCtx, reply| {
        let req_id = ctx.req_id;
        let pending = pending.clone();
        let pools = pools.clone();
        let iolib = entry_iolib.clone();
        let chain = chain2.clone();
        sim.schedule_after(transport, move |sim| {
            let pool = pools
                .iter()
                .find(|(t, i, _)| *t == chain.tenant && *i == 0)
                .map(|(_, _, p)| p);
            let Some(pool) = pool else {
                reply(sim, Ok(0));
                return;
            };
            let Ok(mut buf) = pool.get() else {
                reply(sim, Ok(0)); // shed under pool exhaustion
                return;
            };
            let mut payload = runtime::encode_request_payload(req_id, boutique::PAYLOAD_BYTES);
            runtime::set_hop(&mut payload, 0);
            buf.write_payload(&payload).expect("payload fits");
            pending.borrow_mut().insert(req_id, reply);
            iolib.send(sim, chain.tenant, buf.into_desc(chain.entry()));
        });
    });

    // Anchor the measured interval at "now": tenant setup above advanced
    // virtual time (RC establishment costs tens of ms).
    let t0 = sim.now();
    let until = t0 + cfg.horizon;
    let agg = Rc::new(RefCell::new(obs::Aggregator::new()));
    obs_tick(
        cluster.clone(),
        reg.clone(),
        agg.clone(),
        &mut sim,
        cfg.obs_window,
        until,
    );
    cluster.start_trace_flusher(&mut sim, cfg.obs_window, until);

    let driver = Rc::new(RefCell::new(Driver {
        gateway,
        upstream,
        completed: 0,
        stop_at: until,
    }));
    for c in 0..cfg.clients {
        issue(&driver, &mut sim, c as u32);
    }
    sim.run();
    let t1 = sim.now();

    // Every exemplar that survives into the report must resolve to a
    // trace the pipeline retained (flight ring ∪ slowest-k).
    let retained = cluster
        .with_trace_pipeline(|p| p.retained_trace_ids())
        .unwrap_or_default();
    let (exemplars_kept, exemplars_dropped) = agg.borrow_mut().retain_exemplars(&retained);
    let burn = cluster
        .with_trace_pipeline(|p| p.burn().map(|b| b.to_json()))
        .flatten()
        .unwrap_or(JsonValue::Null);
    let flight = cluster
        .dump_flight_recorder(&sim)
        .unwrap_or(JsonValue::Null);
    let soc = cluster.soc_stage_table(cfg.horizon.as_nanos());
    let agg = Rc::try_unwrap(agg).ok().expect("sampler done").into_inner();
    let completed = driver.borrow().completed;
    CellOut {
        completed,
        agg,
        burn,
        flight,
        retained,
        soc,
        engine_cores: cluster.engine_utilization(t0, t1),
        host_cores: cluster.host_utilization(t0, t1),
        exemplars_kept,
        exemplars_dropped,
    }
}

/// The obs riders the fig16 report embeds: the per-tenant burn-rate
/// series and the SoC per-stage utilization table, from one DNE boutique
/// cell with the trace pipeline enabled.
pub fn obs_sections(cfg: &FleetConfig) -> (JsonValue, JsonValue) {
    let cell = run_cell(cfg, dne::DneConfig::nadino_dne());
    (cell.burn, cell.soc.to_json())
}

/// Builds the full fleet report for `cfg`.
pub fn build_report(cfg: &FleetConfig) -> JsonValue {
    // Boutique cell on the DPU-resident engine — the obs-bearing run.
    let dne = run_cell(cfg, dne::DneConfig::nadino_dne());
    // Host-only baseline: same cell, engine on a host core.
    let cne = run_cell(cfg, dne::DneConfig::nadino_cne());
    let cores_freed = obs::CoresFreed {
        baseline_host_cores: cne.host_cores + cne.engine_cores,
        dne_host_cores: dne.host_cores,
        dne_soc_cores: dne.engine_cores,
    };

    // Churn phase: the elastic cell's per-window thrash series.
    let churn_rep = churn::run(ChurnConfig {
        tenants: 200,
        horizon: SimDuration::from_millis(300),
        mean_lifetime: SimDuration::from_millis(150),
        max_requests: 20_000,
        warmup: SimDuration::from_millis(75),
        seed: cfg.seed,
        ..ChurnConfig::default()
    });

    use obs::ToJson;
    JsonValue::obj(vec![
        (
            "meta",
            JsonValue::obj(vec![
                ("seed", JsonValue::UInt(cfg.seed)),
                ("clients", JsonValue::UInt(cfg.clients as u64)),
                ("horizon_ns", JsonValue::UInt(cfg.horizon.as_nanos())),
                ("obs_window_ns", JsonValue::UInt(cfg.obs_window.as_nanos())),
            ]),
        ),
        (
            "fleet",
            JsonValue::obj(vec![
                ("completed", JsonValue::UInt(dne.completed)),
                ("aggregation", dne.agg.to_json()),
                ("exemplars_kept", JsonValue::UInt(dne.exemplars_kept as u64)),
                (
                    "exemplars_dropped",
                    JsonValue::UInt(dne.exemplars_dropped as u64),
                ),
                (
                    "retained_traces",
                    JsonValue::UInt(dne.retained.len() as u64),
                ),
                ("burn", dne.burn),
                ("soc_stages", dne.soc.to_json()),
                ("cores_freed", cores_freed.to_json()),
                ("flight_dump", dne.flight),
            ]),
        ),
        (
            "churn",
            JsonValue::obj(vec![
                (
                    "digest",
                    JsonValue::Str(format!("{:016x}", churn_rep.digest)),
                ),
                (
                    "steady_hit_rate",
                    JsonValue::Float(churn_rep.steady_hit_rate),
                ),
                (
                    "thrash_windows",
                    JsonValue::Arr(churn_rep.windows.iter().map(|w| w.to_json()).collect()),
                ),
            ]),
        ),
    ])
}

/// Renders the headline numbers of a built report as a text table (the
/// `experiments report` console output; the JSON twin is the document
/// itself).
pub fn render_summary(doc: &JsonValue) -> String {
    fn path<'a>(doc: &'a JsonValue, keys: &[&str]) -> Option<&'a JsonValue> {
        keys.iter().try_fold(doc, |v, k| v.get(k))
    }
    let u = |keys: &[&str]| path(doc, keys).and_then(|v| v.as_u64()).unwrap_or(0);
    let f = |keys: &[&str]| path(doc, keys).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let s = |keys: &[&str]| {
        path(doc, keys)
            .and_then(|v| v.as_str())
            .unwrap_or("-")
            .to_string()
    };
    let windows = path(doc, &["fleet", "aggregation", "windows"])
        .and_then(|v| v.as_arr())
        .map_or(0, |a| a.len());
    let rows = vec![
        vec![
            "boutique".to_string(),
            format!("completed {}", u(&["fleet", "completed"])),
            format!("agg windows {windows}"),
            format!(
                "exemplars {} kept / {} dropped",
                u(&["fleet", "exemplars_kept"]),
                u(&["fleet", "exemplars_dropped"])
            ),
            format!("retained traces {}", u(&["fleet", "retained_traces"])),
        ],
        vec![
            "cores".to_string(),
            format!(
                "baseline host {:.2}",
                f(&["fleet", "cores_freed", "baseline_host_cores"])
            ),
            format!(
                "dne host {:.2}",
                f(&["fleet", "cores_freed", "dne_host_cores"])
            ),
            format!(
                "dne soc {:.2}",
                f(&["fleet", "cores_freed", "dne_soc_cores"])
            ),
            format!(
                "freed {:.2}",
                f(&["fleet", "cores_freed", "host_cores_freed"])
            ),
        ],
        vec![
            "churn".to_string(),
            format!("digest {}", s(&["churn", "digest"])),
            format!("steady hit {:.3}", f(&["churn", "steady_hit_rate"])),
            format!(
                "thrash windows {}",
                path(doc, &["churn", "thrash_windows"])
                    .and_then(|v| v.as_arr())
                    .map_or(0, |a| a.len())
            ),
            String::new(),
        ],
    ];
    crate::report::render_table(
        "fleet report - windowed rollups, exemplars, burn rates, SoC profile",
        &["phase", "", "", "", ""],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FleetConfig {
        FleetConfig {
            horizon: SimDuration::from_millis(20),
            clients: 8,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn report_has_every_section_and_parses() {
        let doc = build_report(&quick());
        let text = doc.to_string_pretty();
        let parsed = obs::parse(&text).expect("report is valid JSON");
        for section in ["meta", "fleet", "churn"] {
            assert!(parsed.get(section).is_some(), "missing {section}");
        }
        let fleet = parsed.get("fleet").unwrap();
        assert!(fleet.get("aggregation").unwrap().get("windows").is_some());
        assert!(fleet.get("cores_freed").is_some());
        assert!(fleet.get("soc_stages").is_some());
        assert!(fleet.get("burn").is_some());
    }

    #[test]
    fn same_seed_reports_are_byte_identical() {
        let a = build_report(&quick()).to_string_pretty();
        let b = build_report(&quick()).to_string_pretty();
        assert_eq!(a, b, "same-seed reports diverged");
    }

    #[test]
    fn every_fleet_exemplar_resolves_to_a_retained_trace() {
        // Rebuild the DNE cell directly to inspect retained ids.
        let cfg = quick();
        let cell = run_cell(&cfg, dne::DneConfig::nadino_dne());
        for (_, _, _, exemplars) in cell.agg.merged_histograms() {
            for ex in exemplars.exemplars() {
                assert!(
                    cell.retained.contains(&ex.trace_id),
                    "exemplar trace {} not retained",
                    ex.trace_id
                );
            }
        }
        assert!(cell.completed > 0, "cell drove real traffic");
        assert!(
            cell.exemplars_kept > 0,
            "report keeps at least one exemplar"
        );
    }
}
