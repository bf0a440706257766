//! Golden DNE-behaviour digests.
//!
//! `tests/chaos.rs` compares two same-seed runs with each other, so a
//! deterministic behaviour change passes it. These tests pin the behaviour
//! itself: each scenario runs with a fixed seed (`CHAOS_SEED` does not
//! apply) and folds every terminal outcome (id, completion or typed reason,
//! attempts, virtual time), each node's `DneStats` counters and histogram
//! summaries, and every sampled span into FNV-1a digests. The scenarios
//! cover first post and retry, off- and on-path, deadline cancellation at
//! TX, park and repost, the retry restamp toward a `CTX_V1` peer, and
//! park → reconnect → flush via a pre-warm claim and a cold connect.
//!
//! The constants were recorded before first post and retry were merged
//! into one send path. A refactor leaves them unchanged; a change that
//! alters engine behaviour on purpose re-records them and says why.

use std::cell::RefCell;
use std::rc::Rc;

use dne::{DneConfig, DneStats};
use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use rdma_sim::fabric::QpHandle;
use rdma_sim::types::QpId;
use rdma_sim::FaultPlane;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration, SimTime};

/// FNV-1a (64-bit) over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One terminal event: `(req_id, kind, attempts, virtual ns)`, where kind
/// 0 is a chain completion and `1 + reason` (declaration order of
/// `FailureReason`) a typed failure.
type Outcome = (u64, u64, u64, u64);

struct Bed {
    sim: Sim,
    cluster: Cluster,
    chain: ChainSpec,
    log: Rc<RefCell<Vec<Outcome>>>,
}

/// A cluster of `cfg.workers` nodes running chain `fns`, function `fns[i]`
/// placed on node `nodes[i]`, tracing every `head_every`-th request.
fn bed(cfg: ClusterConfig, fns: &[u16], nodes: &[usize], head_every: u64) -> Bed {
    let mut sim = Sim::new();
    let mut cluster = Cluster::new(&mut sim, cfg);
    let tenant = TenantId(1);
    cluster.add_tenant(&mut sim, tenant, 1).unwrap();
    let chain = ChainSpec::new("golden", tenant, fns.to_vec());
    for (&f, &n) in fns.iter().zip(nodes) {
        cluster.place(f, n);
    }
    let tracer = obs::Tracer::enabled();
    tracer.set_head_sample(head_every);
    cluster.set_tracer(&tracer);
    let log: Rc<RefCell<Vec<Outcome>>> = Rc::new(RefCell::new(Vec::new()));
    let l2 = log.clone();
    cluster.register_chain(
        &chain,
        |_| us(5),
        Rc::new(move |sim, req| l2.borrow_mut().push((req, 0, 0, sim.now().as_nanos()))),
    );
    let l3 = log.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |sim, f| {
        let kind = 1 + f.reason as u64;
        l3.borrow_mut()
            .push((f.req_id, kind, f.attempts as u64, sim.now().as_nanos()));
    }));
    Bed {
        sim,
        cluster,
        chain,
        log,
    }
}

/// Installs a seeded fault plane with the given wire loss and corruption.
fn faults(b: &Bed, seed: u64, loss: f64, corruption: f64) {
    let mut fp = FaultPlane::new(seed);
    fp.set_default_loss(loss);
    fp.set_default_corruption(corruption);
    b.cluster.fabric.install_fault_plane(fp);
}

/// Breaks every QP with an endpoint on node `idx` (QP ids are assigned
/// fabric-wide from 0, so probing a small id range finds them all).
fn kill_qps_of(b: &Bed, idx: usize) {
    let (fabric, node) = (&b.cluster.fabric, b.cluster.nodes[idx].id);
    for q in 0..256 {
        let _ = fabric.inject_qp_error(QpHandle { node, qp: QpId(q) });
    }
}

/// Microseconds.
fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn no_deadline(_: u64, _: SimTime) -> Option<SimTime> {
    None
}

/// Injects requests `ids` one every `gap`, each with the deadline
/// `deadline(id, now)` (`None`: no deadline).
fn drive(
    b: &mut Bed,
    ids: std::ops::Range<u64>,
    gap: SimDuration,
    deadline: impl Fn(u64, SimTime) -> Option<SimTime>,
) {
    for id in ids {
        let now = b.sim.now();
        let ok = match deadline(id, now) {
            Some(d) => b
                .cluster
                .inject_with_deadline(&mut b.sim, &b.chain, id, 256, d),
            None => b.cluster.inject(&mut b.sim, &b.chain, id, 256),
        };
        assert!(ok, "entry pool exhausted at request {id}");
        b.sim.run_for(gap);
    }
}

/// The `(outcomes, stats, spans)` digests, and each node's stats.
fn digests(b: &Bed) -> ((u64, u64, u64), Vec<DneStats>) {
    let outcomes = fnv(b.log.borrow().iter().flat_map(|&(a, b, c, d)| [a, b, c, d]));
    let all: Vec<DneStats> = b.cluster.nodes.iter().map(|n| n.dne.stats()).collect();
    let stats = fnv(all.iter().flat_map(|s| {
        let counters = [
            s.submitted,
            s.tx_posted,
            s.rx_delivered,
            s.send_completions,
            s.drops,
            s.replenish_failures,
            s.replenishes,
            s.retries,
            s.failovers,
            s.reconnects,
            s.give_ups,
            s.deadline_drops,
            s.cold_connects,
            s.prewarm_claims,
        ];
        let hists = [
            &s.tx_queue_wait,
            &s.sched_delay,
            &s.post_to_completion,
            &s.retry_latency,
        ];
        let hists = hists.into_iter().flat_map(|h| {
            let q = |p| h.percentile(p).as_nanos();
            [h.count(), q(50.0), q(99.0), h.max().as_nanos()]
        });
        counters.into_iter().chain(hists).collect::<Vec<u64>>()
    }));
    let mut records = b.cluster.tracer().records();
    records.sort_by_key(|r| r.span_id);
    let spans = fnv(records.iter().flat_map(|r| {
        let (id, parent) = (r.span_id.into(), r.parent_id.into());
        let (tenant, node) = (r.tenant.into(), r.node.into());
        [
            r.req_id,
            id,
            parent,
            tenant,
            node,
            r.stage as u64,
            r.start_ns,
            r.end_ns,
        ]
    }));
    ((outcomes, stats, spans), all)
}

fn sum(stats: &[DneStats], f: impl Fn(&DneStats) -> u64) -> u64 {
    stats.iter().map(f).sum()
}

/// Each of the `n` requests injected terminated exactly once.
fn assert_all_terminated(b: &Bed, n: u64) {
    let mut ids: Vec<u64> = b.log.borrow().iter().map(|o| o.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, n, "a request hung or terminated twice");
    assert_eq!(b.log.borrow().len() as u64, n, "a request terminated twice");
}

/// The chaos echo `1→2→1` under 5% loss, 1% corruption and node 1 down
/// for 1 ms, off-path and on-path (so DMA-delayed posts get retried).
#[test]
fn golden_chaos_echo() {
    for (dne, want) in [
        (
            DneConfig::nadino_dne(),
            (0x63c9b903f8d2b457, 0x5483a9cad8d045a9, 0xeb187c65c2b630bb),
        ),
        (
            DneConfig::on_path_dne(),
            (0x4a1ab17eb8a08d77, 0xffa13f3379bf4bc1, 0x1b16f6fd63e54a78),
        ),
    ] {
        let cfg = ClusterConfig {
            dne,
            ..ClusterConfig::default()
        };
        let mut b = bed(cfg, &[1, 2, 1], &[0, 1, 0], 3);
        faults(&b, 0xC4A0, 0.05, 0.01);
        let from = b.sim.now() + SimDuration::from_millis(3);
        let until = from + SimDuration::from_millis(1);
        let node1 = b.cluster.nodes[1].id;
        b.cluster.fabric.schedule_node_outage(node1, from, until);
        drive(&mut b, 1_000..1_200, us(50), no_deadline);
        b.sim.run();
        assert_all_terminated(&b, 200);
        let (d, stats) = digests(&b);
        assert!(sum(&stats, |s| s.retries) > 0 && sum(&stats, |s| s.give_ups) > 0);
        assert_eq!(d, want);
    }
}

/// Deadlines from 2 µs to 10 ms under 5% loss; every QP of node 1 dies
/// three quarters in, so late sends park on a 20 ms reconnect and expire
/// there. Covers cancellation at TX, at park and at repost.
#[test]
fn golden_deadlines_under_loss() {
    const BUDGETS_US: [u64; 9] = [2, 5, 10, 20, 40, 80, 160, 320, 10_000];
    let mut b = bed(ClusterConfig::default(), &[1, 2, 1], &[0, 1, 0], 2);
    faults(&b, 7, 0.05, 0.0);
    let deadline = |id: u64, now: SimTime| Some(now + us(BUDGETS_US[(id % 9) as usize]));
    drive(&mut b, 1_000..1_150, us(50), deadline);
    kill_qps_of(&b, 1);
    drive(&mut b, 1_150..1_200, us(50), deadline);
    b.sim.run();
    assert_all_terminated(&b, 200);
    let (d, stats) = digests(&b);
    assert!(sum(&stats, |s| s.deadline_drops) > 0 && sum(&stats, |s| s.reconnects) > 0);
    assert_eq!(
        d,
        (0xc9e7654311441b68, 0x35914ab8b4a0947e, 0x1b78a8c7c754cc21)
    );
}

/// Node 1 speaks `CTX_V1`; every request is traced, so each retry toward
/// it re-stamps the on-wire context at the negotiated version.
#[test]
fn golden_v1_peer_retry_restamp() {
    let mut b = bed(ClusterConfig::default(), &[1, 2, 1], &[0, 1, 0], 1);
    b.cluster.set_node_wire_version(1, obs::ctx::CTX_V1);
    faults(&b, 11, 0.05, 0.0);
    drive(&mut b, 1_000..1_120, us(50), no_deadline);
    b.sim.run();
    assert_all_terminated(&b, 120);
    let (d, stats) = digests(&b);
    assert!(sum(&stats, |s| s.retries) > 0);
    assert_eq!(
        d,
        (0x4ca4eaf117b97ad6, 0x55ce2cd6de95805a, 0x81c96fb8b486703d)
    );
}

/// Chain `1→2→3` over three nodes with every QP of node 1 killed before
/// the first post: node 0's dry pool claims its pre-warmed link to node 1
/// while node 1's pool toward node 2 pays a cold connect, and both flush
/// their parked sends once the connection is up. A second phase loses
/// every send toward node 1, then kills node 1's QPs again while those
/// sends sit in backoff: each backoff timer fires into a dry pool and
/// re-parks the send until the next reconnect flushes it.
#[test]
fn golden_dry_pool_reconnect_flush() {
    let mut b = bed(
        ClusterConfig {
            workers: 3,
            ..ClusterConfig::default()
        },
        &[1, 2, 3],
        &[0, 1, 2],
        2,
    );
    let node1 = b.cluster.nodes[1].id;
    b.cluster.nodes[0]
        .dne
        .prewarm_link(&mut b.sim, node1, 1)
        .unwrap();
    let settle = b.cluster.config().rdma.connect_delay + SimDuration::from_millis(1);
    b.sim.run_for(settle);
    kill_qps_of(&b, 1);
    drive(&mut b, 1_000..1_040, us(50), no_deadline);
    b.sim.run();

    let node0 = b.cluster.nodes[0].id;
    b.cluster
        .fabric
        .with_fault_plane(|fp| fp.set_link_loss(node0, node1, 1.0));
    drive(&mut b, 1_040..1_044, us(1), no_deadline);
    let retries = |b: &Bed| b.cluster.nodes[0].dne.stats().retries;
    while retries(&b) == 0 {
        b.sim.run_for(us(1));
    }
    b.cluster
        .fabric
        .with_fault_plane(|fp| fp.set_link_loss(node0, node1, 0.0));
    kill_qps_of(&b, 1);
    b.sim.run();
    assert_all_terminated(&b, 44);
    let (d, stats) = digests(&b);
    assert_eq!(sum(&stats, |s| s.prewarm_claims), 1);
    assert!(sum(&stats, |s| s.cold_connects) > 1);
    assert_eq!(
        d,
        (0x0205b1747fecd5b8, 0x0431d314a041b08b, 0x97b60cfaa35dcfa2)
    );
}
