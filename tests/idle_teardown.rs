//! Idle-connection teardown on the full `Cluster`.
//!
//! Both engines pool their own end of each RC pair. With one-way traffic
//! (fn `2t-1` on node 0 → fn `2t` on node 1) the receiving engine never
//! picks its end, so its reaper finds that end idle while the sender is
//! still streaming over the pair. Teardown must wait until both ends have
//! drained: destroying a pair under in-flight sends used to panic in the
//! fabric's delivery path.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use dne::connpool::ElasticConfig;
use membuf::tenant::TenantId;
use nadino::cluster::{Cluster, ClusterConfig};
use runtime::ChainSpec;
use simcore::{Sim, SimDuration, SimRng};

const TENANTS: u16 = 16;
const RATE_RPS: f64 = 20_000.0;
const PAYLOAD: usize = 4096;

/// Seeds of the arrival stream. Whether a sweep lands while a send is on
/// the wire depends on the arrival times, so several streams are run.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

#[test]
fn idle_teardown_under_load_completes_or_fails_every_request() {
    for seed in SEEDS {
        run(seed);
    }
}

fn run(seed: u64) {
    let mut sim = Sim::new();
    let cfg = ClusterConfig {
        pool_bufs: 256,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(&mut sim, cfg);

    let completed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let failed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let mut chains = Vec::new();
    for t in 1..=TENANTS {
        let tenant = TenantId(t);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let (src, dst) = (2 * t - 1, 2 * t);
        cluster.place(src, 0);
        cluster.place(dst, 1);
        let chain = ChainSpec::new("pair", tenant, vec![src, dst]);
        let done = completed.clone();
        cluster.register_chain(
            &chain,
            |_| SimDuration::ZERO,
            Rc::new(move |_, req| done.borrow_mut().push(req)),
        );
        chains.push(chain);
    }
    let lost = failed.clone();
    cluster.set_delivery_failure_handler(Rc::new(move |_, f| {
        lost.borrow_mut().push(f.req_id);
    }));
    let in_flight = |cluster: &Cluster| -> Vec<u32> {
        (1..=TENANTS)
            .flat_map(|t| (0..2).map(move |idx| cluster.pool(TenantId(t), idx).stats().in_flight))
            .collect()
    };
    let baseline = in_flight(&cluster);

    for node in &cluster.nodes {
        node.dne.set_elastic_config(ElasticConfig {
            idle_teardown_age: Some(SimDuration::from_millis(30)),
            ..ElasticConfig::default()
        });
        node.dne
            .start_conn_reaper(&mut sim, SimDuration::from_millis(5));
    }

    // Poisson arrivals spread uniformly over the tenants.
    let mut rng = SimRng::new(seed);
    let stop = sim.now() + SimDuration::from_millis(400);
    let mut at = sim.now();
    let mut injected = Vec::new();
    let mut req = 0u64;
    loop {
        at += SimDuration::from_secs_f64(rng.exponential(1.0 / RATE_RPS));
        if at >= stop {
            break;
        }
        sim.run_until(at);
        let chain = &chains[rng.gen_range(TENANTS as u64) as usize];
        if cluster.inject(&mut sim, chain, req, PAYLOAD) {
            injected.push(req);
        }
        req += 1;
    }
    for node in &cluster.nodes {
        node.dne.stop_conn_reaper(&mut sim);
    }
    sim.run();

    let teardowns: u64 = cluster.nodes.iter().map(|n| n.dne.conn_teardowns()).sum();
    assert!(teardowns > 0, "seed {seed}: no connection was torn down");
    assert!(
        injected.len() as u64 * 10 >= req * 9,
        "seed {seed}: only {} of {req} arrivals were admitted",
        injected.len()
    );

    // Every admitted request terminated exactly once: delivered, or
    // reported as a typed `DeliveryFailure`.
    let done: HashSet<u64> = completed.borrow().iter().copied().collect();
    let lost: HashSet<u64> = failed.borrow().iter().copied().collect();
    assert_eq!(
        done.len(),
        completed.borrow().len(),
        "seed {seed}: duplicate completion"
    );
    assert_eq!(
        lost.len(),
        failed.borrow().len(),
        "seed {seed}: duplicate failure"
    );
    for id in &injected {
        assert!(
            done.contains(id) != lost.contains(id),
            "seed {seed}: request {id} must complete or fail exactly once"
        );
    }
    assert_eq!(done.len() + lost.len(), injected.len());

    // Nothing is left in flight: every buffer is back in its pool.
    assert_eq!(
        in_flight(&cluster),
        baseline,
        "seed {seed}: buffers left in flight"
    );
}
