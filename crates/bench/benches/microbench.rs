//! Microbenchmarks of the substrate primitives.
//!
//! These measure the *implementation* (wall-clock cost of the functional
//! layer), complementing the virtual-time experiments: buffer pool
//! get/put, descriptor encode/decode, DWRR dequeue,
//! HTTP parsing and the simulation engine's event dispatch rate. The
//! tracing benches demonstrate the near-zero cost of a disabled
//! [`obs::Tracer`] relative to an enabled one.

use std::hint::black_box;

use bench::harness::Bench;
use dne::sched::{DwrrScheduler, TenantScheduler};
use ingress::http::HttpRequest;
use membuf::descriptor::BufferDesc;
use membuf::pool::{BufferPool, PoolConfig};
use membuf::tenant::TenantId;
use obs::{Stage, Tracer};
use simcore::{Sim, SimDuration, SimTime};

fn bench_pool(b: &mut Bench) {
    b.group("membuf");
    let pool = BufferPool::new(PoolConfig::new(TenantId(1), 0, 4096, 1024)).unwrap();
    b.bench_function("pool_get_put", || {
        let buf = pool.get().unwrap();
        black_box(&buf);
    });
    let pool2 = BufferPool::new(PoolConfig::new(TenantId(1), 1, 4096, 1024)).unwrap();
    b.bench_function("detach_redeem", || {
        let buf = pool2.get().unwrap();
        let desc = buf.into_desc(7);
        let buf = pool2.redeem(black_box(desc)).unwrap();
        black_box(&buf);
    });
    let d = BufferDesc {
        tenant: 1,
        pool_id: 2,
        buf_index: 3,
        len: 4,
        generation: 5,
        dst_fn: 6,
    };
    b.bench_function("desc_encode_decode", || {
        let bytes = black_box(d).encode();
        black_box(BufferDesc::decode(&bytes));
    });
}

fn bench_dwrr(b: &mut Bench) {
    b.group("dwrr");
    let mut s = DwrrScheduler::new(1.0);
    for t in 0..8 {
        s.register(TenantId(t), (t + 1) as u32);
    }
    let mut i = 0u16;
    b.bench_function("enqueue_dequeue_8_tenants", || {
        i = (i + 1) % 8;
        s.enqueue(TenantId(i), 42u32);
        black_box(s.dequeue());
    });
}

fn bench_http(b: &mut Bench) {
    b.group("http");
    let raw = b"POST /fn/home HTTP/1.1\r\nhost: gw\r\nx-tenant-id: 7\r\ncontent-length: 64\r\n\r\n"
        .to_vec();
    let mut req = raw.clone();
    req.extend_from_slice(&[b'x'; 64]);
    b.bench_function("parse_request", || {
        black_box(HttpRequest::parse(black_box(&req))).unwrap();
    });
}

fn bench_sim_engine(b: &mut Bench) {
    b.group("simcore");
    b.bench_function("dispatch_10k_events", || {
        let mut sim = Sim::new();
        for i in 0..10_000u64 {
            sim.schedule_after(SimDuration::from_nanos(i), |_| {});
        }
        sim.run();
        black_box(sim.executed_events());
    });
}

fn bench_tracing(b: &mut Bench) {
    b.group("obs");
    // The acceptance bar: a disabled tracer must cost near nothing
    // (< 5% regression on an instrumented hot loop).
    let disabled = Tracer::disabled();
    let mut t = 0u64;
    b.bench_function("span_disabled", || {
        t += 100;
        disabled.span(
            black_box(1),
            1,
            0,
            Stage::DneTx,
            SimTime::from_nanos(t),
            SimTime::from_nanos(t + 50),
        );
    });
    let enabled = Tracer::enabled();
    let mut t = 0u64;
    b.bench_function("span_enabled", || {
        t += 100;
        enabled.span(
            black_box(1),
            1,
            0,
            Stage::DneTx,
            SimTime::from_nanos(t),
            SimTime::from_nanos(t + 50),
        );
    });
}

fn main() {
    let mut b = Bench::from_args();
    bench_pool(&mut b);
    bench_dwrr(&mut b);
    bench_http(&mut b);
    bench_sim_engine(&mut b);
    bench_tracing(&mut b);
}
