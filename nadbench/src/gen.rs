//! Seeded input generation: open-loop Poisson arrivals, the tenant/chain
//! mix, per-tenant scheduling weights and the HTTP request bytes the
//! `boutique` workload sends. The program under test sees only what is
//! generated here; nothing in it depends on wall time.

use simcore::SimRng;

use crate::Workload;

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, virtual ns after the run's start.
    pub due_ns: u64,
    /// Tenant (class) index into the workload's tenant list.
    pub class: u32,
    /// Client flow id (spreads boutique requests over gateway workers).
    pub flow: u32,
}

/// Everything one run feeds the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub arrivals: Vec<Arrival>,
    /// Per tenant: raw HTTP/1.1 request bytes (`boutique` only).
    pub http: Vec<Vec<u8>>,
    /// Per tenant: the request body the function echoes back.
    pub bodies: Vec<Vec<u8>>,
}

/// Derives an independent RNG stream from the run seed (SplitMix64
/// finalizer over `seed` and the stream tag).
pub fn stream(seed: u64, tag: u64) -> SimRng {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    SimRng::new(z ^ (z >> 31))
}

const STREAM_ARRIVALS: u64 = 1;
const STREAM_MIX: u64 = 2;
const STREAM_BODIES: u64 = 3;
/// Stream tag of the fault plane's own RNG.
pub const STREAM_FAULTS: u64 = 4;

/// Number of tenants of the `tenants` workload.
pub const MANY_TENANTS: usize = 1024;

/// Boutique tenants: (tenant id, DWRR/admission weight, chain path name).
pub const BOUTIQUE_TENANTS: [(u16, u32, &str); 3] =
    [(1, 3, "home"), (2, 2, "cart"), (3, 1, "product")];

/// Per-tenant arrival shares and scheduling weights for `workload`.
///
/// `tenants` ranks its 1024 tenants by a seeded permutation; the tenant at
/// rank `r` (1-based) gets arrival share ∝ `r^-1.1` (Zipf) and DWRR weight
/// `1 + (r - 1) % 4`, so every seed has the same skew and weight mix and
/// only which tenant ids carry them changes.
pub fn tenant_mix(workload: Workload, seed: u64) -> (Vec<f64>, Vec<u32>) {
    match workload {
        Workload::Echo => (vec![1.0], vec![1]),
        Workload::Boutique => BOUTIQUE_TENANTS
            .iter()
            .map(|&(_, w, _)| (w as f64, w))
            .unzip(),
        Workload::Tenants => {
            let mut order: Vec<usize> = (0..MANY_TENANTS).collect();
            stream(seed, STREAM_MIX).shuffle(&mut order);
            let mut share = vec![0.0; MANY_TENANTS];
            let mut weight = vec![0; MANY_TENANTS];
            for (rank0, &t) in order.iter().enumerate() {
                share[t] = ((rank0 + 1) as f64).powf(-1.1);
                weight[t] = 1 + (rank0 % 4) as u32;
            }
            (share, weight)
        }
    }
}

/// Generates `n` arrivals at `rate_rps` for `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, rate_rps: f64, n: usize) -> Inputs {
    assert!(rate_rps > 0.0 && n > 0, "need a positive rate and count");
    let (share, _) = tenant_mix(workload, seed);
    let total: f64 = share.iter().sum();
    let mut cumulative = Vec::with_capacity(share.len());
    let mut acc = 0.0;
    for s in &share {
        acc += s / total;
        cumulative.push(acc);
    }
    let mut rng = stream(seed, STREAM_ARRIVALS);
    let mean_gap_ns = 1e9 / rate_rps;
    let mut due = 0.0f64;
    let mut arrivals = Vec::with_capacity(n);
    for _ in 0..n {
        let u = rng.next_f64();
        let class = cumulative
            .partition_point(|&c| c < u)
            .min(cumulative.len() - 1) as u32;
        arrivals.push(Arrival {
            due_ns: due.round() as u64,
            class,
            flow: rng.gen_range(4096) as u32,
        });
        due += rng.exponential(mean_gap_ns);
    }
    let (http, bodies) = match workload {
        Workload::Boutique => http_requests(seed),
        _ => (Vec::new(), Vec::new()),
    };
    Inputs {
        arrivals,
        http,
        bodies,
    }
}

/// Body length of a boutique request (the paper's small JSON-ish message).
pub const BOUTIQUE_BODY: usize = nadino::boutique::PAYLOAD_BYTES;

/// One HTTP/1.1 request per boutique tenant, with a seeded printable body.
fn http_requests(seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut rng = stream(seed, STREAM_BODIES);
    BOUTIQUE_TENANTS
        .iter()
        .map(|&(tenant, _, path)| {
            let body: Vec<u8> = (0..BOUTIQUE_BODY)
                .map(|_| b'a' + rng.gen_range(26) as u8)
                .collect();
            let mut raw = format!(
                "POST /fn/{path} HTTP/1.1\r\nhost: gateway\r\nx-tenant-id: {tenant}\r\n\
                 content-type: application/json\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(&body);
            (raw, body)
        })
        .unzip()
}
