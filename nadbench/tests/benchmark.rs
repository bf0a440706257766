//! The benchmark's own checks: seeded inputs, the accounting identity on a
//! tiny horizon of every workload, and the metric names the binaries print
//! against `BENCHMARK.json`.

use std::rc::Rc;

use nadbench::bed::{self, Horizon};
use nadbench::{cli, gen, measure, spec, Spec, Workload};
use obs::JsonValue;

/// A few hundred arrivals and a two-step rate search.
fn tiny(workload: Workload) -> Spec {
    Spec {
        requests: 300,
        probe_requests: 200,
        search_steps: 2,
        ..spec(workload)
    }
}

#[test]
fn inputs_are_seed_deterministic_and_seeds_differ() {
    for w in Workload::ALL {
        let rate = spec(w).rate_rps;
        let a = gen::generate(w, 7, rate, 2_000);
        assert_eq!(a, gen::generate(w, 7, rate, 2_000), "{}", w.name());
        let b = gen::generate(w, 8, rate, 2_000);
        assert_ne!(a.arrivals, b.arrivals, "{}", w.name());
        assert!(a.arrivals.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
        assert_eq!(gen::tenant_mix(w, 7), gen::tenant_mix(w, 7));
    }
    let (share7, weights7) = gen::tenant_mix(Workload::Tenants, 7);
    let (share8, weights8) = gen::tenant_mix(Workload::Tenants, 8);
    assert_ne!(share7, share8, "the seed picks which tenants are hot");
    let mut sorted7 = weights7.clone();
    let mut sorted8 = weights8.clone();
    sorted7.sort_unstable();
    sorted8.sort_unstable();
    assert_eq!(sorted7, sorted8, "every seed has the same weight mix");
    let http = |seed| gen::generate(Workload::Boutique, seed, 20_000.0, 10).http;
    assert_ne!(http(7), http(8));
}

#[test]
fn accounting_identity_holds_on_a_tiny_horizon() {
    for w in Workload::ALL {
        let s = tiny(w);
        let inputs = Rc::new(gen::generate(w, 3, s.rate_rps, s.requests));
        let mut digests = Vec::new();
        for _ in 0..2 {
            let mut b = bed::setup(w, 3);
            let run = bed::run(&mut b, inputs.clone(), Horizon::Drain, None, false);
            let errors = measure::check(&run);
            assert!(errors.is_empty(), "{}: {errors:?}", w.name());
            let resolved: u64 = run.counts[1..].iter().sum();
            assert_eq!(resolved, run.offered, "{}", w.name());
            assert_eq!(run.completed(), run.offered, "{} fails nothing", w.name());
            if w == Workload::Boutique {
                assert_eq!(run.responses_checked, run.offered);
            }
            digests.push(measure::digest(&run));
        }
        assert_eq!(digests[0], digests[1], "{} replays exactly", w.name());
    }
}

#[test]
fn a_cut_horizon_leaves_late_requests_open() {
    let w = Workload::Echo;
    // Far past saturation: the backlog grows, so the probe must fail.
    let inputs = Rc::new(gen::generate(w, 1, 400_000.0, 2_000));
    let mut b = bed::setup(w, 1);
    let run = bed::run(&mut b, inputs, Horizon::Cut(spec(w).slo_limit), None, false);
    assert!(run.unresolved() > 0);
    assert_eq!(measure::probe_p999(&run), None);
}

fn names(list: &JsonValue) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = obs::parse(&text).expect("valid JSON");
    let workloads = names(json.get("workloads").expect("workloads"));
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    let e2e = json.get("end_to_end").expect("end_to_end");
    let layers = json.get("per_layer").expect("per_layer");
    let (e2e_names, layer_names) = (names(e2e), names(layers));
    assert!((1..=16).contains(&e2e_names.len()));
    assert!((1..=128).contains(&layer_names.len()));
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(&e2e_names)
        .chain(&layer_names)
        .collect();
    assert!(all.iter().all(|n| valid_name(n)), "bad names in {all:?}");
    all.sort();
    let count = all.len();
    all.dedup();
    assert_eq!(all.len(), count, "every name is used once");
    for m in e2e.as_arr().expect("a list") {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }

    // The binaries print exactly these metrics, in this order.
    let w = Workload::Echo;
    let untraced = measure::measure(w, &tiny(w), 5, 1e-3, false);
    assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
    let printed: Vec<String> = cli::end_to_end(&untraced)
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(printed, e2e_names);
    let traced = measure::measure(w, &tiny(w), 5, 1e-3, true);
    assert!(traced.errors.is_empty(), "{:?}", traced.errors);
    assert_eq!(
        traced.digest, untraced.digest,
        "tracing leaves virtual time alone"
    );
    let printed: Vec<String> = cli::per_layer(&traced, Some(1.0))
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(printed, layer_names);
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let ok = cli::parse_args(&args("--workload tenants --seed 4 --seconds 10 --trace 1"))
        .expect("valid");
    assert_eq!(ok.workload, Workload::Tenants);
    assert!(ok.trace);
    for bad in [
        "--workload nope --seed 1 --seconds 1",
        "--workload echo --seed -1 --seconds 1",
        "--workload echo --seed 1 --seconds 0",
        "--workload echo --seed 1 --seconds 1 --trace 2",
        "--workload echo --seconds 1",
        "--workload echo --seed 1 --seconds",
    ] {
        assert!(cli::parse_args(&args(bad)).is_err(), "{bad}");
    }
}
