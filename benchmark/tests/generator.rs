//! The seeded request generators: pure, unique where promised, and
//! covered by the priming passes.

use rmsa_benchmark::gen::{self, Solve};
use rmsa_benchmark::json;
use std::collections::HashSet;

type Stream = fn(u64, u64) -> Solve;

const STREAMS: [(&str, Stream); 3] = [
    ("serve_hot", gen::hot_request),
    ("serve_unique", gen::unique_request),
    ("cold_sweep", gen::cold_serve_request),
];

#[test]
fn streams_are_pure_functions_of_seed_workload_and_index() {
    for (name, stream) in STREAMS {
        let forward: Vec<Solve> = (0..2_000).map(|i| stream(7, i)).collect();
        let backward: Vec<Solve> = (0..2_000).rev().map(|i| stream(7, i)).collect();
        assert!(
            forward.iter().eq(backward.iter().rev()),
            "{name}: order of generation changed a request"
        );
        let other_seed: Vec<Solve> = (0..2_000).map(|i| stream(8, i)).collect();
        assert_ne!(
            forward, other_seed,
            "{name}: the seed does not change the stream"
        );
    }
    assert_ne!(
        (0..64)
            .map(|i| gen::hot_request(7, i).class_key())
            .collect::<Vec<_>>(),
        (0..64)
            .map(|i| gen::cold_serve_request(7, i).class_key())
            .collect::<Vec<_>>(),
    );
}

#[test]
fn serve_unique_alpha_never_repeats() {
    for seed in [0, 1, 2, 12345, u64::MAX] {
        let mut seen = HashSet::new();
        for i in 0..200_000 {
            let r = gen::unique_request(seed, i);
            let (lo, hi) = gen::UNIQUE_ALPHA_RANGE;
            assert!((lo..hi).contains(&r.alpha), "α {} out of range", r.alpha);
            assert!(
                !gen::PAPER_ALPHAS.contains(&r.alpha),
                "timed α equals a swept α, so it could hit the memo"
            );
            assert!(
                seen.insert(r.alpha.to_bits()),
                "seed {seed}: α repeated at {i}"
            );
        }
    }
}

#[test]
fn serve_hot_priming_covers_every_timed_class() {
    let primed: HashSet<String> = gen::hot_classes().iter().map(Solve::class_key).collect();
    assert_eq!(primed.len(), 2 * 2 * 3 * 5, "60 distinct classes");
    let mut timed = HashSet::new();
    for seed in [1, 2, 3] {
        for i in 0..50_000 {
            let key = gen::hot_request(seed, i).class_key();
            assert!(primed.contains(&key), "timed class {key} was never primed");
            timed.insert(key);
        }
    }
    assert_eq!(timed, primed, "the timed stream reaches every primed class");

    let cold: HashSet<String> = gen::cold_serve_classes()
        .iter()
        .map(Solve::class_key)
        .collect();
    for i in 0..10_000 {
        assert!(cold.contains(&gen::cold_serve_request(4, i).class_key()));
    }
}

#[test]
fn request_lines_are_valid_v2_solves() {
    for (_, stream) in STREAMS {
        let r = stream(3, 11);
        let v = json::parse(&r.line(99)).unwrap();
        assert_eq!(v.get("schema_version").as_u64(), Some(2));
        assert_eq!(v.get("op").as_str(), Some("solve"));
        assert_eq!(v.get("id").as_u64(), Some(99));
        assert_eq!(
            v.get("alpha").as_f64().map(f64::to_bits),
            Some(r.alpha.to_bits())
        );
        assert_eq!(v.get("algorithm").as_str(), Some(r.algorithm));
    }
}

#[test]
fn cold_sweep_runs_the_three_algorithms_at_each_paper_alpha() {
    let points = gen::cold_points();
    assert_eq!(points.len(), 15);
    for (k, alpha) in gen::PAPER_ALPHAS.iter().enumerate() {
        let at: Vec<&str> = points[3 * k..3 * k + 3].iter().map(|p| p.0).collect();
        assert_eq!(at, ["rma", "ti-carm", "ti-csrm"]);
        assert!(points[3 * k..3 * k + 3].iter().all(|p| p.1 == *alpha));
    }
}
