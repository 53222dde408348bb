//! Solver-trait coverage for per-advertiser seed costs
//! (`SeedCosts::PerAd`): budget feasibility and allocation disjointness
//! must hold through the unified `Solver` API on both the oracle and the
//! sampling paths, and sampling results must not depend on the workbench's
//! thread count.

use rmsa::prelude::*;

/// A small two-community world with genuinely per-ad costs: advertiser 0
/// finds the first community cheap and the second expensive; advertiser 1
/// the other way around.
fn per_ad_world(h: usize) -> (DirectedGraph, UniformIc, RmInstance) {
    let graph = rmsa_graph::generators::celebrity_graph(4, 8); // 36 nodes
    let n = graph.num_nodes();
    let model = UniformIc::new(h, 0.4);
    let rows: Vec<Vec<f64>> = (0..h)
        .map(|ad| {
            (0..n)
                .map(|u| if (u + ad) % 2 == 0 { 0.8 } else { 2.5 })
                .collect()
        })
        .collect();
    let instance = RmInstance::try_new(
        n,
        (0..h)
            .map(|i| Advertiser::try_new(14.0 + i as f64, 1.0 + 0.25 * i as f64).unwrap())
            .collect(),
        SeedCosts::PerAd(rows),
    )
    .expect("dimensions are consistent");
    (graph, model, instance)
}

fn workbench(graph: &DirectedGraph, model: &UniformIc) -> Workbench {
    Workbench::builder()
        .graph(graph.clone())
        .model(model.clone())
        .threads(1)
        .seed(20_240_101)
        .build()
        .unwrap()
}

fn check_feasibility(report: &SolveReport, instance: &RmInstance, budget_slack: f64) {
    assert!(
        report.allocation.is_disjoint(),
        "{}: allocation must be a partition",
        report.solver
    );
    assert_eq!(report.allocation.num_ads(), instance.num_ads());
    for ad in 0..instance.num_ads() {
        let seeds = report.allocation.seeds(ad);
        let seed_cost = instance.set_cost(ad, seeds);
        assert!(
            seed_cost <= budget_slack * instance.budget(ad) + 1e-9,
            "{}: advertiser {ad} pays {seed_cost} in per-ad seed costs against budget {}",
            report.solver,
            instance.budget(ad)
        );
    }
}

#[test]
fn sampling_solvers_respect_per_ad_costs() {
    let (graph, model, instance) = per_ad_world(3);
    let wb = workbench(&graph, &model);
    let cfg = RmaConfig {
        epsilon: 0.1,
        rho: 0.2,
        max_rr_per_collection: 30_000,
        ..RmaConfig::default()
    };
    let rma = wb.run_solver(&Rma::new(cfg.clone()), &instance).unwrap();
    // Bicriteria guarantee: seed costs alone stay within (1 + ϱ)·B_i.
    check_feasibility(&rma, &instance, 1.0 + cfg.rho);
    assert!(rma.allocation.total_seeds() > 0);

    let one_batch = wb
        .run_solver(&OneBatch::new(cfg.clone(), 10_000), &instance)
        .unwrap();
    check_feasibility(&one_batch, &instance, 1.0 + cfg.rho);

    let sampled_greedy = wb
        .run_solver(
            &CsGreedy::new(OracleMode::Sampled {
                num_rr_sets: 10_000,
            }),
            &instance,
        )
        .unwrap();
    // The plain greedy baselines enforce the exact budget, no relaxation.
    check_feasibility(&sampled_greedy, &instance, 1.0);
}

#[test]
fn workbench_thread_count_never_changes_sampling_results() {
    // `WorkbenchBuilder::threads` is the only thread knob: RR-set
    // generation is chunked on (seed, chunk index), so the worker count may
    // change speed but never the seed sets or the revenue.
    let (graph, model, instance) = per_ad_world(3);
    let cfg = RmaConfig {
        epsilon: 0.1,
        rho: 0.2,
        max_rr_per_collection: 30_000,
        ..RmaConfig::default()
    };
    let solve = |threads: usize| {
        let wb = Workbench::builder()
            .graph(graph.clone())
            .model(model.clone())
            .threads(threads)
            .seed(20_240_101)
            .build()
            .unwrap();
        [
            wb.run_solver(&Rma::new(cfg.clone()), &instance).unwrap(),
            wb.run_solver(&OneBatch::new(cfg.clone(), 10_000), &instance)
                .unwrap(),
        ]
    };
    for (one, three) in solve(1).iter().zip(&solve(3)) {
        assert!(one.allocation.total_seeds() > 0, "{}: no seeds", one.solver);
        assert_eq!(
            one.allocation, three.allocation,
            "{}: seed sets depend on the thread count",
            one.solver
        );
        assert_eq!(
            one.revenue_estimate.to_bits(),
            three.revenue_estimate.to_bits(),
            "{}: revenue depends on the thread count",
            one.solver
        );
        assert_eq!(
            one.revenue_lower_bound.map(f64::to_bits),
            three.revenue_lower_bound.map(f64::to_bits),
            "{}: certified bound depends on the thread count",
            one.solver
        );
    }
}

#[test]
fn oracle_solvers_respect_per_ad_costs() {
    // Tiny graph so the exact oracle stays cheap.
    let graph = rmsa_graph::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let model = UniformIc::new(2, 0.7);
    let instance = RmInstance::try_new(
        6,
        vec![
            Advertiser::try_new(4.0, 1.0).unwrap(),
            Advertiser::try_new(5.0, 1.5).unwrap(),
        ],
        SeedCosts::PerAd(vec![
            vec![0.5, 2.0, 0.5, 2.0, 0.5, 2.0],
            vec![2.0, 0.5, 2.0, 0.5, 2.0, 0.5],
        ]),
    )
    .unwrap();
    let wb = workbench(&graph, &model);

    let oracle = ExactRevenueOracle::new(&graph, &model, &instance);
    for solver in [
        Box::new(OracleGreedy::exact(0.1)) as Box<dyn Solver>,
        Box::new(OracleGreedy::monte_carlo(0.1, 2_000, 9)),
        Box::new(CaGreedy::new(OracleMode::Exact)),
        Box::new(CsGreedy::new(OracleMode::Exact)),
    ] {
        let report = wb.run_solver(solver.as_ref(), &instance).unwrap();
        check_feasibility(&report, &instance, 1.0);
        // Full budget constraint (revenue + per-ad seed cost ≤ B_i) under
        // the exact oracle.
        for ad in 0..2 {
            let seeds = report.allocation.seeds(ad);
            let spend = oracle.revenue(ad, seeds) + instance.set_cost(ad, seeds);
            assert!(
                spend <= instance.budget(ad) + 0.05 * instance.budget(ad),
                "{}: advertiser {ad} spend {spend} vs budget {}",
                report.solver,
                instance.budget(ad)
            );
        }
    }
}

#[test]
fn per_ad_costs_steer_different_ads_to_different_nodes() {
    // With mirrored per-ad costs, the cost-sensitive solver should give
    // each advertiser mostly its cheap community.
    let (graph, model, instance) = per_ad_world(2);
    let wb = workbench(&graph, &model);
    let report = wb
        .run_solver(
            &CsGreedy::new(OracleMode::Sampled {
                num_rr_sets: 20_000,
            }),
            &instance,
        )
        .unwrap();
    let cheap_fraction = |ad: usize| {
        let seeds = report.allocation.seeds(ad);
        if seeds.is_empty() {
            return 1.0;
        }
        let cheap = seeds
            .iter()
            .filter(|&&u| instance.cost(ad, u) < 1.0)
            .count();
        cheap as f64 / seeds.len() as f64
    };
    assert!(
        cheap_fraction(0) >= 0.5 && cheap_fraction(1) >= 0.5,
        "cost-sensitive selection should prefer each ad's cheap nodes"
    );
}

/// FNV-1a 64 over every advertiser's seeds in selection order, so a moved,
/// swapped or reordered seed changes the digest.
fn allocation_fnv(allocation: &Allocation) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for seeds in &allocation.seed_sets {
        mix(seeds.len() as u64);
        for &u in seeds {
            mix(u64::from(u));
        }
    }
    hash
}

#[test]
fn sampling_solvers_reproduce_pinned_allocations_and_revenue_bits() {
    // Pinned outputs of the four RR-sampling solvers on one seeded
    // lastfm-syn instance with three advertisers: (solver, allocation
    // digest, revenue_estimate bits, revenue_lower_bound bits). A change
    // to the coverage index, the estimator or the greedy kernels must
    // leave every seed and every revenue bit where it was.
    const PINNED: [(&str, u64, u64, Option<u64>); 4] = [
        (
            "RMA",
            0x7c55_616a_940a_285e,
            0x4070_07d0_624d_d2f2,       // 256.488375
            Some(0x406e_7b9b_86fe_3b8f), // 243.8627352681619
        ),
        (
            "OneBatch",
            0x7c55_616a_940a_285e,
            0x4072_3f61_8937_4bc7, // 291.9613125
            None,
        ),
        (
            "TI-CARM",
            0xfd52_9167_1142_bf54,
            0x4070_0289_374b_c6a8, // 256.1585
            None,
        ),
        (
            "TI-CSRM",
            0x970d_df7a_f83c_7252,
            0x4070_3b1c_ac08_3127, // 259.6945
            None,
        ),
    ];
    let dataset = Dataset::build(DatasetKind::LastfmSyn, 3, 0.25, 99);
    let advertisers: Vec<Advertiser> = (0..3)
        .map(|i| Advertiser::try_new(80.0 + 20.0 * i as f64, 1.0 + 0.1 * i as f64).unwrap())
        .collect();
    let instance = dataset.build_instance(advertisers, IncentiveModel::Linear, 0.1, 5_000, 1);
    let wb = Workbench::builder()
        .graph(dataset.graph.clone())
        .model(dataset.model.clone())
        .threads(2)
        .seed(20_210_620)
        .build()
        .unwrap();
    let cfg = RmaConfig {
        epsilon: 0.1, // < λ(3, 0.1) ≈ 0.114
        rho: 0.1,
        max_rr_per_collection: 40_000,
        ..RmaConfig::default()
    };
    let ti = TiConfig {
        epsilon: 0.2,
        max_rr_per_ad: 20_000,
        ..TiConfig::default()
    };
    let solvers: [Box<dyn Solver>; 4] = [
        Box::new(Rma::new(cfg.clone())),
        Box::new(OneBatch::new(cfg, 10_000)),
        Box::new(TiCarm::new(ti.clone())),
        Box::new(TiCsrm::new(ti)),
    ];
    let observed: Vec<(String, u64, u64, Option<u64>)> = solvers
        .iter()
        .map(|solver| {
            let report = wb.run_solver(solver.as_ref(), &instance).unwrap();
            assert!(
                report.allocation.total_seeds() > 0,
                "{}: no seeds",
                report.solver
            );
            (
                report.solver.clone(),
                allocation_fnv(&report.allocation),
                report.revenue_estimate.to_bits(),
                report.revenue_lower_bound.map(f64::to_bits),
            )
        })
        .collect();
    let pinned: Vec<(String, u64, u64, Option<u64>)> = PINNED
        .iter()
        .map(|&(name, digest, est, lb)| (name.to_string(), digest, est, lb))
        .collect();
    assert_eq!(observed, pinned, "solver outputs moved");
}
