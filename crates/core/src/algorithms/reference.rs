//! Eager reference versions of `ThresholdGreedy`, `Fill` and `Search`, as
//! they were before candidate pruning: every call re-reads all `n·h`
//! singleton revenues, `ThresholdGreedy` queues every singleton-feasible
//! pair, and `Fill` evaluates a fresh gain for every unassigned pair up
//! front. The tests assert that the pruned algorithms return bit-identical
//! results on a seeded grid of instances.

use crate::algorithms::greedy::greedy_single;
use crate::algorithms::search::SearchOutcome;
use crate::algorithms::threshold_greedy::{dedup_allocation, ThresholdGreedyOutcome};
use crate::oracle::{marginal_rate, RevenueOracle, SeedState};
use crate::problem::{Allocation, RmInstance};
use crate::util::LazyQueue;
use rmsa_diffusion::AdId;
use rmsa_graph::NodeId;

fn threshold_greedy<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    gamma: f64,
) -> ThresholdGreedyOutcome {
    let h = instance.num_ads();
    let n = instance.num_nodes;
    let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
    let mut versions = vec![0u32; h];
    let mut cost_sums = vec![0.0f64; h];
    let mut stopples: Vec<Option<NodeId>> = vec![None; h];
    let mut assigned = vec![false; n];
    let mut depleted_count = 0usize;

    let mut queue = LazyQueue::with_capacity(n * h);
    for ad in 0..h {
        let budget = instance.budget(ad);
        for v in 0..n as NodeId {
            let rev = oracle.singleton_revenue(ad, v);
            let cost = instance.cost(ad, v);
            if cost + rev <= budget {
                queue.push(rev, v, ad, 0);
            }
        }
    }

    while depleted_count < h {
        let Some(entry) = queue.pop() else { break };
        let ad = entry.ad;
        if stopples[ad].is_some() || assigned[entry.node as usize] {
            continue;
        }
        let gain = oracle.marginal_gain(&states[ad], entry.node);
        if entry.version != versions[ad] {
            queue.push(gain, entry.node, ad, versions[ad]);
            continue;
        }
        let cost = instance.cost(ad, entry.node);
        if marginal_rate(gain, cost) < gamma / instance.budget(ad) {
            continue;
        }
        if cost_sums[ad] + cost + states[ad].revenue() + gain <= instance.budget(ad) {
            oracle.add_seed(&mut states[ad], entry.node);
            cost_sums[ad] += cost;
            versions[ad] += 1;
            assigned[entry.node as usize] = true;
        } else {
            stopples[ad] = Some(entry.node);
            assigned[entry.node as usize] = true;
            depleted_count += 1;
        }
    }

    let depleted: Vec<AdId> = (0..h).filter(|&i| stopples[i].is_some()).collect();
    let b = depleted.len();
    let mut fallback: Vec<Vec<NodeId>> = vec![Vec::new(); h];
    let mut fallback_revenue = vec![0.0f64; h];
    if b == 1 {
        let ad = depleted[0];
        let mut in_some_s = vec![false; n];
        for st in &states {
            for &u in st.seeds() {
                in_some_s[u as usize] = true;
            }
        }
        let candidates: Vec<NodeId> = (0..n as NodeId)
            .filter(|&u| !in_some_s[u as usize])
            .collect();
        let out = greedy_single(instance, oracle, ad, &candidates);
        fallback_revenue[ad] = out.best_revenue();
        fallback[ad] = out.best();
    }

    let mut chosen = Allocation::empty(h);
    for ad in 0..h {
        let s_rev = states[ad].revenue();
        let d_rev = stopples[ad].map_or(0.0, |u| oracle.singleton_revenue(ad, u));
        let a_rev = fallback_revenue[ad];
        if a_rev >= s_rev && a_rev >= d_rev && !fallback[ad].is_empty() {
            chosen.seed_sets[ad] = fallback[ad].clone();
        } else if let (Some(u), true) = (stopples[ad], d_rev > s_rev) {
            chosen.seed_sets[ad] = vec![u];
        } else {
            chosen.seed_sets[ad] = states[ad].seeds().to_vec();
        }
    }
    dedup_allocation(oracle, &mut chosen);
    ThresholdGreedyOutcome {
        allocation: fill(instance, oracle, chosen),
        depleted,
        b,
    }
}

fn fill<O: RevenueOracle>(instance: &RmInstance, oracle: &O, allocation: Allocation) -> Allocation {
    let h = instance.num_ads();
    let n = instance.num_nodes;
    let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
    let mut cost_sums = vec![0.0f64; h];
    let mut assigned = vec![false; n];
    for (ad, seeds) in allocation.seed_sets.iter().enumerate() {
        for &u in seeds {
            oracle.add_seed(&mut states[ad], u);
            cost_sums[ad] += instance.cost(ad, u);
            assigned[u as usize] = true;
        }
    }
    let mut versions = vec![0u32; h];

    let mut queue = LazyQueue::with_capacity(n * h);
    for ad in 0..h {
        let budget = instance.budget(ad);
        for v in 0..n as NodeId {
            if assigned[v as usize] {
                continue;
            }
            let rev = oracle.singleton_revenue(ad, v);
            let cost = instance.cost(ad, v);
            if cost + rev <= budget {
                let gain = oracle.marginal_gain(&states[ad], v);
                queue.push(marginal_rate(gain, cost), v, ad, versions[ad]);
            }
        }
    }

    while let Some(entry) = queue.pop() {
        let ad = entry.ad;
        if assigned[entry.node as usize] {
            continue;
        }
        let gain = oracle.marginal_gain(&states[ad], entry.node);
        let cost = instance.cost(ad, entry.node);
        let rate = marginal_rate(gain, cost);
        if entry.version != versions[ad] {
            queue.push(rate, entry.node, ad, versions[ad]);
            continue;
        }
        if cost_sums[ad] + cost + states[ad].revenue() + gain <= instance.budget(ad) {
            oracle.add_seed(&mut states[ad], entry.node);
            cost_sums[ad] += cost;
            versions[ad] += 1;
            assigned[entry.node as usize] = true;
        }
    }

    Allocation {
        seed_sets: states.iter().map(|s| s.seeds().to_vec()).collect(),
    }
}

fn gamma_max<O: RevenueOracle>(instance: &RmInstance, oracle: &O) -> f64 {
    let mut best = 0.0f64;
    for ad in 0..instance.num_ads() {
        let budget = instance.budget(ad);
        for v in 0..instance.num_nodes as NodeId {
            let rev = oracle.singleton_revenue(ad, v);
            best = best.max(budget * marginal_rate(rev, instance.cost(ad, v)));
        }
    }
    best
}

fn search<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    tau: f64,
    b_min: usize,
) -> SearchOutcome {
    let h = instance.num_ads();
    let min_cpe = (0..h)
        .map(|i| instance.cpe(i))
        .fold(f64::INFINITY, f64::min);
    let mut gamma1 = 0.0f64;
    let mut gamma2 = (1.0 + tau) * gamma_max(instance, oracle);
    let mut gamma = gamma1;
    let (mut t1, mut t2) = (None, None);
    let (mut b1, mut b2) = (0usize, 0usize);
    let mut best: Option<Allocation> = None;
    let mut best_revenue = f64::NEG_INFINITY;
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let outcome = threshold_greedy(instance, oracle, gamma);
        let revenue = oracle.allocation_revenue(&outcome.allocation.seed_sets);
        if revenue > best_revenue {
            best_revenue = revenue;
            best = Some(outcome.allocation.clone());
        }
        if outcome.b >= b_min {
            t1 = Some(outcome.allocation);
            b1 = outcome.b;
            gamma1 = gamma;
        } else {
            t2 = Some(outcome.allocation);
            b2 = outcome.b;
            gamma2 = gamma;
        }
        gamma = (gamma1 + gamma2) / 2.0;
        let interval_small = (1.0 + tau) * gamma1 >= gamma2;
        let gamma2_negligible = gamma2 <= min_cpe / (h as f64 + 6.0);
        if interval_small || gamma2_negligible || iterations >= 128 {
            break;
        }
    }
    SearchOutcome {
        best: best.unwrap_or_else(|| Allocation::empty(h)),
        best_revenue: best_revenue.max(0.0),
        t1,
        b1,
        gamma1,
        t2,
        b2,
        gamma2,
        b_min,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{fill as pruned_fill, search as pruned_search};
    use crate::algorithms::{gamma_max as pruned_gamma_max, threshold_greedy as pruned_tg};
    use crate::oracle::{ExactRevenueOracle, McRevenueOracle};
    use crate::problem::{Advertiser, SeedCosts};
    use crate::sampling::RrRevenueEstimator;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64Mcg;
    use rmsa_diffusion::{RrArena, RrStrategy, TicModel, UniformIc, UniformRrSampler};
    use rmsa_graph::{generators::barabasi_albert, graph_from_edges, DirectedGraph};

    const TAU: f64 = 0.1;

    /// The incentive models' cost rule, as `rmsa_datasets::IncentiveModel`
    /// applies it (that crate depends on this one).
    fn incentive_cost(model: usize, alpha: f64, spread: f64) -> f64 {
        let s = spread.max(1.0);
        let c = match model {
            0 => alpha * s,
            1 => alpha * s * s.ln().max(0.0),
            _ => alpha * s * s,
        };
        c.max(1e-6)
    }

    /// A two-topic TIC model over `graph` with random per-ad mixtures.
    fn tic_model(graph: &DirectedGraph, h: usize, hi: f32, rng: &mut Pcg64Mcg) -> TicModel {
        let m = graph.num_edges();
        let topics = (0..2)
            .map(|_| (0..m).map(|_| rng.gen_range(0.05..hi)).collect())
            .collect();
        let mixtures = (0..h)
            .map(|_| {
                let w: f32 = rng.gen_range(0.0..1.0);
                vec![w, 1.0 - w]
            })
            .collect();
        TicModel::new(m, topics, mixtures)
    }

    /// Per-advertiser singleton spreads `π_i({u}) / cpe(i)`.
    fn spreads<O: RevenueOracle>(oracle: &O, cpe: &[f64]) -> Vec<Vec<f64>> {
        (0..cpe.len())
            .map(|ad| {
                (0..oracle.num_nodes() as NodeId)
                    .map(|u| oracle.singleton_revenue(ad, u) / cpe[ad])
                    .collect()
            })
            .collect()
    }

    /// An instance whose costs follow incentive `model` over per-ad (or,
    /// when shared, advertiser 0's) singleton spreads, with budgets a
    /// multiple of each advertiser's best singleton revenue.
    fn instance(
        spreads: &[Vec<f64>],
        cpe: &[f64],
        per_ad: bool,
        model: usize,
        alpha: f64,
        budget_scale: f64,
    ) -> RmInstance {
        let row = |ad: usize| -> Vec<f64> {
            spreads[ad]
                .iter()
                .map(|&s| incentive_cost(model, alpha, s))
                .collect()
        };
        let costs = if per_ad {
            SeedCosts::PerAd((0..cpe.len()).map(row).collect())
        } else {
            SeedCosts::Shared(row(0))
        };
        let advertisers = (0..cpe.len())
            .map(|ad| {
                let best = spreads[ad].iter().fold(1.0f64, |a, &b| a.max(b));
                Advertiser::try_new(budget_scale * cpe[ad] * best, cpe[ad]).unwrap()
            })
            .collect();
        RmInstance::try_new(spreads[0].len(), advertisers, costs).unwrap()
    }

    fn assert_same_tg(a: &ThresholdGreedyOutcome, b: &ThresholdGreedyOutcome, ctx: &str) {
        assert_eq!(a.allocation, b.allocation, "{ctx}: allocation");
        assert_eq!(a.depleted, b.depleted, "{ctx}: depleted");
        assert_eq!(a.b, b.b, "{ctx}: b");
    }

    fn assert_same_search(a: &SearchOutcome, b: &SearchOutcome, ctx: &str) {
        assert_eq!(a.best, b.best, "{ctx}: best");
        assert_eq!(a.best_revenue.to_bits(), b.best_revenue.to_bits(), "{ctx}");
        assert_eq!((&a.t1, a.b1), (&b.t1, b.b1), "{ctx}: t1/b1");
        assert_eq!((&a.t2, a.b2), (&b.t2, b.b2), "{ctx}: t2/b2");
        assert_eq!(a.gamma1.to_bits(), b.gamma1.to_bits(), "{ctx}: gamma1");
        assert_eq!(a.gamma2.to_bits(), b.gamma2.to_bits(), "{ctx}: gamma2");
        assert_eq!((a.b_min, a.iterations), (b.b_min, b.iterations), "{ctx}");
    }

    /// Compare every entry point on one instance: `Search` for both
    /// `b_min`, `ThresholdGreedy` on a γ grid over `[0, (1+τ)·γ_max]`, and
    /// `Fill` from empty and from a one-seed-per-advertiser start.
    /// Returns how many γ probes depleted at least one budget.
    fn assert_equivalent<O: RevenueOracle>(
        inst: &RmInstance,
        o: &O,
        probes: usize,
        ctx: &str,
    ) -> usize {
        let gmax = gamma_max(inst, o);
        assert_eq!(gmax.to_bits(), pruned_gamma_max(inst, o).to_bits(), "{ctx}");
        for b_min in [1, 2] {
            let want = search(inst, o, TAU, b_min);
            let got = pruned_search(inst, o, TAU, b_min);
            assert_same_search(&got, &want, &format!("{ctx} search b_min={b_min}"));
        }
        let mut depleting = 0;
        for k in 0..=probes {
            let gamma = (1.0 + TAU) * gmax * k as f64 / probes as f64;
            let want = threshold_greedy(inst, o, gamma);
            assert_same_tg(
                &pruned_tg(inst, o, gamma),
                &want,
                &format!("{ctx} γ={gamma}"),
            );
            depleting += usize::from(want.b > 0);
        }
        let h = inst.num_ads();
        let mut start = Allocation::empty(h);
        for ad in 0..h {
            start.seed_sets[ad] = vec![(ad * 3) as NodeId];
        }
        for alloc in [Allocation::empty(h), start] {
            let want = fill(inst, o, alloc.clone());
            assert_eq!(pruned_fill(inst, o, alloc), want, "{ctx}: fill");
        }
        depleting
    }

    #[test]
    fn pruned_algorithms_match_the_eager_reference_on_rr_estimators() {
        let mut depleting = 0;
        for (seed, h) in [(11u64, 2usize), (12, 3), (13, 5)] {
            let mut rng = Pcg64Mcg::seed_from_u64(seed);
            let graph = barabasi_albert(70, 2, &mut rng);
            let model = tic_model(&graph, h, 0.5, &mut rng);
            let cpe: Vec<f64> = (0..h).map(|_| rng.gen_range(0.5..2.0)).collect();
            let sampler = UniformRrSampler::new(&cpe);
            let mut arena = RrArena::new(graph.num_nodes(), RrStrategy::Standard);
            arena.generate(&graph, &model, &sampler, 4000 * h, &mut rng);
            let est = RrRevenueEstimator::new(&arena, h, sampler.gamma());
            let spreads = spreads(&est, &cpe);
            for per_ad in [false, true] {
                for model in 0..3 {
                    for alpha in [0.02, 0.3] {
                        for budget_scale in [1.2, 4.0] {
                            let inst = instance(&spreads, &cpe, per_ad, model, alpha, budget_scale);
                            let ctx = format!(
                                "rr h={h} per_ad={per_ad} model={model} α={alpha} B×{budget_scale}"
                            );
                            depleting += assert_equivalent(&inst, &est, 16, &ctx);
                        }
                    }
                }
            }
            // Every third seed costs +∞: never singleton-feasible, while
            // the other pairs solve as usual.
            let base = instance(&spreads, &cpe, true, 0, 0.02, 4.0);
            let n = base.num_nodes;
            let rows = (0..h)
                .map(|ad| {
                    (0..n as NodeId)
                        .map(|u| match u % 3 {
                            0 => f64::INFINITY,
                            _ => base.cost(ad, u),
                        })
                        .collect()
                })
                .collect();
            let inst = RmInstance::try_new(n, base.advertisers, SeedCosts::PerAd(rows)).unwrap();
            depleting += assert_equivalent(&inst, &est, 16, &format!("rr h={h} infinite costs"));
        }
        assert!(depleting > 0, "the grid must exercise depleted budgets");
    }

    #[test]
    fn oracles_without_the_gain_bound_keep_the_eager_results() {
        // Exact enumeration (2^9 possible worlds) and a Monte-Carlo
        // estimate, whose gains may exceed the singleton revenue.
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (0, 6),
            (6, 7),
        ];
        let graph = graph_from_edges(9, &edges);
        for (seed, h) in [(21u64, 2usize), (22, 3)] {
            let mut rng = Pcg64Mcg::seed_from_u64(seed);
            let model = tic_model(&graph, h, 0.9, &mut rng);
            let cpe: Vec<f64> = (0..h).map(|_| rng.gen_range(0.5..2.0)).collect();
            // The oracles read only the advertisers' CPEs from an instance.
            let ads = cpe.iter().map(|&c| Advertiser::try_new(1.0, c).unwrap());
            let probe = RmInstance::try_new(9, ads.collect(), SeedCosts::Shared(vec![1.0; 9]));
            let probe = probe.unwrap();
            let exact = ExactRevenueOracle::new(&graph, &model, &probe);
            let mc = McRevenueOracle::new(&graph, &model, &probe, 16, seed);
            let exact_spreads = spreads(&exact, &cpe);
            for (per_ad, incentive) in [(false, 0), (true, 1), (true, 2)] {
                let inst = instance(&exact_spreads, &cpe, per_ad, incentive, 0.3, 2.0);
                let ctx = format!("exact h={h} per_ad={per_ad} model={incentive}");
                assert_equivalent(&inst, &exact, 4, &ctx);
            }
            let inst = instance(&spreads(&mc, &cpe), &cpe, true, 0, 0.3, 2.0);
            assert_equivalent(&inst, &mc, 4, &format!("mc h={h}"));
        }
    }

    #[test]
    fn monte_carlo_gains_above_singletons_keep_the_eager_results() {
        // Ten edges `i → i + 10` at probability ½, two cascades per query.
        // Each query draws its own cascades, so a node's gain often exceeds
        // its own singleton estimate; pruning by the singleton bound would
        // then drop or reorder pairs the eager algorithms choose.
        let edges: Vec<(NodeId, NodeId)> = (0..10).map(|i| (i, i + 10)).collect();
        let graph = graph_from_edges(20, &edges);
        let model = UniformIc::new(2, 0.5);
        let cpe = [1.0, 1.5];
        let ads = cpe.iter().map(|&c| Advertiser::try_new(1.0, c).unwrap());
        let probe = RmInstance::try_new(20, ads.collect(), SeedCosts::Shared(vec![1.0; 20]));
        let probe = probe.unwrap();
        for seed in 0..4 {
            let mc = McRevenueOracle::new(&graph, &model, &probe, 2, seed);
            let above = (0..2)
                .flat_map(|ad| (0..20).flat_map(move |s| (0..20).map(move |u| (ad, s, u))))
                .filter(|&(ad, s, u)| {
                    let mut state = mc.new_state(ad);
                    mc.add_seed(&mut state, s);
                    s != u && mc.marginal_gain(&state, u) > mc.singleton_revenue(ad, u)
                })
                .count();
            assert!(above > 0, "seed {seed}: no gain exceeds its singleton");
            for budget in [6.0, 12.0] {
                let ads = cpe
                    .iter()
                    .map(|&c| Advertiser::try_new(budget * c, c).unwrap());
                let costs = SeedCosts::Shared(vec![1.0; 20]);
                let inst = RmInstance::try_new(20, ads.collect(), costs).unwrap();
                let ctx = format!("mc seed={seed} B={budget}");
                assert_equivalent(&inst, &mc, 32, &ctx);
            }
        }
    }
}
