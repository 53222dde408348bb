//! Algorithms 2 and 3: `ThresholdGreedy(γ)` and `Fill(S⃗)`.
//!
//! `ThresholdGreedy` selects `(node, advertiser)` elements in decreasing
//! order of marginal *gain* (as CA-Greedy does), but only accepts an element
//! whose marginal *rate* is at least `γ / B_i` — the threshold rules out
//! elements whose revenue-per-budget-unit is too poor, which is what gives
//! Theorem 3.2 its guarantee. The first element that would overflow an
//! advertiser's budget becomes that advertiser's stopple node `D_i`, and the
//! advertiser's budget is considered depleted.
//!
//! After the main loop, if exactly one advertiser's budget was depleted, a
//! single-advertiser `Greedy` run over the unassigned nodes provides the
//! fallback set `A_i` needed by the analysis. Finally `Fill` spends any
//! remaining budget greedily by marginal rate.
//!
//! **Pruning.** `Search` runs both once per binary-search step, so they
//! skip the candidates that provably cannot change the result. Every rule
//! rests on one bound: a fresh gain `π_i(v | S_i)` never exceeds the
//! singleton revenue `π_i({v})`, and `ζ = gain / (cost + gain)` is
//! non-decreasing in the gain, so a pair's singleton rate times
//! `1 + 4ε` (the slack covers the rounding of the two rate evaluations)
//! bounds each of its fresh rates. For an oracle that guarantees the gain
//! bound bit-exactly ([`RevenueOracle::GAINS_BOUNDED_BY_SINGLETONS`], the
//! RR estimator) the rules are:
//!
//! * *Threshold prefilter.* `ThresholdGreedy` never enqueues a pair whose
//!   bound is below `γ / B_i`: line 5 would drop it on every pop, and a
//!   dropped pair has no side effect.
//! * *Lazy `Fill`.* `Fill` keys its initial entries by the bound and marks
//!   them stale, instead of evaluating a fresh gain per unassigned pair up
//!   front. A pop is processed only when its key is fresh, and every other
//!   key bounds its own fresh rate, so the processed entry is still the
//!   one with the largest `(fresh rate, node, ad)`, exactly as in the eager
//!   order. Before any gain is computed, an entry is dropped once
//!   `c_i(S_i) + c_i(v) + π_i(S_i) > B_i`: cost and revenue only grow and
//!   gains are non-negative, so it could never be admitted, and `Fill`
//!   discards an inadmissible entry without a side effect.
//! * *One singleton pass.* [`singleton_pass`] lists the singleton-feasible
//!   pairs once; `Search` computes `γ_max` in the same pass and hands the
//!   list to every call, which filters it and heapifies in O(k).
//!
//! Allocations, seed order, `b` and every revenue bit therefore equal those
//! of the eager algorithms. Other oracles keep the eager evaluation (the
//! Monte-Carlo estimate is not submodular), but share the singleton pass.

use crate::algorithms::greedy::greedy_single;
use crate::oracle::{marginal_rate, RevenueOracle, SeedState};
use crate::problem::{Allocation, RmInstance};
use crate::util::{LazyEntry, LazyQueue};
use rmsa_diffusion::AdId;
use rmsa_graph::NodeId;

/// Version stamp of a `Fill` entry whose key is only an upper bound. Real
/// versions count an advertiser's seeds and never reach it.
const STALE: u32 = u32::MAX;

/// Result of `ThresholdGreedy(γ)`.
#[derive(Clone, Debug)]
pub struct ThresholdGreedyOutcome {
    /// The final allocation `S⃗*` (after the `Fill` pass).
    pub allocation: Allocation,
    /// Advertisers whose budgets were depleted during the main loop (`I`).
    pub depleted: Vec<AdId>,
    /// `b = |I|`.
    pub b: usize,
}

/// One pass over all `(node, ad)` pairs: the singleton-feasible ones
/// (`c_i(v) + π_i({v}) ≤ B_i`) as version-0 entries keyed by singleton
/// revenue, and `γ_max` (Eq. 6), which ranges over every pair.
pub(crate) fn singleton_pass<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
) -> (Vec<LazyEntry>, f64) {
    let n = instance.num_nodes;
    let mut feasible = Vec::with_capacity(n * instance.num_ads());
    let mut gamma_max = 0.0f64;
    for ad in 0..instance.num_ads() {
        let budget = instance.budget(ad);
        for v in 0..n as NodeId {
            let rev = oracle.singleton_revenue(ad, v);
            let cost = instance.cost(ad, v);
            gamma_max = gamma_max.max(budget * marginal_rate(rev, cost));
            if cost + rev <= budget {
                feasible.push(LazyEntry {
                    key: rev,
                    node: v,
                    ad,
                    version: 0,
                });
            }
        }
    }
    (feasible, gamma_max)
}

/// An upper bound on every fresh marginal rate of a pair whose gains never
/// exceed `singleton_revenue`: the computed rate is within a factor
/// `1 ± ε` of the exact one, so `1 + 4ε` covers both evaluations.
fn rate_bound(singleton_revenue: f64, cost: f64) -> f64 {
    marginal_rate(singleton_revenue, cost) * (1.0 + 4.0 * f64::EPSILON)
}

/// Run `ThresholdGreedy(γ)` (Algorithm 2), including the final `Fill` pass.
pub fn threshold_greedy<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    gamma: f64,
) -> ThresholdGreedyOutcome {
    threshold_greedy_over(instance, oracle, gamma, &singleton_pass(instance, oracle).0)
}

/// `ThresholdGreedy(γ)` over the pairs of a [`singleton_pass`].
pub(crate) fn threshold_greedy_over<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    gamma: f64,
    singletons: &[LazyEntry],
) -> ThresholdGreedyOutcome {
    let h = instance.num_ads();
    let n = instance.num_nodes;
    assert_eq!(oracle.num_ads(), h);
    assert!(gamma >= 0.0, "threshold must be non-negative");

    let mut states: Vec<O::State> = (0..h).map(|i| oracle.new_state(i)).collect();
    let mut versions = vec![0u32; h];
    let mut cost_sums = vec![0.0f64; h];
    let mut stopples: Vec<Option<NodeId>> = vec![None; h];
    let mut assigned = vec![false; n];
    let mut depleted_count = 0usize;

    // Line 1: M holds every singleton-feasible (node, ad) pair, keyed by the
    // marginal gain π_j(v | S_j), initially the singleton revenue. A pair
    // whose rate can never reach γ / B_j is left out (module docs).
    let prune = O::GAINS_BOUNDED_BY_SINGLETONS;
    let mut entries = Vec::with_capacity(singletons.len());
    entries.extend(singletons.iter().filter(|e| {
        !prune || rate_bound(e.key, instance.cost(e.ad, e.node)) >= gamma / instance.budget(e.ad)
    }));
    let mut queue = LazyQueue::from(entries);

    // Lines 3–8: greedy main loop over marginal gains with the rate
    // threshold, the partition constraint, and the budget check.
    while depleted_count < h {
        let Some(entry) = queue.pop() else { break };
        let ad = entry.ad;
        if stopples[ad].is_some() {
            // Line 5, second clause: this advertiser's budget is depleted.
            continue;
        }
        if assigned[entry.node as usize] {
            // Line 6: node already endorses some ad.
            continue;
        }
        let gain = oracle.marginal_gain(&states[ad], entry.node);
        if entry.version != versions[ad] {
            // Stale upper bound: refresh and re-queue (CELF).
            queue.push(gain, entry.node, ad, versions[ad]);
            continue;
        }
        let cost = instance.cost(ad, entry.node);
        let rate = marginal_rate(gain, cost);
        if rate < gamma / instance.budget(ad) {
            // Line 5, first clause: marginal rate below the threshold.
            continue;
        }
        let budget = instance.budget(ad);
        if cost_sums[ad] + cost + states[ad].revenue() + gain <= budget {
            // Line 7: feasible — commit.
            oracle.add_seed(&mut states[ad], entry.node);
            cost_sums[ad] += cost;
            versions[ad] += 1;
            assigned[entry.node as usize] = true;
        } else {
            // Line 8: stopple node; the advertiser's budget is depleted.
            stopples[ad] = Some(entry.node);
            assigned[entry.node as usize] = true;
            depleted_count += 1;
        }
    }
    // Fill builds its own queue; keep the peak at two candidate lists.
    drop(queue);

    let depleted: Vec<AdId> = (0..h).filter(|&i| stopples[i].is_some()).collect();
    let b = depleted.len();

    // Lines 9–10: if exactly one advertiser depleted its budget, run the
    // single-advertiser Greedy over the nodes not claimed by any S_j.
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

    // Line 11: per advertiser keep the best of {S_j, D_j, A_j}.
    let mut chosen = Allocation::empty(h);
    for ad in 0..h {
        let s_rev = states[ad].revenue();
        let d_rev = stopples[ad].map_or(0.0, |u| oracle.singleton_revenue(ad, u));
        let a_rev = fallback_revenue[ad];
        if a_rev >= s_rev && a_rev >= d_rev && !fallback[ad].is_empty() {
            chosen.seed_sets[ad] = fallback[ad].clone();
        } else if let (Some(u), true) = (stopples[ad], d_rev > s_rev) {
            // d_rev > 0 implies a stopple; if it is somehow absent the
            // branch falls through to S_j rather than asserting.
            chosen.seed_sets[ad] = vec![u];
        } else {
            chosen.seed_sets[ad] = states[ad].seeds().to_vec();
        }
    }
    // Taking the best of {S_j, D_j, A_j} per advertiser can re-introduce a
    // node for two advertisers (e.g. a stopple of one ad was also selected
    // by another). Resolve conflicts by keeping the node for the advertiser
    // that gains more from it — the guarantee of Theorem 3.2 is stated for
    // the revenue of the better of the candidates, so deduplication can only
    // be applied to the lower-value duplicates.
    dedup_allocation(oracle, &mut chosen);

    // Line 12: spend remaining budget.
    let allocation = fill_over(instance, oracle, chosen, singletons);

    ThresholdGreedyOutcome {
        allocation,
        depleted,
        b,
    }
}

/// Remove duplicate node assignments across advertisers, keeping each node
/// for the advertiser with the larger singleton revenue.
pub(super) fn dedup_allocation<O: RevenueOracle>(oracle: &O, allocation: &mut Allocation) {
    use std::collections::HashMap;
    let mut owner: HashMap<NodeId, AdId> = HashMap::new();
    for ad in 0..allocation.num_ads() {
        for &u in &allocation.seed_sets[ad] {
            match owner.get(&u) {
                None => {
                    owner.insert(u, ad);
                }
                Some(&other) => {
                    let keep_new =
                        oracle.singleton_revenue(ad, u) > oracle.singleton_revenue(other, u);
                    if keep_new {
                        owner.insert(u, ad);
                    }
                }
            }
        }
    }
    for ad in 0..allocation.num_ads() {
        allocation.seed_sets[ad].retain(|&u| owner.get(&u) == Some(&ad));
    }
}

/// Algorithm 3: `Fill(S⃗)` — greedily add more seeds by marginal rate until
/// no advertiser can afford another feasible node.
pub fn fill<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    allocation: Allocation,
) -> Allocation {
    fill_over(
        instance,
        oracle,
        allocation,
        &singleton_pass(instance, oracle).0,
    )
}

/// `Fill(S⃗)` over the pairs of a [`singleton_pass`].
pub(crate) fn fill_over<O: RevenueOracle>(
    instance: &RmInstance,
    oracle: &O,
    allocation: Allocation,
    singletons: &[LazyEntry],
) -> Allocation {
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

    // Line 1: all unassigned singleton-feasible pairs, keyed by the rate
    // w.r.t. the current S_j — lazily by its singleton bound (module docs).
    let lazy = O::GAINS_BOUNDED_BY_SINGLETONS;
    let mut entries = Vec::with_capacity(singletons.len());
    entries.extend(
        singletons
            .iter()
            .filter(|e| !assigned[e.node as usize])
            .map(|e| {
                let cost = instance.cost(e.ad, e.node);
                if lazy {
                    LazyEntry {
                        key: rate_bound(e.key, cost),
                        version: STALE,
                        ..*e
                    }
                } else {
                    let gain = oracle.marginal_gain(&states[e.ad], e.node);
                    LazyEntry {
                        key: marginal_rate(gain, cost),
                        version: versions[e.ad],
                        ..*e
                    }
                }
            }),
    );
    let mut queue = LazyQueue::from(entries);

    while let Some(entry) = queue.pop() {
        let ad = entry.ad;
        if assigned[entry.node as usize] {
            continue;
        }
        let cost = instance.cost(ad, entry.node);
        if lazy && cost_sums[ad] + cost + states[ad].revenue() > instance.budget(ad) {
            // Over budget before any gain; the slack only shrinks.
            continue;
        }
        let gain = oracle.marginal_gain(&states[ad], entry.node);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactRevenueOracle;
    use crate::problem::{Advertiser, SeedCosts};
    use rmsa_diffusion::UniformIc;
    use rmsa_graph::{graph_from_edges, DirectedGraph};

    /// Two disjoint stars: hub 0 over nodes 2..=5 (spread 5), hub 1 over
    /// nodes 6..=8 (spread 4); nodes 9..11 isolated.
    fn two_star_graph() -> DirectedGraph {
        graph_from_edges(
            12,
            &[(0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8)],
        )
    }

    fn instance(budgets: &[f64]) -> RmInstance {
        RmInstance::try_new(
            12,
            budgets
                .iter()
                .map(|&b| Advertiser::try_new(b, 1.0).unwrap())
                .collect(),
            SeedCosts::Shared(vec![1.0; 12]),
        )
        .unwrap()
    }

    #[test]
    fn partition_constraint_is_respected() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[20.0, 20.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.0);
        assert!(out.allocation.is_disjoint());
    }

    #[test]
    fn budget_feasibility_holds_for_every_advertiser() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[8.0, 6.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 1.0);
        for ad in 0..2 {
            let seeds = out.allocation.seeds(ad);
            let total = o.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(
                total <= inst.budget(ad) + 1e-9,
                "ad {ad} spends {total} of budget {}",
                inst.budget(ad)
            );
        }
    }

    #[test]
    fn zero_threshold_selects_by_pure_marginal_gain() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[20.0, 20.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.0);
        // The two hubs must be allocated (to different advertisers), since
        // they have the highest marginal gains and budgets are ample.
        let all: Vec<NodeId> = out.allocation.seed_sets.iter().flatten().copied().collect();
        assert!(all.contains(&0), "hub 0 must be seeded: {all:?}");
        assert!(all.contains(&1), "hub 1 must be seeded: {all:?}");
    }

    #[test]
    fn huge_threshold_selects_nothing() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[20.0, 20.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        // γ / B = 50 / 20 = 2.5 > any marginal rate (rates are < 1), and the
        // Fill pass is rate-based, not thresholded, so it still adds seeds;
        // the main loop itself must deplete nobody.
        let out = threshold_greedy(&inst, &o, 50.0);
        assert_eq!(out.b, 0);
    }

    #[test]
    fn depleted_advertisers_are_reported() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        // Tiny budgets: both advertisers deplete almost immediately.
        let inst = instance(&[3.0, 3.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.5);
        assert_eq!(out.b, out.depleted.len());
        for ad in &out.depleted {
            assert!(*ad < 2);
        }
    }

    #[test]
    fn fill_extends_a_partial_allocation_without_violating_budgets() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[10.0, 10.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let mut start = Allocation::empty(2);
        start.seed_sets[0] = vec![9]; // an isolated node, revenue 1
        let filled = fill(&inst, &o, start);
        assert!(filled.seed_sets[0].contains(&9));
        assert!(filled.total_seeds() > 1, "fill should add more seeds");
        for ad in 0..2 {
            let seeds = filled.seeds(ad);
            let total = o.revenue(ad, seeds) + inst.set_cost(ad, seeds);
            assert!(total <= inst.budget(ad) + 1e-9);
        }
        assert!(filled.is_disjoint());
    }

    #[test]
    fn fill_never_removes_existing_seeds() {
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[6.0, 6.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let mut start = Allocation::empty(2);
        start.seed_sets[0] = vec![0];
        start.seed_sets[1] = vec![1];
        let filled = fill(&inst, &o, start);
        assert!(filled.seed_sets[0].contains(&0));
        assert!(filled.seed_sets[1].contains(&1));
    }

    #[test]
    fn single_depletion_triggers_the_fallback_greedy() {
        // Advertiser 0 has a tiny budget and will deplete; advertiser 1 has
        // a huge budget and never does, so b == 1 exercises lines 9–10.
        let g = two_star_graph();
        let m = UniformIc::new(2, 1.0);
        let inst = instance(&[4.0, 50.0]);
        let o = ExactRevenueOracle::new(&g, &m, &inst);
        let out = threshold_greedy(&inst, &o, 0.5);
        if out.b == 1 {
            let ad = out.depleted[0];
            assert!(!out.allocation.seeds(ad).is_empty());
        }
        assert!(out.allocation.is_disjoint());
    }
}
