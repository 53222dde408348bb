//! Columnar RR-set storage and the incrementally extendable coverage index.
//!
//! The old representation boxed every RR-set in its own `Vec<NodeId>` and
//! rebuilt a `Vec<Vec<u32>>` inverted index from scratch for every
//! estimator. Both are pointer-chasing structures: generation pays one
//! allocation per RR-set, and every coverage query hops through a
//! heap-scattered jagged array. This module replaces them with two flat,
//! cache-friendly structures:
//!
//! * [`RrArena`] — a columnar store: one `nodes` buffer holding every
//!   member of every RR-set back to back, CSR-style `offsets` delimiting
//!   the sets, and a parallel `ads` column with each set's advertiser.
//!   Appending a set is a bump-pointer push; the memory footprint is a
//!   closed-form function of three vector capacities.
//! * [`CoverageIndex`] — the inverted `(node, advertiser) → RR-set` index,
//!   stored as a sequence of immutable CSR *segments*. Extending the arena
//!   appends one new segment covering exactly the new sets; the segments
//!   indexed for a smaller collection are never touched again (the
//!   *extend-never-rebuild* rule). [`CoverageIndex::view`] takes an
//!   O(#segments) snapshot — a [`CoverageView`] — that stays valid and
//!   immutable while the index keeps growing, which is what lets
//!   estimators built at different sample sizes θ share one index.
//!
//! A segment groups its postings by `(node, advertiser)`: each node owns
//! a short list of non-empty runs, one per advertiser with a set
//! containing it, and the `(u, ad)` run holds the ascending ids of the
//! segment's RR-sets generated for `ad` that contain `u`. The paper's
//! per-advertiser estimator π̃_i counts only advertiser i's RR-sets, so a
//! marginal-gain query finds its run among the node's runs and reads it,
//! never looking at another advertiser's postings. Only non-empty runs
//! are stored, so the run tables grow with the postings, never with
//! `n · h`. The index keeps no per-set advertiser column (the arena
//! already stores one) and no singleton-count column: a singleton count
//! is the summed length of one run per segment.
//!
//! Generation is deterministic in a thread-count independent way: work is
//! split into fixed-size chunks of [`GENERATION_CHUNK`] RR-sets and every
//! chunk derives its RNG from `(seed, chunk_index)`, so a collection is a
//! pure function of `(seed, count)` no matter how many worker threads
//! produced it. Sharded generation ([`RrArena::generate_sharded`]) builds
//! on the same invariant: a [`ShardSpan`] is a contiguous range of chunk
//! indices, every shard derives its RNGs from the *global* chunk index,
//! and shards concatenate in order — so the result is bit-identical to
//! unsharded generation for any shard count.
//!
//! All three arena columns and the four columns of every coverage segment
//! are [`rmsa_store::Column`]s: owned when generated or decoded from
//! in-memory bytes, borrowed zero-copy when restored from an aligned v2
//! snapshot mapping. Snapshots written before the `(node, advertiser)`
//! layout hold node-major segments (one run per node, every advertiser
//! mixed); [`crate::snapshot::read_index`] still reads them and
//! re-buckets each segment into the current layout, owned, using the
//! arena's advertiser column.

use crate::models::{AdId, PropagationModel};
use crate::rr::{RrGenerator, RrStrategy};
use crate::sampler::UniformRrSampler;
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;
use rmsa_graph::{DirectedGraph, NodeId};
use rmsa_store::Column;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// RR-sets per generation chunk. Each chunk owns an RNG derived from
/// `(seed, chunk_index)`, making parallel generation a deterministic
/// function of `(seed, count)` regardless of the worker-thread count.
pub const GENERATION_CHUNK: usize = 1024;

/// Columnar store of RR-sets: flat member buffer + CSR offsets + a
/// parallel advertiser column. Append-only; set `i`'s members are
/// `nodes[offsets[i]..offsets[i + 1]]` and its root is the first member.
#[derive(Clone, Debug)]
pub struct RrArena {
    pub(crate) num_nodes: usize,
    pub(crate) strategy: RrStrategy,
    pub(crate) nodes: Column<NodeId>,
    pub(crate) offsets: Column<usize>,
    /// Advertiser of each set (u32 column: matches the wire format, so a
    /// mapped snapshot load borrows it without conversion).
    pub(crate) ads: Column<u32>,
}

/// Borrowed view of one RR-set inside an [`RrArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RrSetRef<'a> {
    /// Advertiser whose edge probabilities generated the set.
    pub ad: AdId,
    /// Member nodes; the first entry is the root.
    pub nodes: &'a [NodeId],
}

impl RrSetRef<'_> {
    /// The uniformly random root the set was grown from.
    pub fn root(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// An RR-set always contains its root, so it is never empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl RrArena {
    /// Create an empty arena for graphs with `num_nodes` nodes.
    pub fn new(num_nodes: usize, strategy: RrStrategy) -> Self {
        RrArena {
            num_nodes,
            strategy,
            nodes: Column::new(),
            offsets: vec![0].into(),
            ads: Column::new(),
        }
    }

    /// Number of RR-sets currently held.
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// True when no RR-set has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// Number of nodes in the graph the arena was generated for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The RR-set generation strategy in use.
    pub fn strategy(&self) -> RrStrategy {
        self.strategy
    }

    /// Total member entries across all sets.
    pub fn total_entries(&self) -> usize {
        self.nodes.len()
    }

    /// Average RR-set size (node entries per set); O(1).
    pub fn mean_size(&self) -> f64 {
        if self.ads.is_empty() {
            0.0
        } else {
            self.nodes.len() as f64 / self.ads.len() as f64
        }
    }

    /// Approximate memory footprint in bytes (the Fig. 4 memory proxy):
    /// owned heap plus file-mapped bytes.
    ///
    /// O(1): the columnar layout makes the footprint a closed form of the
    /// three column sizes, so polling this per sweep point costs nothing
    /// (the old per-set representation walked every boxed set).
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes() + self.mapped_bytes()
    }

    /// Owned heap bytes (excludes columns borrowed from a snapshot
    /// mapping — those cost page cache, not private heap).
    pub fn resident_bytes(&self) -> usize {
        self.nodes.resident_bytes() + self.offsets.resident_bytes() + self.ads.resident_bytes()
    }

    /// Bytes borrowed zero-copy from a snapshot mapping.
    pub fn mapped_bytes(&self) -> usize {
        self.nodes.mapped_bytes() + self.offsets.mapped_bytes() + self.ads.mapped_bytes()
    }

    /// Advertiser of RR-set `i`.
    pub fn ad_of(&self, i: usize) -> AdId {
        self.ads[i] as AdId
    }

    /// Member nodes of RR-set `i` (root first).
    pub fn nodes_of(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Member entries of sets `[from, to)` as one contiguous slice (the
    /// payoff of the columnar layout: a range of sets is a range of the
    /// flat buffer).
    pub fn nodes_of_range(&self, from: usize, to: usize) -> &[NodeId] {
        &self.nodes[self.offsets[from]..self.offsets[to]]
    }

    /// Borrowed view of RR-set `i`.
    pub fn set(&self, i: usize) -> RrSetRef<'_> {
        RrSetRef {
            ad: self.ad_of(i),
            nodes: self.nodes_of(i),
        }
    }

    /// Iterate over all RR-sets in generation order.
    pub fn iter(&self) -> impl Iterator<Item = RrSetRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.set(i))
    }

    /// Append one RR-set with explicit members (`members[0]` must be the
    /// root). Test/tooling escape hatch; generation goes through
    /// [`RrArena::generate`] / [`RrArena::generate_parallel`].
    pub fn push_set(&mut self, ad: AdId, members: &[NodeId]) {
        assert!(!members.is_empty(), "an RR-set always contains its root");
        assert!(
            ad <= u32::MAX as usize,
            "advertiser ids are stored as u32 columns"
        );
        self.nodes.extend_from_slice(members);
        self.offsets.push(self.nodes.len());
        self.ads.push(ad as u32);
    }

    /// Append `count` RR-sets generated sequentially with an external
    /// `rng` (test/tooling path; the cache uses the chunk-deterministic
    /// [`RrArena::generate_parallel`]).
    pub fn generate<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        count: usize,
        rng: &mut R,
    ) {
        let mut gen = RrGenerator::new(graph.num_nodes(), self.strategy);
        self.reserve_for(count);
        for _ in 0..count {
            self.emit_one(graph, model, sampler, &mut gen, rng);
        }
    }

    /// Append `count` RR-sets generated by up to `num_threads` workers.
    ///
    /// The work is split into [`GENERATION_CHUNK`]-sized chunks; chunk `k`
    /// draws from an RNG derived from `(seed, k)`, and chunks are appended
    /// in index order. The resulting collection therefore depends only on
    /// `(seed, count)` — one thread or sixteen produce bit-identical
    /// arenas.
    pub fn generate_parallel<M: PropagationModel + ?Sized>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        count: usize,
        num_threads: usize,
        seed: u64,
    ) {
        if count == 0 {
            return;
        }
        let num_chunks = count.div_ceil(GENERATION_CHUNK);
        self.generate_chunks(
            graph,
            model,
            sampler,
            count,
            0,
            num_chunks,
            num_threads,
            seed,
        );
    }

    /// Generate chunks `[chunk_from, chunk_to)` of a `total`-set batch.
    /// Chunk `k` always draws from `chunk_rng(seed, k)` with `k` a *global*
    /// chunk index, so disjoint chunk ranges generated into separate arenas
    /// and concatenated in order are bit-identical to one full-range pass.
    #[allow(clippy::too_many_arguments)]
    fn generate_chunks<M: PropagationModel + ?Sized>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        total: usize,
        chunk_from: usize,
        chunk_to: usize,
        num_threads: usize,
        seed: u64,
    ) {
        if chunk_to <= chunk_from {
            return;
        }
        let num_chunks = total.div_ceil(GENERATION_CHUNK);
        let chunk_len = |k: usize| {
            if k + 1 == num_chunks {
                total - k * GENERATION_CHUNK
            } else {
                GENERATION_CHUNK
            }
        };
        let span_sets: usize = (chunk_from..chunk_to).map(chunk_len).sum();
        let num_threads = num_threads.max(1).min(chunk_to - chunk_from);
        self.reserve_for(span_sets);
        if num_threads == 1 {
            let mut gen = RrGenerator::new(graph.num_nodes(), self.strategy);
            for k in chunk_from..chunk_to {
                let mut rng = chunk_rng(seed, k);
                for _ in 0..chunk_len(k) {
                    self.emit_one(graph, model, sampler, &mut gen, &mut rng);
                }
            }
            return;
        }
        let strategy = self.strategy;
        let next = AtomicUsize::new(chunk_from);
        let produced = parking_lot::Mutex::new(Vec::with_capacity(chunk_to - chunk_from));
        std::thread::scope(|scope| {
            for _ in 0..num_threads {
                let next = &next;
                let produced = &produced;
                scope.spawn(move || {
                    let mut gen = RrGenerator::new(graph.num_nodes(), strategy);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= chunk_to {
                            break;
                        }
                        let mut chunk = Chunk::with_capacity(chunk_len(k));
                        let mut rng = chunk_rng(seed, k);
                        for _ in 0..chunk_len(k) {
                            chunk.emit_one(graph, model, sampler, &mut gen, &mut rng);
                        }
                        produced.lock().push((k, chunk));
                    }
                });
            }
        });
        let mut produced = produced.into_inner();
        produced.sort_unstable_by_key(|(k, _)| *k);
        for (_, chunk) in produced {
            self.append_chunk(chunk);
        }
    }

    fn reserve_for(&mut self, count: usize) {
        self.ads.to_mut().reserve(count);
        self.offsets.to_mut().reserve(count);
    }

    fn emit_one<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        gen: &mut RrGenerator,
        rng: &mut R,
    ) {
        let ad = sampler.sample_ad(rng);
        let root = rng.gen_range(0..graph.num_nodes() as NodeId);
        gen.generate_rooted_into(graph, model, ad, root, rng, self.nodes.to_mut());
        self.offsets.push(self.nodes.len());
        // Sampled ads are `< num_ads`, far below u32::MAX.
        self.ads.push(ad as u32);
    }

    fn append_chunk(&mut self, chunk: Chunk) {
        let base = self.nodes.len();
        self.nodes.extend_from_slice(&chunk.nodes);
        let offsets = self.offsets.to_mut();
        for &end in &chunk.ends {
            offsets.push(base + end);
        }
        self.ads.extend_from_slice(&chunk.ads);
    }

    /// Append every set of `shard` (concatenation: `shard`'s set `i`
    /// becomes set `self.len() + i`). Shards produced by
    /// [`RrArena::generate_shard`] over consecutive [`ShardSpan`]s merge
    /// into exactly the arena unsharded generation would have produced.
    pub fn append_arena(&mut self, shard: &RrArena) {
        assert_eq!(
            self.num_nodes, shard.num_nodes,
            "shards must come from the same graph"
        );
        assert_eq!(
            self.strategy, shard.strategy,
            "shards must use the same RR strategy"
        );
        let base = self.nodes.len();
        self.nodes.extend_from_slice(&shard.nodes);
        let offsets = self.offsets.to_mut();
        for &end in &shard.offsets[1..] {
            offsets.push(base + end);
        }
        self.ads.extend_from_slice(&shard.ads);
    }

    /// Generate one shard of a `count`-set batch into its own arena.
    ///
    /// The shard draws every chunk RNG from the *master* `seed` and the
    /// global chunk index recorded in `span`, so the shard's content is
    /// independent of how many shards the batch was split into.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_shard<M: PropagationModel + ?Sized>(
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        strategy: RrStrategy,
        count: usize,
        span: ShardSpan,
        num_threads: usize,
        seed: u64,
    ) -> RrArena {
        let mut shard = RrArena::new(graph.num_nodes(), strategy);
        shard.generate_chunks(
            graph,
            model,
            sampler,
            count,
            span.chunk_from,
            span.chunk_to,
            num_threads,
            seed,
        );
        shard
    }

    /// Append `count` RR-sets generated as `num_shards` independent arena
    /// shards (one scoped thread per shard, `num_threads` split between
    /// them), merged in shard order.
    ///
    /// Bit-identical to [`RrArena::generate_parallel`] with the same
    /// `(seed, count)` for *any* shard count — the sharded analogue of the
    /// thread-count-independence invariant. Returns the shard spans
    /// (absolute set ranges within this arena), which
    /// [`CoverageIndex::extend_by_spans`] turns into one coverage segment
    /// per shard without rebuilding.
    #[allow(clippy::too_many_arguments)] // mirrors generate_chunks' knobs
    pub fn generate_sharded<M: PropagationModel + ?Sized>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        count: usize,
        num_shards: usize,
        num_threads: usize,
        seed: u64,
    ) -> Vec<ShardSpan> {
        let base = self.len();
        let mut spans = shard_plan(count, num_shards);
        if count > 0 {
            let strategy = self.strategy;
            let per_shard_threads = (num_threads.max(1) / spans.len().max(1)).max(1);
            let shards: Vec<RrArena> = std::thread::scope(|scope| {
                let handles: Vec<_> = spans
                    .iter()
                    .map(|&span| {
                        scope.spawn(move || {
                            RrArena::generate_shard(
                                graph,
                                model,
                                sampler,
                                strategy,
                                count,
                                span,
                                per_shard_threads,
                                seed,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(shard) => shard,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
            for shard in &shards {
                self.append_arena(shard);
            }
        }
        for span in &mut spans {
            span.set_from += base;
            span.set_to += base;
        }
        spans
    }
}

/// Contiguous slice of one generation batch assigned to a shard: RR-sets
/// `[set_from, set_to)`, produced from global chunks
/// `[chunk_from, chunk_to)`. Spans are chunk-aligned so every chunk RNG is
/// derived exactly as unsharded generation derives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpan {
    /// First RR-set index of the span (relative to the batch from
    /// [`shard_plan`]; absolute within the arena once returned by
    /// [`RrArena::generate_sharded`]).
    pub set_from: usize,
    /// One past the last RR-set index of the span.
    pub set_to: usize,
    pub(crate) chunk_from: usize,
    pub(crate) chunk_to: usize,
}

impl ShardSpan {
    /// Number of RR-sets in the span.
    pub fn len(&self) -> usize {
        self.set_to - self.set_from
    }

    /// True when the span covers no set.
    pub fn is_empty(&self) -> bool {
        self.set_to == self.set_from
    }
}

/// Split a `count`-set generation batch into at most `num_shards`
/// contiguous, chunk-aligned spans. Shards are balanced to within one
/// chunk; when there are fewer chunks than requested shards, the plan has
/// fewer (non-empty) spans instead of empty shards.
pub fn shard_plan(count: usize, num_shards: usize) -> Vec<ShardSpan> {
    let num_chunks = count.div_ceil(GENERATION_CHUNK);
    let num_shards = num_shards.max(1);
    let mut spans = Vec::with_capacity(num_shards.min(num_chunks));
    let mut chunk_from = 0usize;
    for shard in 0..num_shards {
        let chunk_to = (shard + 1) * num_chunks / num_shards;
        if chunk_to <= chunk_from {
            continue;
        }
        spans.push(ShardSpan {
            set_from: chunk_from * GENERATION_CHUNK,
            set_to: (chunk_to * GENERATION_CHUNK).min(count),
            chunk_from,
            chunk_to,
        });
        chunk_from = chunk_to;
    }
    spans
}

/// One worker-local columnar batch, merged into the arena in chunk order.
struct Chunk {
    ads: Vec<u32>,
    /// Exclusive end offset of each set within `nodes`.
    ends: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl Chunk {
    fn with_capacity(sets: usize) -> Self {
        Chunk {
            ads: Vec::with_capacity(sets),
            ends: Vec::with_capacity(sets),
            nodes: Vec::new(),
        }
    }

    fn emit_one<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        gen: &mut RrGenerator,
        rng: &mut R,
    ) {
        let ad = sampler.sample_ad(rng);
        let root = rng.gen_range(0..graph.num_nodes() as NodeId);
        gen.generate_rooted_into(graph, model, ad, root, rng, &mut self.nodes);
        self.ends.push(self.nodes.len());
        // Sampled ads are `< num_ads`, far below u32::MAX.
        self.ads.push(ad as u32);
    }
}

fn chunk_rng(seed: u64, chunk: usize) -> Pcg64Mcg {
    Pcg64Mcg::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(chunk as u64 + 1))
}

/// One immutable CSR block of the inverted index, covering RR-sets
/// `[rr_base, rr_base + num_sets)`. Once built, a segment is never
/// modified — prefix views stay valid while the index grows.
///
/// Postings are grouped by node, and within a node by advertiser. Node
/// `u`'s runs are `node_runs[u]..node_runs[u + 1]`; run `r` belongs to
/// advertiser `run_ads[r]` (strictly ascending within a node) and holds
/// the ascending absolute ids `entries[run_offsets[r]..run_offsets[r + 1]]`
/// of this segment's RR-sets generated for that advertiser that contain
/// `u`. Only non-empty runs are stored: a segment with `E` postings in
/// `R ≤ E` runs takes `4 · (n + 1) + 4 · (2R + 1) + 4 · E` bytes.
#[derive(Debug)]
pub struct CoverageSegment {
    pub(crate) rr_base: u32,
    pub(crate) num_sets: u32,
    /// Per-node run ranges; length `num_nodes + 1`.
    pub(crate) node_runs: Column<u32>,
    /// Advertiser of each run.
    pub(crate) run_ads: Column<u32>,
    /// Run boundaries into `entries`; length `#runs + 1`.
    pub(crate) run_offsets: Column<u32>,
    /// Absolute RR-set ids, ascending within each run.
    pub(crate) entries: Column<u32>,
}

impl CoverageSegment {
    /// First RR-set id this segment covers.
    pub fn rr_base(&self) -> u32 {
        self.rr_base
    }

    /// Number of RR-sets this segment covers.
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// Ascending absolute ids of the covered RR-sets generated for `ad`
    /// that contain `node` (empty when there are none).
    pub fn rr_of_containing(&self, ad: AdId, node: NodeId) -> &[u32] {
        let u = node as usize;
        let runs = self.node_runs[u] as usize..self.node_runs[u + 1] as usize;
        let Ok(ad) = u32::try_from(ad) else {
            return &[];
        };
        match self.run_ads[runs.clone()].binary_search(&ad) {
            Ok(i) => {
                let r = runs.start + i;
                &self.entries[self.run_offsets[r] as usize..self.run_offsets[r + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Index arena sets `[from, to)`, whose ids and member entries fit
    /// in u32 and whose advertisers are below `num_ads`.
    ///
    /// A counting sort of the postings by node, walking the sets in id
    /// order, then a stable counting sort of each node's ids by
    /// advertiser, which splits them into the node's runs. The second
    /// sort visits only the advertisers present at the node, so no pass
    /// walks `n · h` cells.
    pub(crate) fn build(arena: &RrArena, from: usize, to: usize, num_ads: usize) -> Self {
        let num_nodes = arena.num_nodes();
        let members = arena.nodes_of_range(from, to);
        let mut node_offsets = vec![0u32; num_nodes + 1];
        for &u in members {
            node_offsets[u as usize + 1] += 1;
        }
        for u in 0..num_nodes {
            node_offsets[u + 1] += node_offsets[u];
        }
        let mut entries = vec![0u32; members.len()];
        let mut cursor = node_offsets.clone();
        for i in from..to {
            assert!(arena.ad_of(i) < num_ads, "advertiser id out of range");
            for &u in arena.nodes_of(i) {
                let c = &mut cursor[u as usize];
                entries[*c as usize] = i as u32;
                *c += 1;
            }
        }

        let mut node_runs = Vec::with_capacity(num_nodes + 1);
        let mut run_ads = Vec::new();
        let mut run_offsets = Vec::new();
        // Per-advertiser counts (zero between nodes) and one node's
        // scratch: its ids' advertisers, the advertisers present, the
        // sorted ids.
        let mut counts = vec![0u32; num_ads];
        let (mut bucket_ads, mut present, mut sorted) = (Vec::new(), Vec::new(), Vec::new());
        node_runs.push(0u32);
        for bounds in node_offsets.windows(2) {
            let bucket = &mut entries[bounds[0] as usize..bounds[1] as usize];
            if let Some(&first) = bucket.first() {
                let ad = arena.ads[first as usize];
                if bucket.iter().all(|&rr| arena.ads[rr as usize] == ad) {
                    run_ads.push(ad);
                    run_offsets.push(bounds[0]);
                } else {
                    bucket_ads.clear();
                    bucket_ads.extend(bucket.iter().map(|&rr| arena.ads[rr as usize]));
                    present.clear();
                    for &ad in &bucket_ads {
                        let c = &mut counts[ad as usize];
                        if *c == 0 {
                            present.push(ad);
                        }
                        *c += 1;
                    }
                    present.sort_unstable();
                    // Each run's count becomes its start within the bucket.
                    let mut start = 0u32;
                    for &ad in &present {
                        run_ads.push(ad);
                        run_offsets.push(bounds[0] + start);
                        let c = &mut counts[ad as usize];
                        (*c, start) = (start, start + *c);
                    }
                    sorted.clear();
                    sorted.resize(bucket.len(), 0);
                    for (&rr, &ad) in bucket.iter().zip(&bucket_ads) {
                        let c = &mut counts[ad as usize];
                        sorted[*c as usize] = rr;
                        *c += 1;
                    }
                    bucket.copy_from_slice(&sorted);
                    for &ad in &present {
                        counts[ad as usize] = 0;
                    }
                }
            }
            // Runs never outnumber entries, which fit in u32.
            node_runs.push(run_ads.len() as u32);
        }
        run_offsets.push(entries.len() as u32);
        run_ads.shrink_to_fit();
        run_offsets.shrink_to_fit();
        CoverageSegment {
            rr_base: from as u32,
            num_sets: (to - from) as u32,
            node_runs: node_runs.into(),
            run_ads: run_ads.into(),
            run_offsets: run_offsets.into(),
            entries: entries.into(),
        }
    }

    pub(crate) fn columns(&self) -> [&Column<u32>; 4] {
        [
            &self.node_runs,
            &self.run_ads,
            &self.run_offsets,
            &self.entries,
        ]
    }

    fn resident_bytes(&self) -> usize {
        self.columns().iter().map(|c| c.resident_bytes()).sum()
    }

    fn mapped_bytes(&self) -> usize {
        self.columns().iter().map(|c| c.mapped_bytes()).sum()
    }
}

/// Incrementally extendable inverted `(node, advertiser) → RR-set` index
/// over an [`RrArena`], maintained once per arena extension — never per
/// estimator and never rebuilt.
///
/// Mutation is append-only: [`CoverageIndex::extend_to`] adds one
/// immutable [`CoverageSegment`] for the new sets.
#[derive(Clone, Debug)]
pub struct CoverageIndex {
    pub(crate) num_nodes: usize,
    pub(crate) num_ads: usize,
    pub(crate) num_rr: usize,
    pub(crate) segments: Vec<Arc<CoverageSegment>>,
}

impl CoverageIndex {
    /// Create an empty index for graphs with `num_nodes` nodes and
    /// `num_ads` advertisers.
    pub fn new(num_nodes: usize, num_ads: usize) -> Self {
        assert!(num_ads > 0, "at least one advertiser required");
        CoverageIndex {
            num_nodes,
            num_ads,
            num_rr: 0,
            segments: Vec::new(),
        }
    }

    /// Number of indexed RR-sets.
    pub fn num_rr(&self) -> usize {
        self.num_rr
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of advertisers the postings are partitioned by.
    pub fn num_ads(&self) -> usize {
        self.num_ads
    }

    /// Number of immutable CSR segments (one per arena extension).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Index every set the arena holds beyond the current position.
    /// Returns the number of newly indexed sets.
    pub fn extend_from(&mut self, arena: &RrArena) -> usize {
        self.extend_to(arena, arena.len())
    }

    /// Index arena sets `[self.num_rr(), upto)`, appending one immutable
    /// segment; already-indexed sets are never revisited. Returns the
    /// number of newly indexed sets.
    pub fn extend_to(&mut self, arena: &RrArena, upto: usize) -> usize {
        assert_eq!(
            arena.num_nodes(),
            self.num_nodes,
            "index was created for a different graph"
        );
        let from = self.num_rr;
        let to = upto.min(arena.len());
        if to <= from {
            return 0;
        }
        // The segment stores u32 offsets and RR-set ids; guard the casts
        // before any arithmetic can wrap.
        assert!(
            to <= u32::MAX as usize,
            "coverage index caps at u32::MAX RR-sets per stream"
        );
        let segment_entries: usize = arena.nodes_of_range(from, to).len();
        assert!(
            segment_entries <= u32::MAX as usize,
            "one index extension caps at u32::MAX member entries \
             (split the request into smaller extensions)"
        );

        let segment = CoverageSegment::build(arena, from, to, self.num_ads);
        self.segments.push(Arc::new(segment));
        self.num_rr = to;
        to - from
    }

    /// Index a sharded extension: one immutable segment per [`ShardSpan`],
    /// appended in span order — the merge is pure concatenation, no
    /// rebuild. After [`RrArena::generate_sharded`], passing its returned
    /// spans here leaves the index answering exactly as if the shards had
    /// been indexed by one [`CoverageIndex::extend_from`] call (coverage
    /// queries walk segments transparently). Returns the number of newly
    /// indexed sets.
    pub fn extend_by_spans(&mut self, arena: &RrArena, spans: &[ShardSpan]) -> usize {
        spans
            .iter()
            .map(|span| self.extend_to(arena, span.set_to))
            .sum()
    }

    /// O(#segments) immutable snapshot sharing the index's storage.
    pub fn view(&self) -> CoverageView {
        CoverageView {
            num_nodes: self.num_nodes,
            num_ads: self.num_ads,
            num_rr: self.num_rr,
            segments: self.segments.clone(),
        }
    }

    /// Approximate memory footprint in bytes (index only, not the arena):
    /// owned heap plus mapped bytes.
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes() + self.mapped_bytes()
    }

    /// Owned heap bytes of the index storage.
    pub fn resident_bytes(&self) -> usize {
        index_resident_bytes(&self.segments)
    }

    /// Bytes borrowed zero-copy from a snapshot mapping.
    pub fn mapped_bytes(&self) -> usize {
        index_mapped_bytes(&self.segments)
    }
}

/// Shared owned-heap formula for [`CoverageIndex`] and its views.
fn index_resident_bytes(segments: &[Arc<CoverageSegment>]) -> usize {
    segments.iter().map(|s| s.resident_bytes()).sum()
}

/// Shared mapped-bytes formula for [`CoverageIndex`] and its views.
fn index_mapped_bytes(segments: &[Arc<CoverageSegment>]) -> usize {
    segments.iter().map(|s| s.mapped_bytes()).sum()
}

/// Immutable snapshot of a [`CoverageIndex`]: the coverage-query surface
/// every estimator in `rmsa-core` runs against. Cheap to clone (Arc
/// bumps); stays valid — and bit-identical — while the index it was taken
/// from keeps extending.
#[derive(Clone, Debug)]
pub struct CoverageView {
    num_nodes: usize,
    num_ads: usize,
    num_rr: usize,
    segments: Vec<Arc<CoverageSegment>>,
}

impl CoverageView {
    /// Number of RR-sets covered by this snapshot.
    pub fn num_rr(&self) -> usize {
        self.num_rr
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of advertisers.
    pub fn num_ads(&self) -> usize {
        self.num_ads
    }

    /// The immutable CSR segments, in RR-set order.
    pub fn segments(&self) -> &[Arc<CoverageSegment>] {
        &self.segments
    }

    /// Number of RR-sets of `ad` containing `u`: the summed lengths of
    /// its run in every segment, O(#segments).
    pub fn singleton_count(&self, ad: AdId, u: NodeId) -> u32 {
        self.segments
            .iter()
            .map(|s| s.rr_of_containing(ad, u).len() as u32)
            .sum()
    }

    /// Visit, in ascending order, the id of every RR-set generated for
    /// `ad` that contains `node`: one contiguous run per segment.
    pub fn for_each_rr_of_containing(&self, ad: AdId, node: NodeId, mut f: impl FnMut(u32)) {
        for segment in &self.segments {
            for &rr in segment.rr_of_containing(ad, node) {
                f(rr);
            }
        }
    }

    /// Number of RR-sets generated for `ad` that intersect `seeds`
    /// (from-scratch query; incremental callers keep a [`CoverBitset`]).
    pub fn coverage_count(&self, ad: AdId, seeds: &[NodeId]) -> usize {
        let mut covered = CoverBitset::new(self.num_rr);
        let mut count = 0usize;
        for &u in seeds {
            self.for_each_rr_of_containing(ad, u, |rr| {
                if covered.set(rr) {
                    count += 1;
                }
            });
        }
        count
    }

    /// Number of RR-sets covered by a full allocation `S⃗` (each RR-set is
    /// covered iff the seed set of *its own* advertiser intersects it).
    pub fn allocation_coverage_count(&self, allocation: &[Vec<NodeId>]) -> usize {
        // Runs of different advertisers hold disjoint ids, so one bitset
        // serves every advertiser.
        let mut covered = CoverBitset::new(self.num_rr);
        let mut count = 0usize;
        for (ad, seeds) in allocation.iter().enumerate() {
            for &u in seeds {
                self.for_each_rr_of_containing(ad, u, |rr| {
                    if covered.set(rr) {
                        count += 1;
                    }
                });
            }
        }
        count
    }

    /// Approximate memory footprint in bytes of the shared index storage
    /// (owned heap plus mapped bytes).
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes() + self.mapped_bytes()
    }

    /// Heap-owned portion of [`Self::memory_bytes`].
    pub fn resident_bytes(&self) -> usize {
        index_resident_bytes(&self.segments)
    }

    /// Snapshot-mapped portion of [`Self::memory_bytes`] (pages borrowed
    /// from a mapped `.rmsnap` file rather than allocated).
    pub fn mapped_bytes(&self) -> usize {
        index_mapped_bytes(&self.segments)
    }
}

/// Dense bitset over RR-set ids: 64 covered-flags per word instead of the
/// old one-`bool`-per-set map (8× smaller, so greedy covered-state fits in
/// cache far longer).
#[derive(Clone, Debug, Default)]
pub struct CoverBitset {
    words: Vec<u64>,
}

impl CoverBitset {
    /// An empty bitset able to hold `len` bits.
    pub fn new(len: usize) -> Self {
        CoverBitset {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Whether bit `i` is set.
    pub fn test(&self, i: u32) -> bool {
        (self.words[(i >> 6) as usize] >> (i & 63)) & 1 != 0
    }

    /// Set bit `i`; returns true when the bit was previously clear.
    pub fn set(&mut self, i: u32) -> bool {
        let word = &mut self.words[(i >> 6) as usize];
        let mask = 1u64 << (i & 63);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{UniformIc, WeightedCascade};
    use rmsa_graph::generators::barabasi_albert;
    use rmsa_graph::graph_from_edges;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(7)
    }

    fn collect_sets(arena: &RrArena) -> Vec<(AdId, Vec<NodeId>)> {
        arena.iter().map(|s| (s.ad, s.nodes.to_vec())).collect()
    }

    #[test]
    fn arena_generates_requested_count() {
        let g = graph_from_edges(10, &[(0, 1), (1, 2), (3, 4)]);
        let m = UniformIc::new(2, 0.5);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 500, &mut rng());
        assert_eq!(arena.len(), 500);
        assert!(arena.mean_size() >= 1.0);
        assert!(arena.memory_bytes() > 0);
        assert_eq!(arena.total_entries(), arena.iter().map(|s| s.len()).sum());
        for set in arena.iter() {
            assert!(!set.is_empty());
            assert_eq!(set.nodes[0], set.root());
        }
    }

    #[test]
    fn parallel_generation_is_thread_count_independent() {
        let g = graph_from_edges(20, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]);
        let m = UniformIc::new(2, 0.7);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        // Spans several chunks plus a ragged tail.
        let count = 3 * GENERATION_CHUNK + 137;
        let mut reference = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        reference.generate_parallel(&g, &m, &sampler, count, 1, 99);
        assert_eq!(reference.len(), count);
        for threads in [2usize, 8] {
            let mut other = RrArena::new(g.num_nodes(), RrStrategy::Standard);
            other.generate_parallel(&g, &m, &sampler, count, threads, 99);
            assert_eq!(
                collect_sets(&reference),
                collect_sets(&other),
                "{threads} threads must reproduce the single-thread arena"
            );
        }
    }

    #[test]
    fn parallel_generation_is_deterministic_across_runs() {
        let g = graph_from_edges(20, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]);
        let m = UniformIc::new(2, 0.7);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        let mut a = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        a.generate_parallel(&g, &m, &sampler, 4000, 4, 99);
        let mut b = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        b.generate_parallel(&g, &m, &sampler, 4000, 4, 99);
        assert_eq!(a.len(), 4000);
        assert_eq!(collect_sets(&a), collect_sets(&b));
    }

    /// Acceptance criterion: sharded generation is bit-identical to
    /// unsharded for shard counts {1, 2, 8} — the sharded analogue of the
    /// thread-count-independence invariant.
    #[test]
    fn sharded_generation_is_bit_identical_for_any_shard_count() {
        let g = graph_from_edges(20, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]);
        let m = UniformIc::new(2, 0.7);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        // Spans several chunks plus a ragged tail.
        let count = 3 * GENERATION_CHUNK + 137;
        let mut reference = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        reference.generate_parallel(&g, &m, &sampler, count, 2, 99);
        for shards in [1usize, 2, 8] {
            let mut sharded = RrArena::new(g.num_nodes(), RrStrategy::Standard);
            let spans = sharded.generate_sharded(&g, &m, &sampler, count, shards, 4, 99);
            assert_eq!(sharded.len(), count);
            assert!(spans.len() <= shards);
            assert_eq!(spans.iter().map(ShardSpan::len).sum::<usize>(), count);
            assert_eq!(spans.first().map(|s| s.set_from), Some(0));
            assert_eq!(spans.last().map(|s| s.set_to), Some(count));
            assert_eq!(
                collect_sets(&reference),
                collect_sets(&sharded),
                "{shards} shards must reproduce the unsharded arena"
            );
        }
    }

    #[test]
    fn shard_plan_is_chunk_aligned_and_balanced() {
        // More shards than chunks: the plan shrinks, no empty spans.
        let plan = shard_plan(GENERATION_CHUNK + 1, 8);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|s| !s.is_empty()));
        // Spans tile [0, count) contiguously on chunk boundaries.
        let count = 10 * GENERATION_CHUNK + 5;
        let plan = shard_plan(count, 3);
        let mut expected_from = 0;
        for span in &plan {
            assert_eq!(span.set_from, expected_from);
            assert!(span.set_from.is_multiple_of(GENERATION_CHUNK));
            expected_from = span.set_to;
        }
        assert_eq!(expected_from, count);
        assert!(shard_plan(0, 4).is_empty());
    }

    /// Shard-merge determinism for the index side: one segment per shard
    /// span, and every coverage answer equals a single-segment build.
    #[test]
    fn extend_by_spans_merges_shard_segments_without_rebuild() {
        let mut graph_rng = rng();
        let g = barabasi_albert(250, 3, &mut graph_rng);
        let m = UniformIc::new(2, 0.2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let count = 4 * GENERATION_CHUNK + 77;
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        let spans = arena.generate_sharded(&g, &m, &sampler, count, 4, 2, 17);

        let mut sharded_index = CoverageIndex::new(g.num_nodes(), 2);
        assert_eq!(sharded_index.extend_by_spans(&arena, &spans), count);
        assert_eq!(sharded_index.num_segments(), spans.len());
        assert_eq!(sharded_index.num_rr(), count);

        let mut fresh = CoverageIndex::new(g.num_nodes(), 2);
        fresh.extend_from(&arena);
        let (va, vb) = (sharded_index.view(), fresh.view());
        for ad in 0..2 {
            for u in (0..g.num_nodes() as NodeId).step_by(11) {
                assert_eq!(va.singleton_count(ad, u), vb.singleton_count(ad, u));
            }
            let seeds: Vec<NodeId> = (0..25).collect();
            assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
        }
    }

    #[test]
    fn append_arena_rejects_mismatched_shards() {
        let a = RrArena::new(5, RrStrategy::Standard);
        let b = RrArena::new(6, RrStrategy::Standard);
        let result = std::panic::catch_unwind(move || {
            let mut a = a;
            a.append_arena(&b);
        });
        assert!(result.is_err(), "mismatched num_nodes must be rejected");
    }

    #[test]
    fn memory_bytes_is_a_cheap_running_figure() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2)]);
        let m = UniformIc::new(1, 1.0);
        let sampler = UniformRrSampler::new(&[1.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        let empty = arena.memory_bytes();
        arena.generate(&g, &m, &sampler, 200, &mut rng());
        let grown = arena.memory_bytes();
        assert!(grown > empty);
        assert!(grown >= arena.total_entries() * std::mem::size_of::<NodeId>());
        // Appending more never shrinks the figure.
        arena.generate(&g, &m, &sampler, 200, &mut rng());
        assert!(arena.memory_bytes() >= grown);
    }

    #[test]
    fn coverage_counts_only_matching_advertiser() {
        // Deterministic edges so RR membership is predictable: 0 -> 1.
        let g = graph_from_edges(2, &[(0, 1)]);
        let m = UniformIc::new(2, 1.0);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        let mut arena = RrArena::new(2, RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 2000, &mut rng());
        let mut index = CoverageIndex::new(2, 2);
        index.extend_from(&arena);
        let view = index.view();
        assert_eq!(view.num_rr(), 2000);
        // Node 0 reverse-reaches every root, so seeding node 0 for ad 0
        // covers exactly the RR-sets generated for ad 0.
        let ad0_sets = arena.iter().filter(|r| r.ad == 0).count();
        assert_eq!(view.coverage_count(0, &[0]), ad0_sets);
        // Node 1 only appears in RR-sets rooted at node 1.
        let ad0_rooted_at_1 = arena.iter().filter(|r| r.ad == 0 && r.root() == 1).count();
        assert_eq!(view.coverage_count(0, &[1]), ad0_rooted_at_1);
        // Singleton counts match the coverage queries.
        assert_eq!(view.singleton_count(0, 0) as usize, ad0_sets);
        assert_eq!(view.singleton_count(0, 1) as usize, ad0_rooted_at_1);
    }

    #[test]
    fn allocation_coverage_combines_per_ad_coverage() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let m = UniformIc::new(2, 1.0);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        let mut arena = RrArena::new(2, RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 1000, &mut rng());
        let mut index = CoverageIndex::new(2, 2);
        index.extend_from(&arena);
        let view = index.view();
        let alloc = vec![vec![0], vec![0]];
        // Node 0 covers every RR-set regardless of which ad it belongs to.
        assert_eq!(view.allocation_coverage_count(&alloc), 1000);
        let partial = vec![vec![0], vec![]];
        let ad0_sets = arena.iter().filter(|r| r.ad == 0).count();
        assert_eq!(view.allocation_coverage_count(&partial), ad0_sets);
    }

    #[test]
    fn index_is_extended_in_place_and_matches_a_fresh_build() {
        let mut graph_rng = rng();
        let g = barabasi_albert(300, 3, &mut graph_rng);
        let m = UniformIc::new(2, 0.2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.generate_parallel(&g, &m, &sampler, 1500, 2, 11);

        // Index the θ₁ prefix, snapshot, then extend to θ₂.
        let mut index = CoverageIndex::new(g.num_nodes(), 2);
        assert_eq!(index.extend_to(&arena, 1500), 1500);
        let theta1_view = index.view();
        arena.generate_parallel(&g, &m, &sampler, 1500, 2, 13);
        assert_eq!(index.extend_from(&arena), 1500);
        assert_eq!(index.num_segments(), 2);
        let theta2_view = index.view();

        // Extend-never-rebuild: the θ₁ segment is the *same* allocation.
        assert!(
            Arc::ptr_eq(&theta1_view.segments()[0], &theta2_view.segments()[0]),
            "extension must reuse the θ₁ segment, not rebuild it"
        );
        // The earlier snapshot still answers exactly as it did at θ₁.
        assert_eq!(theta1_view.num_rr(), 1500);

        // Counts at θ₂ equal a from-scratch single-segment build.
        let mut fresh = CoverageIndex::new(g.num_nodes(), 2);
        fresh.extend_from(&arena);
        assert_eq!(fresh.num_segments(), 1);
        let fresh_view = fresh.view();
        for ad in 0..2 {
            for u in (0..300u32).step_by(17) {
                assert_eq!(
                    theta2_view.singleton_count(ad, u),
                    fresh_view.singleton_count(ad, u),
                    "singleton counts diverge at ad {ad}, node {u}"
                );
            }
            let seeds: Vec<NodeId> = (0..20).collect();
            assert_eq!(
                theta2_view.coverage_count(ad, &seeds),
                fresh_view.coverage_count(ad, &seeds)
            );
        }
        let alloc = vec![vec![0, 5, 9], vec![1, 2]];
        assert_eq!(
            theta2_view.allocation_coverage_count(&alloc),
            fresh_view.allocation_coverage_count(&alloc)
        );
    }

    #[test]
    fn older_views_are_immune_to_later_extensions() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let m = UniformIc::new(1, 1.0);
        let sampler = UniformRrSampler::new(&[1.0]);
        let mut arena = RrArena::new(2, RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 400, &mut rng());
        let mut index = CoverageIndex::new(2, 1);
        index.extend_from(&arena);
        let early = index.view();
        let early_count = early.coverage_count(0, &[0]);
        assert_eq!(early_count, 400);
        // Extending while `early` is alive must leave the snapshot as it
        // was.
        arena.generate(&g, &m, &sampler, 600, &mut rng());
        index.extend_from(&arena);
        assert_eq!(early.coverage_count(0, &[0]), early_count);
        assert_eq!(early.singleton_count(0, 0), 400);
        assert_eq!(index.view().coverage_count(0, &[0]), 1000);
        assert_eq!(index.view().singleton_count(0, 0), 1000);
    }

    #[test]
    fn subsim_and_standard_strategies_agree_on_weighted_cascade() {
        let mut graph_rng = rng();
        let g = barabasi_albert(400, 3, &mut graph_rng);
        let wc = WeightedCascade::new(&g, 2);
        let sampler = UniformRrSampler::new(&[1.0, 1.5]);
        let count = 20_000;
        let mut standard = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        standard.generate_parallel(&g, &wc, &sampler, count, 2, 41);
        let mut subsim = RrArena::new(g.num_nodes(), RrStrategy::Subsim);
        subsim.generate_parallel(&g, &wc, &sampler, count, 2, 43);

        // Mean RR-set size must agree within a seeded tolerance.
        let (a, b) = (standard.mean_size(), subsim.mean_size());
        assert!(
            (a - b).abs() / a.max(1.0) < 0.05,
            "mean sizes diverge: standard {a}, subsim {b}"
        );

        // Singleton coverage counts (normalised per collection size) must
        // agree node by node.
        let mut idx_a = CoverageIndex::new(g.num_nodes(), 2);
        idx_a.extend_from(&standard);
        let mut idx_b = CoverageIndex::new(g.num_nodes(), 2);
        idx_b.extend_from(&subsim);
        let (va, vb) = (idx_a.view(), idx_b.view());
        let mut total_gap = 0.0f64;
        for ad in 0..2usize {
            for u in 0..g.num_nodes() as NodeId {
                let fa = va.singleton_count(ad, u) as f64 / count as f64;
                let fb = vb.singleton_count(ad, u) as f64 / count as f64;
                assert!(
                    (fa - fb).abs() < 0.05,
                    "node {u} / ad {ad}: standard {fa:.4} vs subsim {fb:.4}"
                );
                total_gap += (fa - fb).abs();
            }
        }
        let mean_gap = total_gap / (2.0 * g.num_nodes() as f64);
        assert!(mean_gap < 0.004, "mean per-node gap {mean_gap}");
    }

    #[test]
    fn empty_arena_edge_cases() {
        let arena = RrArena::new(5, RrStrategy::Subsim);
        assert!(arena.is_empty());
        assert_eq!(arena.mean_size(), 0.0);
        let mut index = CoverageIndex::new(5, 2);
        assert_eq!(index.extend_from(&arena), 0);
        let view = index.view();
        assert_eq!(view.num_rr(), 0);
        assert_eq!(view.coverage_count(0, &[1, 2]), 0);
    }

    /// Every `(ad, node)` query yields, ascending, exactly the ids of the
    /// node's sets generated for `ad`; singleton counts are the summed run
    /// lengths; an advertiser id past the last covers nothing.
    fn assert_runs_match_arena(arena: &RrArena, view: &CoverageView, what: &str) {
        let (n, h) = (arena.num_nodes(), view.num_ads());
        let mut expected = vec![Vec::new(); n * h];
        for i in 0..view.num_rr() {
            for &u in arena.nodes_of(i) {
                expected[u as usize * h + arena.ad_of(i)].push(i as u32);
            }
        }
        for u in 0..n {
            for ad in 0..h {
                let mut got = Vec::new();
                view.for_each_rr_of_containing(ad, u as NodeId, |rr| got.push(rr));
                assert_eq!(got, expected[u * h + ad], "{what}: ad {ad}, node {u}");
                assert_eq!(
                    view.singleton_count(ad, u as NodeId) as usize,
                    got.len(),
                    "{what}: singleton count of ad {ad}, node {u}"
                );
            }
            assert_eq!(view.coverage_count(h, &[u as NodeId]), 0, "{what}: ad {h}");
        }
    }

    /// Index, write and read back through both snapshot paths (owned
    /// decode and zero-copy mapping), checking the runs at every step.
    fn assert_roundtrips_keep_runs(arena: &RrArena, index: &CoverageIndex, what: &str) {
        use rmsa_store::{
            section, MappedSnapshot, SectionSource, SnapshotReader, SnapshotWriter, VerifyMode,
        };
        assert_runs_match_arena(arena, &index.view(), what);
        let mut w = SnapshotWriter::new();
        crate::snapshot::write_arena(arena, w.section(section::CACHE_STREAM_BASE));
        crate::snapshot::write_index(index, w.section(section::CACHE_STREAM_BASE + 1));
        let bytes = w.finish();

        let r = SnapshotReader::parse(&bytes).unwrap();
        let arena_o =
            crate::snapshot::read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap())
                .unwrap();
        let index_o = crate::snapshot::read_index(
            &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
            &arena_o,
        )
        .unwrap();
        assert_runs_match_arena(&arena_o, &index_o.view(), &format!("{what}, owned"));

        let path = std::env::temp_dir().join(format!(
            "rmsa_partition_{}_{}.rmsnap",
            std::process::id(),
            what.replace([' ', ',', '='], "_")
        ));
        rmsa_store::write_file(&path, &bytes).unwrap();
        let snap = MappedSnapshot::open(&path, VerifyMode::Lazy).unwrap();
        let arena_m =
            crate::snapshot::read_arena(&mut snap.require(section::CACHE_STREAM_BASE).unwrap())
                .unwrap();
        let index_m = crate::snapshot::read_index(
            &mut snap.require(section::CACHE_STREAM_BASE + 1).unwrap(),
            &arena_m,
        )
        .unwrap();
        assert_runs_match_arena(&arena_m, &index_m.view(), &format!("{what}, mapped"));
        std::fs::remove_file(&path).ok();
    }

    /// Partitioning postings by advertiser changes no answer: for h in
    /// {1, 3, 10}, indexes built by several `extend_to` calls and by
    /// `extend_by_spans` at several shard counts return exactly each
    /// node's per-advertiser RR-sets, before and after a snapshot round
    /// trip.
    #[test]
    fn ad_partitioned_runs_hold_exactly_each_ads_sets() {
        let mut graph_rng = rng();
        let g = barabasi_albert(120, 3, &mut graph_rng);
        for h in [1usize, 3, 10] {
            let m = UniformIc::new(h, 0.15);
            let cpes: Vec<f64> = (0..h).map(|i| 1.0 + 0.5 * i as f64).collect();
            let sampler = UniformRrSampler::new(&cpes);
            let count = 2 * GENERATION_CHUNK + 301;
            let seed = 1_000 + h as u64;

            let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
            arena.generate_parallel(&g, &m, &sampler, count, 2, seed);
            let mut index = CoverageIndex::new(g.num_nodes(), h);
            for upto in [1usize, 700, 701, 1_900, count] {
                index.extend_to(&arena, upto);
            }
            assert_eq!(index.num_segments(), 5);
            assert_roundtrips_keep_runs(&arena, &index, &format!("h={h} extend_to"));

            for shards in [1usize, 2, 3, 7] {
                let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
                let spans = arena.generate_sharded(&g, &m, &sampler, count, shards, 2, seed);
                let mut index = CoverageIndex::new(g.num_nodes(), h);
                assert_eq!(index.extend_by_spans(&arena, &spans), count);
                assert_eq!(index.num_segments(), spans.len());
                assert_roundtrips_keep_runs(&arena, &index, &format!("h={h} shards={shards}"));
            }
        }
    }

    #[test]
    fn bitset_set_and_test_roundtrip() {
        let mut bits = CoverBitset::new(130);
        assert!(!bits.test(0));
        assert!(bits.set(0));
        assert!(!bits.set(0), "second set reports already-set");
        assert!(bits.set(64));
        assert!(bits.set(129));
        assert!(bits.test(129));
        assert_eq!(bits.count_ones(), 3);
        assert!(bits.memory_bytes() >= 3 * 8);
    }
}
