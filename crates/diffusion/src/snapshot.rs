//! Snapshot codecs for the diffusion layer: [`RrArena`], [`CoverageIndex`]
//! and the propagation models.
//!
//! The arena's three columns and the index's CSR segments are written
//! verbatim — loading restores not just the same RR-sets but the same
//! *extension history* (segment boundaries, per-stream extension counters
//! via [`crate::RrCache`]), which is what keeps a loaded cache on the exact
//! deterministic trajectory a cold cache would have taken: the
//! extend-never-rebuild invariant holds across a save/load boundary.
//!
//! All readers return typed [`StoreError`]s and never panic on corrupt
//! bytes; container checksums have already been verified by the time these
//! codecs run, so the checks here are semantic (consistent lengths, valid
//! tags, ids in range).

use crate::arena::{CoverageIndex, CoverageSegment, RrArena};
use crate::models::{MaterializedModel, UniformIc, WeightedCascade};
use crate::rr::RrStrategy;
use rmsa_store::{Cursor, SectionBuf, StoreError};
use std::sync::Arc;

pub(crate) fn strategy_tag(strategy: RrStrategy) -> u8 {
    match strategy {
        RrStrategy::Standard => 0,
        RrStrategy::Subsim => 1,
    }
}

pub(crate) fn strategy_from_tag(tag: u8) -> Result<RrStrategy, StoreError> {
    match tag {
        0 => Ok(RrStrategy::Standard),
        1 => Ok(RrStrategy::Subsim),
        other => Err(StoreError::Corrupt(format!(
            "unknown RR strategy tag {other}"
        ))),
    }
}

/// Write an arena's columnar buffers.
pub fn write_arena(arena: &RrArena, out: &mut SectionBuf) {
    out.put_u64(arena.num_nodes as u64);
    out.put_u8(strategy_tag(arena.strategy));
    out.put_u32_slice(&arena.ads);
    out.put_usize_slice(&arena.offsets);
    out.put_u32_slice(&arena.nodes);
}

/// Read an arena back, validating the CSR structure.
///
/// Columns come back as `rmsa_store::Column`s: owned when `cur` reads
/// in-memory bytes, borrowed zero-copy when it reads an aligned v2 file
/// mapping.
pub fn read_arena(cur: &mut Cursor<'_>) -> Result<RrArena, StoreError> {
    let num_nodes = cur.get_usize("arena num_nodes")?;
    let strategy = strategy_from_tag(cur.get_u8("arena strategy")?)?;
    let ads = cur.get_u32_col("arena ads")?;
    let offsets = cur.get_usize_col("arena offsets")?;
    let nodes = cur.get_u32_col("arena nodes")?;

    let corrupt = |why: &str| StoreError::Corrupt(format!("arena section: {why}"));
    if offsets.len() != ads.len() + 1 {
        return Err(corrupt("offsets/ads length mismatch"));
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&nodes.len()) {
        return Err(corrupt("offsets do not cover the node buffer"));
    }
    if u32::try_from(num_nodes).is_err() {
        return Err(corrupt("node count exceeds the u32 id space"));
    }
    // Deep O(total-entries) validation runs only for owned decodes. A
    // mapped v2 load is O(sections) by design — touching every member
    // here would forfeit the zero-copy win — so bit rot detection is the
    // checksum layer's job there (`VerifyMode::Eager`, `verify_all`, or
    // the `--verify` paths).
    if !(ads.is_mapped() && offsets.is_mapped() && nodes.is_mapped()) {
        if offsets.windows(2).any(|w| w[0] >= w[1]) && !ads.is_empty() {
            // An RR-set always contains at least its root.
            return Err(corrupt("offsets are not strictly monotone"));
        }
        if nodes.iter().any(|&u| u64::from(u) >= num_nodes as u64) {
            return Err(corrupt("a member node id is out of range"));
        }
    }
    Ok(RrArena {
        num_nodes,
        strategy,
        nodes,
        offsets,
        ads,
    })
}

/// Marks a tagged coverage-index encoding. Untagged encodings (written
/// before the `(node, advertiser)` layout) begin with the node count,
/// which never exceeds the u32 id space, so a first word with this bit set
/// can only be a tag.
const INDEX_TAGGED: u64 = 1 << 63;
/// Layout tag: postings grouped by `(node, advertiser)` in non-empty runs.
const LAYOUT_NODE_AD: u64 = 1;

/// Write a coverage index: the layout tag, then every segment's four
/// columns (node run ranges, run advertisers, run offsets, entries).
pub fn write_index(index: &CoverageIndex, out: &mut SectionBuf) {
    out.put_u64(INDEX_TAGGED | LAYOUT_NODE_AD);
    out.put_u64(index.num_nodes as u64);
    out.put_u64(index.num_ads as u64);
    out.put_u64(index.num_rr as u64);
    out.put_u64(index.segments.len() as u64);
    for segment in &index.segments {
        out.put_u32(segment.rr_base);
        out.put_u32(segment.num_sets);
        out.put_u32_slice(&segment.node_runs);
        out.put_u32_slice(&segment.run_ads);
        out.put_u32_slice(&segment.run_offsets);
        out.put_u32_slice(&segment.entries);
    }
}

/// Read a coverage index back, validating segment structure against the
/// arena it indexes.
///
/// The current `(node, advertiser)` layout comes back as written: borrowed
/// zero-copy from a mapping, or owned and checked entry by entry (ids in
/// range and ascending within a run, each id's arena advertiser equal to
/// its run's). The untagged node-major layout is checked the same way and
/// re-bucketed into owned `(node, advertiser)` segments built from the
/// arena's sets, which must hold exactly the stored postings; its stored
/// advertiser column must agree with the arena's, and its stored
/// singleton counts are skipped.
pub fn read_index(cur: &mut Cursor<'_>, arena: &RrArena) -> Result<CoverageIndex, StoreError> {
    let first = cur.get_u64("index layout tag")?;
    let (node_major, num_nodes) = if first & INDEX_TAGGED == 0 {
        (true, rmsa_store::to_usize(first, "index num_nodes")?)
    } else {
        match first & !INDEX_TAGGED {
            LAYOUT_NODE_AD => (false, cur.get_usize("index num_nodes")?),
            tag => return Err(corrupt(format!("unknown layout tag {tag}"))),
        }
    };
    let num_ads = cur.get_usize("index num_ads")?;
    let num_rr = cur.get_usize("index num_rr")?;
    let num_segments = cur.get_usize("index num_segments")?;
    if num_nodes != arena.num_nodes() {
        return Err(corrupt(format!(
            "index covers {num_nodes} nodes but the arena has {}",
            arena.num_nodes()
        )));
    }
    if num_ads == 0 {
        return Err(corrupt("zero advertisers".to_string()));
    }
    if num_rr > arena.len() {
        return Err(corrupt(format!(
            "index claims {num_rr} RR-sets but the arena holds {}",
            arena.len()
        )));
    }
    // `num_segments` is untrusted: cap the preallocation by what the
    // remaining bytes could hold (a segment is at least 24 bytes) so a
    // crafted count errors as Truncated instead of aborting on an absurd
    // allocation.
    let mut segments = Vec::with_capacity(num_segments.min(cur.remaining() / 24));
    let mut expected_base = 0u32;
    for i in 0..num_segments {
        let rr_base = cur.get_u32("segment rr_base")?;
        let num_sets = cur.get_u32("segment num_sets")?;
        if rr_base != expected_base {
            return Err(corrupt(format!(
                "segment {i} starts at RR {rr_base}, expected {expected_base}"
            )));
        }
        let end = rr_base as u64 + num_sets as u64;
        if end > num_rr as u64 {
            return Err(corrupt(format!(
                "segment {i} extends past {num_rr} RR-sets"
            )));
        }
        let next_base = u32::try_from(end)
            .map_err(|_| corrupt(format!("segment {i} extends past the u32 RR id space")))?;
        let shape = SegmentShape {
            index: i,
            rr_base,
            num_sets,
            num_nodes,
            num_ads,
        };
        let segment = if node_major {
            read_node_major_segment(cur, &shape, arena)?
        } else {
            read_node_ad_segment(cur, &shape, arena)?
        };
        expected_base = next_base;
        segments.push(Arc::new(segment));
    }
    if u64::from(expected_base) != num_rr as u64 {
        return Err(corrupt(format!(
            "segments cover {expected_base} RR-sets, header says {num_rr}"
        )));
    }
    if node_major {
        let ads = cur.get_u32_col("index ads")?;
        if ads.len() != num_rr || ads[..] != arena.ads[..num_rr] {
            return Err(corrupt(
                "advertiser column disagrees with the arena".to_string(),
            ));
        }
        // The runs give every singleton count; the stored copy is skipped.
        cur.get_u32_col("index singleton")?;
    }
    Ok(CoverageIndex {
        num_nodes,
        num_ads,
        num_rr,
        segments,
    })
}

fn corrupt(why: String) -> StoreError {
    StoreError::Corrupt(format!("coverage-index section: {why}"))
}

/// Header fields of the segment being decoded.
struct SegmentShape {
    index: usize,
    rr_base: u32,
    num_sets: u32,
    num_nodes: usize,
    num_ads: usize,
}

impl SegmentShape {
    /// Check that a run holds strictly ascending ids of this segment's
    /// sets, generated for an advertiser below `num_ads` that equals
    /// `run_ad` when the run has one.
    fn check_run(
        &self,
        run: &[u32],
        run_ad: Option<u32>,
        arena: &RrArena,
    ) -> Result<(), StoreError> {
        let i = self.index;
        let ids = u64::from(self.rr_base)..u64::from(self.rr_base) + u64::from(self.num_sets);
        for &rr in run {
            if !ids.contains(&u64::from(rr)) {
                return Err(corrupt(format!("segment {i} has an RR id out of range")));
            }
            let ad = arena.ads[position(rr)?];
            if run_ad.is_some_and(|run_ad| run_ad != ad) {
                return Err(corrupt(format!(
                    "segment {i} files an RR-set under another advertiser's run"
                )));
            }
            if u64::from(ad) >= self.num_ads as u64 {
                return Err(corrupt(format!(
                    "segment {i}: RR-set {rr} has advertiser {ad} out of range"
                )));
            }
        }
        if run.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt(format!("segment {i} has an unsorted run")));
        }
        Ok(())
    }
}

/// Read one `(node, advertiser)` segment: borrowed as is from a mapping
/// (O(1) checks), or owned and checked entry by entry.
fn read_node_ad_segment(
    cur: &mut Cursor<'_>,
    shape: &SegmentShape,
    arena: &RrArena,
) -> Result<CoverageSegment, StoreError> {
    let i = shape.index;
    let node_runs = cur.get_u32_col("segment node runs")?;
    let run_ads = cur.get_u32_col("segment run advertisers")?;
    let run_offsets = cur.get_u32_col("segment run offsets")?;
    let entries = cur.get_u32_col("segment entries")?;
    if !spans(&node_runs, shape.num_nodes, run_ads.len())
        || !spans(&run_offsets, run_ads.len(), entries.len())
    {
        return Err(corrupt(format!("segment {i} has an inconsistent CSR")));
    }
    // Per-element validation only for owned decodes (see `read_arena`):
    // mapped segments stay O(1) per segment.
    let mapped = node_runs.is_mapped()
        && run_ads.is_mapped()
        && run_offsets.is_mapped()
        && entries.is_mapped();
    if !mapped {
        if node_runs.windows(2).any(|w| w[0] > w[1]) || run_offsets.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(corrupt(format!(
                "segment {i} has an empty run or a non-monotone run table"
            )));
        }
        for bounds in node_runs.windows(2) {
            let ads = &run_ads[position(bounds[0])?..position(bounds[1])?];
            if ads.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt(format!(
                    "segment {i} has a node whose runs are not in advertiser order"
                )));
            }
        }
        for (bounds, &ad) in run_offsets.windows(2).zip(run_ads.iter()) {
            let run = &entries[position(bounds[0])?..position(bounds[1])?];
            shape.check_run(run, Some(ad), arena)?;
        }
    }
    Ok(CoverageSegment {
        rr_base: shape.rr_base,
        num_sets: shape.num_sets,
        node_runs,
        run_ads,
        run_offsets,
        entries,
    })
}

/// Read one node-major segment (one ascending run per node, every
/// advertiser mixed), check it entry by entry, and re-bucket it: the
/// arena's sets over the same id range are indexed afresh, and the stored
/// postings must be exactly the fresh segment's.
fn read_node_major_segment(
    cur: &mut Cursor<'_>,
    shape: &SegmentShape,
    arena: &RrArena,
) -> Result<CoverageSegment, StoreError> {
    let i = shape.index;
    let offsets = cur.get_u32_col("segment offsets")?;
    let entries = cur.get_u32_col("segment entries")?;
    if !spans(&offsets, shape.num_nodes, entries.len()) {
        return Err(corrupt(format!("segment {i} has an inconsistent CSR")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt(format!("segment {i} has a non-monotone run table")));
    }
    for bounds in offsets.windows(2) {
        let run = &entries[position(bounds[0])?..position(bounds[1])?];
        shape.check_run(run, None, arena)?;
    }
    let from = position(shape.rr_base)?;
    let to = from + position(shape.num_sets)?;
    let disagree = || corrupt(format!("segment {i} disagrees with the arena's sets"));
    if arena.nodes_of_range(from, to).len() != entries.len() {
        return Err(disagree());
    }
    if arena.ads[from..to]
        .iter()
        .any(|&ad| u64::from(ad) >= shape.num_ads as u64)
    {
        return Err(corrupt(format!(
            "segment {i} covers an RR-set whose advertiser is out of range"
        )));
    }
    let segment = CoverageSegment::build(arena, from, to, shape.num_ads);
    // Every stored posting is in the fresh segment, and both hold the
    // same number: they are the same postings.
    for (u, bounds) in offsets.windows(2).enumerate() {
        let u = rmsa_store::to_u32(u, "node id")?;
        for &rr in &entries[position(bounds[0])?..position(bounds[1])?] {
            let ad = arena.ad_of(position(rr)?);
            if segment.rr_of_containing(ad, u).binary_search(&rr).is_err() {
                return Err(disagree());
            }
        }
    }
    Ok(segment)
}

/// Whether `offsets` has `len + 1` entries running from 0 to `total`.
fn spans(offsets: &[u32], len: usize, total: usize) -> bool {
    offsets.len() == len + 1
        && offsets.first() == Some(&0)
        && offsets.last().map(|&v| u64::from(v)) == Some(total as u64)
}

/// Checked `u32` → `usize` for run offsets and RR ids.
fn position(v: u32) -> Result<usize, StoreError> {
    rmsa_store::to_usize(u64::from(v), "coverage-index position")
}

/// The model variants the snapshot format can persist. [`crate::TicModel`]
/// is stored in its materialised form — the representation every serving
/// and experiment path runs on.
#[derive(Clone, Debug)]
pub enum ModelSnapshot {
    /// Per-ad per-edge probability rows.
    Materialized(MaterializedModel),
    /// Weighted cascade (`p = 1/indeg`).
    WeightedCascade(WeightedCascade),
    /// One constant probability everywhere.
    UniformIc(UniformIc),
}

const MODEL_MATERIALIZED: u8 = 1;
const MODEL_WC: u8 = 2;
const MODEL_UNIFORM: u8 = 3;

/// Write propagation-model parameters.
pub fn write_model(model: &ModelSnapshot, out: &mut SectionBuf) {
    match model {
        ModelSnapshot::Materialized(m) => {
            out.put_u8(MODEL_MATERIALIZED);
            out.put_u64(m.per_ad.len() as u64);
            for row in &m.per_ad {
                out.put_f32_slice(row);
            }
        }
        ModelSnapshot::WeightedCascade(m) => {
            out.put_u8(MODEL_WC);
            out.put_u64(m.num_ads as u64);
            out.put_f32_slice(&m.edge_probs);
            out.put_f32_slice(&m.node_probs);
        }
        ModelSnapshot::UniformIc(m) => {
            out.put_u8(MODEL_UNIFORM);
            out.put_u64(m.num_ads as u64);
            out.put_f64(m.prob);
        }
    }
}

/// Read propagation-model parameters back.
pub fn read_model(cur: &mut Cursor<'_>) -> Result<ModelSnapshot, StoreError> {
    let corrupt = |why: &str| StoreError::Corrupt(format!("model section: {why}"));
    match cur.get_u8("model tag")? {
        MODEL_MATERIALIZED => {
            let h = cur.get_usize("model num_ads")?;
            if h == 0 {
                return Err(corrupt("zero advertisers"));
            }
            // Untrusted count: cap by the bytes a row prefix needs.
            let mut per_ad = Vec::with_capacity(h.min(cur.remaining() / 8));
            let mut width = None;
            for i in 0..h {
                let row = cur.get_f32_vec("model probability row")?;
                if row.iter().any(|p| !(0.0..=1.0).contains(p)) {
                    return Err(corrupt("a probability is outside [0, 1]"));
                }
                if *width.get_or_insert(row.len()) != row.len() {
                    return Err(StoreError::Corrupt(format!(
                        "model section: row {i} has a different edge count"
                    )));
                }
                per_ad.push(row);
            }
            Ok(ModelSnapshot::Materialized(MaterializedModel { per_ad }))
        }
        MODEL_WC => {
            let num_ads = cur.get_usize("model num_ads")?;
            if num_ads == 0 {
                return Err(corrupt("zero advertisers"));
            }
            let edge_probs = cur.get_f32_vec("model edge probabilities")?;
            let node_probs = cur.get_f32_vec("model node probabilities")?;
            if edge_probs
                .iter()
                .chain(&node_probs)
                .any(|p| !(0.0..=1.0).contains(p))
            {
                return Err(corrupt("a probability is outside [0, 1]"));
            }
            Ok(ModelSnapshot::WeightedCascade(WeightedCascade {
                num_ads,
                edge_probs,
                node_probs,
            }))
        }
        MODEL_UNIFORM => {
            let num_ads = cur.get_usize("model num_ads")?;
            let prob = cur.get_f64("model probability")?;
            if num_ads == 0 || !(0.0..=1.0).contains(&prob) {
                return Err(corrupt("invalid uniform-IC parameters"));
            }
            Ok(ModelSnapshot::UniformIc(UniformIc { num_ads, prob }))
        }
        other => Err(StoreError::Corrupt(format!("unknown model tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PropagationModel;
    use crate::sampler::UniformRrSampler;
    use rmsa_graph::generators::barabasi_albert;
    use rmsa_store::{section, SnapshotReader, SnapshotWriter};

    fn sample_arena(strategy: RrStrategy, count: usize) -> (rmsa_graph::DirectedGraph, RrArena) {
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(11);
        let g = barabasi_albert(200, 3, &mut rng);
        let m = crate::models::WeightedCascade::new(&g, 2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), strategy);
        arena.generate_parallel(&g, &m, &sampler, count, 2, 77);
        (g, arena)
    }

    fn arena_bytes(arena: &RrArena) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_arena(arena, w.section(section::CACHE_STREAM_BASE));
        w.finish()
    }

    /// Byte-and-semantics round trip for both RR strategies (the PR-1
    /// seeded-loop style: several seeds, several sizes).
    #[test]
    fn arena_roundtrips_for_both_strategies() {
        for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
            for count in [1usize, 500, 3000] {
                let (_, arena) = sample_arena(strategy, count);
                let bytes = arena_bytes(&arena);
                let r = SnapshotReader::parse(&bytes).unwrap();
                let restored =
                    read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
                assert_eq!(restored.len(), arena.len());
                assert_eq!(restored.strategy(), strategy);
                assert_eq!(restored.num_nodes(), arena.num_nodes());
                let sets = |a: &RrArena| {
                    a.iter()
                        .map(|s| (s.ad, s.nodes.to_vec()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(sets(&arena), sets(&restored), "{strategy:?}/{count}");
                // Byte stability: save(load(save(x))) == save(x).
                assert_eq!(arena_bytes(&restored), bytes);
            }
        }
    }

    /// Satellite invariant: graph + arena + coverage-index save/load is
    /// byte- and semantics-identical across all five generator families
    /// and both RR strategies (seeded loops, PR-1 style).
    #[test]
    fn full_roundtrip_across_generator_families_and_strategies() {
        use rmsa_graph::generators;
        for seed in [5u64, 23] {
            let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(seed);
            let graphs: Vec<(&str, rmsa_graph::DirectedGraph)> = vec![
                ("erdos_renyi", generators::erdos_renyi(90, 0.06, &mut rng)),
                (
                    "barabasi_albert",
                    generators::barabasi_albert(120, 3, &mut rng),
                ),
                (
                    "power_law_configuration",
                    generators::power_law_configuration(120, 2.4, 3.0, 25, &mut rng),
                ),
                (
                    "watts_strogatz",
                    generators::watts_strogatz(100, 4, 0.15, &mut rng),
                ),
                ("celebrity_graph", generators::celebrity_graph(3, 8)),
            ];
            for (family, graph) in &graphs {
                for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
                    let model = crate::models::WeightedCascade::new(graph, 2);
                    let sampler = UniformRrSampler::new(&[1.0, 1.5]);
                    let mut arena = RrArena::new(graph.num_nodes(), strategy);
                    let mut index = CoverageIndex::new(graph.num_nodes(), 2);
                    // Two extensions, so segment history is non-trivial.
                    arena.generate_parallel(graph, &model, &sampler, 400, 2, seed ^ 0xA1);
                    index.extend_from(&arena);
                    arena.generate_parallel(graph, &model, &sampler, 300, 2, seed ^ 0xB2);
                    index.extend_from(&arena);

                    let serialize =
                        |g: &rmsa_graph::DirectedGraph, a: &RrArena, i: &CoverageIndex| {
                            let mut w = SnapshotWriter::new();
                            rmsa_graph::snapshot::write_graph(g, w.section(section::GRAPH));
                            write_arena(a, w.section(section::CACHE_STREAM_BASE));
                            write_index(i, w.section(section::CACHE_STREAM_BASE + 1));
                            w.finish()
                        };
                    let bytes = serialize(graph, &arena, &index);
                    let r = SnapshotReader::parse(&bytes).unwrap();
                    let graph2 =
                        rmsa_graph::snapshot::read_graph(&mut r.require(section::GRAPH).unwrap())
                            .unwrap();
                    let arena2 =
                        read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
                    let index2 = read_index(
                        &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
                        &arena2,
                    )
                    .unwrap();

                    // Byte equality: re-serializing the loaded state is a
                    // fixed point.
                    assert_eq!(
                        serialize(&graph2, &arena2, &index2),
                        bytes,
                        "{family}/{strategy:?} (seed {seed}) not byte-stable"
                    );
                    // Semantic equality: graph edges, every RR-set, and
                    // every coverage answer.
                    assert_eq!(
                        graph.edges().collect::<Vec<_>>(),
                        graph2.edges().collect::<Vec<_>>()
                    );
                    let sets = |a: &RrArena| {
                        a.iter()
                            .map(|s| (s.ad, s.nodes.to_vec()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(sets(&arena), sets(&arena2));
                    assert_eq!(index2.num_segments(), 2);
                    let (va, vb) = (index.view(), index2.view());
                    for ad in 0..2 {
                        for u in (0..graph.num_nodes() as u32).step_by(7) {
                            assert_eq!(
                                va.singleton_count(ad, u),
                                vb.singleton_count(ad, u),
                                "{family}/{strategy:?}: singleton diverged at {u}"
                            );
                        }
                        let seeds: Vec<u32> = (0..15).collect();
                        assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
                    }
                }
            }
        }
    }

    /// Satellite invariant: a zero-copy mapped load is indistinguishable
    /// from the owned decode path across all five generator families and
    /// both RR strategies — same sets, same coverage answers, byte-stable
    /// re-serialization — while *borrowing* the file's columns on
    /// eligible targets instead of copying them.
    #[test]
    fn mapped_load_is_equivalent_to_owned_load_across_families() {
        use rmsa_graph::generators;
        use rmsa_store::{MappedSnapshot, SectionSource, VerifyMode, ZERO_COPY_TARGET};
        let dir = std::env::temp_dir().join("rmsa_mapped_equivalence_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(31);
        let graphs: Vec<(&str, rmsa_graph::DirectedGraph)> = vec![
            ("erdos_renyi", generators::erdos_renyi(90, 0.06, &mut rng)),
            (
                "barabasi_albert",
                generators::barabasi_albert(120, 3, &mut rng),
            ),
            (
                "power_law_configuration",
                generators::power_law_configuration(120, 2.4, 3.0, 25, &mut rng),
            ),
            (
                "watts_strogatz",
                generators::watts_strogatz(100, 4, 0.15, &mut rng),
            ),
            ("celebrity_graph", generators::celebrity_graph(3, 8)),
        ];
        for (family, graph) in &graphs {
            for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
                let model = crate::models::WeightedCascade::new(graph, 2);
                let sampler = UniformRrSampler::new(&[1.0, 1.5]);
                let mut arena = RrArena::new(graph.num_nodes(), strategy);
                let mut index = CoverageIndex::new(graph.num_nodes(), 2);
                arena.generate_parallel(graph, &model, &sampler, 500, 2, 91);
                index.extend_from(&arena);

                let mut w = SnapshotWriter::new();
                rmsa_graph::snapshot::write_graph(graph, w.section(section::GRAPH));
                write_arena(&arena, w.section(section::CACHE_STREAM_BASE));
                write_index(&index, w.section(section::CACHE_STREAM_BASE + 1));
                let bytes = w.finish();
                let path = dir.join(format!("{family}_{strategy:?}.rmsnap"));
                rmsa_store::write_file(&path, &bytes).unwrap();

                // Owned path.
                let r = SnapshotReader::parse(&bytes).unwrap();
                let arena_o =
                    read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();

                // Mapped path: lazy verification, columns borrowed.
                let snap = MappedSnapshot::open(&path, VerifyMode::Lazy).unwrap();
                let graph_m =
                    rmsa_graph::snapshot::read_graph(&mut snap.require(section::GRAPH).unwrap())
                        .unwrap();
                let arena_m =
                    read_arena(&mut snap.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
                let index_m = read_index(
                    &mut snap.require(section::CACHE_STREAM_BASE + 1).unwrap(),
                    &arena_m,
                )
                .unwrap();

                let sets = |a: &RrArena| {
                    a.iter()
                        .map(|s| (s.ad, s.nodes.to_vec()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(sets(&arena_o), sets(&arena_m), "{family}/{strategy:?}");
                assert_eq!(
                    graph.edges().collect::<Vec<_>>(),
                    graph_m.edges().collect::<Vec<_>>()
                );
                let (va, vb) = (index.view(), index_m.view());
                for ad in 0..2 {
                    for u in (0..graph.num_nodes() as u32).step_by(9) {
                        assert_eq!(va.singleton_count(ad, u), vb.singleton_count(ad, u));
                    }
                    let seeds: Vec<u32> = (0..15).collect();
                    assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
                }
                assert!(
                    !snap.zero_copy_eligible() || ZERO_COPY_TARGET,
                    "eligibility implies a zero-copy target"
                );
                if snap.zero_copy_eligible() {
                    assert!(
                        arena_m.mapped_bytes() > 0,
                        "{family}/{strategy:?}: v2 mapped load must borrow arena columns"
                    );
                    assert!(
                        index_m.mapped_bytes() > 0,
                        "{family}/{strategy:?}: v2 mapped load must borrow index columns"
                    );
                }
                assert_eq!(arena_o.mapped_bytes(), 0, "owned path never maps");

                // Re-serializing the mapped state reproduces the bytes.
                let mut w = SnapshotWriter::new();
                rmsa_graph::snapshot::write_graph(&graph_m, w.section(section::GRAPH));
                write_arena(&arena_m, w.section(section::CACHE_STREAM_BASE));
                write_index(&index_m, w.section(section::CACHE_STREAM_BASE + 1));
                assert_eq!(w.finish(), bytes, "{family}/{strategy:?} not byte-stable");
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// v2-loader corruption coverage: truncation anywhere and flipped
    /// payload bytes surface typed errors through the mapped path — eager
    /// at open, lazy at verify — never a panic or a silent wrong answer.
    #[test]
    fn mapped_loader_rejects_truncation_and_corruption() {
        use rmsa_store::{MappedSnapshot, VerifyMode};
        let (_, arena) = sample_arena(RrStrategy::Standard, 600);
        let bytes = arena_bytes(&arena);
        let dir = std::env::temp_dir().join("rmsa_mapped_corruption_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Truncation at several cut points: header, section header, mid-payload.
        for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 3] {
            let path = dir.join(format!("truncated_{cut}.rmsnap"));
            rmsa_store::write_file(&path, &bytes[..cut]).unwrap();
            let err = MappedSnapshot::open(&path, VerifyMode::Eager).map(|_| ());
            assert!(err.is_err(), "cut at {cut} must fail eager open");
            std::fs::remove_file(&path).ok();
        }

        // A flipped payload byte passes a lazy open but fails verification,
        // and the eager path refuses it outright.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2; // well inside the arena payload
        corrupt[mid] ^= 0xFF;
        let path = dir.join("corrupt.rmsnap");
        rmsa_store::write_file(&path, &corrupt).unwrap();
        assert!(MappedSnapshot::open(&path, VerifyMode::Eager).is_err());
        let lazy = MappedSnapshot::open(&path, VerifyMode::Lazy).unwrap();
        assert!(
            lazy.verify_all().is_err(),
            "lazy verify must catch the flip"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_roundtrips_with_its_segment_structure() {
        let (g, mut arena) = sample_arena(RrStrategy::Standard, 1200);
        let m = crate::models::WeightedCascade::new(&g, 2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut index = CoverageIndex::new(g.num_nodes(), 2);
        index.extend_to(&arena, 700);
        arena.generate_parallel(&g, &m, &sampler, 800, 2, 78);
        index.extend_from(&arena);
        assert_eq!(index.num_segments(), 2);

        let mut w = SnapshotWriter::new();
        write_arena(&arena, w.section(section::CACHE_STREAM_BASE));
        write_index(&index, w.section(section::CACHE_STREAM_BASE + 1));
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let arena2 = read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
        let index2 = read_index(
            &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
            &arena2,
        )
        .unwrap();

        // Segment structure (the extension history) is preserved…
        assert_eq!(index2.num_segments(), 2);
        assert_eq!(index2.num_rr(), index.num_rr());
        // …and every coverage answer matches.
        let (va, vb) = (index.view(), index2.view());
        for ad in 0..2 {
            for u in (0..g.num_nodes() as u32).step_by(13) {
                assert_eq!(va.singleton_count(ad, u), vb.singleton_count(ad, u));
            }
            let seeds: Vec<u32> = (0..25).collect();
            assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
        }
    }

    /// The node-major index encoding written before the `(node,
    /// advertiser)` layout: untagged header, one ascending run per node
    /// mixing every advertiser, then a per-set advertiser column. `tamper`
    /// may edit each segment's offsets and entries before they are written.
    fn write_index_node_major(
        index: &CoverageIndex,
        arena: &RrArena,
        tamper: &dyn Fn(&mut Vec<u32>, &mut Vec<u32>),
        out: &mut SectionBuf,
    ) {
        out.put_u64(index.num_nodes as u64);
        out.put_u64(index.num_ads as u64);
        out.put_u64(index.num_rr as u64);
        out.put_u64(index.segments.len() as u64);
        let h = index.num_ads;
        for segment in &index.segments {
            let mut offsets = vec![0u32];
            let mut entries = Vec::new();
            for u in 0..index.num_nodes {
                let from = entries.len();
                for ad in 0..h {
                    entries.extend_from_slice(segment.rr_of_containing(ad, u as u32));
                }
                entries[from..].sort_unstable();
                offsets.push(entries.len() as u32);
            }
            tamper(&mut offsets, &mut entries);
            out.put_u32(segment.rr_base);
            out.put_u32(segment.num_sets);
            out.put_u32_slice(&offsets);
            out.put_u32_slice(&entries);
        }
        out.put_u32_slice(&arena.ads[..index.num_rr]);
        let view = index.view();
        let singleton: Vec<u32> = (0..h)
            .flat_map(|ad| (0..index.num_nodes as u32).map(move |u| (ad, u)))
            .map(|(ad, u)| view.singleton_count(ad, u))
            .collect();
        out.put_u32_slice(&singleton);
    }

    /// A three-advertiser arena indexed in two extensions.
    fn three_ad_stream() -> (RrArena, CoverageIndex) {
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(19);
        let g = barabasi_albert(150, 3, &mut rng);
        let m = crate::models::WeightedCascade::new(&g, 3);
        let sampler = UniformRrSampler::new(&[1.0, 2.0, 1.5]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        let mut index = CoverageIndex::new(g.num_nodes(), 3);
        arena.generate_parallel(&g, &m, &sampler, 900, 2, 5);
        index.extend_from(&arena);
        arena.generate_parallel(&g, &m, &sampler, 700, 2, 6);
        index.extend_from(&arena);
        (arena, index)
    }

    fn stream_bytes(arena: &RrArena, write: impl FnOnce(&mut SectionBuf)) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_arena(arena, w.section(section::CACHE_STREAM_BASE));
        write(w.section(section::CACHE_STREAM_BASE + 1));
        w.finish()
    }

    fn read_stream<S: rmsa_store::SectionSource>(
        src: &S,
    ) -> Result<(RrArena, CoverageIndex), StoreError> {
        let arena = read_arena(&mut src.require(section::CACHE_STREAM_BASE)?)?;
        let index = read_index(&mut src.require(section::CACHE_STREAM_BASE + 1)?, &arena)?;
        Ok((arena, index))
    }

    fn assert_same_answers(a: &CoverageIndex, b: &CoverageIndex) {
        let (va, vb) = (a.view(), b.view());
        assert_eq!(va.num_rr(), vb.num_rr());
        for ad in 0..va.num_ads() {
            for u in 0..va.num_nodes() as u32 {
                assert_eq!(va.singleton_count(ad, u), vb.singleton_count(ad, u));
                assert_eq!(va.coverage_count(ad, &[u]), vb.coverage_count(ad, &[u]));
            }
            let seeds: Vec<u32> = (0..40).step_by(3).collect();
            assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
        }
        let alloc = vec![vec![0, 7], vec![1, 2, 30], vec![5]];
        assert_eq!(
            va.allocation_coverage_count(&alloc),
            vb.allocation_coverage_count(&alloc)
        );
    }

    /// Streams in the node-major layout still load — owned, re-bucketed
    /// into the current layout through both the parsed and the mapped
    /// container — and answer every coverage query as the original.
    #[test]
    fn node_major_streams_load_owned_and_answer_identically() {
        use rmsa_store::{MappedSnapshot, VerifyMode};
        let (arena, index) = three_ad_stream();
        let old = stream_bytes(&arena, |s| {
            write_index_node_major(&index, &arena, &|_, _| {}, s)
        });
        let current = stream_bytes(&arena, |s| write_index(&index, s));
        assert_ne!(old, current);

        let path =
            std::env::temp_dir().join(format!("rmsa_node_major_{}.rmsnap", std::process::id()));
        rmsa_store::write_file(&path, &old).unwrap();
        let snap = MappedSnapshot::open(&path, VerifyMode::Lazy).unwrap();
        let parsed = SnapshotReader::parse(&old).unwrap();
        for (arena2, index2) in [read_stream(&parsed).unwrap(), read_stream(&snap).unwrap()] {
            assert_eq!(index2.num_segments(), 2);
            assert_eq!(index2.mapped_bytes(), 0);
            assert_same_answers(&index, &index2);
            // Re-bucketing reproduces the current encoding byte for byte.
            assert_eq!(stream_bytes(&arena2, |s| write_index(&index2, s)), current);
        }
        std::fs::remove_file(&path).ok();

        // The stored advertiser column must agree with the arena's.
        let mut lying = arena.clone();
        lying.ads.to_mut()[3] = (lying.ads[3] + 1) % 3;
        let bytes = stream_bytes(&arena, |s| {
            write_index_node_major(&index, &lying, &|_, _| {}, s)
        });
        let err = read_stream(&SnapshotReader::parse(&bytes).unwrap()).map(|_| ());
        assert!(matches!(err, Err(StoreError::Corrupt(_))), "{err:?}");

        // So must the postings: a node's first id swapped for the id just
        // below it (still ascending and in range, but not a set holding
        // that node) is refused.
        let bytes = stream_bytes(&arena, |s| {
            let shift_first_id = |offsets: &mut Vec<u32>, entries: &mut Vec<u32>| {
                let at = offsets[..offsets.len() - 1]
                    .iter()
                    .map(|&o| o as usize)
                    .find(|&o| o < entries.len() && entries[o] > entries[0])
                    .unwrap();
                entries[at] -= 1;
            };
            write_index_node_major(&index, &arena, &shift_first_id, s)
        });
        let err = read_stream(&SnapshotReader::parse(&bytes).unwrap()).map(|_| ());
        assert!(
            matches!(&err, Err(StoreError::Corrupt(m)) if m.contains("disagrees with the arena")),
            "{err:?}"
        );
    }

    /// Streams in the current layout load zero-copy from a mapping: every
    /// segment column is borrowed, none is owned.
    #[test]
    fn node_ad_streams_load_mapped_without_copying_runs() {
        use rmsa_store::{MappedSnapshot, VerifyMode};
        let (arena, index) = three_ad_stream();
        let bytes = stream_bytes(&arena, |s| write_index(&index, s));
        let path = std::env::temp_dir().join(format!("rmsa_node_ad_{}.rmsnap", std::process::id()));
        rmsa_store::write_file(&path, &bytes).unwrap();
        let snap = MappedSnapshot::open(&path, VerifyMode::Lazy).unwrap();
        let (_, mapped) = read_stream(&snap).unwrap();
        assert_same_answers(&index, &mapped);
        if snap.zero_copy_eligible() {
            assert!(mapped.mapped_bytes() > 0);
            assert!(mapped
                .segments
                .iter()
                .all(|s| s.columns().iter().all(|c| c.is_mapped())));
            assert_eq!(mapped.resident_bytes(), 0);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Owned decodes refuse corrupt runs with typed errors.
    #[test]
    fn corrupt_runs_are_refused() {
        let (arena, index) = three_ad_stream();
        type Columns = [Vec<u32>; 4];
        let decode_with = |mutate: &dyn Fn(&mut Columns)| {
            let first = &index.segments[0];
            let mut cols: Columns = first.columns().map(|c| c.to_vec());
            mutate(&mut cols);
            let [node_runs, run_ads, run_offsets, entries] = cols;
            let mut bad = index.clone();
            bad.segments[0] = Arc::new(CoverageSegment {
                rr_base: first.rr_base,
                num_sets: first.num_sets,
                node_runs: node_runs.into(),
                run_ads: run_ads.into(),
                run_offsets: run_offsets.into(),
                entries: entries.into(),
            });
            let bytes = stream_bytes(&arena, |s| write_index(&bad, s));
            read_stream(&SnapshotReader::parse(&bytes).unwrap()).map(|_| ())
        };
        let expect_corrupt =
            |what: &str, mutate: &dyn Fn(&mut Columns), needle: &str| match decode_with(mutate) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
                other => panic!("{what}: expected a corrupt error, got {other:?}"),
            };
        // Sanity: the untouched stream decodes.
        assert!(decode_with(&|_| {}).is_ok());
        expect_corrupt(
            "non-monotone run table",
            &|[_, _, run_offsets, _]| {
                let last = *run_offsets.last().unwrap();
                run_offsets[1] = last + 1;
            },
            "non-monotone",
        );
        let end = index.segments[0].num_sets;
        expect_corrupt(
            "RR id out of range",
            &|[_, _, _, entries]| entries[0] = end,
            "out of range",
        );
        // A node's first two runs with their advertisers swapped.
        let two_runs = index.segments[0]
            .node_runs
            .windows(2)
            .find(|w| w[1] - w[0] >= 2)
            .unwrap()[0] as usize;
        expect_corrupt(
            "runs out of advertiser order",
            &|[_, run_ads, _, _]| run_ads.swap(two_runs, two_runs + 1),
            "advertiser order",
        );
        // The first entry of a run replaced by a smaller id of another
        // advertiser: the run stays ascending and in range, but that id's
        // arena advertiser differs from the run's.
        let first = &index.segments[0];
        let (at, id) = first
            .run_offsets
            .windows(2)
            .zip(first.run_ads.iter())
            .find_map(|(bounds, &ad)| {
                let (start, stop) = (bounds[0] as usize, bounds[1] as usize);
                let upper = if stop - start > 1 {
                    first.entries[start + 1]
                } else {
                    end
                };
                (0..upper)
                    .find(|&rr| arena.ads[rr as usize] != ad)
                    .map(|rr| (start, rr))
            })
            .unwrap();
        expect_corrupt(
            "entry under another advertiser's run",
            &|[_, _, _, entries]| entries[at] = id,
            "another advertiser",
        );

        // An unknown layout tag is refused, not guessed at.
        let bytes = stream_bytes(&arena, |s| {
            s.put_u64(INDEX_TAGGED | 99);
        });
        let err = read_stream(&SnapshotReader::parse(&bytes).unwrap()).map(|_| ());
        assert!(
            matches!(&err, Err(StoreError::Corrupt(m)) if m.contains("layout tag")),
            "{err:?}"
        );
    }

    #[test]
    fn models_roundtrip_bit_for_bit() {
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(3);
        let g = barabasi_albert(60, 2, &mut rng);
        let models = [
            ModelSnapshot::Materialized(MaterializedModel::from_rows(vec![
                vec![0.25; g.num_edges()],
                vec![0.5; g.num_edges()],
            ])),
            ModelSnapshot::WeightedCascade(WeightedCascade::new(&g, 3)),
            ModelSnapshot::UniformIc(UniformIc::new(2, 0.125)),
        ];
        for model in &models {
            let mut w = SnapshotWriter::new();
            write_model(model, w.section(section::MODEL));
            let bytes = w.finish();
            let r = SnapshotReader::parse(&bytes).unwrap();
            let restored = read_model(&mut r.require(section::MODEL).unwrap()).unwrap();
            let (a, b): (&dyn PropagationModel, &dyn PropagationModel) = (
                match model {
                    ModelSnapshot::Materialized(m) => m,
                    ModelSnapshot::WeightedCascade(m) => m,
                    ModelSnapshot::UniformIc(m) => m,
                },
                match &restored {
                    ModelSnapshot::Materialized(m) => m,
                    ModelSnapshot::WeightedCascade(m) => m,
                    ModelSnapshot::UniformIc(m) => m,
                },
            );
            assert_eq!(a.num_ads(), b.num_ads());
            for ad in 0..a.num_ads() {
                for e in 0..g.num_edges() as u32 {
                    assert_eq!(a.edge_prob(ad, e).to_bits(), b.edge_prob(ad, e).to_bits());
                }
            }
        }
    }

    #[test]
    fn absurd_declared_counts_error_instead_of_allocating() {
        // A checksum-valid section whose declared segment count is absurd
        // must fail with a typed error, not a capacity-overflow abort.
        let (_, arena) = sample_arena(RrStrategy::Standard, 8);
        let mut w = SnapshotWriter::new();
        let s = w.section(section::CACHE_STREAM_BASE + 1);
        s.put_u64(arena.num_nodes() as u64);
        s.put_u64(2);
        s.put_u64(8);
        s.put_u64(u64::MAX); // num_segments
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let err = read_index(
            &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
            &arena,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Corrupt(_)),
            "{err:?}"
        );

        // The same in the tagged layout, and for an absurd advertiser
        // count (nothing is sized by it).
        for (num_ads, num_segments) in [(1u64, u64::MAX), (u64::MAX, 1)] {
            let mut w = SnapshotWriter::new();
            let s = w.section(section::CACHE_STREAM_BASE + 1);
            s.put_u64(INDEX_TAGGED | LAYOUT_NODE_AD);
            s.put_u64(arena.num_nodes() as u64);
            s.put_u64(num_ads);
            s.put_u64(8);
            s.put_u64(num_segments);
            s.put_u32_slice(&vec![0u32; arena.num_nodes()]);
            let bytes = w.finish();
            let r = SnapshotReader::parse(&bytes).unwrap();
            let err = read_index(
                &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
                &arena,
            )
            .map(|_| ())
            .unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. } | StoreError::Corrupt(_)),
                "{num_ads} ads, {num_segments} segments: {err:?}"
            );
        }

        // Same for a materialized model declaring u64::MAX advertisers.
        let mut w = SnapshotWriter::new();
        let s = w.section(section::MODEL);
        s.put_u8(1); // materialized tag
        s.put_u64(u64::MAX);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let err = read_model(&mut r.require(section::MODEL).unwrap())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn semantic_corruption_is_rejected() {
        let (_, arena) = sample_arena(RrStrategy::Standard, 64);
        // Arena whose offsets disagree with the node buffer.
        let mut w = SnapshotWriter::new();
        let s = w.section(section::CACHE_STREAM_BASE);
        s.put_u64(arena.num_nodes() as u64);
        s.put_u8(0);
        s.put_u32_slice(&[0, 1]); // two sets claimed
        s.put_usize_slice(&[0, 1]); // but offsets describe one
        s.put_u32_slice(&[0]);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(matches!(
            read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap_err(),
            StoreError::Corrupt(_)
        ));

        // Unknown strategy and model tags.
        let mut w = SnapshotWriter::new();
        w.section(section::MODEL).put_u8(200);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(matches!(
            read_model(&mut r.require(section::MODEL).unwrap()).unwrap_err(),
            StoreError::Corrupt(_)
        ));
    }
}
