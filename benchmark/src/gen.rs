//! Seeded request generators.
//!
//! Every request the benchmark sends is a pure function of
//! `(seed, workload, index)`: the same triple always yields the same
//! request, whichever connection sends it and whatever ran before.

/// The paper's five α points (Figs. 1–3, Table 3).
pub const PAPER_ALPHAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
/// The three incentive models of the paper.
pub const INCENTIVES: [&str; 3] = ["linear", "quasilinear", "superlinear"];
/// The serving algorithms the serve workloads draw from.
pub const SERVE_ALGORITHMS: [&str; 2] = ["rma", "one-batch"];
/// The datasets `serve_hot` builds cold.
pub const HOT_DATASETS: [&str; 2] = ["lastfm-syn", "flixster-syn"];
/// The dataset `serve_unique` warm-starts from a snapshot.
pub const UNIQUE_DATASET: &str = "lastfm-syn";
/// Range of the continuous α draws of `serve_unique`.
pub const UNIQUE_ALPHA_RANGE: (f64, f64) = (0.1, 0.5);

const TAG_HOT: u64 = 0x686f74; // "hot"
const TAG_UNIQUE: u64 = 0x756e71; // "unq"
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One solve request, without its correlation id.
#[derive(Clone, Debug, PartialEq)]
pub struct Solve {
    pub dataset: &'static str,
    pub algorithm: &'static str,
    pub incentive: &'static str,
    pub alpha: f64,
}

impl Solve {
    /// The request as one v2 wire line (without the trailing newline).
    pub fn line(&self, id: u64) -> String {
        format!(
            "{{\"schema_version\":2,\"op\":\"solve\",\"id\":{id},\"dataset\":\"{}\",\
             \"strategy\":\"standard\",\"algorithm\":\"{}\",\"incentive\":\"{}\",\
             \"alpha\":{},\"evaluate\":true}}",
            self.dataset, self.algorithm, self.incentive, self.alpha
        )
    }

    /// The memo class of the request: equal keys are the same query.
    pub fn class_key(&self) -> String {
        format!(
            "{}/{}/{}/{:016x}",
            self.dataset,
            self.algorithm,
            self.incentive,
            self.alpha.to_bits()
        )
    }
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(seed: u64, tag: u64, index: u64) -> u64 {
    mix(mix(seed ^ tag.wrapping_mul(GOLDEN)) ^ index)
}

/// The 60 request classes of `serve_hot`, in priming order: 2 datasets ×
/// 2 algorithms × 3 incentives × the paper's 5 α.
pub fn hot_classes() -> Vec<Solve> {
    (0..60).map(hot_class).collect()
}

fn hot_class(c: usize) -> Solve {
    Solve {
        dataset: HOT_DATASETS[c / 30],
        algorithm: SERVE_ALGORITHMS[(c / 15) % 2],
        incentive: INCENTIVES[(c / 5) % 3],
        alpha: PAPER_ALPHAS[c % 5],
    }
}

/// Timed request `index` of `serve_hot`: one of the primed classes.
pub fn hot_request(seed: u64, index: u64) -> Solve {
    hot_class((draw(seed, TAG_HOT, index) % 60) as usize)
}

/// The per-daemon α sweep of `serve_unique`: both algorithms × 3
/// incentives × the paper's 5 α on the snapshot's dataset.
pub fn unique_sweep() -> Vec<Solve> {
    (0..30)
        .map(|c| Solve {
            dataset: UNIQUE_DATASET,
            algorithm: SERVE_ALGORITHMS[c / 15],
            incentive: INCENTIVES[(c / 5) % 3],
            alpha: PAPER_ALPHAS[c % 5],
        })
        .collect()
}

/// Timed request `index` of `serve_unique`. α walks a Weyl sequence from
/// a seed-drawn offset: index ↦ offset + index·φ (mod 2⁶⁴) is injective,
/// and consecutive points stay far more than 2¹¹ apart, so the 53-bit
/// fraction — and with it α — never repeats within a run.
pub fn unique_request(seed: u64, index: u64) -> Solve {
    let h = draw(seed, TAG_UNIQUE, index);
    let weyl = mix(seed ^ TAG_UNIQUE).wrapping_add(index.wrapping_mul(GOLDEN));
    let frac = (weyl >> 11) as f64 / (1u64 << 53) as f64;
    let (lo, hi) = UNIQUE_ALPHA_RANGE;
    Solve {
        dataset: UNIQUE_DATASET,
        algorithm: SERVE_ALGORITHMS[(h & 1) as usize],
        incentive: INCENTIVES[((h >> 1) % 3) as usize],
        alpha: lo + (hi - lo) * frac,
    }
}

/// The points of the `cold_sweep` α sweep, in run order: for each paper
/// α, RMA then TI-CARM then TI-CSRM.
pub fn cold_points() -> Vec<(&'static str, f64)> {
    PAPER_ALPHAS
        .iter()
        .flat_map(|&a| ["rma", "ti-carm", "ti-csrm"].map(|alg| (alg, a)))
        .collect()
}

/// The dataset of `cold_sweep`.
pub const COLD_DATASET: &str = "flixster-syn";
const TAG_COLD: u64 = 0x636f6c; // "col"

/// The classes a daemon serving `cold_sweep`'s dataset is probed with in
/// the traced run: both serving algorithms × the paper's 5 α, linear
/// incentives.
pub fn cold_serve_classes() -> Vec<Solve> {
    (0..10).map(cold_serve_class).collect()
}

fn cold_serve_class(c: usize) -> Solve {
    Solve {
        dataset: COLD_DATASET,
        algorithm: SERVE_ALGORITHMS[c / 5],
        incentive: "linear",
        alpha: PAPER_ALPHAS[c % 5],
    }
}

/// Timed request `index` of the `cold_sweep` daemon probe.
pub fn cold_serve_request(seed: u64, index: u64) -> Solve {
    cold_serve_class((draw(seed, TAG_COLD, index) % 10) as usize)
}
