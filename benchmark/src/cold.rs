//! The `cold_sweep` runs: untraced sweeps in fresh processes for the
//! end-to-end metrics, and a traced replay for the per-layer metrics.

use crate::daemon::Layout;
use crate::json::{self, Value};
use crate::outcome::{Outcome, Stop};
use crate::serve;
use crate::stats::{self, median, quantile};
use crate::sweep::{self, Theta};
use crate::sys;
use std::collections::BTreeMap;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Check one sweep report's solves; returns (algorithm, α) → digest.
fn check_solves(report: &Value, out: &mut Outcome) -> BTreeMap<String, String> {
    let mut digests = BTreeMap::new();
    let points = report.get("solves").as_array();
    out.check(points.len() == crate::gen::cold_points().len(), || {
        format!("a sweep reported {} points", points.len())
    });
    for s in points {
        let key = format!(
            "{}@{}",
            s.get("algorithm").as_str().unwrap_or("?"),
            s.num("alpha")
        );
        let result = if s.get("ok").as_bool() != Some(true) {
            Err(format!(
                "sweep point {key} failed: {}",
                json::render(s.get("error"))
            ))
        } else if !s.num("revenue").is_finite() {
            Err(format!("sweep point {key} has no evaluated revenue"))
        } else if s.get("algorithm").as_str() == Some("rma")
            && (s.num("lower_bound").is_nan() || s.num("lower_bound") > s.num("revenue"))
        {
            Err(format!(
                "sweep point {key}: RMA lower bound {} above revenue {}",
                s.num("lower_bound"),
                s.num("revenue")
            ))
        } else {
            digests.insert(key, s.get("digest").as_str().unwrap_or("").to_string());
            Ok(())
        };
        out.op(result);
    }
    digests
}

fn solves<'a>(report: &'a Value, algorithm: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
    report
        .get("solves")
        .as_array()
        .iter()
        .filter(move |s| s.get("algorithm").as_str() == Some(algorithm))
}

fn describe(out: &mut Outcome) {
    out.info("context", sweep::context_json(&sweep::context()));
    out.info_num("setups_per_process", sweep::SETUPS_PER_PROCESS as f64);
}

/// Sweeps an untraced run makes at least, so its medians are robust to
/// one sweep hit by machine noise.
pub const MIN_SWEEPS: usize = 3;

/// Untraced run: sweeps back to back, each in a fresh process, until
/// `seconds` have passed and at least [`MIN_SWEEPS`] ran. Each metric is
/// the median over the calm sweeps (see `stats::calm`) of that sweep's
/// figure.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), Stop> {
    describe(out);
    let start = Instant::now();
    let mut reports = Vec::new();
    let mut stolen = Vec::new();
    let mut reference: Option<BTreeMap<String, String>> = None;
    while reports.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < seconds {
        let steal0 = sys::steal_ticks();
        let report = sweep::run_child(seed, sweep::SETUPS_PER_PROCESS, None)?;
        stolen.push(sys::stolen_since(steal0));
        let digests = check_solves(&report, out);
        match &reference {
            None => reference = Some(digests),
            Some(r) => out.check(r == &digests, || {
                "two sweeps of the same seed chose different allocations".to_string()
            }),
        }
        reports.push(report);
    }
    out.info_num("sweeps", reports.len() as f64);
    out.info(
        "sweep_stolen_ticks",
        serve::nums_json(&stolen.iter().map(|&s| s as f64).collect::<Vec<_>>()),
    );
    let reports = stats::calm(reports, &stolen);
    out.info_num("sweeps_calm", reports.len() as f64);
    let setups: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.get("setup_s").as_array().iter().filter_map(Value::as_f64))
        .collect();
    let per_sweep =
        |f: &dyn Fn(&Value) -> f64| -> f64 { median(&reports.iter().map(f).collect::<Vec<_>>()) };
    let point_ms = |r: &Value| -> Vec<f64> {
        r.get("solves")
            .as_array()
            .iter()
            .map(|s| (s.num("solve_s") + s.num("eval_s")) * 1e3)
            .collect()
    };
    let revenues: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.get("solves").as_array().iter())
        .map(|s| s.num("revenue"))
        .collect();
    let points = crate::gen::cold_points().len() as f64;
    let run_s = per_sweep(&|r| r.num("run_s"));
    let p99 = quantile(&point_ms(&reports[0]), 0.99);
    out.info(
        "latency_samples_per_sweep",
        format!(
            "{{\"samples\":{},\"beyond_p99\":{},\"p99_resolved\":false}}",
            p99.samples, p99.beyond
        ),
    );
    out.info("setup_s_samples", serve::nums_json(&setups));
    out.info(
        "run_s_samples",
        serve::nums_json(&reports.iter().map(|r| r.num("run_s")).collect::<Vec<_>>()),
    );
    out.info("theta", json::render(reports[0].get("theta")));
    out.metric("throughput_rps", points / run_s, "req/s");
    out.metric(
        "latency_p50_ms",
        per_sweep(&|r| quantile(&point_ms(r), 0.5).value),
        "ms",
    );
    out.metric(
        "latency_p99_ms",
        per_sweep(&|r| quantile(&point_ms(r), 0.99).value),
        "ms",
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mib", per_sweep(&|r| r.num("peak_rss_mib")), "MiB");
    out.metric("run_s", run_s, "s");
    out.metric(
        "rma_s",
        per_sweep(&|r| solves(r, "rma").map(|s| s.num("solve_s")).sum()),
        "s",
    );
    out.metric("revenue_mean", stats::mean(&revenues), "revenue");
    Ok(())
}

/// Traced run: one untraced sweep (the reference and its θ), then a
/// replay pre-warmed to that θ, so RR generation and the solves get
/// separate spans, in paired untraced and traced passes; then the
/// daemon-side layers of a daemon serving the same dataset, since every
/// workload reports every per-layer metric `BENCHMARK.json` lists.
pub fn run_traced(layout: &Layout, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), Stop> {
    describe(out);
    let reference = sweep::run_child(seed, 1, None)?;
    let ref_digests = check_solves(&reference, out);
    let t = reference.get("theta");
    let theta = Theta {
        optimize: t.get("optimize").as_u64().unwrap_or(0) as usize,
        validate: t.get("validate").as_u64().unwrap_or(0) as usize,
        evaluate: t.get("evaluate").as_u64().unwrap_or(0) as usize,
    };
    let traced = sweep::run_child(seed, 1, Some(theta))?;
    let traced_digests = check_solves(&traced, out);
    let passes = traced.get("passes").as_array();
    let first: Vec<&str> = traced
        .get("solves")
        .as_array()
        .iter()
        .map(|s| s.get("digest").as_str().unwrap_or(""))
        .collect();
    out.check(passes.len() == crate::spans::PASSES.len(), || {
        format!("the replay reported {} passes", passes.len())
    });
    for pass in passes {
        let digests: Vec<&str> = pass
            .get("digests")
            .as_array()
            .iter()
            .map(|d| d.as_str().unwrap_or(""))
            .collect();
        out.check(digests == first, || {
            "two replay passes chose different allocations".to_string()
        });
    }
    // The baselines sample privately, so their allocations must match the
    // reference exactly. RMA reads the pre-warmed cache, which holds the
    // same number of RR-sets drawn in one extension rather than RMA's
    // doubling steps: it must generate nothing and land within 5% of the
    // reference revenue.
    for (key, digest) in &traced_digests {
        if !key.starts_with("rma@") {
            out.check(ref_digests.get(key) == Some(digest), || {
                format!("replayed {key} chose a different allocation than the reference")
            });
        }
    }
    for (r, s) in solves(&reference, "rma").zip(solves(&traced, "rma")) {
        let gap = (s.num("revenue") - r.num("revenue")).abs() / r.num("revenue");
        out.check(gap <= 0.05, || {
            format!("replayed RMA revenue off by {:.1}%", gap * 100.0)
        });
        out.check(s.num("rr_generated") == 0.0, || {
            "replayed RMA generated RR-sets on a pre-warmed cache".to_string()
        });
    }

    // Spans and coverage.
    let spans_path = layout.out.join(format!("spans-cold_sweep-{seed}.json"));
    std::fs::write(&spans_path, json::render(traced.get("spans")) + "\n")
        .map_err(|e| Stop::Setup(format!("{}: {e}", spans_path.display())))?;
    out.info_str("spans_file", &spans_path.display().to_string());
    let totals = traced.get("span_totals");
    out.info("span_totals", json::render(totals));
    let ns = |name: &str, field: &str| totals.get(name).num(field);
    let root = ns("prewarm", "total_ns") + ns("sweep", "total_ns");
    let layers: f64 = match totals {
        Value::Obj(map) => map
            .iter()
            .filter(|(name, _)| name.starts_with("core.") || name.starts_with("diffusion."))
            .map(|(_, t)| t.num("self_ns"))
            .sum(),
        _ => f64::NAN,
    };
    let unattributed = (root - layers) / root;
    out.check(unattributed <= 0.10, || {
        format!(
            "layer spans cover only {:.1}% of the traced sweep",
            100.0 * (1.0 - unattributed)
        )
    });
    let pass_s: Vec<f64> = passes.iter().map(|p| p.num("run_s")).collect();
    out.info_num("reference_run_s", reference.num("run_s"));
    crate::replay::overhead_metric(&pass_s, out);
    out.metric("trace.unattributed_frac", unattributed, "ratio");
    out.info_num(
        "spans",
        traced.get("spans").get("spans").as_array().len() as f64,
    );

    // Library layers, from the traced replay.
    let warm = traced.get("warm");
    let index_s = warm.num("index_extend_s");
    let generate_s = ns("diffusion.warm", "total_ns") / 1e9 - index_s;
    let rr_sets = warm.num("rr_sets");
    out.metric(
        "datasets.build_s",
        ns("datasets.build", "total_ns") / 1e9,
        "s",
    );
    out.metric(
        "datasets.spreads_s",
        ns("datasets.spreads", "total_ns") / 1e9,
        "s",
    );
    out.metric("graph.nodes", traced.num("nodes"), "count");
    out.metric("graph.edges", traced.num("edges"), "count");
    out.metric("diffusion.generate_s", generate_s, "s");
    out.metric("diffusion.rr_sets", rr_sets, "count");
    out.metric("diffusion.rr_entries", warm.num("rr_entries"), "count");
    out.metric("diffusion.sets_per_s", rr_sets / generate_s, "1/s");
    out.metric("diffusion.index_extend_s", index_s, "s");
    out.metric("diffusion.cache_mib", warm.num("cache_bytes") / MIB, "MiB");
    let rma_ms: Vec<f64> = solves(&traced, "rma")
        .map(|s| s.num("solve_s") * 1e3)
        .collect();
    let ti_s: Vec<f64> = solves(&traced, "ti-carm")
        .chain(solves(&traced, "ti-csrm"))
        .map(|s| s.num("solve_s"))
        .collect();
    let eval_ms: Vec<f64> = traced
        .get("solves")
        .as_array()
        .iter()
        .map(|s| s.num("eval_s") * 1e3)
        .collect();
    let extras = traced.get("extras");
    let onebatch_ms: Vec<f64> = extras
        .get("onebatch_ms")
        .as_array()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    out.check(onebatch_ms.len() == crate::gen::PAPER_ALPHAS.len(), || {
        "a one-batch probe solve failed".to_string()
    });
    let middle = solves(&traced, "rma").nth(2);
    out.metric("core.rma_greedy_ms", median(&rma_ms), "ms");
    out.metric("core.onebatch_greedy_ms", median(&onebatch_ms), "ms");
    out.metric("core.evaluate_ms", median(&eval_ms), "ms");
    out.metric("core.ti_solve_s", median(&ti_s), "s");
    out.metric(
        "core.seeds",
        middle.map_or(f64::NAN, |s| s.num("seeds")),
        "count",
    );
    out.metric(
        "core.rr_used",
        middle.map_or(f64::NAN, |s| s.num("rr_used")),
        "count",
    );
    let loads: Vec<f64> = extras
        .get("store_load_ms")
        .as_array()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    out.check(!loads.is_empty(), || {
        "the mapped cache snapshot did not load".to_string()
    });
    out.metric("store.load_mapped_ms", median(&loads), "ms");
    out.metric(
        "store.mapped_mib",
        extras.num("store_mapped_bytes") / MIB,
        "MiB",
    );

    // Daemon-side layers on the same dataset.
    let spec = serve::cold_serve_spec();
    serve::daemon_layers(layout, &spec, seed, seconds / 6.0, 2_000, out)?;
    Ok(())
}
