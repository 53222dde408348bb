//! `cold_sweep`: the experimenter path. One paper α sweep (RMA, TI-CARM,
//! TI-CSRM × 5 α) on `flixster-syn` from an empty RR cache, through the
//! library's `Workbench`, each sweep in a fresh process.
//!
//! The graph, advertisers and singleton spreads are fixed (built from
//! [`INSTANCE_SEED`]); the run seed drives the RR sampling of the cache
//! and of the baselines, so every seed solves the same instance with
//! fresh samples.

use crate::daemon::Layout;
use crate::gen;
use crate::json::{self, Value};
use crate::outcome::Stop;
use crate::spans::{self, Tracer};
use crate::sys;
use rmsa::prelude::*;
use rmsa_bench::ExperimentContext;
use rmsa_diffusion::{RrStream, UniformRrSampler, VerifyMode};
use std::time::Instant;

/// Seed of the fixed instance (graph, TIC model, advertisers, spreads).
pub const INSTANCE_SEED: u64 = 20_210_620;
/// Set-ups timed per sweep process; the run reports their median.
pub const SETUPS_PER_PROCESS: usize = 3;

/// The sweep's context: dataset size and sample caps.
pub fn context() -> ExperimentContext {
    ExperimentContext {
        scale: 0.25,
        num_ads: 10,
        spread_rr: 2_000,
        eval_rr: 100_000,
        threads: 2,
        seed: INSTANCE_SEED,
        rma_max_rr: 150_000,
        ti_max_rr: 20_000,
        rma_epsilon: 0.02,
        ti_epsilon: 0.1,
    }
}

const KIND: DatasetKind = DatasetKind::FlixsterSyn;

/// The context as report JSON.
pub fn context_json(ctx: &ExperimentContext) -> String {
    format!(
        "{{\"dataset\":\"{}\",\"scale\":{},\"num_ads\":{},\"spread_rr\":{},\"eval_rr\":{},\
         \"threads\":{},\"instance_seed\":{},\"rma_max_rr\":{},\"ti_max_rr\":{},\
         \"rma_epsilon\":{},\"ti_epsilon\":{},\"incentive\":\"linear\",\"alphas\":{:?}}}",
        KIND.name(),
        ctx.scale,
        ctx.num_ads,
        ctx.spread_rr,
        ctx.eval_rr,
        ctx.threads,
        ctx.seed,
        ctx.rma_max_rr,
        ctx.ti_max_rr,
        ctx.rma_epsilon,
        ctx.ti_epsilon,
        gen::PAPER_ALPHAS,
    )
}

/// Everything the sweep needs before its first solve.
struct Prepared {
    dataset: Dataset,
    spreads: Vec<Vec<f64>>,
    advertisers: Vec<Advertiser>,
    workbench: Workbench,
}

fn prepare(ctx: &ExperimentContext, seed: u64, tracer: &mut Tracer) -> Prepared {
    let dataset = tracer.span("datasets.build", |_| ctx.dataset(KIND));
    let spreads = tracer.span("datasets.spreads", |_| {
        dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED)
    });
    let advertisers = rmsa_bench::sweeps::advertisers_for(ctx, KIND, ctx.seed ^ 0xAD5);
    let workbench = tracer.span("workbench.build", |_| {
        Workbench::builder()
            .graph(dataset.graph.clone())
            .model(dataset.model.clone())
            .strategy(RrStrategy::Standard)
            .threads(ctx.threads)
            .seed(seed)
            .build()
            .expect("graph and model are set")
    });
    Prepared {
        dataset,
        spreads,
        advertisers,
        workbench,
    }
}

fn rma_config(ctx: &ExperimentContext, seed: u64) -> RmaConfig {
    let mut config = rmsa_bench::default_rma_config(ctx);
    config.seed = seed;
    config
}

fn ti_config(ctx: &ExperimentContext, seed: u64) -> TiConfig {
    let mut config = rmsa_bench::default_ti_config(ctx);
    config.seed = seed ^ 0xBA5E;
    config
}

/// Pre-warm targets of a traced replay: the stream sizes an untraced
/// sweep of the same seed reached.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Theta {
    pub optimize: usize,
    pub validate: usize,
    pub evaluate: usize,
}

/// Body of one sweep process. Without `replay`, one untraced sweep. With
/// `replay`, the cache is first pre-warmed to those sizes so RR generation
/// and the solves get separate spans, then the sweep runs in untraced and
/// traced passes in [`spans::PASSES`] order; `solves` and `run_s` describe
/// the first traced pass and `passes` every pass. Returns one JSON line.
pub fn child(seed: u64, setups: usize, replay: Option<Theta>, layout: &Layout) -> String {
    let ctx = context();
    let mut setup_secs = Vec::new();
    let mut tracer = Tracer::new(replay.is_some());
    let mut prepared = None;
    for _ in 0..setups.max(1) {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(tracer.span("setup", |tr| prepare(&ctx, seed, tr)));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");
    let wb = &p.workbench;
    let instance_at = |alpha: f64| {
        p.dataset.build_instance_from_spreads(
            p.advertisers.clone(),
            &p.spreads,
            IncentiveModel::Linear,
            alpha,
        )
    };

    let mut warm_json = String::from("null");
    if let Some(theta) = replay {
        tracer.span("prewarm", |tr| {
            let instance = instance_at(gen::PAPER_ALPHAS[0]);
            let sampler = UniformRrSampler::new(&instance.cpe_values());
            let mut entries = 0;
            for (stream, n) in [
                (RrStream::Optimize, theta.optimize),
                (RrStream::Validate, theta.validate),
            ] {
                let (e, _) = tr.span("diffusion.warm", |_| {
                    wb.cache()
                        .with_at_least(wb.graph(), wb.model(), &sampler, stream, n, |v| {
                            v.arena().total_entries()
                        })
                });
                entries += e;
            }
            tr.span("diffusion.warm", |_| {
                wb.evaluator(&instance, theta.evaluate)
            });
            let stats = wb.cache_stats();
            warm_json = format!(
                "{{\"rr_sets\":{},\"rr_entries\":{},\"index_extend_s\":{},\"cache_bytes\":{}}}",
                stats.generated,
                entries,
                json::num(stats.index_extend_time.as_secs_f64()),
                wb.cache().memory_bytes()
            );
        });
    }

    let order: &[bool] = if replay.is_some() {
        &spans::PASSES
    } else {
        &[false]
    };
    let mut untraced = Tracer::new(false);
    let mut passes = Vec::new();
    let mut first: Option<(f64, Vec<String>)> = None;
    for &traced in order {
        let tr = if traced { &mut tracer } else { &mut untraced };
        let start = Instant::now();
        let rows = tr.span("sweep", |tr| sweep_pass(&ctx, seed, wb, &instance_at, tr));
        let run_s = start.elapsed().as_secs_f64();
        let digests: Vec<String> = rows.iter().map(|(_, d)| json::quote(d)).collect();
        passes.push(format!(
            "{{\"traced\":{traced},\"run_s\":{},\"digests\":[{}]}}",
            json::num(run_s),
            digests.join(",")
        ));
        if first.is_none() && traced == replay.is_some() {
            first = Some((run_s, rows.into_iter().map(|(row, _)| row).collect()));
        }
    }
    let (run_s, rows) = first.expect("a pass of the kind reported");
    let extras = if replay.is_some() {
        replay_extras(&ctx, seed, wb, &instance_at, layout)
    } else {
        "null".to_string()
    };
    let cache = wb.cache();
    let stats = wb.cache_stats();
    let totals: Vec<String> = tracer
        .totals()
        .iter()
        .map(|(name, t)| {
            format!(
                "{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                json::quote(name),
                t.count,
                t.total_ns,
                t.self_ns
            )
        })
        .collect();
    let setups_json: Vec<String> = setup_secs.iter().map(|s| json::num(*s)).collect();
    format!(
        "{{\"setup_s\":[{}],\"run_s\":{},\"solves\":[{}],\"passes\":[{}],\
         \"theta\":{{\"optimize\":{},\"validate\":{},\"evaluate\":{}}},\
         \"rr_generated\":{},\"index_extend_s\":{},\"cache_bytes\":{},\
         \"nodes\":{},\"edges\":{},\"peak_rss_mib\":{},\"warm\":{},\"extras\":{},\
         \"span_totals\":{{{}}},\"spans\":{}}}",
        setups_json.join(","),
        json::num(run_s),
        rows.join(","),
        passes.join(","),
        cache.len(RrStream::Optimize),
        cache.len(RrStream::Validate),
        cache.len(RrStream::Evaluate),
        stats.generated,
        json::num(stats.index_extend_time.as_secs_f64()),
        cache.memory_bytes(),
        wb.graph().num_nodes(),
        wb.graph().num_edges(),
        json::num(sys::peak_rss_mib(std::process::id()).unwrap_or(f64::NAN)),
        warm_json,
        extras,
        totals.join(","),
        if replay.is_some() {
            tracer.to_json().replace('\n', "")
        } else {
            "null".to_string()
        },
    )
}

/// One pass over the sweep's points: each point's report row and its
/// allocation digest (empty when the solve failed).
fn sweep_pass(
    ctx: &ExperimentContext,
    seed: u64,
    wb: &Workbench,
    instance_at: &dyn Fn(f64) -> RmInstance,
    tr: &mut Tracer,
) -> Vec<(String, String)> {
    let budget_scale = 1.0 + rma_config(ctx, seed).rho;
    let mut rows = Vec::new();
    for (algorithm, alpha) in gen::cold_points() {
        let instance = instance_at(alpha);
        let evaluator = tr.span("core.evaluator", |_| wb.evaluator(&instance, ctx.eval_rr));
        let (name, solver): (&'static str, Box<dyn Solver>) = match algorithm {
            "rma" => ("core.rma", Box::new(Rma::new(rma_config(ctx, seed)))),
            "ti-carm" => (
                "core.ti_carm",
                Box::new(TiCarm::with_budget_scale(
                    ti_config(ctx, seed),
                    budget_scale,
                )),
            ),
            _ => (
                "core.ti_csrm",
                Box::new(TiCsrm::with_budget_scale(
                    ti_config(ctx, seed),
                    budget_scale,
                )),
            ),
        };
        let t = Instant::now();
        let report = tr.span(name, |_| wb.run_solver(solver.as_ref(), &instance));
        let solve_s = t.elapsed().as_secs_f64();
        rows.push(match report {
            Ok(report) => {
                let t = Instant::now();
                let revenue = tr.span("core.evaluate", |_| {
                    evaluator.report(&instance, &report.allocation).revenue
                });
                let eval_s = t.elapsed().as_secs_f64();
                let digest = rmsa_service::session::allocation_digest(&report.allocation);
                let row = format!(
                    "{{\"algorithm\":\"{algorithm}\",\"alpha\":{alpha},\"ok\":true,\
                     \"solve_s\":{},\"eval_s\":{},\"revenue\":{},\"lower_bound\":{},\
                     \"seeds\":{},\"rr_used\":{},\"rr_generated\":{},\"index_extended\":{},\
                     \"capped\":{},\"digest\":\"{}\"}}",
                    json::num(solve_s),
                    json::num(eval_s),
                    json::num(revenue),
                    report
                        .revenue_lower_bound
                        .map_or("null".to_string(), json::num),
                    report.allocation.total_seeds(),
                    report.rr.used,
                    report.rr.generated,
                    report.rr.index_extended,
                    report.capped,
                    digest,
                );
                (row, digest)
            }
            Err(e) => (
                format!(
                    "{{\"algorithm\":\"{algorithm}\",\"alpha\":{alpha},\"ok\":false,\
                     \"error\":{}}}",
                    json::quote(&e.to_string())
                ),
                String::new(),
            ),
        });
    }
    rows
}

/// Probes a replay runs after its passes, outside any sweep span: one-batch
/// greedy on the warm cache at each α, and mapped loads of the cache saved
/// as a snapshot in the output directory.
fn replay_extras(
    ctx: &ExperimentContext,
    seed: u64,
    wb: &Workbench,
    instance_at: &dyn Fn(f64) -> RmInstance,
    layout: &Layout,
) -> String {
    let theta = wb.cache().len(RrStream::Optimize);
    let onebatch_ms: Vec<String> = gen::PAPER_ALPHAS
        .iter()
        .map(|&alpha| {
            let solver = OneBatch::new(rma_config(ctx, seed), theta);
            let t = Instant::now();
            let ok = wb.run_solver(&solver, &instance_at(alpha)).is_ok();
            if ok {
                json::num(t.elapsed().as_secs_f64() * 1e3)
            } else {
                "null".to_string()
            }
        })
        .collect();
    let mut load_ms = Vec::new();
    let mut mapped = 0;
    let path = layout.out.join("cold_sweep-store-probe.rmsnap");
    if wb.cache().save_to(&path).is_ok() {
        for _ in 0..5 {
            let t = Instant::now();
            if let Ok(cache) = RrCache::load_mapped(&path, ctx.threads, VerifyMode::Lazy) {
                load_ms.push(json::num(t.elapsed().as_secs_f64() * 1e3));
                mapped = cache.mapped_bytes();
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    format!(
        "{{\"onebatch_ms\":[{}],\"store_load_ms\":[{}],\"store_mapped_bytes\":{}}}",
        onebatch_ms.join(","),
        load_ms.join(","),
        mapped
    )
}

/// Run one sweep process (this executable in child mode) and parse its
/// report. A process that fails or prints no report is a fault.
pub fn run_child(seed: u64, setups: usize, replay: Option<Theta>) -> Result<Value, Stop> {
    let exe = std::env::current_exe().map_err(|e| Stop::Setup(e.to_string()))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--sweep-child", "--seed", &seed.to_string()])
        .args(["--setups", &setups.to_string()]);
    if let Some(t) = replay {
        cmd.args([
            "--replay",
            &format!("{},{},{}", t.optimize, t.validate, t.evaluate),
        ]);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| Stop::Setup(format!("sweep process: {e}")))?;
    if !out.status.success() {
        return Err(format!("sweep process failed: {}", out.status).into());
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("sweep process printed nothing")?;
    Ok(json::parse(last)?)
}
