//! Traced in-process replays and the library layer probes.
//!
//! A replay runs the same requests as the daemon did, through the
//! library's public API, in alternating untraced and traced passes; the
//! paired difference is the tracing overhead. Allocation digests must equal the
//! daemon's for the same requests, which shows the replay measures the
//! same work.

use crate::daemon::Layout;
use crate::json;
use crate::outcome::{Outcome, Stop};
use crate::serve::{ClassDigests, ServeSpec, TimedDigests, TIMED_ID_BASE};
use crate::spans::{self, NameTotals, Tracer};
use crate::stats::median;
use rmsa::prelude::*;
use rmsa_bench::ExperimentContext;
use rmsa_diffusion::{RrStream, UniformRrSampler, VerifyMode};
use rmsa_service::session::{allocation_digest, Session, SessionKey};
use rmsa_service::wire::{self, Algorithm, Request, Response, SolveRequest, SolveResponse};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Spans that are glue rather than a layer: the replay root and the
/// per-request envelope.
const GLUE: [&str; 2] = ["replay", "request"];

/// Share of the root span no layer span covers.
pub fn unattributed_frac(totals: &BTreeMap<&'static str, NameTotals>, root: &str) -> f64 {
    let Some(r) = totals.get(root) else {
        return f64::NAN;
    };
    let layers: u64 = totals
        .iter()
        .filter(|(name, _)| !GLUE.contains(name) && **name != root)
        .map(|(_, t)| t.self_ns)
        .sum();
    (r.total_ns as f64 - layers as f64) / r.total_ns as f64
}

/// Span totals as report JSON, in ms.
pub fn totals_json(totals: &BTreeMap<&'static str, NameTotals>) -> String {
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "{}:{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                json::quote(name),
                t.count,
                json::num(t.total_ns as f64 / 1e6),
                json::num(t.self_ns as f64 / 1e6)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn dataset_kind(name: &str) -> DatasetKind {
    wire::parse_dataset(name).expect("generator datasets are valid")
}

fn key(dataset: &str) -> SessionKey {
    SessionKey {
        dataset: dataset_kind(dataset),
        strategy: RrStrategy::Standard,
    }
}

/// One solve through the library, the way the daemon serves it. With
/// `memo`, through the session's memo; otherwise instance, greedy and
/// evaluation as separate spans.
fn solve_line(
    line: &str,
    sessions: &BTreeMap<&'static str, Arc<Session>>,
    ctx: &ExperimentContext,
    memo: bool,
    tr: &mut Tracer,
) -> Result<(String, String), String> {
    let (version, request) = tr
        .span("wire.parse", |_| Request::parse_versioned(line))
        .map_err(|f| f.error.message)?;
    let Request::Solve(req) = request else {
        return Err("not a solve".to_string());
    };
    let session = sessions
        .get(req.dataset.name())
        .ok_or("request for an unknown session")?;
    let result = if memo {
        tr.span("session.solve", |_| session.solve_memoized(&req))
            .map_err(|e| e.to_string())?
    } else {
        solve_layers(session, &req, ctx, tr)?
    };
    let digest = result.allocation_digest.clone();
    let response = Response::Solve(SolveResponse {
        id: req.id,
        session: session.key().label(),
        result,
        timing: Default::default(),
    });
    let rendered = tr.span("wire.render", |_| response.render_for(version));
    Ok((digest, rendered))
}

fn solve_layers(
    session: &Session,
    req: &SolveRequest,
    ctx: &ExperimentContext,
    tr: &mut Tracer,
) -> Result<wire::SolveResult, String> {
    let instance = tr.span("core.instance", |_| {
        session.instance(req.incentive, req.alpha)
    });
    let rma = rmsa_bench::default_rma_config(ctx);
    let solver: Box<dyn Solver> = match req.algorithm {
        Algorithm::Rma => Box::new(Rma::new(rma)),
        Algorithm::OneBatch => Box::new(OneBatch::new(rma, session.default_target())),
        Algorithm::TiCarm => Box::new(TiCarm::new(rmsa_bench::default_ti_config(ctx))),
        Algorithm::TiCsrm => Box::new(TiCsrm::new(rmsa_bench::default_ti_config(ctx))),
    };
    let wb = session.workbench();
    let report = tr
        .span("core.greedy", |_| wb.run_solver(solver.as_ref(), &instance))
        .map_err(|e| e.to_string())?;
    let revenue = tr.span("core.evaluate", |_| {
        wb.evaluator(&instance, ctx.eval_rr)
            .report(&instance, &report.allocation)
            .revenue
    });
    Ok(wire::SolveResult {
        algorithm: report.solver.clone(),
        revenue: Some(revenue),
        revenue_estimate: report.revenue_estimate,
        revenue_lower_bound: report.revenue_lower_bound,
        seeding_cost: report.seeding_cost,
        seeds: report.allocation.total_seeds(),
        feasible: report.feasible,
        capped: report.capped,
        iterations: report.iterations,
        rr_used: report.rr.used,
        rr_generated: report.rr.generated,
        index_extended: report.rr.index_extended,
        allocation_digest: allocation_digest(&report.allocation),
    })
}

/// Replay a serve workload in-process: the α sweep (checked against the
/// daemon's sweep digests), then the first timed requests in untraced and
/// traced passes (checked against the daemon's digests for the same
/// indices).
pub fn serve(
    layout: &Layout,
    spec: &ServeSpec,
    seed: u64,
    timed: &TimedDigests,
    sweep_digests: &ClassDigests,
    out: &mut Outcome,
) -> Result<(), Stop> {
    let ctx = spec.experiment_context();
    let mut sessions: BTreeMap<&'static str, Arc<Session>> = BTreeMap::new();
    let build = Instant::now();
    for dataset in spec.sessions {
        let session = match spec.snapshot {
            Some(_) => rmsa_service::snapshot::load_session_with(
                key(dataset),
                &ctx,
                &spec.snapshot_dir(layout),
                VerifyMode::Lazy,
            )
            .map_err(|e| e.to_string())?
            .ok_or("snapshot file missing")?,
            None => {
                let s = Session::build(key(dataset), &ctx);
                s.ensure_warm(None);
                s
            }
        };
        sessions.insert(dataset, Arc::new(session));
    }
    out.info_num("replay_session_setup_s", build.elapsed().as_secs_f64());
    let memo = spec.memo_hits;
    let mut off = Tracer::new(false);
    for (j, solve) in spec.sweep.iter().enumerate() {
        let got = solve_line(&solve.line(100 + j as u64), &sessions, &ctx, memo, &mut off);
        let want = sweep_digests.get(&solve.class_key());
        out.op(match got {
            Ok((digest, _)) if Some(&digest) == want => Ok(()),
            Ok((digest, _)) => Err(format!(
                "replayed sweep digest {digest} differs from the daemon's {want:?}"
            )),
            Err(e) => Err(e),
        });
    }

    let lines: Vec<(u64, String)> = timed
        .keys()
        .map(|&i| (i, (spec.stream)(seed, i).line(TIMED_ID_BASE + i)))
        .collect();
    let pass = |tr: &mut Tracer, out: &mut Outcome| -> f64 {
        let t = Instant::now();
        tr.span("replay", |tr| {
            for (index, line) in &lines {
                let got = tr.span("request", |tr| solve_line(line, &sessions, &ctx, memo, tr));
                out.op(match got {
                    Ok((digest, _)) if Some(&digest) == timed.get(index) => Ok(()),
                    Ok((digest, _)) => Err(format!(
                        "replayed request {index}: digest {digest} differs from the daemon's"
                    )),
                    Err(e) => Err(e),
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    let mut tracer = Tracer::new(true);
    let secs: Vec<f64> = spans::PASSES
        .iter()
        .map(|&traced| {
            if traced {
                pass(&mut tracer, out)
            } else {
                pass(&mut Tracer::new(false), out)
            }
        })
        .collect();
    report_trace(layout, spec.name, seed, &tracer, &secs, !memo, out)?;
    out.info_num("replayed_requests", lines.len() as f64);

    let main = *spec.sessions.last().expect("a serve spec has sessions");
    let session = &sessions[main];
    library_layers(&ctx, dataset_kind(main), out);
    let store_dir = layout.out.join(format!("{}-store-probe", spec.name));
    let _ = std::fs::remove_dir_all(&store_dir);
    session
        .save_snapshot(&store_dir)
        .map_err(|e| e.to_string())?;
    store_layer(&ctx, key(main), &store_dir, out)
}

/// Write the spans, report self times, overhead and coverage. `secs` are
/// the replay passes' times in [`spans::PASSES`] order.
pub fn report_trace(
    layout: &Layout,
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    secs: &[f64],
    gate_coverage: bool,
    out: &mut Outcome,
) -> Result<(), Stop> {
    let path = layout.out.join(format!("spans-{workload}-{seed}.json"));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| Stop::Setup(format!("{}: {e}", path.display())))?;
    let totals = tracer.totals();
    let unattributed = unattributed_frac(&totals, "replay");
    if gate_coverage {
        out.check(unattributed <= 0.10, || {
            format!(
                "layer spans cover only {:.1}% of the traced replay",
                100.0 * (1.0 - unattributed)
            )
        });
    }
    out.info_str("spans_file", &path.display().to_string());
    out.info("span_totals", totals_json(&totals));
    overhead_metric(secs, out);
    out.metric("trace.unattributed_frac", unattributed, "ratio");
    out.info_num("spans", tracer.spans().len() as f64);
    Ok(())
}

/// Report `trace.overhead_frac` from passes timed in [`spans::PASSES`]
/// order, with each pass and pair. The overhead counts as resolved when
/// every pair agrees on its sign; otherwise it is below the machine's
/// run-to-run noise.
pub fn overhead_metric(secs: &[f64], out: &mut Outcome) {
    let (overhead, pairs) = spans::paired_overhead(secs);
    let resolved = pairs.iter().all(|f| f.signum() == overhead.signum());
    out.info("replay_pass_s", crate::serve::nums_json(secs));
    out.info("trace_overhead_pairs", crate::serve::nums_json(&pairs));
    out.info("trace_overhead_resolved", resolved.to_string());
    out.metric("trace.overhead_frac", overhead, "ratio");
}

/// Dataset, diffusion and core probes on a serving context.
pub fn library_layers(ctx: &ExperimentContext, kind: DatasetKind, out: &mut Outcome) {
    let t = Instant::now();
    let dataset = ctx.dataset(kind);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
    let spreads_s = t.elapsed().as_secs_f64();
    let advertisers = rmsa_bench::sweeps::advertisers_for(ctx, kind, ctx.seed ^ 0xAD5);
    let instance_at = |alpha: f64| {
        dataset.build_instance_from_spreads(
            advertisers.clone(),
            &spreads,
            IncentiveModel::Linear,
            alpha,
        )
    };
    let wb = ctx.workbench(&dataset, RrStrategy::Standard);
    let first = instance_at(0.1);
    let t = Instant::now();
    let warm = wb.warm(&first, ctx.rma_max_rr);
    let warm_s = t.elapsed().as_secs_f64();
    let index_s = wb.cache_stats().index_extend_time.as_secs_f64();
    let sampler = UniformRrSampler::new(&first.cpe_values());
    let entries: usize = [RrStream::Optimize, RrStream::Validate]
        .into_iter()
        .map(|stream| {
            wb.cache()
                .with_at_least(wb.graph(), wb.model(), &sampler, stream, 0, |v| {
                    v.arena().total_entries()
                })
                .0
        })
        .sum();
    let generate_s = warm_s - index_s;
    out.metric("datasets.build_s", build_s, "s");
    out.metric("datasets.spreads_s", spreads_s, "s");
    out.metric("graph.nodes", dataset.graph.num_nodes() as f64, "count");
    out.metric("graph.edges", dataset.graph.num_edges() as f64, "count");
    out.metric("diffusion.generate_s", generate_s, "s");
    out.metric("diffusion.rr_sets", warm.generated() as f64, "count");
    out.metric("diffusion.rr_entries", entries as f64, "count");
    out.metric(
        "diffusion.sets_per_s",
        warm.generated() as f64 / generate_s,
        "1/s",
    );
    out.metric("diffusion.index_extend_s", index_s, "s");
    out.metric(
        "diffusion.cache_mib",
        wb.cache().memory_bytes() as f64 / MIB,
        "MiB",
    );

    let rma_config = rmsa_bench::default_rma_config(ctx);
    let (mut rma_ms, mut ob_ms, mut eval_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut middle = None;
    for alpha in crate::gen::PAPER_ALPHAS {
        let instance = instance_at(alpha);
        let evaluator = wb.evaluator(&instance, ctx.eval_rr);
        let t = Instant::now();
        let rma = wb.run_solver(&Rma::new(rma_config.clone()), &instance);
        rma_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let ob = wb.run_solver(
            &OneBatch::new(rma_config.clone(), ctx.rma_max_rr),
            &instance,
        );
        ob_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match (rma, ob) {
            (Ok(rma), Ok(_)) => {
                let t = Instant::now();
                let revenue = evaluator.report(&instance, &rma.allocation).revenue;
                eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.op(match rma.revenue_lower_bound {
                    Some(lb) if lb <= revenue => Ok(()),
                    lb => Err(format!(
                        "probe RMA lower bound {lb:?} above revenue {revenue}"
                    )),
                });
                if alpha == 0.3 {
                    middle = Some(rma);
                }
            }
            (Err(e), _) | (_, Err(e)) => out.op(Err(format!("probe solve failed: {e}"))),
        }
    }
    let t = Instant::now();
    let ti = wb.run_solver(
        &TiCarm::new(rmsa_bench::default_ti_config(ctx)),
        &instance_at(0.3),
    );
    let ti_s = t.elapsed().as_secs_f64();
    out.op(ti.map(|_| ()).map_err(|e| e.to_string()));
    out.metric("core.rma_greedy_ms", median(&rma_ms), "ms");
    out.metric("core.onebatch_greedy_ms", median(&ob_ms), "ms");
    out.metric("core.evaluate_ms", median(&eval_ms), "ms");
    out.metric("core.ti_solve_s", ti_s, "s");
    let (seeds, used) = middle.map_or((f64::NAN, f64::NAN), |r| {
        (r.allocation.total_seeds() as f64, r.rr.used as f64)
    });
    out.metric("core.seeds", seeds, "count");
    out.metric("core.rr_used", used, "count");
}

const MIB: f64 = 1024.0 * 1024.0;

/// Mapped snapshot loads of one session file, median of five.
pub fn store_layer(
    ctx: &ExperimentContext,
    key: SessionKey,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), Stop> {
    let mut ms = Vec::new();
    let mut mapped = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let session = rmsa_service::snapshot::load_session_with(key, ctx, dir, VerifyMode::Lazy)
            .map_err(|e| e.to_string())?
            .ok_or("snapshot file missing")?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        mapped = session.workbench().cache().mapped_bytes();
    }
    out.metric("store.load_mapped_ms", median(&ms), "ms");
    out.metric("store.mapped_mib", mapped as f64 / MIB, "MiB");
    Ok(())
}
