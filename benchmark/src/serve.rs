//! The serve workloads: `serve_hot` and `serve_unique`, closed loops over
//! two connections against a real `rmsa serve` daemon.

use crate::daemon::{self, Conn, Daemon, Layout};
use crate::gen::{self, Solve};
use crate::json::{self, Value};
use crate::outcome::{Outcome, Stop};
use crate::stats::{self, median, quantile, Part};
use crate::sys;
use rmsa_bench::ExperimentContext;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client connections (and client threads) of the closed loops.
pub const CONNECTIONS: usize = 2;
/// Correlation ids of timed requests start here: id = base + index.
pub const TIMED_ID_BASE: u64 = 1_000_000;

/// Serving-context values every serve workload shares: the fixed
/// instance seed, RR-generation threads and daemon workers (one each per
/// CPU of the 2-vCPU reference machine), and the warm and evaluation θ.
pub const SERVE_SEED: u64 = crate::sweep::INSTANCE_SEED;
pub const THREADS: usize = 2;
pub const WORKERS: usize = 2;
pub const WARM_RR: usize = 10_000;
pub const EVAL_RR: usize = 10_000;

/// Context sizes as report JSON.
pub fn ctx_json(ctx: &ExperimentContext) -> String {
    format!(
        "{{\"scale\":{},\"num_ads\":{},\"spread_rr\":{},\"eval_rr\":{},\"threads\":{},\
         \"seed\":{},\"rma_max_rr\":{},\"ti_max_rr\":{},\"rma_epsilon\":{},\"ti_epsilon\":{}}}",
        ctx.scale,
        ctx.num_ads,
        ctx.spread_rr,
        ctx.eval_rr,
        ctx.threads,
        ctx.seed,
        ctx.rma_max_rr,
        ctx.ti_max_rr,
        ctx.rma_epsilon,
        ctx.ti_epsilon
    )
}

/// Allocation digest by timed-request index.
pub type TimedDigests = BTreeMap<u64, String>;
/// Allocation digest by memo class.
pub type ClassDigests = BTreeMap<String, String>;

/// One serve workload.
pub struct ServeSpec {
    pub name: &'static str,
    /// Dataset scale of the daemon's `--quick` serving context.
    pub scale: f64,
    /// Sessions warmed during set-up.
    pub sessions: &'static [&'static str],
    /// Dataset warm-started from a snapshot made before timing.
    pub snapshot: Option<&'static str>,
    /// The α sweep every daemon answers after set-up (primes the memo).
    pub sweep: Vec<Solve>,
    /// Timed request `index` for a seed.
    pub stream: fn(u64, u64) -> Solve,
    /// Daemons started only to time set-up.
    pub setup_only: usize,
    /// Daemons that also answer the α sweep; the last `segments` of them
    /// each serve one timed segment of the closed loop.
    pub daemons: usize,
    pub segments: usize,
    /// True when every timed request must hit the memo, false when none
    /// may.
    pub memo_hits: bool,
}

/// Shortest part of a closed loop, in seconds, that the calm selection
/// keeps or drops as a whole: a few steal samples long.
pub const CALM_SPAN: f64 = 0.05;
/// Smallest group of calm requests a latency percentile is taken over: a
/// p99 over it has thirty samples beyond.
pub const LATENCY_GROUP: usize = 3000;
/// Timed indices of segment `j` start at `j * SEGMENT_STRIDE`, so no
/// index (and no `serve_unique` α) repeats within a run.
pub const SEGMENT_STRIDE: u64 = 1 << 32;

pub fn hot_spec() -> ServeSpec {
    ServeSpec {
        name: "serve_hot",
        scale: 0.3,
        sessions: &gen::HOT_DATASETS,
        snapshot: None,
        sweep: gen::hot_classes(),
        stream: gen::hot_request,
        setup_only: 12,
        daemons: 5,
        segments: 3,
        memo_hits: true,
    }
}

pub fn unique_spec() -> ServeSpec {
    ServeSpec {
        name: "serve_unique",
        scale: 0.6,
        sessions: &[gen::UNIQUE_DATASET],
        snapshot: Some(gen::UNIQUE_DATASET),
        sweep: gen::unique_sweep(),
        stream: gen::unique_request,
        setup_only: 24,
        daemons: 9,
        segments: 3,
        memo_hits: false,
    }
}

/// A daemon serving `cold_sweep`'s dataset at the sweep's scale: the
/// traced `cold_sweep` run takes its daemon-side layer numbers from it.
pub fn cold_serve_spec() -> ServeSpec {
    ServeSpec {
        name: "cold_sweep",
        scale: crate::sweep::context().scale,
        sessions: &[gen::COLD_DATASET],
        snapshot: None,
        sweep: gen::cold_serve_classes(),
        stream: gen::cold_serve_request,
        setup_only: 0,
        daemons: 1,
        segments: 1,
        memo_hits: true,
    }
}

impl ServeSpec {
    /// Context flags, shared by `rmsa serve` and `rmsa snapshot make`.
    pub fn ctx_flags(&self) -> Vec<String> {
        [
            "--quick",
            "--seed",
            &SERVE_SEED.to_string(),
            "--scale",
            &self.scale.to_string(),
            "--threads",
            &THREADS.to_string(),
            "--warm-rr",
            &WARM_RR.to_string(),
            "--eval-rr",
            &EVAL_RR.to_string(),
        ]
        .map(str::to_string)
        .to_vec()
    }

    /// The context those flags resolve to inside the daemon: the quick
    /// serving profile with the flags applied on top.
    pub fn experiment_context(&self) -> ExperimentContext {
        let mut ctx = rmsa_service::tiny_serve_ctx(SERVE_SEED);
        ctx.scale = self.scale;
        ctx.threads = THREADS;
        ctx.rma_max_rr = WARM_RR;
        ctx.eval_rr = EVAL_RR;
        ctx
    }

    pub fn snapshot_dir(&self, layout: &Layout) -> PathBuf {
        layout.out.join(format!("{}-snapshots", self.name))
    }

    /// Flags of `rmsa serve` after `--addr` and `--port-file`.
    pub fn daemon_flags(&self, layout: &Layout, obs: bool) -> Vec<String> {
        let mut flags = self.ctx_flags();
        flags.extend(["--workers".to_string(), WORKERS.to_string()]);
        if self.snapshot.is_some() {
            flags.push("--snapshot-dir".to_string());
            flags.push(self.snapshot_dir(layout).display().to_string());
        }
        if !obs {
            flags.push("--no-obs".to_string());
        }
        flags
    }
}

/// Server-reported phases of one solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub queue: f64,
    pub solve: f64,
    pub batch_size: f64,
    pub batch_wait: f64,
    pub warm: f64,
    pub serialize: f64,
    pub flush: f64,
}

impl Timing {
    fn server_secs(&self) -> f64 {
        self.queue + self.batch_wait + self.warm + self.solve + self.serialize + self.flush
    }
}

/// The checked content of one solve response.
#[derive(Clone, Debug)]
pub struct Observed {
    pub algorithm: String,
    pub digest: String,
    pub revenue: f64,
    pub timing: Timing,
}

/// Parse and check one solve response: `ok`, the echoed id, no RR-set
/// generated, an evaluated revenue, and for RMA a lower bound no larger
/// than that revenue.
pub fn observe(line: &str, id: u64) -> Result<Observed, String> {
    let v = json::parse(line)?;
    if v.get("ok").as_bool() != Some(true) {
        return Err(format!(
            "request {id} failed: {}",
            json::render(v.get("error"))
        ));
    }
    if v.get("id").as_u64() != Some(id) {
        return Err(format!("response id {:?} for request {id}", v.get("id")));
    }
    let r = v.get("result");
    if r.get("rr_generated").as_u64() != Some(0) {
        return Err(format!(
            "request {id} generated RR-sets: {:?}",
            r.get("rr_generated")
        ));
    }
    let revenue = r.num("revenue");
    if !revenue.is_finite() {
        return Err(format!("request {id} has no evaluated revenue"));
    }
    let algorithm = r.get("algorithm").as_str().unwrap_or("").to_string();
    if algorithm == "RMA" {
        let lb = r.num("revenue_lower_bound");
        if lb.is_nan() || lb > revenue {
            return Err(format!(
                "request {id}: RMA lower bound {lb} above revenue {revenue}"
            ));
        }
    }
    let t = v.get("timing");
    Ok(Observed {
        algorithm,
        digest: r
            .get("allocation_digest")
            .as_str()
            .unwrap_or("")
            .to_string(),
        revenue,
        timing: Timing {
            queue: t.num("queue_secs"),
            solve: t.num("solve_secs"),
            batch_size: t.num("batch_size"),
            batch_wait: t.num("batch_wait_secs"),
            warm: t.num("warm_secs"),
            serialize: t.num("serialize_secs"),
            flush: t.num("flush_secs"),
        },
    })
}

/// `rmsa snapshot make` for the spec's snapshot dataset.
pub fn make_snapshot(layout: &Layout, bin: &Path, spec: &ServeSpec) -> Result<Vec<String>, Stop> {
    let Some(dataset) = spec.snapshot else {
        return Ok(Vec::new());
    };
    let dir = spec.snapshot_dir(layout);
    let _ = std::fs::remove_dir_all(&dir);
    let mut args: Vec<String> = vec![
        "snapshot".into(),
        "make".into(),
        "--dir".into(),
        dir.display().to_string(),
        "--dataset".into(),
        dataset.into(),
    ];
    args.extend(spec.ctx_flags());
    let out = daemon::rmsa_command(bin)
        .args(&args)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| Stop::Setup(format!("snapshot make: {e}")))?;
    if !out.status.success() {
        return Err(format!(
            "snapshot make failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    Ok(args)
}

/// A started daemon with its set-up time and sweep results.
pub struct Started {
    pub daemon: Daemon,
    pub setup_s: f64,
    /// Steal ticks during set-up and during the sweep.
    pub setup_stolen: u64,
    pub sweep_stolen: u64,
    /// Wall time of the α sweep.
    pub sweep_s: f64,
    /// Σ server-side RMA solve time over the sweep.
    pub rma_s: f64,
    /// Memo class → allocation digest from the sweep.
    pub digests: ClassDigests,
}

/// Spawn a daemon and warm every session (set-up ends when all answer);
/// with `sweep`, then answer the spec's α sweep sequentially on one
/// connection.
pub fn start(
    layout: &Layout,
    bin: &Path,
    spec: &ServeSpec,
    obs: bool,
    sweep: bool,
    out: &mut Outcome,
) -> Result<Started, Stop> {
    let port_file = layout.out.join(format!("{}.port", spec.name));
    let steal0 = sys::steal_ticks();
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, &spec.daemon_flags(layout, obs), &port_file)?;
    let mut conn = daemon.connect()?;
    for (i, dataset) in spec.sessions.iter().enumerate() {
        conn.send(&daemon::warm_request(i as u64 + 1, dataset))?;
    }
    let mut warms = Vec::new();
    for _ in spec.sessions {
        warms.push(json::parse(conn.recv()?)?);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_stolen = sys::stolen_since(steal0);
    for (i, w) in warms.iter().enumerate() {
        let from_snapshot = spec.snapshot.is_some();
        out.op(if w.get("ok").as_bool() != Some(true) {
            Err(format!(
                "warm {} failed: {}",
                spec.sessions[i],
                json::render(w)
            ))
        } else if from_snapshot && w.get("generated").as_u64() != Some(0) {
            Err(format!(
                "snapshot session {} was rebuilt cold",
                spec.sessions[i]
            ))
        } else {
            Ok(())
        });
    }
    let steal1 = sys::steal_ticks();
    let t = Instant::now();
    let mut rma_s = 0.0;
    let mut digests = BTreeMap::new();
    let solves = if sweep { spec.sweep.as_slice() } else { &[] };
    for (j, solve) in solves.iter().enumerate() {
        let id = 100 + j as u64;
        let line = conn.call(&solve.line(id))?.to_string();
        let result = observe(&line, id).map(|o| {
            if o.algorithm == "RMA" {
                rma_s += o.timing.solve;
            }
            digests.insert(solve.class_key(), o.digest);
        });
        out.op(result);
    }
    let sweep_s = t.elapsed().as_secs_f64();
    let sweep_stolen = sys::stolen_since(steal1);
    Ok(Started {
        daemon,
        setup_s,
        setup_stolen,
        sweep_stolen,
        sweep_s,
        rma_s,
        digests,
    })
}

/// Results of one closed loop.
#[derive(Default)]
pub struct LoopResult {
    pub completed: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Client latency per request, in completion order.
    pub latency_ms: Vec<f64>,
    /// Completion time of each request since the loop started, sorted.
    pub done_s: Vec<f64>,
    /// Server-side solve time of each RMA request.
    pub rma_solve_s: Vec<f64>,
    pub timings: Vec<Timing>,
    pub revenues: Vec<f64>,
    /// Client latency minus the server-reported phases, µs.
    pub residual_us: Vec<f64>,
    /// Timed-request index → digest, for indices below the loop's `keep`.
    pub digests: TimedDigests,
    pub sample_requests: Vec<String>,
    pub sample_responses: Vec<String>,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// Host steal sampled through the loop, on the `done_s` clock.
    pub steal: sys::StealLog,
}

/// Closed loop over [`CONNECTIONS`] connections for `seconds`: connection
/// `c` sends timed requests `first + c, first + c + CONNECTIONS, …` back
/// to back. With a primed memo, each digest must equal the sweep's for
/// its class. Digests and lines of indices below `first + keep` are kept.
pub fn closed_loop(
    addr: &str,
    spec: &ServeSpec,
    seed: u64,
    first: u64,
    seconds: f64,
    primed: &ClassDigests,
    keep: usize,
) -> LoopResult {
    let cpu0 = sys::self_cpu_secs();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let sampling = AtomicBool::new(false);
    let (parts, steal) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sys::StealLog::record(start, &sampling));
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut r = LoopResult::default();
                    let mut conn = match Conn::open(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            r.failed += 1;
                            r.messages.push(e);
                            return r;
                        }
                    };
                    let mut index = first + c as u64;
                    while start.elapsed() < deadline {
                        let solve = (spec.stream)(seed, index);
                        let id = TIMED_ID_BASE + index;
                        let request = solve.line(id);
                        let t = Instant::now();
                        let line = match conn.call(&request) {
                            Ok(line) => line.to_string(),
                            Err(e) => {
                                r.failed += 1;
                                r.messages.push(e);
                                break;
                            }
                        };
                        let latency = t.elapsed().as_secs_f64();
                        let checked = observe(&line, id).and_then(|o| {
                            if spec.memo_hits {
                                let want = primed.get(&solve.class_key());
                                if want != Some(&o.digest) {
                                    return Err(format!(
                                        "request {id}: digest {} differs from primed {want:?}",
                                        o.digest
                                    ));
                                }
                            }
                            Ok(o)
                        });
                        match checked {
                            Ok(o) => {
                                r.completed += 1;
                                r.latency_ms.push(latency * 1e3);
                                r.done_s.push(start.elapsed().as_secs_f64());
                                if o.algorithm == "RMA" {
                                    r.rma_solve_s.push(o.timing.solve);
                                }
                                r.residual_us.push((latency - o.timing.server_secs()) * 1e6);
                                r.revenues.push(o.revenue);
                                r.timings.push(o.timing);
                                if index < first + keep as u64 {
                                    r.digests.insert(index, o.digest);
                                    r.sample_requests.push(request);
                                    r.sample_responses.push(line);
                                }
                            }
                            Err(e) => {
                                r.failed += 1;
                                if r.messages.len() < 5 {
                                    r.messages.push(e);
                                }
                            }
                        }
                        index += CONNECTIONS as u64;
                    }
                    r
                })
            })
            .collect();
        let parts: Vec<LoopResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect();
        sampling.store(true, Ordering::Relaxed);
        (parts, sampler.join().expect("steal sampler does not panic"))
    });
    let mut total = LoopResult {
        elapsed_s: start.elapsed().as_secs_f64(),
        steal,
        ..LoopResult::default()
    };
    let mut samples: Vec<(f64, f64)> = Vec::new();
    for p in parts {
        total.completed += p.completed;
        total.failed += p.failed;
        total.messages.extend(p.messages);
        samples.extend(p.done_s.into_iter().zip(p.latency_ms));
        total.rma_solve_s.extend(p.rma_solve_s);
        total.timings.extend(p.timings);
        total.revenues.extend(p.revenues);
        total.residual_us.extend(p.residual_us);
        total.digests.extend(p.digests);
        total.sample_requests.extend(p.sample_requests);
        total.sample_responses.extend(p.sample_responses);
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    (total.done_s, total.latency_ms) = samples.into_iter().unzip();
    total.cpu_s = sys::self_cpu_secs() - cpu0;
    total
}

/// Fold a loop's counts and failures into the outcome.
fn account(out: &mut Outcome, r: &LoopResult) {
    out.attempted += r.completed + r.failed;
    out.failed += r.failed;
    for m in &r.messages {
        out.message(m.clone());
    }
}

/// Memo hits / solves between two `metrics` answers.
fn memo_ratio(before: &Value, after: &Value) -> (f64, u64, u64) {
    let hits = daemon::counter(after, "memo_hits") - daemon::counter(before, "memo_hits");
    let misses = daemon::counter(after, "memo_misses") - daemon::counter(before, "memo_misses");
    let solves = hits + misses;
    let ratio = if solves == 0 {
        f64::NAN
    } else {
        hits as f64 / solves as f64
    };
    (ratio, hits, misses)
}

fn check_memo_ratio(out: &mut Outcome, spec: &ServeSpec, ratio: f64) {
    if spec.memo_hits {
        out.check(ratio >= 0.99, || {
            format!("memo hit ratio {ratio} below 0.99")
        });
    } else {
        out.check(ratio == 0.0, || format!("memo hit ratio {ratio} is not 0"));
    }
}

fn quantile_json(q: stats::Quantile) -> String {
    format!(
        "{{\"value\":{},\"samples\":{},\"beyond\":{}}}",
        json::num(q.value),
        q.samples,
        q.beyond
    )
}

fn args_json(args: &[String]) -> String {
    json::render(&Value::Arr(args.iter().cloned().map(Value::Str).collect()))
}

fn describe(out: &mut Outcome, spec: &ServeSpec, daemon_args: &[String], snapshot_args: &[String]) {
    out.info("daemon_args", args_json(daemon_args));
    if !snapshot_args.is_empty() {
        out.info("snapshot_make_args", args_json(snapshot_args));
    }
    out.info("daemon_context", ctx_json(&spec.experiment_context()));
    out.info_num("connections", CONNECTIONS as f64);
    out.info_num("sweep_requests_per_daemon", spec.sweep.len() as f64);
}

/// One timed segment of the untraced run.
struct Segment {
    result: LoopResult,
    hits: u64,
    misses: u64,
    rss_mib: f64,
}

/// The untraced run: end-to-end metrics. Set-up is timed on every daemon
/// started and the α sweep on each of `daemons`; the closed loop runs as
/// `segments` segments, one on each of the last daemons.
pub fn run(
    layout: &Layout,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), Stop> {
    let bin = layout.daemon_binary()?;
    let snapshot_args = make_snapshot(layout, &bin, spec)?;
    let mut setups = Vec::new();
    for _ in 0..spec.setup_only {
        let started = start(layout, &bin, spec, true, false, out)?;
        setups.push(Part {
            value: started.setup_s,
            stolen: started.setup_stolen,
        });
        started.daemon.shutdown()?;
    }
    let (mut sweeps, mut rma) = (Vec::new(), Vec::new());
    let mut reference: Option<ClassDigests> = None;
    let mut segments = Vec::new();
    let mut daemon_args = Vec::new();
    for k in 0..spec.daemons {
        let started = start(layout, &bin, spec, true, true, out)?;
        setups.push(Part {
            value: started.setup_s,
            stolen: started.setup_stolen,
        });
        sweeps.push(Part {
            value: started.sweep_s,
            stolen: started.sweep_stolen,
        });
        rma.push(Part {
            value: started.rma_s,
            stolen: started.sweep_stolen,
        });
        match &reference {
            None => reference = Some(started.digests.clone()),
            Some(r) => out.check(r == &started.digests, || {
                format!("daemon {k} answered the α sweep with different digests")
            }),
        }
        if k + spec.segments >= spec.daemons {
            let j = (k + spec.segments - spec.daemons) as u64;
            let daemon = &started.daemon;
            let mut control = daemon.connect()?;
            let before = control.call_json(&daemon::metrics_request(2))?;
            let result = closed_loop(
                &daemon.addr,
                spec,
                seed,
                j * SEGMENT_STRIDE,
                seconds / spec.segments as f64,
                &started.digests,
                0,
            );
            let after = control.call_json(&daemon::metrics_request(3))?;
            let (_, hits, misses) = memo_ratio(&before, &after);
            account(out, &result);
            segments.push(Segment {
                result,
                hits,
                misses,
                rss_mib: sys::peak_rss_mib(daemon.pid).unwrap_or(f64::NAN),
            });
        }
        daemon_args = started.daemon.args.clone();
        started.daemon.shutdown()?;
    }
    describe(out, spec, &daemon_args, &snapshot_args);

    let (hits, misses) = segments
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    check_memo_ratio(out, spec, hits as f64 / (hits + misses) as f64);
    // Throughput and latency percentiles come from the calm parts of the
    // run (see `stats::calm`): throughput is the median over those parts,
    // and each percentile the median over consecutive groups of their
    // requests. Neither a burst of machine noise in one part of the run
    // nor the share of it during which the host took the CPUs away moves
    // them.
    let (mut parts, mut stolen) = (Vec::new(), Vec::new());
    for (k, s) in segments.iter().enumerate() {
        let r = &s.result;
        let mut end = 0.0;
        for range in stats::span_ranges(&r.done_s, CALM_SPAN) {
            let to = r.done_s[range.end - 1];
            let sent = range
                .clone()
                .map(|i| r.done_s[i] - r.latency_ms[i] / 1e3)
                .fold(end, f64::min);
            stolen.push(r.steal.stolen(sent, to));
            parts.push((k, range.clone(), range.len() as f64 / (to - end)));
            end = to;
        }
    }
    let calm = stats::calm(parts, &stolen);
    let rates: Vec<f64> = calm.iter().map(|part| part.2).collect();
    let latencies: Vec<f64> = calm
        .iter()
        .flat_map(|(k, range, _)| segments[*k].result.latency_ms[range.clone()].iter())
        .copied()
        .collect();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut smallest: Option<stats::Quantile> = None;
    for range in stats::chunk_ranges(latencies.len(), LATENCY_GROUP) {
        let group = &latencies[range];
        let p99 = quantile(group, 0.99);
        p50s.push(quantile(group, 0.5).value);
        p99s.push(p99.value);
        if smallest.is_none_or(|q| p99.samples < q.samples) {
            smallest = Some(p99);
        }
    }
    let p99_group = smallest.unwrap_or(quantile(&[], 0.99));
    out.check(p99_group.beyond >= 10, || {
        format!("only {} samples beyond p99 (need 10)", p99_group.beyond)
    });
    let timed: usize = segments.iter().map(|s| s.result.latency_ms.len()).sum();
    let stolen_s: f64 = segments
        .iter()
        .map(|s| s.result.steal.stolen(0.0, f64::INFINITY) as f64 / 100.0)
        .sum();
    let rma_solve_s: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.result.rma_solve_s.clone())
        .collect();
    let revenues: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.result.revenues.clone())
        .collect();
    out.info_num("timed_requests", timed as f64);
    out.info_num("parts", stolen.len() as f64);
    out.info_num("parts_calm", calm.len() as f64);
    out.info_num("timed_requests_calm", latencies.len() as f64);
    out.info_num("latency_groups", p50s.len() as f64);
    out.info("latency_p99_ms_smallest_group", quantile_json(p99_group));
    out.info_num("loop_cpu_stolen_s", stolen_s);
    out.info_num("memo_hits", hits as f64);
    out.info_num("memo_misses", misses as f64);
    out.info("setup_s_samples", parts_json(&setups));
    out.info("sweep_s_samples", parts_json(&sweeps));
    out.info("sweep_rma_s_samples", parts_json(&rma));

    out.metric("throughput_rps", median(&rates), "req/s");
    out.metric("latency_p50_ms", median(&p50s), "ms");
    out.metric("latency_p99_ms", median(&p99s), "ms");
    out.metric("setup_s", stats::calm_median(&setups), "s");
    let rss: Vec<f64> = segments.iter().map(|s| s.rss_mib).collect();
    out.metric("peak_rss_mib", median(&rss), "MiB");
    out.metric("run_s", stats::calm_median(&sweeps), "s");
    // RMA time for the paper's five α: on serve_hot the timed RMA requests
    // are memo hits, so it comes from the priming sweep (per dataset and
    // incentive); on serve_unique every timed request is a real solve.
    let rma_s = if spec.memo_hits {
        stats::calm_median(&rma) * 5.0
            / (spec.sweep.iter().filter(|s| s.algorithm == "rma").count() as f64)
    } else {
        5.0 * median(&rma_solve_s)
    };
    out.metric("rma_s", rma_s, "s");
    out.metric("revenue_mean", stats::mean(&revenues), "revenue");
    Ok(())
}

pub fn nums_json(xs: &[f64]) -> String {
    json::render(&Value::Arr(xs.iter().map(|x| Value::Num(*x)).collect()))
}

/// Measured values with the steal ticks during each, as report JSON.
pub fn parts_json(parts: &[Part]) -> String {
    let values: Vec<f64> = parts.iter().map(|p| p.value).collect();
    let stolen: Vec<f64> = parts.iter().map(|p| p.stolen as f64).collect();
    format!(
        "{{\"values\":{},\"stolen_ticks\":{}}}",
        nums_json(&values),
        nums_json(&stolen)
    )
}

/// Ping round trips over [`CONNECTIONS`] connections, µs.
fn ping_rtts(addr: &str, per_connection: usize) -> Result<Vec<f64>, String> {
    let parts: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr)?;
                    let mut rtts = Vec::with_capacity(per_connection);
                    for i in 0..per_connection {
                        let request = daemon::ping_request(i as u64 + 1);
                        let t = Instant::now();
                        let line = conn.call(&request)?;
                        let rtt = t.elapsed().as_secs_f64() * 1e6;
                        if !line.contains("\"ok\":true") {
                            return Err(format!("ping failed: {line}"));
                        }
                        rtts.push(rtt);
                    }
                    Ok(rtts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping thread does not panic"))
            .collect()
    });
    let mut all = Vec::new();
    for p in parts {
        all.extend(p?);
    }
    Ok(all)
}

/// Mean µs per call of `f` over `lines`, repeated until at least
/// `min_secs` of work has been timed.
fn per_line_us<T>(lines: &[T], min_secs: f64, mut f: impl FnMut(&T)) -> f64 {
    if lines.is_empty() {
        return f64::NAN;
    }
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed().as_secs_f64() < min_secs {
        for line in lines {
            f(line);
        }
        calls += lines.len();
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// The traced run of a serve workload: the daemon-side layers, then the
/// in-process replay and the library layer probes.
pub fn run_traced(
    layout: &Layout,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), Stop> {
    let replay_n = if spec.memo_hits { 20_000 } else { 120 };
    let (timed, sweep) = daemon_layers(layout, spec, seed, seconds / 6.0, replay_n, out)?;
    crate::replay::serve(layout, spec, seed, &timed, &sweep, out)
}

/// Per-layer metrics of the daemon: pings with no solver, the server's
/// timing blocks and memo counters over an obs-on closed loop, a paired
/// obs-off loop, and the wire codec on the loop's own lines. Returns the
/// loop's digests by timed index (the first `keep`) and the sweep's
/// digests by class, for the replay to check against.
pub fn daemon_layers(
    layout: &Layout,
    spec: &ServeSpec,
    seed: u64,
    loop_secs: f64,
    keep: usize,
    out: &mut Outcome,
) -> Result<(TimedDigests, ClassDigests), Stop> {
    let bin = layout.daemon_binary()?;
    let snapshot_args = make_snapshot(layout, &bin, spec)?;
    let on = start(layout, &bin, spec, true, true, out)?;
    describe(out, spec, &on.daemon.args, &snapshot_args);
    let loop_secs = loop_secs.max(1.0);

    let rtts = ping_rtts(&on.daemon.addr, 2_000)?;
    out.attempted += rtts.len() as u64;
    let ping50 = quantile(&rtts, 0.5);
    let ping99 = quantile(&rtts, 0.99);
    out.info("ping_rtt_us_p50", quantile_json(ping50));
    out.info("ping_rtt_us_p99", quantile_json(ping99));

    let mut control = on.daemon.connect()?;
    let before = control.call_json(&daemon::metrics_request(2))?;
    let r = closed_loop(&on.daemon.addr, spec, seed, 0, loop_secs, &on.digests, keep);
    let after = control.call_json(&daemon::metrics_request(3))?;
    drop(control);
    account(out, &r);
    let (ratio, _, _) = memo_ratio(&before, &after);
    check_memo_ratio(out, spec, ratio);
    let sweep_digests = on.digests.clone();
    on.daemon.shutdown()?;

    let off = start(layout, &bin, spec, false, true, out)?;
    out.check(off.digests == sweep_digests, || {
        "the --no-obs daemon answered the α sweep with different digests".to_string()
    });
    let r_off = closed_loop(&off.daemon.addr, spec, seed, 0, loop_secs, &off.digests, 0);
    off.daemon.shutdown()?;
    account(out, &r_off);
    let thr_on = r.completed as f64 / r.elapsed_s;
    let thr_off = r_off.completed as f64 / r_off.elapsed_s;
    out.info_num("obs_on_rps", thr_on);
    out.info_num("obs_off_rps", thr_off);

    let parse_us = per_line_us(&r.sample_requests, 0.2, |line| {
        let parsed = rmsa_service::wire::Request::parse_versioned(line);
        std::hint::black_box(parsed.is_ok());
    });
    let responses: Vec<rmsa_service::wire::Response> = r
        .sample_responses
        .iter()
        .filter_map(|l| rmsa_service::wire::Response::parse(l).ok())
        .collect();
    out.check(responses.len() == r.sample_responses.len(), || {
        "the program's wire parser rejected a daemon response".to_string()
    });
    let render_us = per_line_us(&responses, 0.2, |resp| {
        std::hint::black_box(resp.render_for(2).len());
    });
    let bytes: Vec<f64> = r
        .sample_responses
        .iter()
        .map(|l| l.len() as f64 + 1.0)
        .collect();

    let queue_ms: Vec<f64> = r.timings.iter().map(|t| t.queue * 1e3).collect();
    let batch_wait_ms: Vec<f64> = r.timings.iter().map(|t| t.batch_wait * 1e3).collect();
    let batch_sizes: Vec<f64> = r.timings.iter().map(|t| t.batch_size).collect();
    let solve_ms: Vec<f64> = r.timings.iter().map(|t| t.solve * 1e3).collect();
    out.metric("event_loop.ping_rtt_us_p50", ping50.value, "us");
    out.metric("event_loop.ping_rtt_us_p99", ping99.value, "us");
    out.metric("wire.parse_us", parse_us, "us");
    out.metric("wire.render_us", render_us, "us");
    out.metric("wire.response_bytes", stats::mean(&bytes), "bytes");
    out.metric("server.queue_ms_p50", quantile(&queue_ms, 0.5).value, "ms");
    out.metric("server.queue_ms_p99", quantile(&queue_ms, 0.99).value, "ms");
    out.metric(
        "server.batch_wait_ms_p99",
        quantile(&batch_wait_ms, 0.99).value,
        "ms",
    );
    out.metric("server.batch_size_mean", stats::mean(&batch_sizes), "count");
    out.metric("session.memo_hit_ratio", ratio, "ratio");
    out.metric("session.solve_ms_p50", quantile(&solve_ms, 0.5).value, "ms");
    out.metric(
        "session.solve_ms_p99",
        quantile(&solve_ms, 0.99).value,
        "ms",
    );
    out.metric(
        "client.residual_us_p50",
        quantile(&r.residual_us, 0.5).value,
        "us",
    );
    out.metric("client.cpu_s", r.cpu_s, "s");
    out.metric("obs.overhead_frac", 1.0 - thr_on / thr_off, "ratio");
    out.info(
        "samples",
        format!(
            "{{\"ping\":{},\"loop\":{},\"loop_obs_off\":{},\"wire_lines\":{}}}",
            rtts.len(),
            r.completed,
            r_off.completed,
            r.sample_requests.len()
        ),
    );
    Ok((r.digests, sweep_digests))
}
