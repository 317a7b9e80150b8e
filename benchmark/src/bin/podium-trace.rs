//! The traced run: the workload with spans recorded around each request,
//! then the layer pass, which times each layer's public functions from
//! outside on the run's final repository, the same way on every workload.
//!
//! Usage: `podium-trace --workload W --seed N --seconds S --trace 1
//! [--quick] [--trace-dir DIR]`.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use podium_benchmark::inputs::{select_line, session_groups, UpdateStream, SALT_SESSIONS};
use podium_benchmark::report::run_main;
use podium_benchmark::rng::Rng;
use podium_benchmark::stats::{median, sorted};
use podium_benchmark::trace::{RequestSpans, Tracer};
use podium_benchmark::workloads::{op_percentiles, service_config, Metric, Plan, ScratchDir};
use podium_core::bucket::BucketingConfig;
use podium_core::customize::{custom_select, Feedback};
use podium_core::engine::{
    anneal_refine, constrained_lazy_select, lazy_select_csr, AnnealSchedule, CsrGraph, Quota,
    QuotaBound, QuotaSet,
};
use podium_core::explain::SelectionReport;
use podium_core::group::GroupSet;
use podium_core::ids::GroupId;
use podium_core::instance::DiversificationInstance;
use podium_core::pipeline::Podium;
use podium_core::profile::UserRepository;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::json::{profiles_from_json, profiles_to_json};
use podium_service::protocol::{num_f64, num_u64, ok_response, parse_request, string_array};
use podium_service::recovery::{recover, write_checkpoint};
use podium_service::snapshot::{ProfileUpdate, PublishMode, RepositoryWriter, SelectParams};
use podium_service::wal::{FsyncPolicy, WalWriter};
use podium_service::PodiumService;

/// Repetitions of each pipeline stage (the median is reported).
const STAGE_REPS: usize = 3;
/// Repetitions of each engine probe.
const ENGINE_REPS: usize = 15;
/// Repetitions of each request-path probe.
const PATH_REPS: usize = 200;
/// Slate size of every probe.
const BUDGET: usize = 8;

/// Timed calls, each recorded as a span under the pass's root span.
struct Pass<'t> {
    spans: RequestSpans,
    root: usize,
    started: Instant,
    tracer: &'t Tracer,
    metrics: Vec<Metric>,
}

impl Pass<'_> {
    /// Runs `f`, records its span and returns its value and duration in µs.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = black_box(f());
        let t1 = Instant::now();
        self.spans.span(self.root, name, t0, t1);
        (out, (t1 - t0).as_secs_f64() * 1e6)
    }

    /// Runs `f` `reps` times and returns the last value and every duration.
    fn repeat<T>(
        &mut self,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, Vec<f64>) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let (v, us) = self.time(name, &mut f);
            times.push(us);
            last = Some(v);
        }
        (last.expect("reps is positive"), times)
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric::new(name, unit, value, samples));
    }

    /// Median of µs samples, reported in `unit` (`us` or `ms`).
    fn median(&mut self, name: &str, unit: &'static str, us: &[f64]) {
        let scale = if unit == "ms" { 1e-3 } else { 1.0 };
        self.push(name, unit, median(us).unwrap_or(0.0) * scale, us.len());
    }

    /// p50 and p99 of µs samples as `<prefix>_p50_us` and `<prefix>_p99_us`.
    fn p50_p99(&mut self, prefix: &str, us: Vec<f64>) {
        self.metrics
            .extend(op_percentiles(prefix, 99, &sorted(us), "us"));
    }

    fn finish(mut self) -> Vec<Metric> {
        self.spans.set(self.root, self.started, Instant::now());
        self.tracer.commit(self.spans);
        self.metrics
    }
}

/// The layer pass. Probes use the run's final repository, its bucketing,
/// the seeded update stream and the session workload's quota shape.
fn layer_pass(
    plan: &Plan,
    repo: UserRepository,
    bucketing: BucketingConfig,
    tracer: &Tracer,
) -> Result<Vec<Metric>, String> {
    let mut spans = tracer.request(1 << 62);
    let started = Instant::now();
    let root = spans.span(0, "layer_pass", started, started);
    let mut p = Pass {
        spans,
        root,
        started,
        tracer,
        metrics: Vec::new(),
    };

    // Pipeline stages.
    let (json, us) = p.repeat("recovery.checkpoint_serialize", STAGE_REPS, || {
        profiles_to_json(&repo)
    });
    let json = json.map_err(|e| format!("profiles_to_json: {e}"))?;
    p.median("recovery.checkpoint_serialize_ms", "ms", &us);
    let (loaded, us) = p.repeat("json.load", STAGE_REPS, || profiles_from_json(&json));
    loaded.map_err(|e| format!("profiles_from_json: {e}"))?;
    p.median("json.load_ms", "ms", &us);
    let (buckets, us) = p.repeat("bucket.bucketize", STAGE_REPS, || {
        bucketing.bucketize(&repo)
    });
    p.median("bucket.bucketize_ms", "ms", &us);
    let (groups, us) = p.repeat("group.build", STAGE_REPS, || {
        GroupSet::build(&repo, &buckets)
    });
    p.median("group.build_ms", "ms", &us);
    p.push("group.count", "count", groups.len() as f64, 1);
    let (csr, us) = p.repeat("csr.build", STAGE_REPS, || {
        CsrGraph::from_group_set(&groups)
    });
    p.median("csr.build_ms", "ms", &us);
    p.push("csr.edges", "count", csr.edge_count() as f64, 1);

    // Engine.
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        BUDGET,
    );
    let (selection, us) = p.repeat("engine.celf", ENGINE_REPS, || {
        lazy_select_csr(&inst, &csr, BUDGET, None)
    });
    p.median("engine.celf_us", "us", &us);
    let [floor, ceiling, must_not, priority] =
        session_groups(&mut Rng::new(plan.seed, SALT_SESSIONS), groups.len());
    let quotas = vec![
        Quota {
            group: floor,
            min: QuotaBound::Count(1),
            max: None,
        },
        Quota {
            group: ceiling,
            min: QuotaBound::Count(0),
            max: Some(QuotaBound::Count(2)),
        },
    ];
    let quotas =
        QuotaSet::build(quotas, groups.len(), BUDGET).map_err(|e| format!("quotas: {e:?}"))?;
    let (greedy, us) = p.repeat("engine.constrained", ENGINE_REPS, || {
        constrained_lazy_select(&inst, &csr, BUDGET, &quotas)
    });
    let greedy = greedy.map_err(|e| format!("constrained select: {e:?}"))?;
    p.median("engine.constrained_us", "us", &us);
    let schedule = AnnealSchedule {
        seed: plan.seed,
        steps: 256,
        t0: 0.05,
        cooling: 0.98,
    };
    let (_, us) = p.repeat("engine.anneal", ENGINE_REPS, || {
        anneal_refine(&inst, &csr, &quotas, &greedy, &schedule)
    });
    p.median("engine.anneal_us", "us", &us);
    let feedback = Feedback {
        must_not: vec![GroupId(must_not)],
        priority: vec![GroupId(priority)],
        ..Feedback::default()
    };
    let (custom, us) = p.repeat("customize.refine", ENGINE_REPS, || {
        custom_select(
            &repo,
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            BUDGET,
            &feedback,
        )
    });
    custom.map_err(|e| format!("custom select: {e}"))?;
    p.median("customize.refine_us", "us", &us);
    let (_, us) = p.repeat("explain.build", STAGE_REPS, || {
        SelectionReport::build(&inst, &repo, &selection, 200)
    });
    p.median("explain.build_ms", "ms", &us);
    drop(inst);
    drop((csr, groups));
    // The pipeline's own select (the default engine) on a fitted model.
    let fitted = Podium::new().bucketing(bucketing).fit(&repo);
    let (_, us) = p.repeat("engine.select", STAGE_REPS, || fitted.select(BUDGET));
    p.median("engine.select_ms", "ms", &us);
    drop(fitted);

    // Request path, on an idle service.
    let (service, us) = p.time("setup.service_new", || {
        PodiumService::new(repo.clone(), &buckets, service_config())
    });
    p.push("setup.service_new_ms", "ms", us / 1e3, 1);
    let line = select_line(BUDGET as u64, "lbs");
    let (_, us) = p.repeat("protocol.decode", PATH_REPS, || parse_request(&line));
    p.median("protocol.decode_us", "us", &us);
    let served = service.store().load().select(
        &SelectParams {
            budget: BUDGET,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        },
        None,
    );
    let served = served.map_err(|e| format!("select: {e}"))?;
    let (_, us) = p.repeat("protocol.encode", PATH_REPS, || {
        ok_response(vec![
            ("epoch", num_u64(served.epoch)),
            ("users", string_array(&served.names)),
            ("score", num_f64(served.selection.score)),
            ("elapsed_us", num_u64(1)),
        ])
    });
    p.median("protocol.encode_us", "us", &us);
    let (snapshot, us) = p.repeat("snapshot.capture", PATH_REPS, || service.store().load());
    p.median("snapshot.capture_us", "us", &us);
    let params = SelectParams {
        budget: BUDGET,
        weight: WeightScheme::LinearBySize,
        cov: CovScheme::Single,
        quota_hash: 0,
    };
    let (_, us) = p.repeat("snapshot.memo_hit", PATH_REPS, || {
        snapshot.select(&params, None)
    });
    p.median("snapshot.memo_hit_us", "us", &us);
    // Queue wait and depth under two closed-loop clients, as in
    // hot_select: submit to start of a job that only reads the clock.
    let stop = AtomicBool::new(false);
    let (waits, depth_max) = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    black_box(service.handle_line(&line));
                }
            });
        }
        let mut probe = || -> Result<(Vec<f64>, usize), String> {
            let mut waits = Vec::with_capacity(PATH_REPS);
            let mut depth_max = 0;
            for _ in 0..PATH_REPS {
                depth_max = depth_max.max(service.executor().queue_depth());
                let (started, _) = p.time("executor.queue_wait", || {
                    let submitted = Instant::now();
                    service
                        .executor()
                        .run(|_| Instant::now())
                        .map(|s| (s - submitted).as_secs_f64() * 1e6)
                });
                waits.push(started.map_err(|e| format!("executor probe: {e}"))?);
            }
            Ok((waits, depth_max))
        };
        let result = probe();
        stop.store(true, Ordering::Relaxed);
        result
    })?;
    p.p50_p99("executor.queue_wait", waits);
    p.push(
        "executor.queue_depth_max",
        "count",
        depth_max as f64,
        PATH_REPS,
    );
    drop((snapshot, service));

    // Publish path: replay the seeded update stream through a side writer.
    let reps = if plan.quick { 32 } else { 128 };
    let mut stream = UpdateStream::new(&repo, plan.seed);
    let updates: Vec<ProfileUpdate> = (0..reps)
        .map(|_| {
            let (user, property, score) = stream.next_update();
            ProfileUpdate {
                user,
                property,
                score: Some(score),
            }
        })
        .collect();
    let (_store, mut writer) =
        RepositoryWriter::with_mode(repo.clone(), &buckets, PublishMode::Incremental);
    let (mut validate, mut apply, mut publish, mut patch) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for u in &updates {
        let (ok, us) = p.time("writer.validate", || writer.validate(u));
        ok.map_err(|e| format!("validate: {e}"))?;
        validate.push(us);
        let (ok, us) = p.time("writer.apply", || writer.apply(u));
        ok.map_err(|e| format!("apply: {e}"))?;
        apply.push(us);
        let (_, us) = p.time("writer.publish", || writer.publish());
        publish.push(us);
        patch.push(writer.publish_stats().last.csr_patch_micros as f64);
    }
    p.median("writer.validate_us", "us", &validate);
    p.median("writer.apply_us", "us", &apply);
    p.p50_p99("writer.publish", publish);
    p.median("writer.csr_patch_us", "us", &patch);
    drop(writer);

    // WAL and recovery, in a side data directory.
    let dir = ScratchDir::new("layer-pass").map_err(|e| format!("scratch dir: {e}"))?;
    let (_, us) = p.time("recovery.checkpoint_write", || {
        write_checkpoint(&dir.0, 0, 0, &json)
    });
    p.push("recovery.checkpoint_write_ms", "ms", us / 1e3, 1);
    let mut wal =
        WalWriter::open(&dir.0, FsyncPolicy::Always, 1, 0).map_err(|e| format!("wal: {e}"))?;
    let mut appends = Vec::with_capacity(updates.len());
    for (i, u) in updates.iter().enumerate() {
        let (ok, us) = p.time("wal.append", || wal.append(i as u64 + 1, vec![u.clone()]));
        ok.map_err(|e| format!("wal append: {e}"))?;
        appends.push(us);
    }
    p.push(
        "wal.bytes_per_update",
        "bytes",
        wal.bytes_written() as f64 / updates.len() as f64,
        updates.len(),
    );
    p.p50_p99("wal.append", appends);
    drop(wal);
    let (recovered, us) = p.time("recovery.recover", || {
        recover(&dir.0, repo.clone(), &buckets, PublishMode::Incremental)
    });
    let (_, _, report) = recovered.map_err(|e| format!("recover: {e}"))?;
    if report.recovered_epoch != updates.len() as u64 {
        return Err(format!(
            "recovery reached epoch {} after {} logged updates",
            report.recovered_epoch,
            updates.len()
        ));
    }
    p.push("recovery.recover_ms", "ms", us / 1e3, 1);
    p.push(
        "recovery.replayed_frames",
        "count",
        report.replayed_frames as f64,
        1,
    );
    Ok(p.finish())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_main(&args, Some(layer_pass))
}
