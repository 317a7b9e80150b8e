//! The experiment driver: regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! experiments <id> [--scale X] [--budget B] [--seed S]
//! ```
//! where `<id>` is one of `table2`, `fig3a`, `fig3b`, `fig3c`, `fig3d`,
//! `fig4`, `fig5`, `fig6`, `approx`, `optscale`, `ablation`, `drift`,
//! `constrained`, or `all`.
//!
//! Run with `--release`; the scalability and approximation experiments are
//! meaningless in debug builds.

use podium_bench::opinion_exp::OpinionConfig;
use podium_bench::{
    approx_exp, budget_exp, custom_exp, datasets, intrinsic_exp, opinion_exp, scalability_exp,
    table2_exp,
};

use podium_bench::harness::{run_isolated, ExperimentStatus};
use std::io::Write as _;
use std::time::Duration;

/// Experiment ids runnable by this driver, in `all` order. The two
/// `selftest-*` ids exercise the isolation harness itself (a deliberate
/// panic, a deliberate stall) and are therefore excluded from `all`.
const EXPERIMENTS: &[(&str, bool)] = &[
    ("table2", true),
    ("fig3a", true),
    ("fig3b", true),
    ("fig3c", true),
    ("fig3d", true),
    ("fig4", true),
    ("fig5", true),
    ("fig6", true),
    ("approx", true),
    ("optscale", true),
    ("bsweep", true),
    ("ablation", true),
    ("drift", true),
    ("constrained", true),
    ("selftest-panic", false),
    ("selftest-slow", false),
];

#[derive(Clone)]
struct Args {
    experiment: String,
    scale: f64,
    budget: usize,
    seed: u64,
    timeout_secs: u64,
    status_file: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_owned(),
        scale: 1.0,
        budget: datasets::DEFAULT_BUDGET,
        seed: 2020,
        timeout_secs: 0,
        status_file: None,
    };
    let mut it = std::env::args().skip(1);
    let mut positional = Vec::new();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"));
            }
            "--budget" => {
                args.budget = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--budget needs an integer"));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--timeout-secs" => {
                args.timeout_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--timeout-secs needs an integer"));
            }
            "--status-file" => {
                args.status_file = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--status-file needs a path"))
                        .into(),
                );
            }
            "--help" | "-h" => usage(""),
            other => positional.push(other.to_owned()),
        }
    }
    if let Some(e) = positional.into_iter().next() {
        args.experiment = e;
    }
    args
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: experiments <id>[,<id>...] [--scale X] [--budget B] [--seed S] \
         [--timeout-secs T] [--status-file PATH]\n\
         ids: table2, fig3a, fig3b, fig3c, fig3d, fig4, fig5, fig6, approx, \
         optscale, bsweep, ablation, drift, constrained, \
         selftest-panic, selftest-slow, all\n\
         Each experiment runs panic-isolated: a failure is recorded in the \
         status file (JSONL) and the run continues; the exit code is \
         nonzero iff any experiment failed."
    );
    std::process::exit(2);
}

fn header(title: &str) {
    println!("\n==== {title} ====");
}

/// Prints paired-bootstrap significance of Podium vs. each competitor on
/// topic+sentiment coverage (per-destination pairing).
fn print_significance(detailed: &[(String, Vec<podium_metrics::opinion::OpinionMetrics>)]) {
    let podium = &detailed[0];
    println!("paired bootstrap (topic+sentiment coverage, Podium vs. each, 95% CI):");
    for (name, per_dest) in &detailed[1..] {
        let a: Vec<f64> = podium
            .1
            .iter()
            .map(|m| m.topic_sentiment_coverage)
            .collect();
        let b: Vec<f64> = per_dest
            .iter()
            .map(|m| m.topic_sentiment_coverage)
            .collect();
        let r = podium_metrics::significance::paired_bootstrap(&a, &b, 0.95, 2000, 2020);
        println!(
            "  vs {name:<11} Δ = {:+.4} [{:+.4}, {:+.4}]{}",
            r.mean_diff,
            r.ci_low,
            r.ci_high,
            if r.significant() {
                "  (significant)"
            } else {
                ""
            }
        );
    }
}

/// Prints the §8.4 pairwise-intersection diagnostic for a dataset.
fn print_overlap(dataset: &podium_data::synth::SynthDataset, budget: usize, seed: u64) {
    println!("mean pairwise property intersection of the selected subset (§8.4):");
    for (name, stats) in intrinsic_exp::overlap_comparison(dataset, budget, seed) {
        println!(
            "  {name:<11} {:>7.1} shared properties/pair (jaccard distance {:.3})",
            stats.mean_intersection, stats.mean_jaccard_distance
        );
    }
}

fn main() {
    let args = parse_args();

    // Expand the comma-separated id list; `all` means every non-selftest
    // experiment, in registry order.
    let mut ids: Vec<String> = Vec::new();
    for id in args.experiment.split(',').filter(|s| !s.is_empty()) {
        if id == "all" {
            ids.extend(
                EXPERIMENTS
                    .iter()
                    .filter(|(_, in_all)| *in_all)
                    .map(|(name, _)| (*name).to_owned()),
            );
        } else if EXPERIMENTS.iter().any(|(name, _)| *name == id) {
            ids.push(id.to_owned());
        } else {
            usage(&format!("unknown experiment '{id}'"));
        }
    }
    if ids.is_empty() {
        usage("no experiments requested");
    }

    let timeout = if args.timeout_secs == 0 {
        // "No watchdog". recv_timeout overflows on Duration::MAX, so cap
        // at a year.
        Duration::from_secs(365 * 24 * 3600)
    } else {
        Duration::from_secs(args.timeout_secs)
    };
    let status_path = args
        .status_file
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("target/experiments-status.jsonl"));
    if let Some(dir) = status_path.parent() {
        // podium-lint: allow(discarded-result) — if the dir is missing, the create below fails and exits with the real error
        let _ = std::fs::create_dir_all(dir);
    }
    let mut status_file = std::fs::File::create(&status_path).unwrap_or_else(|e| {
        eprintln!(
            "error: cannot open status file {}: {e}",
            status_path.display()
        );
        std::process::exit(2);
    });

    // Run every requested experiment, each isolated on its own thread:
    // a panic or watchdog timeout becomes a JSONL status entry and the
    // sweep continues with the next experiment.
    let mut statuses: Vec<ExperimentStatus> = Vec::new();
    for id in &ids {
        let run = args.clone();
        let name = id.clone();
        let status = run_isolated(id, timeout, move || run_one(&name, &run));
        match &status.outcome {
            podium_bench::harness::Outcome::Ok => {}
            podium_bench::harness::Outcome::Panicked(msg) => {
                eprintln!("experiment '{id}' PANICKED: {msg}");
            }
            podium_bench::harness::Outcome::TimedOut => {
                eprintln!(
                    "experiment '{id}' TIMED OUT after {:.0}s (watchdog: {}s)",
                    status.seconds, args.timeout_secs
                );
            }
        }
        // podium-lint: allow(discarded-result) — the status sidecar is best-effort progress for tailing; results are judged from `statuses` below
        let _ = writeln!(
            status_file,
            "{}",
            status.to_json(u64::try_from(statuses.len()).unwrap_or(u64::MAX))
        );
        // podium-lint: allow(discarded-result) — best-effort eager flush so the sidecar is tailable mid-sweep
        let _ = status_file.flush();
        statuses.push(status);
    }

    let failed: Vec<&ExperimentStatus> = statuses.iter().filter(|s| !s.is_ok()).collect();
    println!(
        "\n==== run summary: {}/{} ok ({}) ====",
        statuses.len() - failed.len(),
        statuses.len(),
        status_path.display()
    );
    for s in &statuses {
        println!(
            "  {:<16} {:<9} {:>8.1}s",
            s.name,
            match &s.outcome {
                podium_bench::harness::Outcome::Ok => "ok",
                podium_bench::harness::Outcome::Panicked(_) => "panicked",
                podium_bench::harness::Outcome::TimedOut => "timed-out",
            },
            s.seconds
        );
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

/// Runs one experiment body. Panics propagate to the isolation harness.
/// Returns optional JSON metrics that the harness embeds as the status
/// row's `details` field.
fn run_one(id: &str, args: &Args) -> Option<String> {
    let mut details = None;
    match id {
        "table2" => {
            header("Table 2 running example (Examples 3.5-6.4)");
            print!("{}", table2_exp::run());
        }
        "fig3a" => {
            header("Figure 3a: TripAdvisor-like intrinsic diversity (3-seed average)");
            let tables: Vec<_> = (0..3)
                .map(|i| {
                    let dataset = datasets::ta_dataset(args.scale, args.seed + i);
                    if i == 0 {
                        println!(
                            "dataset: {} users, {} properties (per seed)",
                            dataset.repo.user_count(),
                            dataset.repo.property_count()
                        );
                    }
                    intrinsic_exp::run_intrinsic(
                        &dataset,
                        args.budget,
                        datasets::TOP_K,
                        args.seed + i,
                    )
                })
                .collect();
            print!(
                "{}",
                podium_metrics::report::ComparisonTable::average(&tables).render()
            );
            print_overlap(
                &datasets::ta_dataset(args.scale, args.seed),
                args.budget,
                args.seed,
            );
        }
        "fig3b" => {
            header("Figure 3b: TripAdvisor-like opinion diversity");
            let dataset = datasets::ta_dataset(args.scale, args.seed);
            let (table, detailed) = opinion_exp::run_opinion_detailed(
                &dataset,
                OpinionConfig {
                    destinations: 50,
                    min_reviews: 8,
                    budget: args.budget,
                    with_usefulness: false,
                    seed: args.seed,
                },
            );
            print!("{}", table.render());
            print_significance(&detailed);
        }
        "fig3c" => {
            header("Figure 3c: Yelp-like intrinsic diversity (3-seed average)");
            let tables: Vec<_> = (0..3)
                .map(|i| {
                    let dataset = datasets::yelp_dataset(args.scale, args.seed + i);
                    if i == 0 {
                        println!(
                            "dataset: {} users, {} properties (per seed)",
                            dataset.repo.user_count(),
                            dataset.repo.property_count()
                        );
                    }
                    intrinsic_exp::run_intrinsic(
                        &dataset,
                        args.budget,
                        datasets::TOP_K,
                        args.seed + i,
                    )
                })
                .collect();
            print!(
                "{}",
                podium_metrics::report::ComparisonTable::average(&tables).render()
            );
            print_overlap(
                &datasets::yelp_dataset(args.scale, args.seed),
                args.budget,
                args.seed,
            );
        }
        "fig3d" => {
            header("Figure 3d: Yelp-like opinion diversity");
            let dataset = datasets::yelp_dataset(args.scale, args.seed);
            let (table, detailed) = opinion_exp::run_opinion_detailed(
                &dataset,
                OpinionConfig {
                    destinations: 130,
                    min_reviews: 10,
                    budget: args.budget,
                    with_usefulness: true,
                    seed: args.seed,
                },
            );
            print!("{}", table.render());
            print_significance(&detailed);
        }
        "fig4" => {
            header("Figure 4: Yelp-like intrinsic diversity with customization");
            let dataset = datasets::yelp_dataset(args.scale, args.seed);
            let rows = custom_exp::run_customization(
                &dataset,
                args.budget,
                datasets::TOP_K,
                &[0, 20, 40, 60, 80],
                20,
                args.seed,
            );
            print!("{}", custom_exp::render(&rows));
        }
        "fig5" => {
            header("Figure 5: execution time vs |U| (profiles capped ~200 properties)");
            let counts: Vec<usize> = [1000, 2000, 4000, 8000]
                .iter()
                .map(|&n| ((n as f64 * args.scale) as usize).max(100))
                .collect();
            let rows = scalability_exp::run_user_sweep(&counts, args.budget, args.seed);
            print!("{}", scalability_exp::render(&rows, "users"));
            let x: Vec<f64> = rows.iter().map(|r| r.users as f64).collect();
            let y: Vec<f64> = rows.iter().map(|r| r.podium_ms).collect();
            let r2 = scalability_exp::linear_r2(&x, &y);
            println!("podium linearity R\u{b2} = {r2:.4}");
            // The checked-in artifact: the numbers EXPERIMENTS.md cites.
            let written = scalability_exp::bench16_json(&rows, r2, args.budget, args.seed)
                .map_err(|e| e.to_string())
                .and_then(|text| std::fs::write("BENCH_16.json", text).map_err(|e| e.to_string()));
            match written {
                Ok(()) => println!("wrote BENCH_16.json"),
                Err(e) => println!("could not write BENCH_16.json: {e}"),
            }
        }
        "fig6" => {
            header("Figure 6: execution time vs profile size (|U| fixed)");
            let users = ((8000.0 * args.scale) as usize).max(200);
            let rows =
                scalability_exp::run_profile_sweep(users, &[2, 4, 8, 16], args.budget, args.seed);
            print!("{}", scalability_exp::render(&rows, "profile"));
            let x: Vec<f64> = rows.iter().map(|r| r.mean_profile).collect();
            let y: Vec<f64> = rows.iter().map(|r| r.podium_ms).collect();
            println!(
                "podium linearity R\u{b2} = {:.4}",
                scalability_exp::linear_r2(&x, &y)
            );
        }
        "approx" => {
            header("\u{a7}8.4: approximation ratio, greedy vs optimal (5 of 40 users)");
            let dataset = datasets::ta_dataset(args.scale.max(0.1), args.seed);
            let results = approx_exp::run_approx(&dataset, 40, 5, 5, args.seed);
            print!("{}", approx_exp::render_approx(&results));
        }
        "optscale" => {
            header("\u{a7}8.5: Optimal baseline runtime blow-up (B = 5)");
            let dataset = datasets::ta_dataset(args.scale.max(0.1), args.seed);
            let rows = approx_exp::run_optscale(&dataset, &[20, 30, 40], 5, args.seed);
            print!("{}", approx_exp::render_optscale(&rows));
        }
        "bsweep" => {
            header("\u{a7}8.4 budget sweep: quality vs B (top-k coverage, Podium gap)");
            let dataset = datasets::yelp_dataset(args.scale, args.seed);
            let rows = budget_exp::run_budget_sweep(
                &dataset,
                &[2, 4, 8, 16, 32],
                datasets::TOP_K,
                args.seed,
            );
            print!("{}", budget_exp::render(&rows));
        }
        "ablation" => {
            header("Ablation: weight/coverage schemes, bucketing, eager vs lazy greedy");
            run_ablation(args.scale, args.budget, args.seed);
        }
        "drift" => {
            header("Drift: select throughput and publish latency under profile drift");
            let cells = podium_bench::serving_exp::run_drift(args.scale, args.seed);
            print!("{}", podium_bench::serving_exp::render_drift(&cells));
            // The checked-in artifact: measured numbers for this PR.
            let artifact = podium_bench::serving_exp::bench6_json(&cells);
            match std::fs::write("BENCH_6.json", &artifact) {
                Ok(()) => println!("wrote BENCH_6.json"),
                Err(e) => println!("could not write BENCH_6.json: {e}"),
            }
            for cell in &cells {
                assert_eq!(cell.count("failed"), 0, "no failed responses under drift");
                assert_eq!(cell.count("inconsistent"), 0, "no inconsistent responses");
            }
            details = Some(podium_bench::serving_exp::drift_details_json(&cells));
        }
        "constrained" => {
            header("Constrained: quota-constrained greedy vs time-matched annealing");
            let report =
                podium_bench::constrained_exp::run(args.scale, args.budget, args.seed);
            print!("{}", podium_bench::constrained_exp::render(&report));
            // The checked-in artifact: measured numbers for this PR.
            let artifact = podium_bench::constrained_exp::bench9_json(&report);
            match std::fs::write("BENCH_9.json", &artifact) {
                Ok(()) => println!("wrote BENCH_9.json"),
                Err(e) => println!("could not write BENCH_9.json: {e}"),
            }
            assert!(
                report.rows.iter().any(|r| r.feasible),
                "at least one quota mix must be feasible"
            );
            for r in &report.rows {
                assert!(
                    !r.feasible || r.anneal_score >= r.greedy_score,
                    "annealing never loses to its greedy start: {r:?}"
                );
            }
            details = Some(podium_bench::constrained_exp::details_json(&report));
        }
        "selftest-panic" => {
            header("isolation self-test: deliberate panic");
            // podium-lint: allow(panic) — deliberate: exercises the runner's catch_unwind isolation
            panic!("selftest-panic: this experiment always panics");
        }
        "selftest-slow" => {
            header("isolation self-test: deliberate stall");
            std::thread::sleep(Duration::from_secs(3600));
        }
        // podium-lint: allow(unreachable) — experiment ids are validated against the registry before dispatch
        other => unreachable!("id '{other}' was validated against the registry"),
    }
    details
}

/// Design-choice ablations called out in DESIGN.md: how the weight scheme,
/// coverage scheme and bucketing strategy change the intrinsic metrics, and
/// eager vs. lazy greedy equivalence/runtime.
fn run_ablation(scale: f64, budget: usize, seed: u64) {
    use podium_bench::selectors::PodiumSelector;
    use podium_core::bucket::{BucketStrategy, BucketingConfig};
    use podium_core::engine::{select, SelectSpec, Strategy};
    use podium_core::group::GroupSet;
    use podium_core::instance::DiversificationInstance;
    use podium_core::weights::{CovScheme, WeightScheme};
    use podium_metrics::intrinsic::IntrinsicMetrics;

    let dataset = datasets::ta_dataset(scale * 0.5, seed);
    let repo = &dataset.repo;
    println!(
        "dataset: {} users, {} properties",
        repo.user_count(),
        repo.property_count()
    );

    // Weight × coverage ablation, evaluated under the LBS+Single objective.
    let buckets = BucketingConfig::adaptive_default().bucketize(repo);
    let groups = GroupSet::build(repo, &buckets);
    let eval = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        budget,
    );
    println!("\nweight × coverage ablation (evaluated under LBS+Single):");
    for (wname, w) in [
        ("Iden", WeightScheme::Identical),
        ("LBS", WeightScheme::LinearBySize),
    ] {
        for (cname, c) in [
            ("Single", CovScheme::Single),
            ("Prop", CovScheme::Proportional),
        ] {
            let inst = DiversificationInstance::from_schemes(&groups, w, c, budget);
            let sel = podium_core::greedy::greedy_select(&inst, budget);
            let m = IntrinsicMetrics::evaluate(&eval, &sel.users, datasets::TOP_K);
            println!(
                "  {wname:>4} + {cname:<6} -> score {:>10.1}, top-k {:.3}, dist-sim {:.3}",
                m.total_score, m.top_k_coverage, m.distribution_similarity
            );
        }
    }
    // EBS (exact big-weights).
    {
        let inst = DiversificationInstance::ebs(&groups, CovScheme::Single, budget);
        let sel = podium_core::greedy::greedy_select(&inst, budget);
        let m = IntrinsicMetrics::evaluate(&eval, &sel.users, datasets::TOP_K);
        println!(
            "  {:>4} + {:<6} -> score {:>10.1}, top-k {:.3}, dist-sim {:.3}",
            "EBS", "Single", m.total_score, m.top_k_coverage, m.distribution_similarity
        );
    }

    // Bucketing strategy ablation.
    println!("\nbucketing strategy ablation (3 buckets/property):");
    for (name, strat) in [
        ("equal-width", BucketStrategy::EqualWidth),
        ("quantile", BucketStrategy::Quantile),
        ("jenks", BucketStrategy::Jenks),
        ("kmeans-1d", BucketStrategy::KMeans1D),
        ("kde", BucketStrategy::Kde),
        ("em", BucketStrategy::Em),
    ] {
        let cfg = BucketingConfig {
            strategy: strat,
            buckets_per_property: 3,
            detect_boolean: true,
        };
        let t0 = std::time::Instant::now();
        let b = cfg.bucketize(repo);
        let g = GroupSet::build(repo, &b);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            budget,
        );
        let sel = podium_core::greedy::greedy_select(&inst, budget);
        let m = IntrinsicMetrics::evaluate(&eval, &sel.users, datasets::TOP_K);
        println!(
            "  {name:>11}: {:>6} groups, eval score {:>10.1}, top-k {:.3} ({:.0} ms)",
            g.len(),
            m.total_score,
            m.top_k_coverage,
            t0.elapsed().as_secs_f64() * 1e3
        );
    }

    // Group-definition ablation (§3.2): simple groups vs multidimensional
    // clusters as groups. Both selections are evaluated under the
    // simple-group LBS+Single objective.
    println!("\ngroup definition ablation (evaluated under simple-group LBS+Single):");
    {
        let sel = podium_core::greedy::greedy_select(&eval, budget);
        let m = IntrinsicMetrics::evaluate(&eval, &sel.users, datasets::TOP_K);
        println!(
            "  {:>22}: {:>6} groups, eval score {:>10.1}, top-k {:.3}",
            "simple groups",
            groups.len(),
            m.total_score,
            m.top_k_coverage
        );
        for k in [budget, 4 * budget] {
            let cgroups = podium_baselines::clustering::cluster_group_set(repo, k, seed);
            let cinst = DiversificationInstance::from_schemes(
                &cgroups,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                budget,
            );
            let csel = podium_core::greedy::greedy_select(&cinst, budget);
            let cm = IntrinsicMetrics::evaluate(&eval, &csel.users, datasets::TOP_K);
            println!(
                "  {:>22}: {:>6} groups, eval score {:>10.1}, top-k {:.3}",
                format!("{k} multidim clusters"),
                cgroups.len(),
                cm.total_score,
                cm.top_k_coverage
            );
        }
    }

    // Greedy engines: eager vs lazy (CELF) vs stochastic.
    println!("\ngreedy engine ablation:");
    let eager = Strategy::Eager {
        tie_break: podium_core::greedy::TieBreak::FirstUser,
    };
    for (name, strategy) in [("eager", eager), ("lazy (CELF)", Strategy::Lazy)] {
        let selector = PodiumSelector::paper_default().with_strategy(strategy);
        let t0 = std::time::Instant::now();
        let sel = podium_baselines::selector::Selector::select(&selector, repo, budget);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let score = eval.score_of(&sel);
        println!("  {name:>16}: score {score:>10.1} in {ms:.1} ms");
    }
    for eps in [0.2, 0.05] {
        let t0 = std::time::Instant::now();
        let csr = podium_core::engine::CsrGraph::from_group_set(eval.groups());
        let spec = SelectSpec::new(budget, Strategy::Stochastic { epsilon: eps, seed });
        let sel = select(&eval, &csr, &spec).expect("stochastic runs always complete");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let score = eval.score_of(&sel.users);
        println!("  stochastic ε={eps:<4}: score {score:>10.1} in {ms:.1} ms");
    }

    // Randomized weights (§10 future work): selection diversity under noise.
    println!("\nnoisy LBS weights (§10, amplitude sweep, 5 seeds each):");
    let base = WeightScheme::LinearBySize.weights(&groups);
    let covs = CovScheme::Single.cov(&groups, budget);
    for amplitude in [0.0, 0.2, 0.5] {
        let mut scores = Vec::new();
        let mut distinct: std::collections::HashSet<Vec<podium_core::ids::UserId>> =
            std::collections::HashSet::new();
        for s in 0..5u64 {
            let noisy = podium_core::weights::noisy_weights(&base, amplitude, seed + s);
            let inst = DiversificationInstance::new(&groups, noisy, covs.clone());
            let sel = podium_core::greedy::greedy_select(&inst, budget);
            scores.push(eval.score_of(&sel.users));
            let mut users = sel.users;
            users.sort();
            distinct.insert(users);
        }
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        println!(
            "  amplitude {amplitude:>4}: mean eval score {mean:>10.1}, {} distinct selections",
            distinct.len()
        );
    }
}
