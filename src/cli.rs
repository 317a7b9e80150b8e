//! Implementation of the `podium-cli` binary: diverse user selection over
//! JSON profile files (the §7 prototype input format), from the command
//! line.
//!
//! Subcommands:
//!
//! * `stats`  — repository statistics;
//! * `groups` — list the materialized groups with labels and sizes;
//! * `select` — run (customized) diverse selection and print the selected
//!   users with explanations.
//!
//! The argument grammar is deliberately tiny and dependency-free; see
//! [`USAGE`].

use podium_core::bucket::{BucketStrategy, BucketingConfig};
use podium_core::customize::Feedback;
use podium_core::pipeline::Podium;
use podium_core::weights::{CovScheme, WeightScheme};

/// CLI usage text for the classic subcommands; the binary appends
/// [`crate::service_cli::SERVICE_USAGE`] for `serve` and `quarantine`,
/// and [`crate::sim_cli::SIM_USAGE`] for `sim`.
pub const USAGE: &str = "\
usage: podium-cli <stats|groups|select> --profiles FILE [options]
       podium-cli <serve|quarantine|sim> [options]

options (groups/select):
  --strategy paper|equal-width|quantile|jenks|kmeans|kde|em   bucketing (default quantile)
  --buckets K                 buckets per property (default 3)

options (select):
  --budget N                  number of users to select (default 8)
  --weights lbs|iden          weight scheme (default lbs)
  --cov single|prop           coverage scheme (default single)
  --must-have PROPERTY        selected users must hold PROPERTY (repeatable)
  --must-not PROPERTY         selected users must not hold PROPERTY (repeatable)
  --priority PROPERTY         prioritize covering PROPERTY's groups (repeatable)
  --explain                   print the explanation report
  --top-k N                   groups in the explanation report (default 20)
  --seed S                    randomize tie-breaking with seed S
  --json                      emit machine-readable JSON instead of text
  --config FILE               apply a named diversification configuration
                              (JSON; §7 administrator presets). Flags given
                              alongside override the configuration.
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Subcommand: `stats`, `groups`, or `select`.
    pub command: String,
    /// Path to the JSON profiles file.
    pub profiles: String,
    /// Bucketing strategy name.
    pub strategy: String,
    /// Buckets per property.
    pub buckets: usize,
    /// Selection budget.
    pub budget: usize,
    /// Weight scheme name.
    pub weights: String,
    /// Coverage scheme name.
    pub cov: String,
    /// Must-have property labels.
    pub must_have: Vec<String>,
    /// Must-not property labels.
    pub must_not: Vec<String>,
    /// Priority property labels.
    pub priority: Vec<String>,
    /// Whether to print the explanation report.
    pub explain: bool,
    /// Explanation report size.
    pub top_k: usize,
    /// Optional tie-breaking seed.
    pub seed: Option<u64>,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Optional path to a named configuration file.
    pub config: Option<String>,
    /// Property-prefix scope injected by an applied configuration
    /// (internal; not a flag).
    pub config_scope: Vec<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            command: String::new(),
            profiles: String::new(),
            strategy: "quantile".into(),
            buckets: 3,
            budget: 8,
            weights: "lbs".into(),
            cov: "single".into(),
            must_have: Vec::new(),
            must_not: Vec::new(),
            priority: Vec::new(),
            explain: false,
            top_k: 20,
            seed: None,
            json: false,
            config: None,
            config_scope: Vec::new(),
        }
    }
}

/// Parses an argument vector (without the program name).
pub fn parse_args(argv: &[String]) -> Result<CliArgs, String> {
    let mut args = CliArgs::default();
    let mut it = argv.iter();
    args.command = it
        .next()
        .ok_or_else(|| "missing subcommand".to_owned())?
        .clone();
    if !matches!(args.command.as_str(), "stats" | "groups" | "select") {
        return Err(format!("unknown subcommand '{}'", args.command));
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--profiles" => args.profiles = value("--profiles")?,
            "--strategy" => args.strategy = value("--strategy")?,
            "--buckets" => {
                args.buckets = value("--buckets")?
                    .parse()
                    .map_err(|_| "--buckets needs an integer".to_owned())?
            }
            "--budget" => {
                args.budget = value("--budget")?
                    .parse()
                    .map_err(|_| "--budget needs an integer".to_owned())?
            }
            "--weights" => args.weights = value("--weights")?,
            "--cov" => args.cov = value("--cov")?,
            "--must-have" => args.must_have.push(value("--must-have")?),
            "--must-not" => args.must_not.push(value("--must-not")?),
            "--priority" => args.priority.push(value("--priority")?),
            "--explain" => args.explain = true,
            "--json" => args.json = true,
            "--config" => args.config = Some(value("--config")?),
            "--top-k" => {
                args.top_k = value("--top-k")?
                    .parse()
                    .map_err(|_| "--top-k needs an integer".to_owned())?
            }
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an integer".to_owned())?,
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.profiles.is_empty() {
        return Err("--profiles is required".to_owned());
    }
    Ok(args)
}

/// Resolves the bucketing configuration from CLI names.
pub fn bucketing_of(args: &CliArgs) -> Result<BucketingConfig, String> {
    bucketing_from(&args.strategy, args.buckets)
}

/// Resolves a bucketing configuration from a strategy name and bucket
/// count (shared with the `serve` subcommand).
pub fn bucketing_from(strategy: &str, buckets: usize) -> Result<BucketingConfig, String> {
    let strategy = match strategy {
        "paper" => return Ok(BucketingConfig::paper_default()),
        "equal-width" => BucketStrategy::EqualWidth,
        "quantile" => BucketStrategy::Quantile,
        "jenks" => BucketStrategy::Jenks,
        "kmeans" => BucketStrategy::KMeans1D,
        "kde" => BucketStrategy::Kde,
        "em" => BucketStrategy::Em,
        other => return Err(format!("unknown strategy '{other}'")),
    };
    Ok(BucketingConfig {
        strategy,
        buckets_per_property: buckets,
        detect_boolean: true,
    })
}

/// Runs the CLI against already-loaded profile JSON (and, optionally, a
/// named-configuration JSON for `--config`); returns the textual output.
/// Factored out of the binary for testability.
pub fn run(
    args: &CliArgs,
    profiles_json: &str,
    config_json: Option<&str>,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let repo = podium_data::json::profiles_from_json(profiles_json)
        .map_err(|e| format!("cannot parse profiles: {e}"))?;
    let bucketing = bucketing_of(args)?;
    let mut out = String::new();

    match args.command.as_str() {
        "stats" => {
            let _ = writeln!(out, "users:              {}", repo.user_count());
            let _ = writeln!(out, "properties:         {}", repo.property_count());
            let _ = writeln!(out, "mean profile size:  {:.2}", repo.mean_profile_size());
            let _ = writeln!(out, "max profile size:   {}", repo.max_profile_size());
            let fitted = Podium::new().bucketing(bucketing).fit(&repo);
            let _ = writeln!(out, "groups:             {}", fitted.groups().len());
            let _ = writeln!(
                out,
                "max group size:     {}",
                fitted.groups().max_group_size()
            );
            let _ = writeln!(
                out,
                "max groups/user:    {}",
                fitted.groups().max_groups_per_user()
            );
        }
        "groups" => {
            let fitted = Podium::new().bucketing(bucketing).fit(&repo);
            let mut rows: Vec<(usize, String)> = fitted
                .groups()
                .iter()
                .map(|(gid, g)| (g.size(), fitted.groups().label(gid, &repo)))
                .collect();
            rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for (size, label) in rows {
                let _ = writeln!(out, "{size:>6}  {label}");
            }
        }
        "select" => {
            // Merge a named configuration (§7) under the CLI flags: a flag
            // that differs from its default overrides the configuration.
            let mut eff = args.clone();
            if let Some(text) = config_json {
                let cfg = podium_data::config::SelectionConfig::from_json(text)?;
                let defaults = CliArgs::default();
                if eff.weights == defaults.weights {
                    eff.weights = cfg.weights.clone();
                }
                if eff.cov == defaults.cov {
                    eff.cov = cfg.cov.clone();
                }
                if eff.budget == defaults.budget {
                    eff.budget = cfg.budget;
                }
                eff.must_have.extend(cfg.must_have.iter().cloned());
                eff.must_not.extend(cfg.must_not.iter().cloned());
                eff.priority.extend(cfg.priority.iter().cloned());
                let _ = writeln!(
                    out,
                    "configuration: {} — {}",
                    cfg.title,
                    if cfg.description.is_empty() {
                        "(no description)"
                    } else {
                        &cfg.description
                    }
                );
                if !cfg.include_properties.is_empty() {
                    let _ = writeln!(out, "property scope: {}", cfg.include_properties.join(", "));
                }
                eff.config_scope = cfg.include_properties.clone();
            }
            let args = &eff;
            let weight = match args.weights.as_str() {
                "lbs" => WeightScheme::LinearBySize,
                "iden" => WeightScheme::Identical,
                other => return Err(format!("unknown weight scheme '{other}'")),
            };
            let cov = match args.cov.as_str() {
                "single" => CovScheme::Single,
                "prop" => CovScheme::Proportional,
                other => return Err(format!("unknown coverage scheme '{other}'")),
            };
            let mut pipeline = Podium::new()
                .bucketing(bucketing)
                .weights(weight)
                .coverage(cov);
            if let Some(seed) = args.seed {
                pipeline = pipeline.random_ties(seed);
            }
            // Apply the configuration's property scope, if any.
            let scope = args.config_scope.clone();
            let fitted = if scope.is_empty() {
                pipeline.fit(&repo)
            } else {
                pipeline.fit_scoped(&repo, &|p| {
                    repo.property_label(p)
                        .map(|l| scope.iter().any(|pre| l.starts_with(pre.as_str())))
                        .unwrap_or(false)
                })
            };

            let resolve = |labels: &[String]| -> Result<Vec<podium_core::ids::GroupId>, String> {
                let mut groups = Vec::new();
                for label in labels {
                    let p = repo
                        .property_id(label)
                        .ok_or_else(|| format!("unknown property '{label}'"))?;
                    let gs = fitted.groups().groups_of_property(p);
                    if gs.is_empty() {
                        return Err(format!(
                            "property '{label}' has no groups in the active scope"
                        ));
                    }
                    groups.extend(gs);
                }
                Ok(groups)
            };
            let feedback = Feedback {
                must_have: resolve(&args.must_have)?,
                must_not: resolve(&args.must_not)?,
                priority: resolve(&args.priority)?,
                standard: None,
            };
            let custom = feedback != Feedback::none();

            if args.json && !custom {
                let sel = fitted.select(args.budget);
                let report = fitted.explain(args.budget, &sel, args.top_k);
                #[derive(serde::Serialize)]
                struct JsonSelection<'a> {
                    users: Vec<&'a str>,
                    score: f64,
                    top_weight_coverage: f64,
                    report: &'a podium_core::explain::SelectionReport,
                }
                let payload = JsonSelection {
                    users: sel
                        .users
                        .iter()
                        .map(|&u| repo.user_name(u).unwrap_or("<unknown>"))
                        .collect(),
                    score: sel.score,
                    top_weight_coverage: report.top_weight_coverage,
                    report: &report,
                };
                let _ = writeln!(
                    out,
                    "{}",
                    serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?
                );
                return Ok(out);
            }

            let (users, score_line) = if custom {
                let sel = fitted
                    .select_with_feedback(args.budget, &feedback)
                    .map_err(|e| e.to_string())?;
                let line = format!(
                    "priority score {:.2}, standard score {:.2}, pool {} users, feedback coverage {:.1}%",
                    sel.priority_score(),
                    sel.standard_score(),
                    sel.pool_size,
                    sel.feedback_group_coverage * 100.0
                );
                (sel.users().to_vec(), line)
            } else {
                let sel = fitted.select(args.budget);
                let line = format!("total score {:.2}", sel.score);
                let users = sel.users.clone();
                if args.explain {
                    let report = fitted.explain(args.budget, &sel, args.top_k);
                    let _ = write!(out, "{}", report.render());
                }
                (users, line)
            };
            let _ = writeln!(out, "selected {} users ({score_line}):", users.len());
            for u in users {
                let _ = writeln!(
                    out,
                    "  {} ({} properties)",
                    repo.user_name(u).map_err(|e| e.to_string())?,
                    repo.profile(u).map_err(|e| e.to_string())?.len()
                );
            }
        }
        // podium-lint: allow(unreachable) — the subcommand string was validated in parse_args
        _ => unreachable!("validated in parse_args"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    const SAMPLE: &str = r#"{
        "users": [
            { "name": "Alice", "properties": { "livesIn Tokyo": 1.0, "avgRating Mexican": 0.95 } },
            { "name": "Bob",   "properties": { "livesIn NYC": 1.0,   "avgRating Mexican": 0.3 } },
            { "name": "Carol", "properties": { "livesIn Bali": 1.0 } }
        ]
    }"#;

    #[test]
    fn parse_select_flags() {
        let a = parse_args(&argv(
            "select --profiles p.json --budget 3 --weights iden --cov prop \
             --must-have x --must-not y --priority z --explain --seed 4",
        ))
        .unwrap();
        assert_eq!(a.command, "select");
        assert_eq!(a.budget, 3);
        assert_eq!(a.weights, "iden");
        assert_eq!(a.cov, "prop");
        assert_eq!(a.must_have, vec!["x"]);
        assert_eq!(a.must_not, vec!["y"]);
        assert_eq!(a.priority, vec!["z"]);
        assert!(a.explain);
        assert_eq!(a.seed, Some(4));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("frobnicate --profiles x")).is_err());
        assert!(parse_args(&argv("stats")).is_err(), "--profiles required");
        assert!(parse_args(&argv("stats --profiles f --budget nan")).is_err());
        assert!(parse_args(&argv("stats --profiles f --wat 1")).is_err());
    }

    #[test]
    fn stats_output() {
        let a = parse_args(&argv("stats --profiles x.json")).unwrap();
        let out = run(&a, SAMPLE, None).unwrap();
        assert!(out.contains("users:              3"));
        assert!(out.contains("groups:"));
    }

    #[test]
    fn groups_output_sorted_by_size() {
        let a = parse_args(&argv("groups --profiles x.json --strategy paper")).unwrap();
        let out = run(&a, SAMPLE, None).unwrap();
        // 5 non-empty groups: 3 livesIn + high/low avgRating Mexican.
        assert_eq!(out.lines().count(), 5, "{out}");
        assert!(out.contains("livesIn Tokyo"));
        assert!(out.contains("high avgRating Mexican"));
        let sizes: Vec<usize> = out
            .lines()
            .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "sorted: {sizes:?}");
    }

    #[test]
    fn select_runs_and_explains() {
        let a = parse_args(&argv(
            "select --profiles x.json --strategy paper --budget 2 --explain",
        ))
        .unwrap();
        let out = run(&a, SAMPLE, None).unwrap();
        assert!(out.contains("selected 2 users"));
        assert!(out.contains("covered"), "explanation present");
    }

    #[test]
    fn select_with_feedback() {
        let a = parse_args(&argv(
            "select --profiles x.json --strategy paper --budget 2 \
             --must-have \"avgRating Mexican\"",
        ));
        // Quoted labels with spaces cannot come through split_whitespace;
        // build args manually instead.
        drop(a);
        let mut args = CliArgs {
            command: "select".into(),
            profiles: "x.json".into(),
            strategy: "paper".into(),
            budget: 2,
            ..CliArgs::default()
        };
        args.must_have.push("avgRating Mexican".into());
        let out = run(&args, SAMPLE, None).unwrap();
        assert!(out.contains("pool 2 users"), "Carol filtered: {out}");
    }

    #[test]
    fn unknown_property_is_reported() {
        let mut args = CliArgs {
            command: "select".into(),
            profiles: "x.json".into(),
            ..CliArgs::default()
        };
        args.priority.push("no such property".into());
        let err = run(&args, SAMPLE, None).unwrap_err();
        assert!(err.contains("unknown property"));
    }

    #[test]
    fn json_output_is_parseable() {
        let a = parse_args(&argv(
            "select --profiles x.json --strategy paper --budget 2 --json",
        ))
        .unwrap();
        assert!(a.json);
        let out = run(&a, SAMPLE, None).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["users"].as_array().unwrap().len(), 2);
        assert!(v["score"].as_f64().unwrap() > 0.0);
        assert!(v["report"]["groups"].is_array());
    }

    #[test]
    fn named_configuration_applies() {
        let config = r#"{
            "title": "Mexican focus",
            "description": "Mexican-cuisine opinions only",
            "include_properties": ["avgRating Mexican"],
            "budget": 2,
            "must_have": ["avgRating Mexican"]
        }"#;
        let a = parse_args(&argv(
            "select --profiles x.json --strategy paper --config c.json",
        ))
        .unwrap();
        assert_eq!(a.config.as_deref(), Some("c.json"));
        let out = run(&a, SAMPLE, Some(config)).unwrap();
        assert!(out.contains("configuration: Mexican focus"), "{out}");
        assert!(out.contains("property scope: avgRating Mexican"));
        // Carol (never rated Mexican) filtered: pool 2.
        assert!(out.contains("pool 2 users"), "{out}");
    }

    #[test]
    fn config_flags_override() {
        let config = r#"{ "title": "t", "budget": 2 }"#;
        let a = parse_args(&argv(
            "select --profiles x.json --strategy paper --config c.json --budget 1",
        ))
        .unwrap();
        let out = run(&a, SAMPLE, Some(config)).unwrap();
        assert!(out.contains("selected 1 users"), "flag beats config: {out}");
    }

    #[test]
    fn bucketing_names_resolve() {
        for s in [
            "paper",
            "equal-width",
            "quantile",
            "jenks",
            "kmeans",
            "kde",
            "em",
        ] {
            let args = CliArgs {
                command: "stats".into(),
                profiles: "x".into(),
                strategy: s.into(),
                ..CliArgs::default()
            };
            assert!(bucketing_of(&args).is_ok(), "{s}");
        }
        let bad = CliArgs {
            strategy: "zzz".into(),
            ..CliArgs::default()
        };
        assert!(bucketing_of(&bad).is_err());
    }
}
