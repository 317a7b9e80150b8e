//! Named diversification configurations (§7).
//!
//! "Podium also allows an administrator to feed in an *initial set of
//! diversification configurations* with associated textual descriptions" —
//! e.g. the UI's *Summer Pavilion* configuration, "which only considers
//! properties related to a restaurant in that name". A configuration names
//! a property scope, the weight/coverage schemes, a default budget, and
//! initial customization feedback, all in JSON so administrators can
//! curate them without code.

use podium_core::bucket::{BucketingConfig, PropertyBuckets};
use podium_core::customize::Feedback;
use podium_core::group::GroupSet;
use podium_core::ids::PropertyId;
use podium_core::profile::UserRepository;
use podium_core::weights::{CovScheme, WeightScheme};
use serde::{Deserialize, Serialize};

/// A named, administrator-curated diversification configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionConfig {
    /// Display title (e.g. `"Summer Pavilion"`).
    pub title: String,
    /// Human-readable description shown to clients.
    #[serde(default)]
    pub description: String,
    /// Property scope: only properties whose label starts with one of these
    /// prefixes form groups. Empty = all properties.
    #[serde(default)]
    pub include_properties: Vec<String>,
    /// Weight scheme name: `"lbs"` (default) or `"iden"`.
    #[serde(default = "default_weights")]
    pub weights: String,
    /// Coverage scheme name: `"single"` (default) or `"prop"`.
    #[serde(default = "default_cov")]
    pub cov: String,
    /// Default selection budget.
    #[serde(default = "default_budget")]
    pub budget: usize,
    /// Property labels whose groups are "must have" (any bucket qualifies).
    #[serde(default)]
    pub must_have: Vec<String>,
    /// Property labels whose groups are "must not".
    #[serde(default)]
    pub must_not: Vec<String>,
    /// Property labels whose groups get "priority coverage".
    #[serde(default)]
    pub priority: Vec<String>,
}

fn default_weights() -> String {
    "lbs".into()
}
fn default_cov() -> String {
    "single".into()
}
fn default_budget() -> usize {
    8
}

/// A configuration resolved against a concrete repository: scoped groups
/// plus the schemes/feedback ready for selection.
#[derive(Debug, Clone)]
pub struct ResolvedConfig {
    /// The source configuration.
    pub config: SelectionConfig,
    /// Groups over the configured property scope.
    pub groups: GroupSet,
    /// Parsed weight scheme.
    pub weights: WeightScheme,
    /// Parsed coverage scheme.
    pub cov: CovScheme,
    /// Resolved customization feedback.
    pub feedback: Feedback,
}

impl SelectionConfig {
    /// Parses a configuration from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad configuration: {e}"))
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Resolves the configuration against a repository: scopes the group
    /// construction to the included properties and resolves feedback
    /// labels to group ids. Unknown feedback labels are errors; unknown
    /// include prefixes simply match nothing.
    pub fn resolve(
        &self,
        repo: &UserRepository,
        buckets: &PropertyBuckets,
    ) -> Result<ResolvedConfig, String> {
        let weights = match self.weights.as_str() {
            "lbs" => WeightScheme::LinearBySize,
            "iden" => WeightScheme::Identical,
            other => return Err(format!("unknown weight scheme '{other}'")),
        };
        let cov = match self.cov.as_str() {
            "single" => CovScheme::Single,
            "prop" => CovScheme::Proportional,
            other => return Err(format!("unknown coverage scheme '{other}'")),
        };
        let include = self.include_properties.clone();
        let scope = move |p: PropertyId, repo: &UserRepository| -> bool {
            if include.is_empty() {
                return true;
            }
            repo.property_label(p)
                .map(|l| include.iter().any(|pre| l.starts_with(pre.as_str())))
                .unwrap_or(false)
        };
        let groups = GroupSet::build_filtered(repo, buckets, &|p| scope(p, repo));

        let resolve_labels = |labels: &[String]| -> Result<Vec<podium_core::ids::GroupId>, String> {
            let mut out = Vec::new();
            for label in labels {
                let p = repo
                    .property_id(label)
                    .ok_or_else(|| format!("unknown property '{label}' in configuration"))?;
                let gs = groups.groups_of_property(p);
                if gs.is_empty() {
                    return Err(format!(
                        "property '{label}' has no groups within the configuration scope"
                    ));
                }
                out.extend(gs);
            }
            Ok(out)
        };
        let feedback = Feedback {
            must_have: resolve_labels(&self.must_have)?,
            must_not: resolve_labels(&self.must_not)?,
            priority: resolve_labels(&self.priority)?,
            standard: None,
        };
        Ok(ResolvedConfig {
            config: self.clone(),
            groups,
            weights,
            cov,
            feedback,
        })
    }
}

/// Convenience: resolve with the default adaptive bucketing.
pub fn resolve_with_default_bucketing(
    config: &SelectionConfig,
    repo: &UserRepository,
) -> Result<ResolvedConfig, String> {
    let buckets = BucketingConfig::adaptive_default().bucketize(repo);
    config.resolve(repo, &buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use podium_core::customize::custom_select_weighted;
    use podium_core::engine::CsrGraph;

    const SUMMER_PAVILION: &str = r#"{
        "title": "Summer Pavilion",
        "description": "Opinions about the Summer Pavilion restaurant only",
        "include_properties": ["avgRating Mexican", "visitFreq Mexican"],
        "weights": "lbs",
        "cov": "single",
        "budget": 2,
        "must_have": ["avgRating Mexican"]
    }"#;

    #[test]
    fn parses_with_defaults() {
        let cfg = SelectionConfig::from_json(r#"{ "title": "t" }"#).unwrap();
        assert_eq!(cfg.weights, "lbs");
        assert_eq!(cfg.cov, "single");
        assert_eq!(cfg.budget, 8);
        assert!(cfg.include_properties.is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let cfg = SelectionConfig::from_json(SUMMER_PAVILION).unwrap();
        let back = SelectionConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn scope_restricts_groups() {
        let repo = crate::table2::table2();
        let buckets = podium_core::bucket::BucketingConfig::paper_default().bucketize(&repo);
        let cfg = SelectionConfig::from_json(SUMMER_PAVILION).unwrap();
        let resolved = cfg.resolve(&repo, &buckets).unwrap();
        // Only the Mexican-related properties form groups: avgRating (2
        // buckets) + visitFreq (3 buckets) = 5 of the 16 total groups.
        assert_eq!(resolved.groups.len(), 5);
        for (gid, _) in resolved.groups.iter() {
            let label = resolved.groups.label(gid, &repo);
            assert!(label.contains("Mexican"), "out-of-scope group: {label}");
        }
    }

    #[test]
    fn resolved_config_drives_selection() {
        let repo = crate::table2::table2();
        let buckets = podium_core::bucket::BucketingConfig::paper_default().bucketize(&repo);
        let cfg = SelectionConfig::from_json(SUMMER_PAVILION).unwrap();
        let resolved = cfg.resolve(&repo, &buckets).unwrap();
        let base = resolved.weights.weights(&resolved.groups);
        let covs = resolved.cov.cov(&resolved.groups, cfg.budget);
        let csr = CsrGraph::from_group_set(&resolved.groups);
        let (sel, pool, _) = custom_select_weighted(
            &resolved.groups,
            &csr,
            &base,
            &covs,
            cfg.budget,
            &resolved.feedback,
        )
        .unwrap();
        assert_eq!(pool, 4, "Carol never rated Mexican food");
        assert_eq!(sel.users.len(), 2);
        // Every selected user satisfies the must-have.
        let mex = repo.property_id("avgRating Mexican").unwrap();
        for &u in &sel.users {
            assert!(repo.profile(u).unwrap().contains(mex));
        }
    }

    #[test]
    fn bad_inputs_are_errors() {
        assert!(SelectionConfig::from_json("{}").is_err(), "title required");
        let repo = crate::table2::table2();
        let buckets = podium_core::bucket::BucketingConfig::paper_default().bucketize(&repo);
        let mut cfg = SelectionConfig::from_json(SUMMER_PAVILION).unwrap();
        cfg.weights = "nope".into();
        assert!(cfg.resolve(&repo, &buckets).is_err());
        let mut cfg = SelectionConfig::from_json(SUMMER_PAVILION).unwrap();
        cfg.must_have = vec!["no such property".into()];
        assert!(cfg.resolve(&repo, &buckets).is_err());
        // Feedback property outside the scope is caught.
        let mut cfg = SelectionConfig::from_json(SUMMER_PAVILION).unwrap();
        cfg.must_have = vec!["livesIn Tokyo".into()];
        let err = cfg.resolve(&repo, &buckets).unwrap_err();
        assert!(err.contains("no groups within"), "{err}");
    }

    #[test]
    fn empty_scope_means_all_properties() {
        let repo = crate::table2::table2();
        let buckets = podium_core::bucket::BucketingConfig::paper_default().bucketize(&repo);
        let cfg = SelectionConfig::from_json(r#"{ "title": "all" }"#).unwrap();
        let resolved = cfg.resolve(&repo, &buckets).unwrap();
        assert_eq!(resolved.groups.len(), 16);
    }
}
