//! # podium-data
//!
//! Dataset substrate for the Podium reproduction.
//!
//! The paper (§8.1) evaluates on two real user repositories — a TripAdvisor
//! restaurant-review crawl and the Yelp Open Dataset — neither of which is
//! redistributable here. This crate provides the closest synthetic
//! equivalent that exercises the same code paths:
//!
//! * [`taxonomy`] — a cuisine/location category taxonomy supporting the
//!   generalization rules of §3.1 (e.g. Mexican ⊂ Latin);
//! * [`inference`] — profile inference rules: functional properties
//!   (`livesIn` falsehood inference) and Boolean implications;
//! * [`reviews`] — the ground-truth opinion model: ratings, topics with
//!   sentiment, usefulness votes;
//! * [`mod@derive`] — derivation of the paper's aggregate profile properties
//!   (Average Rating, Visit Frequency, Enthusiasm Level) from raw activity;
//! * [`synth`] — a latent-trait population generator with TripAdvisor-like
//!   and Yelp-like presets, plus the uniform-score serving repository
//!   ([`synth::synthetic_repository`]) the load tests and simulator share;
//! * [`split`] — the §8.2 holdout protocol: profiles for selection vs.
//!   held-out destination reviews for opinion-diversity evaluation;
//! * [`json`] — the JSON profile interchange format of the prototype (§7);
//! * [`csv`] — tabular CSV profile interchange;
//! * [`load`] — the fault-tolerant ingestion vocabulary: Strict/Lenient
//!   [`load::LoadOptions`], structured [`load::DataError`]s with record/line
//!   provenance, and per-load quarantine accounting ([`load::LoadReport`]);
//! * [`fault`] — a deterministic, seeded corruption injector for testing
//!   loader robustness;
//! * [`config`] — named diversification configurations (§7's
//!   administrator-curated presets);
//! * [`table2`] — the paper's running example repository.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `DataError` carries full provenance (source, record, line, name) by value.
// It only travels on cold failure paths, where locating the defect beats
// saving bytes; boxing would add an allocation to every construction site.
#![allow(clippy::result_large_err)]

pub mod config;
pub mod csv;
pub mod derive;
pub mod fault;
pub mod inference;
pub mod json;
pub mod load;
pub mod report;
pub mod reviews;
pub mod split;
pub mod synth;
pub mod table2;
pub mod taxonomy;

/// Commonly used items.
pub mod prelude {
    pub use crate::config::{ResolvedConfig, SelectionConfig};
    pub use crate::csv::{profiles_from_csv, profiles_from_csv_opts, profiles_to_csv};
    pub use crate::derive::{DeriveOptions, PropertyKinds};
    pub use crate::fault::{FaultInjector, FaultKind, StructuredFault};
    pub use crate::inference::{rules_from_json, InferenceEngine, Rule};
    pub use crate::json::{profiles_from_json, profiles_from_json_opts, profiles_to_json};
    pub use crate::load::{
        DataError, DataErrorKind, LoadOptions, LoadReport, Provenance, QuarantinedRecord,
    };
    pub use crate::report::{
        load_report, replay, save_report, ReplayFormat, ReplayOutcome, SavedReport,
    };
    pub use crate::reviews::{
        Destination, DestinationId, Review, ReviewCorpus, Sentiment, TopicId,
    };
    pub use crate::split::{holdout_split, HoldoutSplit};
    pub use crate::synth::{tripadvisor, yelp, SynthConfig, SynthDataset};
    pub use crate::table2::table2;
    pub use crate::taxonomy::{taxonomy_from_json, CategoryId, Taxonomy};
}
