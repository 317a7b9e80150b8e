//! Synthetic population generator — the dataset substrate standing in for
//! the paper's TripAdvisor crawl and Yelp Open Dataset (§8.1).
//!
//! The generator follows a latent-trait model chosen to preserve the
//! statistical features the paper's findings depend on:
//!
//! * users belong to latent *archetypes* (communities) with shared cuisine
//!   preferences, so the clustering baseline has real structure to find;
//! * cities, cuisines and user activity are Zipf/log-normal distributed,
//!   producing the heavy-tailed, highly overlapping group sizes that the
//!   paper observes ("skews in group sizes");
//! * ratings are driven by destination quality *plus the user's latent
//!   preference*, so users with diverse profiles genuinely hold diverse
//!   opinions — the correlation the opinion-procurement experiments test;
//! * reviews mention destination topics with rating-correlated sentiment and
//!   receive more "useful" votes when they agree with the destination
//!   consensus, mirroring the paper's usefulness rationale.
//!
//! Everything is deterministic for a fixed [`SynthConfig::seed`].

pub mod stats;
pub mod tripadvisor;
mod uniform;
pub mod yelp;

use std::collections::HashSet;

use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::derive::{derive_properties, DeriveOptions};
use crate::reviews::{Destination, DestinationId, Review, ReviewCorpus, Sentiment, TopicId};
use crate::taxonomy::Taxonomy;

pub use tripadvisor::tripadvisor;
pub use uniform::{assigned_property, synthetic_repository};
pub use yelp::yelp;

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Preset name, for reports.
    pub name: String,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Number of users.
    pub users: usize,
    /// Number of destinations (restaurants).
    pub destinations: usize,
    /// Number of cities (Zipf-skewed sizes).
    pub cities: usize,
    /// Number of age groups (0 disables the property).
    pub age_groups: usize,
    /// Number of latent user archetypes (communities).
    pub archetypes: usize,
    /// Regional categories in the cuisine taxonomy.
    pub regions: usize,
    /// Leaf cuisines per region.
    pub leaves_per_region: usize,
    /// Number of review topics (food, service, …).
    pub topics: usize,
    /// Mean of the log-normal review count per user.
    pub mean_reviews_per_user: f64,
    /// Dispersion (σ of the underlying normal) of the review count.
    pub review_dispersion: f64,
    /// Rating noise σ (stars).
    pub rating_noise: f64,
    /// How strongly latent preference shifts ratings (stars per unit).
    pub preference_gain: f64,
    /// Zipf exponent for city and cuisine popularity.
    pub zipf_exponent: f64,
    /// Whether to emit `livesIn`/`ageGroup` demographic properties.
    pub include_demographics: bool,
    /// Whether reviews receive usefulness votes (Yelp only in the paper).
    pub useful_votes: bool,
    /// Property-derivation options.
    pub derive: DeriveOptions,
}

/// A fully generated dataset: ground-truth corpus plus the derived profile
/// repository.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    /// The generating configuration.
    pub config: SynthConfig,
    /// Cuisine taxonomy.
    pub taxonomy: Taxonomy,
    /// Ground-truth reviews (the opinions to be "procured").
    pub corpus: ReviewCorpus,
    /// Profiles derived from *all* reviews (no holdout).
    pub repo: UserRepository,
    /// City names, indexed by city id.
    pub city_names: Vec<String>,
    /// Each user's home city.
    pub user_city: Vec<u32>,
    /// Each user's age group (empty when demographics are disabled).
    pub user_age_group: Vec<u32>,
}

impl SynthConfig {
    /// Generates the dataset.
    pub fn generate(&self) -> SynthDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let taxonomy = Taxonomy::generate(self.regions, self.leaves_per_region);
        let leaves = taxonomy.leaves();
        let n_leaves = leaves.len();

        let city_names: Vec<String> = (0..self.cities).map(|c| format!("City{c}")).collect();
        let city_weights = stats::zipf_weights(self.cities.max(1), self.zipf_exponent);
        let leaf_weights = stats::zipf_weights(n_leaves.max(1), self.zipf_exponent);

        // Archetype preference prototypes over leaf cuisines.
        let archetypes: Vec<Vec<f64>> = (0..self.archetypes.max(1))
            .map(|_| {
                (0..n_leaves)
                    .map(|_| stats::normal(&mut rng, 0.0, 1.0))
                    .collect()
            })
            .collect();

        // Users: home city, age group, latent preference vector, activity.
        let mut user_city = Vec::with_capacity(self.users);
        let mut user_age_group = Vec::with_capacity(self.users);
        let mut user_pref: Vec<Vec<f64>> = Vec::with_capacity(self.users);
        let mut user_reviews: Vec<usize> = Vec::with_capacity(self.users);
        for _ in 0..self.users {
            user_city.push(stats::weighted_index(&mut rng, &city_weights) as u32);
            user_age_group.push(if self.age_groups > 0 {
                rng.random_range(0..self.age_groups) as u32
            } else {
                0
            });
            let arch = &archetypes[rng.random_range(0..archetypes.len())];
            user_pref.push(
                arch.iter()
                    .map(|&a| a + stats::normal(&mut rng, 0.0, 0.5))
                    .collect(),
            );
            // Log-normal activity, clamped to at least one review.
            let mu = self.mean_reviews_per_user.max(1.0).ln()
                - self.review_dispersion * self.review_dispersion / 2.0;
            let n = stats::log_normal(&mut rng, mu, self.review_dispersion).round() as usize;
            user_reviews.push(n.clamp(1, 400));
        }

        // Destinations.
        let mut destinations = Vec::with_capacity(self.destinations);
        let mut by_category: Vec<Vec<usize>> = vec![Vec::new(); n_leaves];
        let mut by_cat_city: std::collections::HashMap<(usize, u32), Vec<usize>> =
            std::collections::HashMap::new();
        for d in 0..self.destinations {
            let leaf_idx = stats::weighted_index(&mut rng, &leaf_weights);
            let city = stats::weighted_index(&mut rng, &city_weights) as u32;
            let quality = stats::normal(&mut rng, 3.4, 0.7).clamp(1.0, 5.0);
            let n_topics = rng.random_range(3..=8.min(self.topics.max(3)));
            let topics = stats::sample_distinct(&mut rng, self.topics.max(1), n_topics)
                .into_iter()
                .map(TopicId::from_index)
                .collect();
            by_category[leaf_idx].push(d);
            by_cat_city.entry((leaf_idx, city)).or_default().push(d);
            destinations.push(Destination {
                name: format!("Restaurant{d}"),
                category: leaves[leaf_idx],
                city,
                topics,
                base_quality: quality,
            });
        }

        // Reviews.
        let mut reviews = Vec::new();
        for (u, n_rev) in user_reviews.iter().enumerate() {
            let pref = &user_pref[u];
            let probs = stats::softmax(pref, 1.2);
            let mut visited: HashSet<usize> = HashSet::new();
            for _ in 0..*n_rev {
                // Pick a cuisine by preference, then a destination of that
                // cuisine, favouring the home city.
                let mut dest: Option<usize> = None;
                for _attempt in 0..6 {
                    let leaf_idx = stats::weighted_index(&mut rng, &probs);
                    let pool: &[usize] = if rng.random::<f64>() < 0.6 {
                        by_cat_city
                            .get(&(leaf_idx, user_city[u]))
                            .map(Vec::as_slice)
                            .unwrap_or(&by_category[leaf_idx])
                    } else {
                        &by_category[leaf_idx]
                    };
                    if pool.is_empty() {
                        continue;
                    }
                    let d = pool[rng.random_range(0..pool.len())];
                    if visited.insert(d) {
                        dest = Some(d);
                        break;
                    }
                }
                let Some(d) = dest else { continue };
                let leaf_idx = leaves
                    .iter()
                    .position(|&l| l == destinations[d].category)
                    .expect("destination category is a leaf");
                let mu =
                    destinations[d].base_quality + self.preference_gain * user_pref[u][leaf_idx];
                let rating = (mu + stats::normal(&mut rng, 0.0, self.rating_noise))
                    .round()
                    .clamp(1.0, 5.0) as u8;

                // Topic mentions with rating-correlated sentiment.
                let mut topics = Vec::new();
                for &t in &destinations[d].topics {
                    if rng.random::<f64>() < 0.6 {
                        let lean = f64::from(rating) - 3.0 + stats::normal(&mut rng, 0.0, 0.8);
                        topics.push((
                            t,
                            if lean > 0.0 {
                                Sentiment::Positive
                            } else {
                                Sentiment::Negative
                            },
                        ));
                    }
                }

                // Usefulness: reviews agreeing with the destination's quality
                // consensus attract more votes, and established (high-
                // activity) reviewers draw more engagement per review —
                // both observed on real review platforms.
                let useful_votes = if self.useful_votes {
                    let agreement =
                        1.0 / (1.0 + (f64::from(rating) - destinations[d].base_quality).abs());
                    let reputation = 1.0 + (*n_rev as f64).ln().max(0.0) / 2.0;
                    stats::poisson(&mut rng, 2.5 * agreement * reputation)
                } else {
                    0
                };

                reviews.push(Review {
                    user: UserId::from_index(u),
                    destination: DestinationId::from_index(d),
                    rating,
                    topics,
                    useful_votes,
                });
            }
        }

        let topic_names = (0..self.topics).map(|t| format!("topic{t}")).collect();
        let corpus = ReviewCorpus {
            destinations,
            reviews,
            topic_names,
        };

        let mut dataset = SynthDataset {
            config: self.clone(),
            taxonomy,
            corpus,
            repo: UserRepository::new(),
            city_names,
            user_city,
            user_age_group,
        };
        dataset.repo = dataset.profiles_excluding(&|_| false);
        dataset
    }
}

impl SynthDataset {
    /// Builds a profile repository from the corpus, skipping reviews of
    /// destinations for which `exclude` returns true (the §8.2 holdout).
    /// User ids are stable across calls.
    pub fn profiles_excluding(&self, exclude: &dyn Fn(DestinationId) -> bool) -> UserRepository {
        let mut repo = UserRepository::new();
        for u in 0..self.config.users {
            repo.add_user(format!("user{u}"));
        }
        if self.config.include_demographics {
            for u in 0..self.config.users {
                let uid = UserId::from_index(u);
                let city = self.user_city[u] as usize;
                let p = repo.intern_property(format!("livesIn {}", self.city_names[city]));
                repo.set_score(uid, p, 1.0).expect("valid score");
                if self.config.age_groups > 0 {
                    let p = repo.intern_property(format!("ageGroup {}", self.user_age_group[u]));
                    repo.set_score(uid, p, 1.0).expect("valid score");
                }
            }
        }
        derive_properties(
            &mut repo,
            &self.corpus,
            &self.taxonomy,
            &self.config.derive,
            exclude,
        )
        .expect("synthetic corpus is internally consistent");
        repo
    }

    /// Categories whose labels relate to cuisine/location selection — used
    /// by experiments that diversify "on properties related to cuisine and
    /// location" (§8.4, opinion-diversity setup).
    pub fn cuisine_location_properties(
        &self,
        repo: &UserRepository,
    ) -> Vec<podium_core::ids::PropertyId> {
        (0..repo.property_count())
            .map(podium_core::ids::PropertyId::from_index)
            .filter(|&p| {
                repo.property_label(p)
                    .map(|l| {
                        l.starts_with("avgRating")
                            || l.starts_with("visitFreq")
                            || l.starts_with("enthusiasm")
                            || l.starts_with("livesIn")
                    })
                    .unwrap_or(false)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SynthConfig {
        SynthConfig {
            name: "tiny".into(),
            seed: 7,
            users: 60,
            destinations: 80,
            cities: 5,
            age_groups: 3,
            archetypes: 3,
            regions: 3,
            leaves_per_region: 4,
            topics: 10,
            mean_reviews_per_user: 8.0,
            review_dispersion: 0.6,
            rating_noise: 0.7,
            preference_gain: 0.8,
            zipf_exponent: 1.0,
            include_demographics: true,
            useful_votes: true,
            derive: DeriveOptions::default(),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_config().generate();
        let b = tiny_config().generate();
        assert_eq!(a.corpus.review_count(), b.corpus.review_count());
        assert_eq!(a.repo.property_count(), b.repo.property_count());
        assert_eq!(a.user_city, b.user_city);
        for (ra, rb) in a.corpus.reviews.iter().zip(&b.corpus.reviews) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_config().generate();
        let mut cfg = tiny_config();
        cfg.seed = 8;
        let b = cfg.generate();
        assert_ne!(
            a.corpus
                .reviews
                .iter()
                .map(|r| r.rating)
                .collect::<Vec<_>>(),
            b.corpus
                .reviews
                .iter()
                .map(|r| r.rating)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_user_reviews_something() {
        let d = tiny_config().generate();
        let mut active = vec![false; d.config.users];
        for r in &d.corpus.reviews {
            active[r.user.index()] = true;
            assert!((1..=5).contains(&r.rating));
        }
        let active_count = active.iter().filter(|&&a| a).count();
        assert!(active_count >= d.config.users * 9 / 10, "{active_count}");
    }

    #[test]
    fn profiles_contain_demographics_and_aggregates() {
        let d = tiny_config().generate();
        assert_eq!(d.repo.user_count(), 60);
        let u0 = UserId(0);
        let city = d.user_city[0] as usize;
        let p = d
            .repo
            .property_id(&format!("livesIn City{city}"))
            .expect("home-city property exists");
        assert_eq!(d.repo.score(u0, p), Some(1.0));
        assert!(
            d.repo.property_count() >= 40,
            "rich profiles: {} properties",
            d.repo.property_count()
        );
        assert!(d.repo.mean_profile_size() > 5.0);
    }

    #[test]
    fn holdout_profiles_have_no_leakage() {
        let d = tiny_config().generate();
        // Exclude the busiest destination and verify profile shrinkage.
        let counts = d.corpus.review_counts();
        let busiest = DestinationId::from_index(
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap(),
        );
        let full = d.repo.clone();
        let held = d.profiles_excluding(&|dd| dd == busiest);
        let total_full: usize = (0..full.user_count())
            .map(|u| full.profile(UserId::from_index(u)).unwrap().len())
            .sum();
        let total_held: usize = (0..held.user_count())
            .map(|u| held.profile(UserId::from_index(u)).unwrap().len())
            .sum();
        assert!(total_held < total_full, "held-out reviews removed");
        assert_eq!(held.user_count(), full.user_count(), "stable user ids");
    }

    #[test]
    fn zipf_city_sizes_are_skewed() {
        let d = tiny_config().generate();
        let mut counts = vec![0usize; d.config.cities];
        for &c in &d.user_city {
            counts[c as usize] += 1;
        }
        assert!(
            counts[0] > counts[d.config.cities - 1],
            "city sizes skewed: {counts:?}"
        );
    }

    #[test]
    fn useful_votes_present_when_enabled() {
        let d = tiny_config().generate();
        assert!(d.corpus.reviews.iter().any(|r| r.useful_votes > 0));
        let mut cfg = tiny_config();
        cfg.useful_votes = false;
        let d2 = cfg.generate();
        assert!(d2.corpus.reviews.iter().all(|r| r.useful_votes == 0));
    }

    #[test]
    fn topics_carry_sentiment_correlated_with_rating() {
        let d = tiny_config().generate();
        let (mut pos_high, mut n_high, mut pos_low, mut n_low) = (0f64, 0f64, 0f64, 0f64);
        for r in &d.corpus.reviews {
            for &(_, s) in &r.topics {
                let pos = f64::from(s == Sentiment::Positive);
                if r.rating >= 4 {
                    pos_high += pos;
                    n_high += 1.0;
                } else if r.rating <= 2 {
                    pos_low += pos;
                    n_low += 1.0;
                }
            }
        }
        assert!(n_high > 0.0 && n_low > 0.0);
        assert!(
            pos_high / n_high > pos_low / n_low + 0.2,
            "sentiment tracks rating: high {} low {}",
            pos_high / n_high,
            pos_low / n_low
        );
    }

    #[test]
    fn group_sizes_are_heavy_tailed() {
        // The paper's datasets have "skews in group sizes" that break
        // distance-based selection; verify the generator reproduces them:
        // the largest decile of groups holds a disproportionate share of
        // memberships.
        let d = super::yelp::yelp(0.01, 3).generate();
        let buckets = podium_core::bucket::BucketingConfig::adaptive_default().bucketize(&d.repo);
        let groups = podium_core::group::GroupSet::build(&d.repo, &buckets);
        let mut sizes: Vec<usize> = groups.iter().map(|(_, g)| g.size()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = sizes.iter().sum();
        let top_decile: usize = sizes[..sizes.len().div_ceil(10)].iter().sum();
        assert!(
            top_decile as f64 > 0.3 * total as f64,
            "top 10% of groups hold {top_decile} of {total} memberships"
        );
        // And a long tail of niche groups exists: at least a fifth of the
        // groups hold under 5% of the population each. (The exact share
        // depends on the seeded RNG stream, which is implementation-defined;
        // a fifth leaves headroom without losing the heavy-tail property.)
        let niche_cutoff = d.repo.user_count() / 20;
        let small = sizes.iter().filter(|&&s| s <= niche_cutoff).count();
        assert!(
            small * 5 >= sizes.len(),
            "{small} of {} groups are niche (≤{niche_cutoff})",
            sizes.len()
        );
    }

    #[test]
    fn profile_opinion_correlation_exists() {
        // Users with similar profiles must rate shared destinations more
        // similarly than dissimilar users do — the premise behind "diverse
        // users provide diverse opinions".
        let d = tiny_config().generate();
        // For each destination with >= 2 reviews, record (profile distance,
        // rating difference) over reviewer pairs; split at the median
        // distance and compare mean rating differences.
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        let mut by_dest: std::collections::HashMap<u32, Vec<(UserId, u8)>> =
            std::collections::HashMap::new();
        for r in &d.corpus.reviews {
            by_dest
                .entry(r.destination.0)
                .or_default()
                .push((r.user, r.rating));
        }
        for reviews in by_dest.values() {
            for i in 0..reviews.len() {
                for j in (i + 1)..reviews.len() {
                    let (ua, ra) = reviews[i];
                    let (ub, rb) = reviews[j];
                    let pa = d.repo.profile(ua).unwrap();
                    let pb = d.repo.profile(ub).unwrap();
                    let dist = pa.jaccard_distance(pb);
                    let diff = (f64::from(ra) - f64::from(rb)).abs();
                    pairs.push((dist, diff));
                }
            }
        }
        assert!(pairs.len() > 50, "{} reviewer pairs", pairs.len());
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let half = pairs.len() / 2;
        let mean = |v: &[(f64, f64)]| v.iter().map(|p| p.1).sum::<f64>() / v.len() as f64;
        let similar = mean(&pairs[..half]);
        let dissimilar = mean(&pairs[half..]);
        assert!(
            similar < dissimilar,
            "similar-profile pairs should agree more: {similar} vs {dissimilar}"
        );
    }

    #[test]
    fn cuisine_location_property_filter() {
        let d = tiny_config().generate();
        let props = d.cuisine_location_properties(&d.repo);
        assert!(!props.is_empty());
        for p in props {
            let l = d.repo.property_label(p).unwrap();
            assert!(!l.starts_with("ageGroup"), "demographics filtered: {l}");
        }
    }
}
