//! Inputs, all generated from `--seed`: the two repositories from the
//! paper, the update stream and the request lines the program receives.

use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use podium_data::derive::{DeriveOptions, PropertyKinds};
use podium_data::json::{profiles_from_json, profiles_to_json};
use podium_data::synth::{self, SynthConfig};
use serde_json::Value;

use crate::rng::{Digest, Rng};

/// Stream salts, one per kind of input drawn from the seed.
const SALT_UPDATES: u64 = 1;
/// Salt of the session group picks.
pub const SALT_SESSIONS: u64 = 2;

/// The serving repository: the TripAdvisor shape at the paper's scale
/// (4,475 users, §8.1), or 5% of it in quick mode.
pub fn serving_repo(seed: u64, quick: bool) -> UserRepository {
    synth::tripadvisor(if quick { 0.05 } else { 1.0 }, seed)
        .generate()
        .repo
}

/// `repo` as a server loads it from a profiles file. Property ids follow
/// the file's order, which is also the order every checkpoint reloads
/// them in.
pub fn as_loaded(repo: &UserRepository) -> UserRepository {
    let text = profiles_to_json(repo).expect("a generated repository serializes");
    profiles_from_json(&text).expect("serialized profiles load back")
}

/// The largest point of Fig. 5 (§8.5): 8,000 users, six leaf cuisines per
/// region, field for field the scalability sweep's configuration; 400 users
/// in quick mode.
pub fn fig5_config(seed: u64, quick: bool) -> SynthConfig {
    let users = if quick { 400 } else { 8000 };
    let leaves_per_region = 6;
    SynthConfig {
        name: format!("scal-{users}u-{leaves_per_region}l"),
        seed,
        users,
        destinations: (users / 2).max(50),
        cities: 10,
        age_groups: 4,
        archetypes: 6,
        regions: 6,
        leaves_per_region,
        topics: 12,
        mean_reviews_per_user: 12.0,
        review_dispersion: 0.6,
        rating_noise: 0.7,
        preference_gain: 0.8,
        zipf_exponent: 1.0,
        include_demographics: true,
        useful_votes: false,
        derive: DeriveOptions {
            kinds: PropertyKinds::all(),
            min_visits: 1,
            generalize: true,
            city_properties: false,
        },
    }
}

/// The groups one session works with, drawn uniformly from `groups` ids:
/// `[floor, ceiling, must_not, priority]`. The floor (`min_count` 1) and
/// ceiling (`max_count` 2) quotas name distinct groups, since a group may
/// carry one quota only; every group is non-empty, so the pair is always
/// feasible for a slate of 8.
pub fn session_groups(rng: &mut Rng, groups: usize) -> [u32; 4] {
    let n = groups.max(2);
    let floor = rng.below(n);
    let ceiling = (floor + 1 + rng.below(n - 1)) % n;
    [floor, ceiling, rng.below(n), rng.below(n)].map(|g| g as u32)
}

/// A request line from `(key, value)` fields.
pub fn line(fields: Vec<(&str, Value)>) -> String {
    let pairs = fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    serde_json::to_string(&Value::Object(pairs)).expect("request lines are plain JSON values")
}

/// A JSON integer.
pub fn int(n: u64) -> Value {
    Value::Number(serde_json::Number::PosInt(n))
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

/// A `select` line for a budget and weight scheme tag (`lbs` or `iden`).
pub fn select_line(budget: u64, weights: &str) -> String {
    line(vec![
        ("op", text("select")),
        ("budget", int(budget)),
        ("weights", text(weights)),
    ])
}

/// The seeded update stream: each update re-scores an existing
/// (user, property) pair whose score lies strictly inside (0, 1) with a
/// uniform score in (0, 1). Such a property is never Boolean before or
/// after the update, so its buckets, and the group structure a reference
/// fit derives, stay those the service was built with.
#[derive(Debug)]
pub struct UpdateStream<'r> {
    repo: &'r UserRepository,
    rng: Rng,
}

impl<'r> UpdateStream<'r> {
    /// The stream for `seed` over `repo`'s genesis pairs.
    pub fn new(repo: &'r UserRepository, seed: u64) -> Self {
        Self {
            repo,
            rng: Rng::new(seed, SALT_UPDATES),
        }
    }

    /// The next update as `(user, property, score)`.
    pub fn next_update(&mut self) -> (String, String, f64) {
        for _ in 0..1_000_000 {
            let u = UserId::from_index(self.rng.below(self.repo.user_count()));
            let Ok(profile) = self.repo.profile(u) else {
                continue;
            };
            let fractional: Vec<_> = profile
                .iter()
                .filter(|&(_, s)| s > 0.0 && s < 1.0)
                .map(|(p, _)| p)
                .collect();
            if fractional.is_empty() {
                continue;
            }
            let p = fractional[self.rng.below(fractional.len())];
            if let (Ok(user), Ok(property)) = (self.repo.user_name(u), self.repo.property_label(p))
            {
                return (user.to_owned(), property.to_owned(), self.rng.open_unit());
            }
        }
        panic!("the repository has no score strictly inside (0, 1) to re-score");
    }

    /// The next update as an `update-profile` request line.
    pub fn next_line(&mut self) -> String {
        let (user, property, score) = self.next_update();
        line(vec![
            ("op", text("update-profile")),
            ("user", text(&user)),
            ("property", text(&property)),
            ("score", Value::Number(serde_json::Number::Float(score))),
        ])
    }
}

/// Digest of a repository's users and scores in storage order.
pub fn repo_digest(repo: &UserRepository, digest: &mut Digest) {
    for (u, profile) in repo.iter() {
        digest.write(repo.user_name(u).unwrap_or_default().as_bytes());
        for (p, s) in profile.iter() {
            digest.write(repo.property_label(p).unwrap_or_default().as_bytes());
            digest.write(&s.to_bits().to_le_bytes());
        }
    }
}
