//! The synthetic population and its drift state.
//!
//! The simulator mirrors the server's view of every user: each
//! (user, property) pair carries a *bucket* state (an index into the
//! scenario's equal-width buckets), and opinion drift is a Markov step
//! over those buckets. Scores written to the repository are the
//! scenario's `bucket_scores[bucket]`, so the repository's equal-width
//! grouping and the simulator's drift state agree by construction.

use podium_core::bucket::{BucketStrategy, BucketingConfig, PropertyBuckets};
use podium_core::profile::UserRepository;
use podium_core::rng::Rng;
use podium_data::synth::assigned_property;

use crate::scenario::Scenario;

/// One simulated user.
#[derive(Debug, Clone)]
pub struct SimUser {
    /// Repository user name (`sim-user-{n}`).
    pub name: String,
    /// `(property index, bucket state)` for every property the user
    /// scores on.
    pub props: Vec<(usize, usize)>,
    /// False once churned.
    pub alive: bool,
}

/// The evolving population.
#[derive(Debug, Default)]
pub struct Population {
    /// Every user ever created, arrival order.
    pub users: Vec<SimUser>,
    /// Indices into `users` that are currently alive.
    pub active: Vec<usize>,
}

impl Population {
    /// Picks a live user uniformly; `None` when everyone has churned.
    pub fn pick_active(&self, rng: &mut Rng) -> Option<usize> {
        if self.active.is_empty() {
            return None;
        }
        self.active.get(rng.below(self.active.len())).copied()
    }

    /// Removes `user` (an index into `users`) from the active list.
    /// `swap_remove` keeps removal O(1) and stays deterministic because
    /// the list is only mutated through this path and `push`.
    pub fn deactivate(&mut self, user: usize) {
        if let Some(pos) = self.active.iter().position(|&u| u == user) {
            self.active.swap_remove(pos);
        }
        if let Some(u) = self.users.get_mut(user) {
            u.alive = false;
        }
    }

    /// Appends a freshly arrived user and returns its index.
    pub fn push(&mut self, user: SimUser) -> usize {
        let idx = self.users.len();
        self.users.push(user);
        self.active.push(idx);
        idx
    }
}

/// Builds the initial repository plus the simulator's mirror of it, and
/// the equal-width bucketing the service will group by.
pub fn build_initial(
    scenario: &Scenario,
    rng: &mut Rng,
) -> (UserRepository, PropertyBuckets, Population) {
    let buckets = scenario.drift.bucket_scores.len();
    let mut repo = UserRepository::new();
    let props: Vec<_> = (0..scenario.population.properties)
        .map(|p| repo.intern_property(format!("topic-{p}")))
        .collect();
    let mut pop = Population::default();
    for i in 0..scenario.population.users {
        let mut user = SimUser {
            name: format!("sim-user-{i}"),
            props: Vec::with_capacity(scenario.population.scores_per_user),
            alive: true,
        };
        let uid = repo.add_user(user.name.clone());
        for s in 0..scenario.population.scores_per_user {
            let p = assigned_property(
                i,
                s,
                scenario.population.properties,
                scenario.population.scores_per_user,
            );
            let bucket = rng.below(buckets);
            let score = bucket_score(scenario, bucket);
            if let Some(pid) = props.get(p) {
                if repo.set_score(uid, *pid, score).is_ok() {
                    user.props.push((p, bucket));
                }
            }
        }
        pop.push(user);
    }
    // Equal-width bucketing with exactly the scenario's bucket count, so
    // the server's group structure matches the drift-state model.
    let config = BucketingConfig {
        strategy: BucketStrategy::EqualWidth,
        buckets_per_property: buckets,
        detect_boolean: false,
    };
    let property_buckets = config.bucketize(&repo);
    (repo, property_buckets, pop)
}

/// The representative score of `bucket` under `scenario`.
pub fn bucket_score(scenario: &Scenario, bucket: usize) -> f64 {
    scenario
        .drift
        .bucket_scores
        .get(bucket)
        .copied()
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parse_scenario;

    fn scenario() -> Scenario {
        parse_scenario(
            r#"{
            "schema": "podium.scenario/1", "name": "t", "duration_s": 1,
            "population": {"users": 20, "properties": 6, "scores_per_user": 3}
        }"#,
        )
        .unwrap()
    }

    #[test]
    fn initial_population_is_deterministic() {
        let s = scenario();
        let (repo_a, _, pop_a) = build_initial(&s, &mut Rng::new(9));
        let (repo_b, _, pop_b) = build_initial(&s, &mut Rng::new(9));
        assert_eq!(repo_a.user_count(), repo_b.user_count());
        assert_eq!(pop_a.users.len(), pop_b.users.len());
        for (a, b) in pop_a.users.iter().zip(pop_b.users.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.props, b.props);
        }
    }

    #[test]
    fn every_property_gets_populated() {
        let s = scenario();
        let (_, _, pop) = build_initial(&s, &mut Rng::new(9));
        let mut seen = vec![false; s.population.properties];
        for u in &pop.users {
            for (p, _) in &u.props {
                seen[*p] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
    }

    #[test]
    fn deactivate_removes_from_active() {
        let s = scenario();
        let (_, _, mut pop) = build_initial(&s, &mut Rng::new(9));
        let n = pop.active.len();
        pop.deactivate(3);
        assert_eq!(pop.active.len(), n - 1);
        assert!(!pop.users[3].alive);
        assert!(!pop.active.contains(&3));
    }

    #[test]
    fn pick_active_is_none_when_everyone_churned() {
        let mut pop = Population::default();
        assert!(pop.pick_active(&mut Rng::new(1)).is_none());
        pop.push(SimUser {
            name: "u".into(),
            props: vec![],
            alive: true,
        });
        assert_eq!(pop.pick_active(&mut Rng::new(1)), Some(0));
    }
}
