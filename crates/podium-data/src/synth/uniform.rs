//! The serving workload's repository: uniform scores over a rotating
//! property window.
//!
//! The load tests, the recovery tests and the workload simulator all
//! serve a repository of `user-{i}` / `topic-{p}` names in which every
//! user scores a fixed number of properties. This module builds that
//! repository and owns the property window that both
//! [`synthetic_repository`] and the simulator's population assign with.

use podium_core::profile::UserRepository;
use podium_core::rng::unit_float;

/// The property (index into `0..properties`) a user scores in window
/// slot `slot` when each user scores `spu` properties: the window
/// rotates per user with a stride of `properties / spu`, so every
/// property ends up populated.
pub fn assigned_property(user_ordinal: usize, slot: usize, properties: usize, spu: usize) -> usize {
    let stride = (properties / spu.max(1)).max(1);
    (user_ordinal + slot * stride) % properties.max(1)
}

/// Builds the synthetic serving repository: `users` users, each with
/// `scores_per_user` scores over `properties` properties, uniform in
/// `[0, 1)`. The same seed builds the same repository.
pub fn synthetic_repository(
    users: usize,
    properties: usize,
    scores_per_user: usize,
    seed: u64,
) -> UserRepository {
    let mut repo = UserRepository::new();
    let props: Vec<_> = (0..properties)
        .map(|p| repo.intern_property(format!("topic-{p}")))
        .collect();
    let mut rng = seed;
    for i in 0..users {
        let u = repo.add_user(format!("user-{i}"));
        for s in 0..scores_per_user.min(properties) {
            let p = props[assigned_property(i, s, properties, scores_per_user)];
            repo.set_score(u, p, unit_float(&mut rng))
                .expect("synthetic scores are in range");
        }
    }
    repo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_repository_is_deterministic() {
        let a = synthetic_repository(50, 8, 3, 42);
        let b = synthetic_repository(50, 8, 3, 42);
        assert_eq!(a.user_count(), 50);
        assert_eq!(a.property_count(), 8);
        for u in a.users() {
            assert_eq!(a.profile(u).unwrap(), b.profile(u).unwrap());
        }
    }

    #[test]
    fn the_rotating_window_populates_every_property() {
        let mut seen = [false; 6];
        for user in 0..20 {
            for slot in 0..3 {
                seen[assigned_property(user, slot, 6, 3)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        assert_eq!(assigned_property(0, 1, 6, 3), 2, "stride 6 / 3");
        assert_eq!(
            assigned_property(5, 0, 0, 0),
            0,
            "degenerate sizes stay in range"
        );
    }
}
