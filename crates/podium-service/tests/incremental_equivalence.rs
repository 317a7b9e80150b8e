//! Delta-equivalence property: an incremental writer (CSR patching, memo
//! carrying) and a full-rebuild writer fed the same update stream publish
//! **bit-identical** epochs.
//!
//! At every published epoch the two paths must agree on
//!
//! * the CSR adjacency itself (offsets and edges, both directions), and
//! * the greedy selection for a grid of parameters — users, per-round
//!   gains, total score, and per-group coverage counts, exactly
//!   (`Selection` equality is full structural equality over `f64` bit
//!   patterns produced by the same arithmetic).
//!
//! The generator drives the writer through every delta shape: same-bucket
//! tweaks, bucket moves, retractions, slots that empty or fill (deltas
//! that shift group ids), brand-new users (the one delta that rebuilds),
//! empty-delta publishes (consecutive publish points), full-churn batches
//! that touch every user, and readers that hold a snapshot across several
//! publishes, so recycled buffers come back several epochs stale.
//! Deterministic companions below pin the riskiest regimes — long runs of
//! consecutive one-user publishes, every-user churn, and a slot whose
//! only member moves every epoch, so every delta shifts ids.

use podium_core::bucket::BucketingConfig;
use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use podium_core::weights::{CovScheme, WeightScheme};
use std::collections::VecDeque;
use std::sync::Arc;

use podium_service::snapshot::{
    ProfileUpdate, PublishMode, RepositoryWriter, SelectParams, Snapshot,
};
use proptest::prelude::*;

const PROPERTIES: [&str; 2] = ["avgRating Mexican", "livesIn Tokyo"];

/// Grid score in [0, 1]: coarse enough to exercise every bucket edge of
/// the paper-default fixed bucketing.
fn score_from(grid: u8) -> f64 {
    f64::from(grid % 101) / 100.0
}

fn seed_repo(n: usize, grids: &[u8]) -> UserRepository {
    let mut repo = UserRepository::new();
    let pids: Vec<_> = PROPERTIES
        .iter()
        .map(|p| repo.intern_property(*p))
        .collect();
    for i in 0..n {
        let u = repo.add_user(format!("u{i}"));
        for (j, &pid) in pids.iter().enumerate() {
            let grid = grids[(i * pids.len() + j) % grids.len()];
            // A sparse profile: grid 0 means "no score for this property".
            if grid != 0 {
                repo.set_score(u, pid, score_from(grid)).unwrap();
            }
        }
    }
    repo
}

/// One generated operation against the update stream.
#[derive(Debug, Clone)]
struct Op {
    /// Index into the (growing) user universe; indexes past the current
    /// count create new users.
    user: usize,
    property: usize,
    /// `None` retracts, `Some(grid)` sets.
    score: Option<u8>,
    /// Publish both writers after applying this op.
    publish_after: bool,
    /// Hold the published snapshot for this many further publishes, as a
    /// reader mid-select or a pinned session does.
    hold: u8,
}

fn op_strategy(universe: usize) -> impl Strategy<Value = Op> {
    (
        0..universe + 2,
        0..PROPERTIES.len(),
        prop::option::of(0u8..=101),
        any::<bool>(),
        0u8..12,
    )
        .prop_map(|(user, property, score, publish_after, hold)| Op {
            user,
            property,
            score,
            publish_after,
            // Two ops in three hold nothing; the rest hold 1–4 publishes.
            hold: hold.saturating_sub(7),
        })
}

/// Asserts the two current snapshots are structurally identical and that
/// a parameter grid of selections is bit-for-bit equal.
fn assert_epochs_match(
    s_inc: &podium_service::snapshot::SnapshotStore,
    s_full: &podium_service::snapshot::SnapshotStore,
    n: usize,
    context: &str,
) {
    let a = s_inc.load();
    let b = s_full.load();
    assert_eq!(a.epoch(), b.epoch(), "{context}: epochs diverged");
    assert_eq!(a.csr(), b.csr(), "{context}: CSR adjacency diverged");
    // The group set (patched in place across possibly several epochs of
    // staleness) and the repository copy (caught up by update replay)
    // must also match the full rebuild structurally.
    assert_eq!(
        a.groups().len(),
        b.groups().len(),
        "{context}: group counts"
    );
    for ((ga, x), (_, y)) in a.groups().iter().zip(b.groups().iter()) {
        assert_eq!(x.kind, y.kind, "{context}: kind of {ga}");
        assert_eq!(x.members, y.members, "{context}: members of {ga}");
    }
    let everyone: Vec<UserId> = (0..n).map(UserId::from_index).collect();
    for &u in &everyone {
        assert_eq!(
            a.groups().groups_of(u),
            b.groups().groups_of(u),
            "{context}: reverse links of {u}"
        );
    }
    assert_eq!(
        a.user_names(&everyone),
        b.user_names(&everyone),
        "{context}: repository names diverged"
    );
    for budget in [1, 2, n.div_ceil(2)] {
        for weight in [WeightScheme::LinearBySize, WeightScheme::Identical] {
            let p = SelectParams {
                budget,
                weight,
                cov: CovScheme::Single,
                quota_hash: 0,
            };
            let x = a.select(&p, None).unwrap();
            let y = b.select(&p, None).unwrap();
            assert_eq!(
                x.selection, y.selection,
                "{context}: budget {budget} {weight:?} selection diverged"
            );
        }
    }
}

/// Publishes both writers and asserts the incremental one rebuilt nothing
/// unless the epoch added users.
fn publish_both(w_inc: &mut RepositoryWriter, w_full: &mut RepositoryWriter, added_users: bool) {
    w_inc.publish();
    w_full.publish();
    let build = w_inc.publish_stats().last;
    assert_eq!(
        build.patched, !added_users,
        "CSR rebuilt only when users join"
    );
    assert_eq!(
        build.groups_patched, !added_users,
        "group set rebuilt only when users join"
    );
}

/// Replays `ops` through an incremental and a full-rebuild writer,
/// asserting equivalence at every publish point.
fn replay(n: usize, grids: &[u8], ops: &[Op]) {
    let repo = seed_repo(n, grids);
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    let (s_inc, mut w_inc) =
        RepositoryWriter::with_mode(repo.clone(), &buckets, PublishMode::Incremental);
    let (s_full, mut w_full) =
        RepositoryWriter::with_mode(repo, &buckets, PublishMode::FullRebuild);
    assert_epochs_match(&s_inc, &s_full, n, "epoch 0");
    let mut user_count = n;
    let mut added_users = false;
    // Snapshots readers still hold, with the publishes left to hold them.
    let mut held: VecDeque<(Arc<Snapshot>, u8)> = VecDeque::new();
    for (i, op) in ops.iter().enumerate() {
        let user = op.user.min(user_count); // at most one past the end
        let is_new = user >= user_count;
        let update = ProfileUpdate {
            user: format!("u{user}"),
            // Retracting from an unknown user is a typed error; force
            // new users in with a score.
            property: PROPERTIES[op.property].to_owned(),
            score: match (is_new, op.score) {
                (true, None) => Some(0.5),
                (_, grid) => grid.map(score_from),
            },
        };
        let r_inc = w_inc.apply(&update);
        let r_full = w_full.apply(&update);
        assert_eq!(
            r_inc.is_ok(),
            r_full.is_ok(),
            "op {i}: apply outcomes diverged"
        );
        if r_inc.is_ok() && is_new {
            user_count += 1;
            added_users = true;
        }
        if op.publish_after {
            publish_both(&mut w_inc, &mut w_full, std::mem::take(&mut added_users));
            assert_epochs_match(&s_inc, &s_full, user_count, &format!("op {i}"));
            held.retain_mut(|(_, left)| {
                *left -= 1;
                *left > 0
            });
            if op.hold > 0 {
                held.push_back((s_inc.load(), op.hold));
            }
        }
    }
    publish_both(&mut w_inc, &mut w_full, added_users);
    assert_epochs_match(&s_inc, &s_full, user_count, "final publish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn patched_epochs_are_bit_identical_to_rebuilt_ones(
        n in 3usize..10,
        grids in prop::collection::vec(0u8..=101, 4..20),
        ops in prop::collection::vec(op_strategy(10), 0..24),
    ) {
        replay(n, &grids, &ops);
    }
}

/// Full churn: every user changes in every batch. The delta's changed
/// set is the whole universe, so the CSR patch rewrites every row and
/// memo carrying finds every group dirty.
#[test]
fn full_churn_batches_stay_equivalent() {
    let ops: Vec<Op> = (0..40)
        .map(|i| Op {
            user: i % 8,
            property: i % PROPERTIES.len(),
            score: Some((7 * i % 102) as u8),
            publish_after: i % 8 == 7,
            hold: 0,
        })
        .collect();
    replay(8, &[13, 0, 47, 66, 91, 25, 58, 80], &ops);
}

/// Many consecutive single-user, patchable publishes: every epoch patches
/// the previous one's CSR, group set and repository copy, and the
/// recycled buffers cycle through the publish history dozens of times.
#[test]
fn long_patchable_runs_stay_equivalent() {
    let ops: Vec<Op> = (0..40)
        .map(|i| Op {
            user: 1 + i % 3,
            property: 0,
            score: Some((11 + 29 * i % 90) as u8),
            publish_after: true,
            hold: if i % 5 == 0 { 3 } else { 0 },
        })
        .collect();
    replay(6, &[40, 90, 50, 90, 60, 90, 10, 90, 20, 90, 70, 90], &ops);
}

/// Every delta shifts group ids: user 0 starts unrated for Mexican food,
/// everyone else rates it high, and user 0 moves into the low and middle
/// buckets, between them and out of the property, one move per epoch, so
/// each move empties or fills a slot.
/// Readers hold snapshots across publishes, so recycled group sets catch
/// up across several id shifts at once, and a hold past the publish
/// history forces the copy fallback.
#[test]
fn every_epoch_shifting_ids_stays_equivalent() {
    let ops: Vec<Op> = (0..48)
        .map(|i| Op {
            user: 0,
            property: 0,
            score: [Some(20), Some(50), None, Some(30), None, Some(60)][i % 6],
            publish_after: true,
            hold: match i % 12 {
                0 => 2,
                5 => 4,
                9 => 1,
                _ => 0,
            } + if i == 20 { 20 } else { 0 },
        })
        .collect();
    replay(5, &[0, 70, 80, 90, 75, 85, 95, 66, 88, 77], &ops);
}
