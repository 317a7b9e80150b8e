//! Customization sessions: the paper's §6 refine-and-reselect loop as a
//! server-side object.
//!
//! A session pins the snapshot that was current when it was opened and
//! accumulates feedback — `G+` (must have), `G-` (must not), `Gd`
//! (priority coverage), `Gd?` (standard coverage) — across any number of
//! `refine` requests. Every refinement re-runs CUSTOM-DIVERSITY against
//! the *pinned* epoch, so group ids stay stable for the whole
//! conversation and a concurrent writer can keep publishing without
//! invalidating the client's mental model. Closing the session (or
//! dropping the manager) releases the pinned snapshot.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use podium_core::customize::{custom_select_weighted, CustomSelection, Feedback};
use podium_core::ids::GroupId;
use podium_core::weights::{CovScheme, WeightScheme};

use crate::error::ServiceError;
use crate::poison;
use crate::snapshot::{Snapshot, SnapshotStore};

/// A feedback delta carried by one `refine` request; merged into the
/// session's accumulated state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackDelta {
    /// Group ids to add to `G+`.
    pub must_have: Vec<u32>,
    /// Group ids to add to `G-`.
    pub must_not: Vec<u32>,
    /// Group ids to add to `Gd`.
    pub priority: Vec<u32>,
    /// Group ids to set as the explicit `Gd?`; `None` leaves the current
    /// choice (default: every non-priority group).
    pub standard: Option<Vec<u32>>,
    /// When true, clears all accumulated feedback before merging.
    pub reset: bool,
}

/// One pinned-epoch customization session.
#[derive(Debug)]
pub struct Session {
    snapshot: Arc<Snapshot>,
    feedback: Feedback,
}

impl Session {
    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The accumulated feedback.
    pub fn feedback(&self) -> &Feedback {
        &self.feedback
    }

    fn check_group(&self, raw: u32) -> Result<GroupId, ServiceError> {
        let g = GroupId(raw);
        if (raw as usize) < self.snapshot.groups().len() {
            Ok(g)
        } else {
            Err(ServiceError::BadRequest(format!(
                "group {raw} out of range for epoch {} ({} groups)",
                self.snapshot.epoch(),
                self.snapshot.groups().len()
            )))
        }
    }

    fn merge(&mut self, delta: &FeedbackDelta) -> Result<(), ServiceError> {
        if delta.reset {
            self.feedback = Feedback::default();
        }
        let mut merged = self.feedback.clone();
        for &g in &delta.must_have {
            merged.must_have.push(self.check_group(g)?);
        }
        for &g in &delta.must_not {
            merged.must_not.push(self.check_group(g)?);
        }
        for &g in &delta.priority {
            merged.priority.push(self.check_group(g)?);
        }
        if let Some(std_set) = &delta.standard {
            let mut resolved = Vec::with_capacity(std_set.len());
            for &g in std_set {
                resolved.push(self.check_group(g)?);
            }
            merged.standard = Some(resolved);
        }
        for list in [
            &mut merged.must_have,
            &mut merged.must_not,
            &mut merged.priority,
        ] {
            list.sort();
            list.dedup();
        }
        // Contradictions (a group both required and forbidden) fail the
        // merge atomically: the session keeps its previous feedback.
        merged.validate().map_err(ServiceError::Core)?;
        self.feedback = merged;
        Ok(())
    }

    /// Merges `delta` and re-runs CUSTOM-DIVERSITY on the pinned snapshot.
    pub fn refine(
        &mut self,
        delta: &FeedbackDelta,
        weight: WeightScheme,
        cov: CovScheme,
        budget: usize,
    ) -> Result<CustomSelection, ServiceError> {
        self.merge(delta)?;
        let groups = self.snapshot.groups();
        let base = weight.weights(groups);
        let covs = cov.cov(groups, budget);
        let (selection, pool_size, feedback_group_coverage) = custom_select_weighted(
            groups,
            self.snapshot.csr(),
            &base,
            &covs,
            budget,
            &self.feedback,
        )
        .map_err(ServiceError::Core)?;
        Ok(CustomSelection {
            selection,
            pool_size,
            feedback_group_coverage,
        })
    }
}

/// Owner of all live sessions.
#[derive(Debug, Default)]
pub struct SessionManager {
    inner: Mutex<SessionTable>,
}

#[derive(Debug, Default)]
struct SessionTable {
    next_id: u64,
    sessions: HashMap<u64, Session>,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a session pinned to the store's current snapshot; returns
    /// `(session id, pinned epoch)`.
    pub fn open(&self, store: &SnapshotStore) -> (u64, u64) {
        let snapshot = store.load();
        let epoch = snapshot.epoch();
        let mut table = poison::recover(self.inner.lock());
        let id = table.next_id;
        table.next_id += 1;
        table.sessions.insert(
            id,
            Session {
                snapshot,
                feedback: Feedback::default(),
            },
        );
        (id, epoch)
    }

    /// Closes a session, releasing its pinned snapshot.
    pub fn close(&self, id: u64) -> Result<(), ServiceError> {
        let mut table = poison::recover(self.inner.lock());
        table
            .sessions
            .remove(&id)
            .map(|_| ())
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        poison::recover(self.inner.lock()).sessions.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The snapshot session `id` is pinned to. Callers select on it
    /// without holding the table lock.
    pub fn snapshot(&self, id: u64) -> Result<Arc<Snapshot>, ServiceError> {
        let table = poison::recover(self.inner.lock());
        table
            .sessions
            .get(&id)
            .map(|s| Arc::clone(&s.snapshot))
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// Runs `f` against the session, holding the table lock for the
    /// duration (refinements are interactive-rate, not the serving hot
    /// path).
    pub fn with_session<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Session) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut table = poison::recover(self.inner.lock());
        let session = table
            .sessions
            .get_mut(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        f(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ProfileUpdate, RepositoryWriter};
    use podium_core::bucket::BucketingConfig;
    use podium_core::profile::UserRepository;

    fn store_and_writer() -> (Arc<SnapshotStore>, RepositoryWriter) {
        let mut repo = UserRepository::new();
        let mex = repo.intern_property("avgRating Mexican");
        let thai = repo.intern_property("avgRating Thai");
        for i in 0..12 {
            let u = repo.add_user(format!("u{i}"));
            repo.set_score(u, mex, (i as f64) / 12.0).unwrap();
            if i % 3 == 0 {
                repo.set_score(u, thai, 0.9).unwrap();
            }
        }
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        RepositoryWriter::new(repo, &buckets)
    }

    #[test]
    fn sessions_pin_their_opening_epoch() {
        let (store, mut w) = store_and_writer();
        let mgr = SessionManager::new();
        let (id, epoch) = mgr.open(&store);
        assert_eq!(epoch, 0);
        w.apply(&ProfileUpdate {
            user: "u1".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.99),
        })
        .unwrap();
        w.publish();
        assert_eq!(store.epoch(), 1);
        assert_eq!(
            mgr.snapshot(id).unwrap().epoch(),
            0,
            "session still sees epoch 0"
        );
        mgr.close(id).unwrap();
        assert!(mgr.is_empty());
        assert!(matches!(
            mgr.close(id),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn feedback_accumulates_across_refinements() {
        let (store, _w) = store_and_writer();
        let mgr = SessionManager::new();
        let (id, _) = mgr.open(&store);
        let weight = WeightScheme::LinearBySize;
        let cov = CovScheme::Single;
        // Round 1: forbid group 0.
        mgr.with_session(id, |s| {
            let delta = FeedbackDelta {
                must_not: vec![0],
                ..FeedbackDelta::default()
            };
            let sel = s.refine(&delta, weight, cov, 3)?;
            let g0 = s.snapshot().groups().group(GroupId(0)).unwrap();
            for u in sel.users() {
                assert!(!g0.members.contains(u), "must_not violated");
            }
            Ok(())
        })
        .unwrap();
        // Round 2: prioritize group 1; the earlier must_not persists.
        mgr.with_session(id, |s| {
            let delta = FeedbackDelta {
                priority: vec![1],
                ..FeedbackDelta::default()
            };
            let _ = s.refine(&delta, weight, cov, 3)?;
            assert_eq!(s.feedback().must_not, vec![GroupId(0)]);
            assert_eq!(s.feedback().priority, vec![GroupId(1)]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn contradictory_delta_fails_atomically() {
        let (store, _w) = store_and_writer();
        let mgr = SessionManager::new();
        let (id, _) = mgr.open(&store);
        mgr.with_session(id, |s| {
            let delta = FeedbackDelta {
                must_have: vec![2],
                ..FeedbackDelta::default()
            };
            s.refine(&delta, WeightScheme::LinearBySize, CovScheme::Single, 3)
                .map(|_| ())
        })
        .unwrap();
        let err = mgr
            .with_session(id, |s| {
                let delta = FeedbackDelta {
                    must_not: vec![2],
                    ..FeedbackDelta::default()
                };
                s.refine(&delta, WeightScheme::LinearBySize, CovScheme::Single, 3)
                    .map(|_| ())
            })
            .unwrap_err();
        assert_eq!(err.code(), "core");
        // The failed merge left the previous feedback intact.
        mgr.with_session(id, |s| {
            assert_eq!(s.feedback().must_have, vec![GroupId(2)]);
            assert!(s.feedback().must_not.is_empty());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn out_of_range_group_rejected() {
        let (store, _w) = store_and_writer();
        let mgr = SessionManager::new();
        let (id, _) = mgr.open(&store);
        let err = mgr
            .with_session(id, |s| {
                let delta = FeedbackDelta {
                    priority: vec![9999],
                    ..FeedbackDelta::default()
                };
                s.refine(&delta, WeightScheme::LinearBySize, CovScheme::Single, 3)
                    .map(|_| ())
            })
            .unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn reset_clears_accumulated_feedback() {
        let (store, _w) = store_and_writer();
        let mgr = SessionManager::new();
        let (id, _) = mgr.open(&store);
        mgr.with_session(id, |s| {
            s.refine(
                &FeedbackDelta {
                    must_not: vec![0],
                    ..FeedbackDelta::default()
                },
                WeightScheme::LinearBySize,
                CovScheme::Single,
                3,
            )
            .map(|_| ())
        })
        .unwrap();
        mgr.with_session(id, |s| {
            s.refine(
                &FeedbackDelta {
                    reset: true,
                    ..FeedbackDelta::default()
                },
                WeightScheme::LinearBySize,
                CovScheme::Single,
                3,
            )
            .map(|_| ())
        })
        .unwrap();
        mgr.with_session(id, |s| {
            assert_eq!(s.feedback(), &Feedback::default());
            Ok(())
        })
        .unwrap();
    }
}
