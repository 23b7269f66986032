//! Property tests: an indexed `scan_where` is indistinguishable from a
//! full-table scan-and-filter, under arbitrary churn — inserts,
//! overwrites that move a row between index buckets, and deletes — and
//! regardless of whether the decoded-row cache is on.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use sphinx_db::{Database, DbConfig, MemWal, Record};

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
struct Task {
    id: u64,
    state: String,
    weight: u32,
}

impl Record for Task {
    const TABLE: &'static str = "tasks";
    fn key(&self) -> u64 {
        self.id
    }
}

const STATES: [&str; 3] = ["ready", "running", "done"];

/// One churn step: a put (possibly moving an existing row to a different
/// index bucket) or a delete.
#[derive(Debug, Clone)]
enum Step {
    Put { key: u64, state: usize, weight: u32 },
    Del { key: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0u64..24, 0usize..3, 0u32..100)
            .prop_map(|(key, state, weight)| Step::Put { key, state, weight }),
        1 => (0u64..24).prop_map(|key| Step::Del { key }),
    ]
}

fn apply(db: &Database, step: &Step) {
    match *step {
        Step::Put { key, state, weight } => db
            .put(&Task {
                id: key,
                state: STATES[state].to_owned(),
                weight,
            })
            .unwrap(),
        Step::Del { key } => {
            let _ = db.delete::<Task>(key).unwrap();
        }
    }
}

fn ids(rows: &[Task]) -> Vec<u64> {
    rows.iter().map(|t| t.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed database and a baseline database (no indexes, no
    /// cache) agree on every by-state query after every step, and the
    /// indexed `scan_where` agrees with its own `scan_filter`.
    #[test]
    fn indexed_scan_where_equals_unindexed_scan(
        steps in proptest::collection::vec(step_strategy(), 1..60)
    ) {
        let indexed = Database::with_wal(Box::new(MemWal::shared()));
        indexed.create_index::<Task>("/state");
        let baseline = Database::with_wal_and_config(
            Box::new(MemWal::shared()),
            DbConfig::baseline(),
        );
        for (i, step) in steps.iter().enumerate() {
            apply(&indexed, step);
            apply(&baseline, step);
            for s in STATES {
                let value = serde_json::to_value(s).unwrap();
                let via_index = indexed.scan_where::<Task>("/state", &value).unwrap();
                let via_self_scan = indexed
                    .scan_filter::<Task>(|t| t.state == s)
                    .unwrap();
                let via_baseline = baseline.scan_where::<Task>("/state", &value).unwrap();
                prop_assert_eq!(
                    &via_index, &via_self_scan,
                    "index vs own scan diverged for `{}` at step {}", s, i
                );
                prop_assert_eq!(
                    &via_index, &via_baseline,
                    "index vs baseline diverged for `{}` at step {}", s, i
                );
                // Key order is part of the contract.
                let mut sorted = ids(&via_index);
                sorted.sort_unstable();
                prop_assert_eq!(ids(&via_index), sorted, "scan order at step {}", i);
            }
        }
        // Full-table scans agree too (cache on vs. cache off).
        prop_assert_eq!(
            indexed.scan::<Task>().unwrap(),
            baseline.scan::<Task>().unwrap()
        );
    }

    /// Recovery rebuilds indexes (they are registered by the consumer,
    /// re-created over recovered tables) consistently with the data.
    #[test]
    fn index_rebuilt_after_recovery_matches(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.create_index::<Task>("/state");
            for step in &steps {
                apply(&db, step);
            }
        }
        let recovered = Database::recover(Box::new(wal)).unwrap();
        recovered.create_index::<Task>("/state");
        for s in STATES {
            let value = serde_json::to_value(s).unwrap();
            let via_index = recovered.scan_where::<Task>("/state", &value).unwrap();
            let via_scan = recovered.scan_filter::<Task>(|t| t.state == s).unwrap();
            prop_assert_eq!(via_index, via_scan, "state `{}` after recovery", s);
        }
    }
}
