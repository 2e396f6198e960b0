//! Adversarial equivalence for the signature-batched repair path: on
//! batches built to stress every corner of the grouping — NULL-heavy keys,
//! continuous-attribute patterns, all rows collapsing to one signature,
//! every row a distinct signature — the batched report must be
//! **byte-identical** (predictions, scores bit for bit, candidate counts)
//! to the row-at-a-time reference path at 1, 2, and 8 worker threads, and
//! so must the task-level `apply_rules` built on it.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_rules::{
    apply_rules, BatchRepairer, Condition, EditingRule, RepairReport, SchemaMatch, Task,
};
use er_table::{Attribute, Pool, Relation, RelationBuilder, Schema, Value};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Input schema [City, Age, Case], master schema [City, Age, Infection],
/// matched 1:1 with target (2, 2). Age is continuous on both sides so
/// pattern rules can carry range conditions.
fn schemas() -> (Arc<Schema>, Arc<Schema>) {
    let input = Arc::new(Schema::new(
        "in",
        vec![
            Attribute::categorical("City"),
            Attribute::continuous("Age"),
            Attribute::categorical("Case"),
        ],
    ));
    let master = Arc::new(Schema::new(
        "m",
        vec![
            Attribute::categorical("City"),
            Attribute::continuous("Age"),
            Attribute::categorical("Infection"),
        ],
    ));
    (input, master)
}

/// A master with a known, slightly contested vote distribution per city.
fn master_relation(pool: Arc<Pool>) -> Relation {
    let (_, m_schema) = schemas();
    let mut b = RelationBuilder::new(m_schema, pool);
    for city in 0..24 {
        let majority = if city % 2 == 0 { "patient" } else { "imports" };
        for i in 0..3 {
            let inf = if i == 2 && city % 3 == 0 {
                "flu"
            } else {
                majority
            };
            b.push_row(vec![
                Value::str(format!("C{city}")),
                Value::float(20.0 + city as f64),
                Value::str(inf),
            ])
            .unwrap();
        }
    }
    b.finish()
}

/// Rules sharing one LHS group, mixing pattern-free, equality-pattern, and
/// continuous-range-pattern rules.
fn rules(pool: &Pool) -> Vec<EditingRule> {
    let c1 = pool.code_of(&Value::str("C1")).unwrap();
    vec![
        EditingRule::new(vec![(0, 0)], (2, 2), vec![]),
        EditingRule::new(vec![(0, 0)], (2, 2), vec![Condition::range(1, 25.0, 60.0)]),
        EditingRule::new(vec![(0, 0)], (2, 2), vec![Condition::eq(0, c1)]),
    ]
}

fn assert_reports_bitwise_equal(a: &RepairReport, b: &RepairReport, what: &str) {
    assert_eq!(a.predictions, b.predictions, "{what}: predictions diverged");
    let bits = |r: &RepairReport| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{what}: scores diverged bitwise");
    assert_eq!(a.candidates, b.candidates, "{what}: candidates diverged");
    assert_eq!(
        a.rules_applied, b.rules_applied,
        "{what}: rules_applied diverged"
    );
}

/// The shared harness: for every thread count, the batched path and the
/// task-level `apply_rules` must match the row-at-a-time reference bit for
/// bit, and all thread counts must agree with each other.
fn assert_equivalent_everywhere(input: Relation, master: Relation, scenario: &str) {
    let rules = rules(input.pool());
    let mut baseline: Option<RepairReport> = None;
    for &threads in &THREAD_COUNTS {
        let repairer = BatchRepairer::new(master.clone(), (2, 2), rules.clone(), threads).unwrap();
        let batched = repairer.repair_batch(&input).unwrap();
        let reference = repairer.repair_batch_reference(&input).unwrap();
        assert_reports_bitwise_equal(
            &batched,
            &reference,
            &format!("{scenario} vs reference @ {threads} threads"),
        );
        let task = Task::new(
            input.clone(),
            master.clone(),
            SchemaMatch::from_pairs(3, &[(0, 0), (1, 1), (2, 2)]),
            (2, 2),
        );
        let oneshot = apply_rules(&task, &rules);
        assert_reports_bitwise_equal(
            &oneshot,
            &reference,
            &format!("{scenario} apply_rules vs reference @ {threads} threads"),
        );
        match &baseline {
            None => baseline = Some(batched),
            Some(base) => assert_reports_bitwise_equal(
                &batched,
                base,
                &format!("{scenario} across thread counts ({threads})"),
            ),
        }
    }
}

fn input_builder(pool: Arc<Pool>) -> RelationBuilder {
    let (in_schema, _) = schemas();
    RelationBuilder::new(in_schema, pool)
}

#[test]
fn null_heavy_keys() {
    let pool = Arc::new(Pool::new());
    let master = master_relation(Arc::clone(&pool));
    let mut b = input_builder(pool);
    // Every third row has a NULL key (and must never vote); ages alternate
    // in and out of the range pattern; a few rows are NULL everywhere.
    for i in 0..120 {
        let city = if i % 3 == 0 {
            Value::Null
        } else {
            Value::str(format!("C{}", i % 24))
        };
        let age = if i % 5 == 0 {
            Value::Null
        } else {
            Value::float(18.0 + (i % 50) as f64)
        };
        b.push_row(vec![city, age, Value::Null]).unwrap();
    }
    b.push_row(vec![Value::Null, Value::Null, Value::Null])
        .unwrap();
    assert_equivalent_everywhere(b.finish(), master, "null-heavy");
}

#[test]
fn continuous_attribute_patterns() {
    let pool = Arc::new(Pool::new());
    let master = master_relation(Arc::clone(&pool));
    let mut b = input_builder(pool);
    // Ages straddle the [25, 60] range boundary, including the exact
    // endpoints, so the pattern rule covers a strict, boundary-sensitive
    // subset of each signature's rows.
    for i in 0..100 {
        let age = match i % 5 {
            0 => Value::float(24.999),
            1 => Value::float(25.0),
            2 => Value::float(42.0),
            3 => Value::float(60.0),
            _ => Value::Null,
        };
        b.push_row(vec![Value::str(format!("C{}", i % 24)), age, Value::Null])
            .unwrap();
    }
    assert_equivalent_everywhere(b.finish(), master, "continuous-patterns");
}

#[test]
fn all_rows_one_signature() {
    let pool = Arc::new(Pool::new());
    let master = master_relation(Arc::clone(&pool));
    let mut b = input_builder(pool);
    // One giant signature group: the grouping must collapse everything to a
    // single probe and still emit per-row votes identical to the reference.
    for i in 0..256 {
        b.push_row(vec![
            Value::str("C1"),
            Value::float(20.0 + (i % 3) as f64 * 20.0),
            Value::Null,
        ])
        .unwrap();
    }
    assert_equivalent_everywhere(b.finish(), master, "one-signature");
}

#[test]
fn every_row_distinct_signature() {
    let pool = Arc::new(Pool::new());
    let master = master_relation(Arc::clone(&pool));
    let mut b = input_builder(pool);
    // Every row its own signature — half matching master cities, half
    // unknown (empty distributions) — the degenerate case where batching
    // wins nothing but must still agree exactly.
    for i in 0..80 {
        let city = if i % 2 == 0 {
            format!("C{i}") // known to the master only while i < 24
        } else {
            format!("X{i}")
        };
        b.push_row(vec![
            Value::str(city),
            Value::float(30.0 + i as f64),
            Value::Null,
        ])
        .unwrap();
    }
    assert_equivalent_everywhere(b.finish(), master, "distinct-signatures");
}
