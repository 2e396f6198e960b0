//! Multi-target certain-fix chase.
//!
//! Editing rules were introduced (Fan et al., VLDB J. 2012) to produce
//! *certain fixes*: repairs guaranteed by master data. A single rule set
//! targets one attribute `Y`, but real cleaning runs rule sets for several
//! attributes, and fixes interact — filling `ZIP` can unlock a
//! `ZIP → AC` rule that was previously blocked by the NULL. This module
//! implements the round-based chase: apply every target's rules, commit the
//! confident fixes, and repeat until a fixpoint (or the round limit).
//!
//! A fix is committed when the winning candidate's accumulated certainty
//! score is at least `min_score` and either the current cell is NULL (a
//! fill) or overwriting is enabled (a correction). Committed cells are
//! frozen: later rounds never revise them, which keeps the chase
//! terminating and mirrors the "certain fix" contract.

use crate::batch::BatchRepairer;
use crate::matching::SchemaMatch;
use crate::rule::EditingRule;
use er_table::{AttrId, Code, Relation, RowId, NULL_CODE};

/// Rules discovered for one target attribute pair.
#[derive(Debug, Clone)]
pub struct TargetRules {
    /// The `(Y, Y_m)` pair the rules repair.
    pub target: (AttrId, AttrId),
    /// The rules (all must have this target).
    pub rules: Vec<EditingRule>,
}

/// Chase configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Maximum rounds (a fixpoint usually arrives in 2–3).
    pub max_rounds: usize,
    /// Minimum accumulated certainty score to commit a fix.
    pub min_score: f64,
    /// Whether non-NULL cells may be overwritten (corrections) or only
    /// NULL cells filled.
    pub overwrite: bool,
    /// Worker threads for the per-round repair passes (`0` = auto:
    /// `ER_THREADS` or sequential). The LHS groups of each target's rules
    /// are probed in parallel; the committed fixes are identical at any
    /// thread count.
    pub threads: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 5,
            min_score: 0.9,
            overwrite: true,
            threads: 0,
        }
    }
}

impl ChaseConfig {
    /// A configuration with no round cap. Only sound for rule sets whose
    /// termination has been certified (weak acyclicity of the attribute
    /// dependency graph — see `er-analyze`); the chase still terminates
    /// structurally because committed cells are frozen, but without a
    /// certificate the cap is the honest guard.
    pub fn uncapped() -> Self {
        ChaseConfig {
            max_rounds: usize::MAX,
            ..Default::default()
        }
    }
}

/// One committed fix.
#[derive(Debug, Clone, PartialEq)]
pub struct Fix {
    /// Input row.
    pub row: RowId,
    /// Repaired attribute (`Y` of some target).
    pub attr: AttrId,
    /// Chase round (1-based) the fix was committed in.
    pub round: usize,
    /// The cell's previous code.
    pub from: Code,
    /// The committed code.
    pub to: Code,
    /// The winning candidate's accumulated certainty score.
    pub score: f64,
}

/// Chase outcome.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The repaired input relation.
    pub repaired: Relation,
    /// Rounds executed (including the final fixpoint round).
    pub rounds: usize,
    /// Every committed fix, in commit order.
    pub fixes: Vec<Fix>,
    /// Rows where rules disagreed (more than one candidate received votes)
    /// at the moment their fix was committed.
    pub contested: usize,
    /// Whether the chase reached a fixpoint (a round committed no fix).
    /// `false` means [`ChaseConfig::max_rounds`] cut it off while fixes were
    /// still landing — the result is sound but possibly incomplete, and the
    /// ER008 runtime diagnostic (`er_analyze::cap_finding`) reports it.
    pub converged: bool,
}

/// Run the chase.
///
/// # Panics
/// Panics if a rule's target differs from its [`TargetRules::target`], if
/// `input` and `master` do not share a value pool, if `matching`'s arity
/// differs from `input`'s, or if a target or rule attribute is out of range.
pub fn chase(
    input: &Relation,
    master: &Relation,
    matching: &SchemaMatch,
    targets: &[TargetRules],
    config: ChaseConfig,
) -> ChaseResult {
    for t in targets {
        for r in &t.rules {
            assert_eq!(r.target(), t.target, "rule target mismatch in TargetRules");
        }
    }
    assert_eq!(
        matching.input_arity(),
        input.num_attrs(),
        "match arity mismatch"
    );
    // The master never changes during a chase, so each target's indexes
    // are warmed once and every round repairs only the current input.
    let repairers: Vec<BatchRepairer> = targets
        .iter()
        .map(|t| {
            BatchRepairer::new(master.clone(), t.target, t.rules.clone(), config.threads)
                .unwrap_or_else(|e| panic!("chase: {e}"))
        })
        .collect();
    let mut current = input.clone();
    let mut fixes: Vec<Fix> = Vec::new();
    let mut contested = 0usize;
    // (row, attr) cells already committed — frozen for later rounds.
    let mut frozen: std::collections::HashSet<(RowId, AttrId)> = Default::default();
    let mut rounds = 0usize;

    // Chase audit: per-target master Y_m domains (certain fixes may only
    // copy these), plus the frozen count after the previous round — every
    // continuing round must strictly shrink the set of unfixed dirty cells,
    // i.e. strictly grow the frozen set, or the chase could loop.
    #[cfg(feature = "debug-invariants")]
    let master_domains: std::collections::HashMap<AttrId, std::collections::HashSet<Code>> =
        targets
            .iter()
            .map(|t| {
                let dom = master
                    .column(t.target.1)
                    .iter()
                    .copied()
                    .filter(|&c| c != NULL_CODE)
                    .collect();
                (t.target.0, dom)
            })
            .collect();
    #[cfg(feature = "debug-invariants")]
    let mut prev_frozen = 0usize;

    let mut converged = false;
    while rounds < config.max_rounds {
        rounds += 1;
        let mut changed = false;
        for (t, repairer) in targets.iter().zip(&repairers) {
            let (y, _) = t.target;
            let report = repairer
                .repair_batch(&current)
                .unwrap_or_else(|e| panic!("chase: {e}"));
            for row in 0..current.num_rows() {
                let Some(code) = report.predictions[row] else {
                    continue;
                };
                if frozen.contains(&(row, y)) || report.scores[row] < config.min_score {
                    continue;
                }
                let old = current.code(row, y);
                if old == code {
                    continue;
                }
                if old != NULL_CODE && !config.overwrite {
                    continue;
                }
                current.set_code(row, y, code);
                frozen.insert((row, y));
                if report.candidates[row] > 1 {
                    contested += 1;
                }
                fixes.push(Fix {
                    row,
                    attr: y,
                    round: rounds,
                    from: old,
                    to: code,
                    score: report.scores[row],
                });
                changed = true;
            }
        }
        #[cfg(feature = "debug-invariants")]
        if changed {
            assert!(
                frozen.len() > prev_frozen,
                "chase: round {rounds} reported progress without shrinking the dirty-cell count"
            );
            prev_frozen = frozen.len();
            for f in &fixes {
                assert!(
                    master_domains
                        .get(&f.attr)
                        .is_some_and(|dom| dom.contains(&f.to)),
                    "chase: fix {f:?} writes a value absent from the master Y_m column"
                );
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    #[cfg(feature = "debug-invariants")]
    if !converged {
        eprintln!(
            "chase: round cap {} hit without reaching a fixpoint ({} fixes committed); \
             certify termination with er-analyze or raise max_rounds",
            config.max_rounds,
            fixes.len()
        );
    }
    ChaseResult {
        repaired: current,
        rounds,
        fixes,
        contested,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_table::{Attribute, Pool, RelationBuilder, Schema, Value};
    use std::sync::Arc;

    /// Input (City, ZIP, AC): ZIP is missing for row 0 but City → ZIP in
    /// master; AC needs ZIP (ZIP → AC), so fixing AC requires the chase to
    /// first fill ZIP.
    fn setup() -> (Relation, Relation, SchemaMatch) {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("ZIP"),
                Attribute::categorical("AC"),
            ],
        ));
        let s = Value::str;
        let mut b = RelationBuilder::new(Arc::clone(&schema), Arc::clone(&pool));
        b.push_row(vec![s("HZ"), Value::Null, Value::Null]).unwrap();
        b.push_row(vec![s("BJ"), s("10021"), Value::Null]).unwrap();
        b.push_row(vec![s("SZ"), s("51800"), s("755")]).unwrap();
        let input = b.finish();
        let m_schema = Arc::new(Schema::new(
            "m",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("ZIP"),
                Attribute::categorical("AC"),
            ],
        ));
        let mut bm = RelationBuilder::new(m_schema, pool);
        bm.push_row(vec![s("HZ"), s("31200"), s("571")]).unwrap();
        bm.push_row(vec![s("BJ"), s("10021"), s("010")]).unwrap();
        bm.push_row(vec![s("SZ"), s("51800"), s("755")]).unwrap();
        let master = bm.finish();
        let matching = SchemaMatch::from_pairs(3, &[(0, 0), (1, 1), (2, 2)]);
        (input, master, matching)
    }

    fn targets(input: &Relation) -> Vec<TargetRules> {
        let _ = input;
        vec![
            // City → ZIP.
            TargetRules {
                target: (1, 1),
                rules: vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])],
            },
            // ZIP → AC.
            TargetRules {
                target: (2, 2),
                rules: vec![EditingRule::new(vec![(1, 1)], (2, 2), vec![])],
            },
        ]
    }

    #[test]
    fn chase_cascades_fixes_across_targets() {
        let (input, master, matching) = setup();
        let result = chase(
            &input,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig::default(),
        );
        let pool = input.pool();
        let code = |v: &str| pool.code_of(&Value::str(v)).unwrap();
        // Row 0: ZIP filled from City, then AC filled from the new ZIP.
        assert_eq!(result.repaired.code(0, 1), code("31200"));
        assert_eq!(result.repaired.code(0, 2), code("571"));
        // Row 1: AC filled directly.
        assert_eq!(result.repaired.code(1, 2), code("010"));
        // Row 2 untouched.
        assert_eq!(result.repaired.code(2, 2), code("755"));
        // The AC fix for row 0 must be a later-or-equal round than its ZIP
        // fix (per-round target order already allows same-round cascade).
        let zip_fix = result
            .fixes
            .iter()
            .find(|f| f.row == 0 && f.attr == 1)
            .unwrap();
        let ac_fix = result
            .fixes
            .iter()
            .find(|f| f.row == 0 && f.attr == 2)
            .unwrap();
        assert!(ac_fix.round >= zip_fix.round);
        assert_eq!(result.fixes.len(), 3);
    }

    #[test]
    fn chase_reaches_fixpoint() {
        let (input, master, matching) = setup();
        let result = chase(
            &input,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig::default(),
        );
        assert!(result.rounds <= 3, "rounds {}", result.rounds);
        // Re-running on the repaired relation changes nothing.
        let again = chase(
            &result.repaired,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig::default(),
        );
        assert!(again.fixes.is_empty());
    }

    #[test]
    fn no_overwrite_mode_only_fills_nulls() {
        let (mut input, master, matching) = setup();
        // Plant a wrong (non-NULL) AC for row 2.
        input.set(2, 2, Value::str("999")).unwrap();
        let config = ChaseConfig {
            overwrite: false,
            ..Default::default()
        };
        let result = chase(&input, &master, &matching, &targets(&input), config);
        let pool = input.pool();
        assert_eq!(
            result.repaired.code(2, 2),
            pool.code_of(&Value::str("999")).unwrap()
        );
        // With overwrite on, the cell is corrected.
        let corrected = chase(
            &input,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig::default(),
        );
        assert_eq!(
            corrected.repaired.code(2, 2),
            pool.code_of(&Value::str("755")).unwrap()
        );
    }

    #[test]
    fn min_score_blocks_uncertain_fixes() {
        let (input, master, matching) = setup();
        let config = ChaseConfig {
            min_score: 10.0,
            ..Default::default()
        };
        let result = chase(&input, &master, &matching, &targets(&input), config);
        assert!(result.fixes.is_empty());
        assert_eq!(result.rounds, 1);
    }

    #[test]
    fn fixpoint_runs_report_convergence() {
        let (input, master, matching) = setup();
        let result = chase(
            &input,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig::default(),
        );
        assert!(result.converged);
        // An uncapped run on a certified-terminating set converges too.
        let uncapped = chase(
            &input,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig::uncapped(),
        );
        assert!(uncapped.converged);
        assert_eq!(uncapped.fixes.len(), result.fixes.len());
    }

    #[test]
    fn round_cap_hit_is_recorded() {
        let (input, master, matching) = setup();
        // One round is not enough to prove a fixpoint here: round 1 commits
        // the cascade's first wave, so the chase is cut off mid-flight.
        let config = ChaseConfig {
            max_rounds: 1,
            ..Default::default()
        };
        let result = chase(&input, &master, &matching, &targets(&input), config);
        assert!(!result.converged);
        assert_eq!(result.rounds, 1);
        // A zero-round "chase" trivially proves nothing.
        let none = chase(
            &input,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig {
                max_rounds: 0,
                ..Default::default()
            },
        );
        assert!(!none.converged);
        assert!(none.fixes.is_empty());
    }

    #[test]
    fn committed_cells_are_frozen() {
        let (input, master, matching) = setup();
        let result = chase(
            &input,
            &master,
            &matching,
            &targets(&input),
            ChaseConfig::default(),
        );
        // No cell is fixed twice.
        let mut seen = std::collections::HashSet::new();
        for f in &result.fixes {
            assert!(seen.insert((f.row, f.attr)), "cell fixed twice: {f:?}");
        }
    }
}
