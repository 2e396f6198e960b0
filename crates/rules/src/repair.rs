//! Applying a set of editing rules to the input relation (§V-B2).
//!
//! Given a rule set `Σ`, each rule contributes a certainty score
//! `σ_{v,φ} = count(v,φ) / Σ_{v'} count(v',φ)` to each candidate fix `v` of
//! each input tuple it covers. The candidate with the maximum *sum* of
//! certainty scores over all applicable rules is taken as the fix:
//! `argmax_v Σ_φ σ_{v,φ}`.

use crate::batch::BatchRepairer;
use crate::rule::EditingRule;
use crate::task::Task;
use er_table::{Code, Relation, RowId};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of applying a rule set: one optional predicted fix per input row.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Predicted `Y` code per input row (`None` = no rule applied).
    pub predictions: Vec<Option<Code>>,
    /// Accumulated certainty-score mass of the winning candidate per row.
    pub scores: Vec<f64>,
    /// Number of distinct candidate fixes that received votes per row
    /// (1 = uncontested, >1 = the rules disagreed and the vote decided).
    pub candidates: Vec<usize>,
    /// Number of rules that were applicable to at least one tuple.
    pub rules_applied: usize,
}

impl RepairReport {
    /// Number of rows that received a prediction.
    pub fn num_predictions(&self) -> usize {
        self.predictions.iter().filter(|p| p.is_some()).count()
    }

    /// Write the predictions into (a copy of) the input relation's `Y`
    /// column, returning the repaired relation.
    pub fn apply(&self, task: &Task) -> Relation {
        let mut repaired = task.input().clone();
        let (y, _) = task.target();
        for (row, pred) in self.predictions.iter().enumerate() {
            if let Some(code) = pred {
                repaired.set_code(row, y, *code);
            }
        }
        repaired
    }
}

/// Apply `rules` to `task`'s input via certainty-score voting: a
/// [`BatchRepairer`] over the task's master repairs the whole input as one
/// batch, so the report is identical at any thread count.
///
/// # Panics
/// Panics if a rule's target differs from [`Task::target`], or if a rule
/// reads an input attribute the task's input does not have.
pub fn apply_rules(task: &Task, rules: &[EditingRule]) -> RepairReport {
    BatchRepairer::new(task.master().clone(), task.target(), rules.to_vec(), 0)
        .and_then(|repairer| repairer.repair_batch(task.input()))
        .unwrap_or_else(|e| panic!("apply_rules: {e}"))
}

/// Sentinel signature id: this row gets no vote from the rule (NULL key or
/// failed pattern).
pub(crate) const NO_SIG: u32 = u32::MAX;

/// One rule's votes in signature-grouped, row-major form: every row of a
/// signature receives the same candidate scores, so instead of
/// materializing one `(row, code, score)` tuple per vote the rule carries a
/// row-major signature-id vector plus a candidate arena indexed per
/// signature. The arenas are `Arc`-shared across the rules of one LHS group
/// (one probe per signature serves them all), and the row-major shape lets
/// the fold walk every rule in one streaming pass per row.
#[derive(Debug, Clone)]
pub(crate) struct RuleVotes {
    /// Signature id of each batch row, `NO_SIG` where the rule is silent.
    pub(crate) sigs: Arc<Vec<u32>>,
    /// Flat `(candidate code, certainty score)` arena, one run per probed
    /// signature, in master-distribution order.
    pub(crate) cands: Arc<Vec<(Code, f64)>>,
    /// `(cand_start, cand_end)` into `cands` per signature id.
    pub(crate) ranges: Arc<Vec<(u32, u32)>>,
    /// Whether the rule emitted at least one vote (some row carries a
    /// signature with a non-empty candidate run). Tracked at emission so
    /// `rules_applied` needs no O(rows) rescan.
    pub(crate) live: bool,
}

impl RuleVotes {
    /// The candidate run of signature `s`.
    #[inline]
    fn run(&self, s: u32) -> &[(Code, f64)] {
        let (cs, ce) = self.ranges[s as usize];
        &self.cands[cs as usize..ce as usize]
    }
}

/// Fused-fold budget: the register accumulator is used only when the
/// candidate universe is at most this many distinct codes; wider universes
/// take the per-row `HashMap` fold.
const DENSE_MAX_CANDIDATES: usize = 64;

/// Ordered fold of per-rule votes into a [`RepairReport`]:
/// `votes[row]: candidate code → accumulated certainty score`, summed in
/// rule order so floating-point accumulation matches the sequential loop at
/// any thread count. A rule applied iff it contributed.
///
/// When the candidate universe is small (the common case: candidates are
/// master `Y_m` values reachable from the batch's signatures) the votes
/// accumulate into a small per-row array instead of one `HashMap` per row;
/// both folds produce bitwise-identical reports (each `(row, code)` slot
/// receives exactly one add per rule, in rule order, and the winner scan
/// visits candidates in ascending code order so the smaller-code tie-break
/// is preserved).
pub(crate) fn fold_votes(n: usize, contributions: Vec<RuleVotes>) -> RepairReport {
    let rules_applied = contributions.iter().filter(|c| c.live).count();
    // Collect the candidate universe, giving up on the fused fold as soon
    // as it outgrows the budget (the `contains` scan stays cheap because
    // the vector is capped at DENSE_MAX_CANDIDATES + 1 entries). The whole
    // arena counts, not just voted runs: a signature whose rows were all
    // pattern-filtered contributes codes that never receive a vote, which
    // only widens the universe — their slots stay at 0.0 and are skipped
    // by every fold.
    let mut universe: Vec<Code> = Vec::new();
    let mut dense_ok = true;
    'scan: for g in &contributions {
        for &(code, _) in g.cands.iter() {
            if !universe.contains(&code) {
                universe.push(code);
                if universe.len() > DENSE_MAX_CANDIDATES {
                    dense_ok = false;
                    break 'scan;
                }
            }
        }
    }
    if dense_ok && !universe.is_empty() {
        universe.sort_unstable();
        fold_grouped(n, &universe, &contributions, rules_applied)
    } else {
        fold_sparse(n, &contributions, rules_applied)
    }
}

/// Per-rule delta matrix budget for the padded fold: `(sigs + 1) × K`
/// `f64`s must stay cache-resident for the branchless row loop to pay off.
const DENSE_DELTA_SLOTS: usize = 1 << 16;

/// Fused fold for a small universe: one streaming pass over the rows with
/// a small local accumulator that lives in registers — no
/// `rows × candidates` matrix, no second winner-scan pass. For each row the
/// rules are visited in rule order, so every `(row, code)` slot accumulates
/// in exactly the order the sparse fold uses — the reports are bitwise
/// identical.
///
/// The accumulator width is monomorphized (4/8/16 lanes) so the per-rule
/// add compiles to fixed-width vector code; wider universes or oversized
/// delta matrices fall back to the per-run walk.
fn fold_grouped(
    n: usize,
    universe: &[Code],
    contributions: &[RuleVotes],
    rules_applied: usize,
) -> RepairReport {
    let k = universe.len();
    let max_sigs = contributions
        .iter()
        .map(|g| g.ranges.len())
        .max()
        .unwrap_or(0);
    if (max_sigs + 1) * 16 <= DENSE_DELTA_SLOTS {
        if k <= 4 {
            return fold_grouped_padded::<4>(n, universe, contributions, rules_applied);
        }
        if k <= 8 {
            return fold_grouped_padded::<8>(n, universe, contributions, rules_applied);
        }
        if k <= 16 {
            return fold_grouped_padded::<16>(n, universe, contributions, rules_applied);
        }
    }
    fold_grouped_runs(n, universe, contributions, rules_applied)
}

/// The padded fast path: per rule, the candidate runs expand into a dense
/// `(sigs + 1) × K` delta matrix — row `s` holds signature `s`'s per-rank
/// deltas (0.0 for ranks the signature does not vote), and the extra
/// all-zero row is the landing pad for `NO_SIG`. The per-row work is then a
/// branchless, fixed-width `acc[0..K] += deltas[s][0..K]` per rule.
///
/// Adding 0.0 for the silent ranks is a *bitwise* no-op: every accumulator
/// state is +0.0 or a positive finite sum (all vote deltas are strictly
/// positive), and `x + 0.0` reproduces such an `x` exactly. So each slot's
/// effective add sequence is still exactly one add per voting rule, in rule
/// order — identical bits to the other folds. Padding ranks `k..K` never
/// receive a non-zero delta and are never scanned.
fn fold_grouped_padded<const K: usize>(
    n: usize,
    universe: &[Code],
    contributions: &[RuleVotes],
    rules_applied: usize,
) -> RepairReport {
    let k = universe.len();
    // The rules of one LHS group share their candidate arena (`Arc`), so
    // their delta matrices are identical — build each distinct arena's
    // matrix once and let the lanes reference it.
    let mut arena_keys: Vec<*const Vec<(Code, f64)>> = Vec::new();
    let mut matrices: Vec<Vec<f64>> = Vec::new();
    let mut matrix_of: Vec<usize> = Vec::with_capacity(contributions.len());
    for g in contributions {
        let key = Arc::as_ptr(&g.cands);
        let idx = arena_keys
            .iter()
            .position(|&p| p == key)
            .unwrap_or_else(|| {
                let num_sigs = g.ranges.len();
                let mut deltas = vec![0.0f64; (num_sigs + 1) * K];
                for (s, &(cs, ce)) in g.ranges.iter().enumerate() {
                    for &(code, delta) in &g.cands[cs as usize..ce as usize] {
                        // Invariant: the universe scan saw every code.
                        #[allow(clippy::unwrap_used)]
                        let id = universe.binary_search(&code).unwrap();
                        deltas[s * K + id] = delta;
                    }
                }
                arena_keys.push(key);
                matrices.push(deltas);
                arena_keys.len() - 1
            });
        matrix_of.push(idx);
    }
    let lanes: Vec<(&[u32], u32, &[f64])> = contributions
        .iter()
        .zip(&matrix_of)
        .map(|(g, &mi)| {
            // Invariant: `num_sigs ≤ rows < u32::MAX`, so `NO_SIG.min`
            // lands exactly on the all-zero row.
            (
                g.sigs.as_slice(),
                g.ranges.len() as u32,
                matrices[mi].as_slice(),
            )
        })
        .collect();

    let mut predictions = Vec::with_capacity(n);
    let mut scores = Vec::with_capacity(n);
    let mut candidates = Vec::with_capacity(n);
    for row in 0..n {
        let mut acc = [0.0f64; K];
        for &(sigs, silent, deltas) in &lanes {
            let s = sigs[row].min(silent) as usize;
            let run = &deltas[s * K..s * K + K];
            for i in 0..K {
                acc[i] += run[i];
            }
        }
        finish_row(
            universe,
            &acc[..k],
            &mut predictions,
            &mut scores,
            &mut candidates,
        );
    }
    RepairReport {
        predictions,
        scores,
        candidates,
        rules_applied,
    }
}

/// The general fused fold: per rule, walk the row-major signature vector
/// and add the signature's `(rank, delta)` run into a k-wide accumulator.
fn fold_grouped_runs(
    n: usize,
    universe: &[Code],
    contributions: &[RuleVotes],
    rules_applied: usize,
) -> RepairReport {
    let k = universe.len();
    // Candidate ranks resolved once per rule; `ranked[cs..ce]` mirrors the
    // rule's `cands[cs..ce]` run. Slices are hoisted out of the row loop so
    // the inner pass does plain indexed loads, not `Arc` chains.
    let ranked_arenas: Vec<Vec<(u32, f64)>> = contributions
        .iter()
        .map(|g| {
            g.cands
                .iter()
                .map(|&(code, delta)| {
                    // Invariant: the universe scan saw every code.
                    #[allow(clippy::unwrap_used)]
                    let id = universe.binary_search(&code).unwrap() as u32;
                    (id, delta)
                })
                .collect()
        })
        .collect();
    // One lane per rule: (row-major signature vector, per-signature
    // candidate ranges, rank-resolved candidate arena).
    type RunLane<'a> = (&'a [u32], &'a [(u32, u32)], &'a [(u32, f64)]);
    let rules: Vec<RunLane> = contributions
        .iter()
        .zip(&ranked_arenas)
        .map(|(g, ranked)| (g.sigs.as_slice(), g.ranges.as_slice(), ranked.as_slice()))
        .collect();

    let mut predictions = Vec::with_capacity(n);
    let mut scores = Vec::with_capacity(n);
    let mut candidates = Vec::with_capacity(n);
    let mut acc = vec![0.0f64; k];
    for row in 0..n {
        acc.fill(0.0);
        for &(sigs, ranges, ranked) in &rules {
            let s = sigs[row];
            if s == NO_SIG {
                continue;
            }
            let (cs, ce) = ranges[s as usize];
            for &(id, delta) in &ranked[cs as usize..ce as usize] {
                acc[id as usize] += delta;
            }
        }
        finish_row(
            universe,
            &acc,
            &mut predictions,
            &mut scores,
            &mut candidates,
        );
    }
    RepairReport {
        predictions,
        scores,
        candidates,
        rules_applied,
    }
}

/// Winner scan of one row's accumulator: every vote carries strictly
/// positive mass, so a slot was voted on iff it is > 0.0; ascending rank +
/// strict `>` keeps the smaller-code tie-break of the sparse fold.
#[inline]
fn finish_row(
    universe: &[Code],
    acc: &[f64],
    predictions: &mut Vec<Option<Code>>,
    scores: &mut Vec<f64>,
    candidates: &mut Vec<usize>,
) {
    // Branchless: scores are ≥ 0.0, so `score > best` (with `best`
    // starting at 0.0) implies the slot was voted on, and the strict `>`
    // keeps the first (smallest-rank) slot on exact ties.
    let mut count = 0usize;
    let mut best_id = 0usize;
    let mut best = 0.0f64;
    for (id, &score) in acc.iter().enumerate() {
        count += usize::from(score > 0.0);
        if score > best {
            best = score;
            best_id = id;
        }
    }
    candidates.push(count);
    if best > 0.0 {
        predictions.push(Some(universe[best_id]));
        scores.push(best);
    } else {
        predictions.push(None);
        scores.push(0.0);
    }
}

/// Sparse fold (one `HashMap` per row) for large candidate universes.
fn fold_sparse(n: usize, contributions: &[RuleVotes], rules_applied: usize) -> RepairReport {
    let mut votes: Vec<HashMap<Code, f64>> = vec![HashMap::new(); n];
    for g in contributions {
        for (row, &s) in g.sigs.iter().enumerate() {
            if s == NO_SIG {
                continue;
            }
            for &(code, delta) in g.run(s) {
                *votes[row].entry(code).or_insert(0.0) += delta;
            }
        }
    }

    let mut predictions = Vec::with_capacity(n);
    let mut scores = Vec::with_capacity(n);
    let mut candidates = Vec::with_capacity(n);
    for vote in votes {
        candidates.push(vote.len());
        // The winner is unique regardless of hash-map iteration order: max
        // by score, ties broken by code.
        let winner = vote.into_iter().max_by(|(ca, sa), (cb, sb)| {
            sa.partial_cmp(sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                // Deterministic tie-break: the smaller code wins.
                .then_with(|| cb.cmp(ca))
        });
        match winner {
            Some((code, score)) => {
                predictions.push(Some(code));
                scores.push(score);
            }
            None => {
                predictions.push(None);
                scores.push(0.0);
            }
        }
    }
    RepairReport {
        predictions,
        scores,
        candidates,
        rules_applied,
    }
}

/// Rows whose prediction differs from their current `Y` value (cells an
/// application of the report would actually change).
pub fn changed_rows(task: &Task, report: &RepairReport) -> Vec<RowId> {
    let (y, _) = task.target();
    report
        .predictions
        .iter()
        .enumerate()
        .filter_map(|(row, pred)| match pred {
            Some(code) if *code != task.input().code(row, y) => Some(row),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::SchemaMatch;
    use crate::rule::Condition;
    use er_table::{Attribute, Pool, RelationBuilder, Schema, Value};
    use std::sync::Arc;

    /// Input: (City, Case); master: (City, Infection). City determines
    /// infection in master except for "BJ" which is split 2:1.
    fn task() -> Task {
        let pool = Arc::new(Pool::new());
        let in_schema = Arc::new(Schema::new(
            "in",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("Case"),
            ],
        ));
        let m_schema = Arc::new(Schema::new(
            "m",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("Infection"),
            ],
        ));
        let s = Value::str;
        let mut b = RelationBuilder::new(in_schema, Arc::clone(&pool));
        b.push_row(vec![s("HZ"), Value::Null]).unwrap();
        b.push_row(vec![s("BJ"), s("imports")]).unwrap();
        b.push_row(vec![s("SZ"), s("patient")]).unwrap();
        let input = b.finish();
        let mut bm = RelationBuilder::new(m_schema, pool);
        bm.push_row(vec![s("HZ"), s("patient")]).unwrap();
        bm.push_row(vec![s("HZ"), s("patient")]).unwrap();
        bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
        bm.push_row(vec![s("BJ"), s("imports")]).unwrap();
        bm.push_row(vec![s("BJ"), s("patient")]).unwrap();
        let master = bm.finish();
        Task::new(
            input,
            master,
            SchemaMatch::from_pairs(2, &[(0, 0), (1, 1)]),
            (1, 1),
        )
    }

    fn code(t: &Task, v: &str) -> Code {
        t.input().pool().code_of(&Value::str(v)).unwrap()
    }

    #[test]
    fn single_rule_votes() {
        let t = task();
        let rule = EditingRule::new(vec![(0, 0)], (1, 1), vec![]);
        let report = apply_rules(&t, &[rule]);
        assert_eq!(report.rules_applied, 1);
        assert_eq!(report.predictions[0], Some(code(&t, "patient"))); // HZ certain
        assert_eq!(report.predictions[1], Some(code(&t, "imports"))); // BJ majority
        assert_eq!(report.predictions[2], None); // SZ not in master
        assert_eq!(report.num_predictions(), 2);
        assert!((report.scores[0] - 1.0).abs() < 1e-12);
        assert!((report.scores[1] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.candidates[0], 1); // HZ: uncontested
        assert_eq!(report.candidates[1], 2); // BJ: imports vs patient
        assert_eq!(report.candidates[2], 0);
    }

    #[test]
    fn votes_accumulate_across_rules() {
        let t = task();
        let base = EditingRule::new(vec![(0, 0)], (1, 1), vec![]);
        // Same semantics restricted to BJ via a pattern — doubles BJ's votes.
        let bj = EditingRule::new(vec![(0, 0)], (1, 1), vec![Condition::eq(0, code(&t, "BJ"))]);
        let report = apply_rules(&t, &[base, bj]);
        assert!((report.scores[1] - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.predictions[1], Some(code(&t, "imports")));
    }

    #[test]
    fn apply_writes_y_column() {
        let t = task();
        let rule = EditingRule::new(vec![(0, 0)], (1, 1), vec![]);
        let report = apply_rules(&t, &[rule]);
        let repaired = report.apply(&t);
        assert_eq!(repaired.value(0, 1), Value::str("patient"));
        // Unpredicted rows keep their value.
        assert_eq!(repaired.value(2, 1), Value::str("patient"));
    }

    #[test]
    fn changed_rows_only_differing_cells() {
        let t = task();
        let rule = EditingRule::new(vec![(0, 0)], (1, 1), vec![]);
        let report = apply_rules(&t, &[rule]);
        // Row 0: NULL → patient (changed). Row 1: imports → imports (same).
        assert_eq!(changed_rows(&t, &report), vec![0]);
    }

    #[test]
    fn empty_rule_set_predicts_nothing() {
        let t = task();
        let report = apply_rules(&t, &[]);
        assert_eq!(report.num_predictions(), 0);
        assert_eq!(report.rules_applied, 0);
    }

    #[test]
    #[should_panic(expected = "different target")]
    fn rule_with_another_target_panics() {
        let t = task();
        let rule = EditingRule::new(vec![(1, 1)], (0, 0), vec![]);
        apply_rules(&t, &[rule]);
    }
}
