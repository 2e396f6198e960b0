#![forbid(unsafe_code)]
//! # er-rules — editing rules, their measures, and the repair engine
//!
//! This crate is the domain model of the paper *"Discovering Editing Rules by
//! Deep Reinforcement Learning"* (ICDE 2023):
//!
//! * [`EditingRule`] — the rule `((X, X_m) → (Y, Y_m), t_p)` of Definition 1,
//!   with canonicalized LHS attribute pairs and pattern conditions (equality
//!   on categorical attributes, ranges on continuous ones).
//! * [`matching`] — the schema match `M` between the input schema `R` and the
//!   master schema `R_m` (§II-C), plus a simple name-based matcher.
//! * [`Task`] — a mining task: input relation `D`, master relation `D_m`,
//!   match `M`, target pair `(Y, Y_m)` and optional ground-truth labels `D_l`.
//! * [`Evaluator`] — Support `S(φ)`, Certainty `C(φ)`, Quality `Q(φ)` and
//!   Utility `U(φ)` of §II-B (Eqs. 1–5), computed through shared
//!   master-side group indexes and input-side pattern covers.
//! * [`domination`] — pattern/rule domination (Defs. 2–3) and non-redundant
//!   top-K selection (Def. 4, Problem 1).
//! * [`repair`] — applying a rule set: certainty-score voting across rules
//!   (§V-B2) and producing cell-level predictions.
//! * [`batch`] — the long-lived serving entry: a [`BatchRepairer`] warms the
//!   master-side indexes once and repairs streamed input batches with the
//!   exact voting semantics of [`repair`].
//! * [`store`] — a minimal versioned rule store: append-only, hash-chained
//!   lineage of portable rule-set documents with history-preserving
//!   rollback, backing `er-serve`'s gated promotions.
//! * [`metrics`] — weighted precision / recall / F-measure (§V-A2).

pub mod analysis;
pub mod batch;
pub mod chase;
pub mod domination;
pub mod io;
pub mod matching;
pub mod measures;
pub mod metrics;
pub mod repair;
pub mod rule;
pub mod store;
pub mod task;

pub use analysis::{coverage, overlap, CoverageReport, RuleCoverage};
pub use batch::{BatchError, BatchRepairer, VoteStats};
pub use chase::{chase, ChaseConfig, ChaseResult, Fix, TargetRules};
pub use domination::{dominates, pattern_dominates, select_top_k};
pub use io::{from_portable, rules_from_json, rules_to_json, to_portable, PortableRule};
pub use matching::SchemaMatch;
pub use measures::{Evaluator, Measures};
pub use metrics::{evaluate_repairs, WeightedPrf};
pub use repair::{apply_rules, changed_rows, RepairReport};
pub use rule::{Condition, EditingRule, Pred};
pub use store::{content_hash, RuleStore, RuleVersion};
pub use task::{ConditionSpace, ConditionSpaceConfig, Task};
