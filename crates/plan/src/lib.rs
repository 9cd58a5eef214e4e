//! Query plans and operators for the Quokka engine.
//!
//! The paper's system executes SQL-shaped dataflows: scans over object-store
//! tables feeding pipelines of joins and aggregations. This crate provides
//! everything between "a query" and "the distributed runtime":
//!
//! * [`expr`] — a small expression language (column references, literals,
//!   arithmetic, comparisons, boolean logic, `LIKE`, `IN`, `BETWEEN`,
//!   `CASE`, date extraction) with a columnar evaluator.
//! * [`aggregate`] — aggregate functions and their accumulators.
//! * [`logical`] — the logical plan DSL used to express the TPC-H queries.
//! * [`optimizer`] — the rule-based logical optimizer both frontends flow
//!   through: constant folding, filter merging, predicate pushdown,
//!   filter-to-join conversion, build-side selection from catalog row
//!   counts, top-k pushdown, and column pruning.
//! * [`physical`] — stateful stage operators (filter/project, hash join,
//!   hash aggregate, sort/top-k, limit) implementing the channel state
//!   variables of the paper's execution model (Fig. 1).
//! * [`stage`] — compilation of a logical plan into a DAG of pipeline
//!   stages with hash-partitioned shuffles between them; this is the "stage
//!   / channel" structure that tasks are named after.
//! * [`mod@reference`] — a single-threaded row-oriented executor used as a
//!   correctness oracle for the distributed engine and as the
//!   "restart-from-scratch" baseline runtime.
//! * [`catalog`] — the table-provider abstraction shared by the reference
//!   executor and the distributed scan stages.

pub mod aggregate;
pub mod catalog;
pub mod expr;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod reference;
pub mod stage;

pub use aggregate::{AggExpr, AggFunc};
pub use catalog::{Catalog, MemoryCatalog, TableSplits};
pub use expr::{Expr, NamedExpr};
pub use logical::{sort_by_exprs, JoinType, LogicalPlan, PlanBuilder};
pub use optimizer::Optimizer;
pub use physical::{CoreOp, OperatorSpec, StageOperator, Transform};
pub use reference::ReferenceExecutor;
pub use stage::{StageGraph, StageSpec};
