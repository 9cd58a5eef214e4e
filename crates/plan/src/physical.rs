//! Stateful stage operators.
//!
//! In the paper's execution model (Fig. 1) every stage runs an operator with
//! an optional *state variable* per channel: the hash table of a join, the
//! group map of an aggregation, the buffer of a sort. Tasks push input
//! batches through the operator, mutating that state and emitting output
//! batches.
//!
//! The [`StageOperator`] trait is exactly that contract. Operators are
//! created from a cloneable [`OperatorSpec`] so the engine can re-instantiate
//! them from scratch when a failed channel is rewound during recovery (the
//! state variable itself is never persisted — that is the whole point of
//! write-ahead lineage).

use crate::aggregate::{AggExpr, AggFunc, AggState};
use crate::expr::{lit, Expr};
use crate::logical::JoinType;
use quokka_batch::compute::{self, SortKey};
use quokka_batch::datatype::DataType;
use quokka_batch::rowkey::{self, EncodedKeys, KeyLayout, KeyMap};
use quokka_batch::{Batch, Column, Schema};
use quokka_common::{QuokkaError, Result};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// A row transformation applied inside a stage, to the output of its core
/// operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// Keep rows satisfying the predicate.
    Filter(Expr),
    /// Compute named expressions.
    Project(Vec<(Expr, String)>),
    /// The map-side half of a two-phase aggregation: evaluate the group keys
    /// and fold each batch into one partial state per group (see
    /// [`TwoPhase`](crate::aggregate::TwoPhase)). The stage compiler appends
    /// it as the last transform of the stage that feeds an aggregate; it
    /// keeps no state between batches.
    PartialAggregate { group_by: Vec<(Expr, String)>, aggregates: Vec<AggExpr> },
}

impl Transform {
    /// Output schema after applying this transform to `input`.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        match self {
            Transform::Filter(_) => Ok(input.clone()),
            Transform::Project(exprs) => project_schema(input, exprs),
            Transform::PartialAggregate { group_by, aggregates } => {
                aggregate_schema(input, group_by, aggregates)
            }
        }
    }

    /// Apply this transform to a batch. The batch moves through: a filter
    /// that keeps every row returns it unchanged, and a projection moves the
    /// columns it selects instead of copying them.
    pub fn apply(&self, batch: Batch) -> Result<Batch> {
        match self {
            Transform::Filter(predicate) => {
                let mask = predicate.evaluate(&batch)?;
                let mask = mask.as_bool()?;
                if mask.iter().all(|&keep| keep) {
                    Ok(batch)
                } else {
                    batch.filter(mask)
                }
            }
            Transform::Project(exprs) => project(batch, exprs),
            Transform::PartialAggregate { group_by, aggregates } => PartialAggregator::new(
                batch.schema().clone(),
                group_by.clone(),
                aggregates.clone(),
            )?
            .apply(batch),
        }
    }
}

fn project_schema(input: &Schema, exprs: &[(Expr, String)]) -> Result<Schema> {
    let fields = exprs
        .iter()
        .map(|(e, name)| Ok(quokka_batch::Field::new(name.clone(), e.data_type(input)?)))
        .collect::<Result<Vec<_>>>()?;
    Ok(Schema::new(fields))
}

/// Evaluate a projection, moving every selected column out of `batch`.
fn project(batch: Batch, exprs: &[(Expr, String)]) -> Result<Batch> {
    let schema = project_schema(batch.schema(), exprs)?;
    // Computed expressions read the intact batch first.
    let mut columns = exprs
        .iter()
        .map(|(e, _)| match e {
            Expr::Column(_) => Ok(None),
            computed => computed.evaluate(&batch).map(Some),
        })
        .collect::<Result<Vec<Option<Column>>>>()?;
    let sources = exprs
        .iter()
        .map(|(e, _)| match e {
            Expr::Column(name) => batch.schema().index_of(name).map(Some),
            _ => Ok(None),
        })
        .collect::<Result<Vec<Option<usize>>>>()?;
    let mut owned: Vec<Option<Column>> = batch.into_columns().into_iter().map(Some).collect();
    for (i, source) in sources.iter().enumerate() {
        if let Some(index) = *source {
            // A column selected again further on is cloned; its last use
            // moves it.
            columns[i] = if sources[i + 1..].contains(source) {
                owned[index].clone()
            } else {
                owned[index].take()
            };
        }
    }
    let columns = columns
        .into_iter()
        .collect::<Option<Vec<Column>>>()
        .ok_or_else(|| QuokkaError::internal("projection lost a column"))?;
    Batch::try_new(schema, columns)
}

/// Apply a chain of transforms, moving the batch from one to the next.
pub fn apply_transforms(batch: Batch, transforms: &[Transform]) -> Result<Batch> {
    transforms.iter().try_fold(batch, |current, t| t.apply(current))
}

/// Output schema of an aggregation: the group keys, then the aggregates.
fn aggregate_schema(
    input: &Schema,
    group_by: &[(Expr, String)],
    aggregates: &[AggExpr],
) -> Result<Schema> {
    let keys = group_by.iter().map(|(expr, name)| Ok((name, expr.data_type(input)?)));
    let aggs = aggregates.iter().map(|agg| Ok((&agg.alias, agg.data_type(input)?)));
    let fields = keys
        .chain(aggs)
        .map(|field| field.map(|(name, t)| quokka_batch::Field::new(name.clone(), t)))
        .collect::<Result<Vec<_>>>()?;
    Ok(Schema::new(fields))
}

/// Output schema after a chain of transforms.
pub fn transforms_schema(input: &Schema, transforms: &[Transform]) -> Result<Schema> {
    let mut current = input.clone();
    for t in transforms {
        current = t.output_schema(&current)?;
    }
    Ok(current)
}

/// The stateful core of a stage.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreOp {
    /// Stateless pass-through (scans and pure filter/project stages).
    Map { input_schema: Schema },
    /// Hash join. Input 0 is the build side, input 1 the probe side.
    HashJoin {
        build_schema: Schema,
        probe_schema: Schema,
        /// Indices of the key columns in the build schema.
        build_keys: Vec<usize>,
        /// Indices of the key columns in the probe schema.
        probe_keys: Vec<usize>,
        join_type: JoinType,
    },
    /// Hash aggregation.
    HashAggregate { input_schema: Schema, group_by: Vec<(Expr, String)>, aggregates: Vec<AggExpr> },
    /// Buffering sort (optionally top-k).
    Sort { input_schema: Schema, keys: Vec<(String, bool)>, limit: Option<usize> },
    /// Row-count limit.
    Limit { input_schema: Schema, n: usize },
}

impl CoreOp {
    /// Output schema of the core operator (before post transforms).
    pub fn output_schema(&self) -> Result<Schema> {
        match self {
            CoreOp::Map { input_schema } => Ok(input_schema.clone()),
            CoreOp::HashJoin { build_schema, probe_schema, join_type, .. } => match join_type {
                JoinType::Semi | JoinType::Anti => Ok(probe_schema.clone()),
                JoinType::Inner | JoinType::Left => Ok(build_schema.join(probe_schema)),
            },
            CoreOp::HashAggregate { input_schema, group_by, aggregates } => {
                aggregate_schema(input_schema, group_by, aggregates)
            }
            CoreOp::Sort { input_schema, .. } | CoreOp::Limit { input_schema, .. } => {
                Ok(input_schema.clone())
            }
        }
    }

    /// Number of distinct upstream inputs this operator consumes.
    pub fn num_inputs(&self) -> usize {
        match self {
            CoreOp::HashJoin { .. } => 2,
            _ => 1,
        }
    }

    /// Whether the operator keeps meaningful state between tasks.
    pub fn is_stateful(&self) -> bool {
        !matches!(self, CoreOp::Map { .. })
    }
}

/// A cloneable description of a stage's operator: the stateful core plus a
/// chain of stateless transforms applied to its output.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    pub core: CoreOp,
    pub post: Vec<Transform>,
}

impl OperatorSpec {
    pub fn new(core: CoreOp) -> Self {
        OperatorSpec { core, post: Vec::new() }
    }

    pub fn with_post(mut self, transform: Transform) -> Self {
        self.post.push(transform);
        self
    }

    /// Final output schema (core output run through the post transforms).
    pub fn output_schema(&self) -> Result<Schema> {
        transforms_schema(&self.core.output_schema()?, &self.post)
    }

    pub fn num_inputs(&self) -> usize {
        self.core.num_inputs()
    }

    pub fn is_stateful(&self) -> bool {
        self.core.is_stateful()
    }

    /// Build a fresh operator instance with empty state.
    pub fn instantiate(&self) -> Result<Box<dyn StageOperator>> {
        let core: Box<dyn StageOperator> = match &self.core {
            CoreOp::Map { input_schema } => Box::new(MapOperator { schema: input_schema.clone() }),
            CoreOp::HashJoin { build_schema, probe_schema, build_keys, probe_keys, join_type } => {
                Box::new(HashJoinOperator::new(
                    build_schema.clone(),
                    probe_schema.clone(),
                    build_keys.clone(),
                    probe_keys.clone(),
                    *join_type,
                ))
            }
            CoreOp::HashAggregate { input_schema, group_by, aggregates } => {
                Box::new(HashAggregateOperator::new(
                    input_schema.clone(),
                    group_by.clone(),
                    aggregates.clone(),
                )?)
            }
            CoreOp::Sort { input_schema, keys, limit } => {
                Box::new(SortOperator::new(input_schema.clone(), keys.clone(), *limit)?)
            }
            CoreOp::Limit { input_schema, n } => {
                Box::new(LimitOperator { schema: input_schema.clone(), remaining: *n, n: *n })
            }
        };
        if self.post.is_empty() {
            return Ok(core);
        }
        // A trailing partial aggregate gets one aggregator per channel,
        // reused for every batch.
        let mut post = self.post.clone();
        let partial = match self.post.last() {
            Some(Transform::PartialAggregate { group_by, aggregates }) => {
                post.pop();
                let input = transforms_schema(&self.core.output_schema()?, &post)?;
                Some(PartialAggregator::new(input, group_by.clone(), aggregates.clone())?)
            }
            _ => None,
        };
        Ok(Box::new(PostTransformOperator {
            schema: self.output_schema()?,
            inner: core,
            post,
            partial,
        }))
    }
}

/// A channel's stateful operator (the paper's "state variable" plus the code
/// that updates it).
pub trait StageOperator: Send {
    /// Feed one batch arriving from upstream input `input`; returns any
    /// output batches that can be emitted immediately. The operator owns
    /// the batch, so state that keeps it (a join's build side, a sort's
    /// buffer) and pass-through output take it without a copy.
    fn push(&mut self, input: usize, batch: Batch) -> Result<Vec<Batch>>;
    /// Signal that upstream input `input` is exhausted; returns output that
    /// becomes available because of it (e.g. probe results buffered while a
    /// join's build side was still streaming in).
    fn finish_input(&mut self, input: usize) -> Result<Vec<Batch>>;
    /// Signal that every input is exhausted; returns the final output (e.g.
    /// aggregation results).
    fn finish(&mut self) -> Result<Vec<Batch>>;
    /// Output schema of emitted batches.
    fn output_schema(&self) -> Schema;
    /// Approximate size of the operator state in bytes (checkpoint sizing).
    fn state_bytes(&self) -> usize;
    /// Drop all state, returning the operator to its initial configuration
    /// (used when a channel is rewound during recovery).
    fn reset(&mut self);
}

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

/// Stateless pass-through operator.
#[derive(Debug)]
struct MapOperator {
    schema: Schema,
}

impl StageOperator for MapOperator {
    fn push(&mut self, _input: usize, batch: Batch) -> Result<Vec<Batch>> {
        Ok(vec![batch])
    }
    fn finish_input(&mut self, _input: usize) -> Result<Vec<Batch>> {
        Ok(vec![])
    }
    fn finish(&mut self) -> Result<Vec<Batch>> {
        Ok(vec![])
    }
    fn output_schema(&self) -> Schema {
        self.schema.clone()
    }
    fn state_bytes(&self) -> usize {
        0
    }
    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// Post transforms wrapper
// ---------------------------------------------------------------------------

struct PostTransformOperator {
    schema: Schema,
    inner: Box<dyn StageOperator>,
    post: Vec<Transform>,
    /// The chain's trailing [`Transform::PartialAggregate`], if any.
    partial: Option<PartialAggregator>,
}

impl PostTransformOperator {
    fn map(&mut self, batches: Vec<Batch>) -> Result<Vec<Batch>> {
        batches
            .into_iter()
            .map(|batch| {
                let batch = apply_transforms(batch, &self.post)?;
                match &mut self.partial {
                    Some(partial) => partial.apply(batch),
                    None => Ok(batch),
                }
            })
            .collect()
    }
}

impl StageOperator for PostTransformOperator {
    fn push(&mut self, input: usize, batch: Batch) -> Result<Vec<Batch>> {
        let out = self.inner.push(input, batch)?;
        self.map(out)
    }
    fn finish_input(&mut self, input: usize) -> Result<Vec<Batch>> {
        let out = self.inner.finish_input(input)?;
        self.map(out)
    }
    fn finish(&mut self) -> Result<Vec<Batch>> {
        let out = self.inner.finish()?;
        self.map(out)
    }
    fn output_schema(&self) -> Schema {
        self.schema.clone()
    }
    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Build-then-probe hash join.
///
/// The build side (input 0) is accumulated into an in-memory hash table (the
/// channel's state variable — exactly the example used in the paper's
/// Fig. 1/2). Probe batches arriving before the build side has finished are
/// buffered so that upstream stages can stay busy; once the build side
/// finishes they are probed and output flows batch-by-batch, which is what
/// gives pipelined execution its advantage over stagewise execution.
///
/// The hash table maps compact binary key encodings (see
/// [`quokka_batch::rowkey`]) to build-row indices, and matched rows are
/// stitched with typed column gathers — the probe path materializes no
/// per-row `ScalarValue`.
struct HashJoinOperator {
    build_schema: Schema,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    join_type: JoinType,
    output: Schema,
    /// Key encoding shared by both sides.
    layout: KeyLayout,
    /// Build batches staged until the build side finishes streaming in.
    staged_build: Vec<Batch>,
    /// All build rows, concatenated once the build side finished.
    build_side: Option<Batch>,
    /// Encoded build key -> first build row with that key; further rows with
    /// the same key are chained through `next` (no per-key allocation).
    table: KeyMap<u32>,
    /// `next[row]` = the next build row sharing `row`'s key, or `NO_ROW`.
    next: Vec<u32>,
    /// Probe batches buffered before the build side finished.
    pending_probe: Vec<Batch>,
    build_done: bool,
}

/// Chain terminator for the join table's `next` links.
const NO_ROW: u32 = u32::MAX;

impl HashJoinOperator {
    fn new(
        build_schema: Schema,
        probe_schema: Schema,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
    ) -> Self {
        let output = match join_type {
            JoinType::Semi | JoinType::Anti => probe_schema.clone(),
            JoinType::Inner | JoinType::Left => build_schema.join(&probe_schema),
        };
        let build_types: Vec<DataType> =
            build_keys.iter().map(|&k| build_schema.field(k).data_type).collect();
        let probe_types: Vec<DataType> =
            probe_keys.iter().map(|&k| probe_schema.field(k).data_type).collect();
        let layout = rowkey::joint_key_layout(&build_types, &probe_types);
        HashJoinOperator {
            build_schema,
            build_keys,
            probe_keys,
            join_type,
            output,
            layout,
            staged_build: Vec::new(),
            build_side: None,
            table: KeyMap::new(layout),
            next: Vec::new(),
            pending_probe: Vec::new(),
            build_done: false,
        }
    }

    /// Concatenate the staged build batches and index their keys. Rows are
    /// inserted in reverse so each chain lists build rows in ascending
    /// (original insertion) order, matching the row order the scalar
    /// implementation emitted.
    fn seal_build(&mut self) -> Result<()> {
        let staged = std::mem::take(&mut self.staged_build);
        let build = if staged.is_empty() {
            Batch::empty(self.build_schema.clone())
        } else {
            Batch::concat(&staged)?
        };
        if self.build_keys.is_empty() {
            // Keyless (cross) join: there is no table to index; every probe
            // row matches every build row.
            self.build_side = Some(build);
            return Ok(());
        }
        let key_columns: Vec<&Column> = self.build_keys.iter().map(|&k| build.column(k)).collect();
        let keys = rowkey::encode_keys(&key_columns, self.layout)?;
        self.next = vec![NO_ROW; build.num_rows()];
        self.table.reserve(build.num_rows());
        for row in (0..build.num_rows()).rev() {
            let head = self.table.get_mut_or_insert_with(&keys, row, || NO_ROW)?;
            self.next[row] = *head;
            *head = row as u32;
        }
        self.build_side = Some(build);
        Ok(())
    }

    fn encode_probe_keys(&self, batch: &Batch) -> Result<EncodedKeys> {
        let key_columns: Vec<&Column> = self.probe_keys.iter().map(|&k| batch.column(k)).collect();
        rowkey::encode_keys(&key_columns, self.layout)
    }

    fn probe(&self, batch: &Batch) -> Result<Vec<Batch>> {
        if batch.num_rows() == 0 {
            return Ok(vec![]);
        }
        if self.probe_keys.is_empty() {
            return self.probe_cross(batch);
        }
        let keys = self.encode_probe_keys(batch)?;
        match self.join_type {
            JoinType::Inner | JoinType::Left => {
                // Gather matching (build row, probe row) index pairs.
                let mut build_rows: Vec<usize> = Vec::with_capacity(batch.num_rows());
                let mut probe_rows: Vec<usize> = Vec::with_capacity(batch.num_rows());
                let mut unmatched: Vec<usize> = Vec::new();
                let next = &self.next;
                self.table.lookup_each(&keys, |row, head| match head {
                    Some(&head) => {
                        let mut b = head;
                        while b != NO_ROW {
                            build_rows.push(b as usize);
                            probe_rows.push(row);
                            b = next[b as usize];
                        }
                    }
                    None => unmatched.push(row),
                })?;
                let mut outputs = Vec::new();
                if !probe_rows.is_empty() {
                    outputs.push(self.stitch(&build_rows, &probe_rows, batch)?);
                }
                if self.join_type == JoinType::Left && !unmatched.is_empty() {
                    outputs.push(self.stitch_defaults(&unmatched, batch)?);
                }
                Ok(outputs)
            }
            JoinType::Semi | JoinType::Anti => {
                let want_match = self.join_type == JoinType::Semi;
                let mut mask: Vec<bool> = Vec::with_capacity(batch.num_rows());
                self.table.lookup_each(&keys, |_, head| mask.push(head.is_some() == want_match))?;
                let filtered = batch.filter(&mask)?;
                if filtered.num_rows() == 0 {
                    Ok(vec![])
                } else {
                    Ok(vec![filtered])
                }
            }
        }
    }

    /// Keyless probe: the cartesian product (Inner/Left) or an all-or-
    /// nothing pass-through (Semi/Anti keep every probe row iff the build
    /// side is non-empty/empty).
    fn probe_cross(&self, batch: &Batch) -> Result<Vec<Batch>> {
        let build = self
            .build_side
            .as_ref()
            .ok_or_else(|| QuokkaError::internal("probe before the build side was sealed"))?;
        let build_count = build.num_rows();
        match self.join_type {
            JoinType::Inner | JoinType::Left => {
                if build_count == 0 {
                    if self.join_type == JoinType::Left {
                        let all: Vec<usize> = (0..batch.num_rows()).collect();
                        return Ok(vec![self.stitch_defaults(&all, batch)?]);
                    }
                    return Ok(vec![]);
                }
                // Emit the product in bounded chunks: one batch per flush
                // (of at most one probe row's matches past the threshold)
                // instead of one batch holding |build| x |probe| rows.
                const CROSS_OUTPUT_ROWS: usize = 8192;
                let mut outputs = Vec::new();
                let mut build_rows: Vec<usize> = Vec::new();
                let mut probe_rows: Vec<usize> = Vec::new();
                for probe_row in 0..batch.num_rows() {
                    for build_row in 0..build_count {
                        build_rows.push(build_row);
                        probe_rows.push(probe_row);
                        if build_rows.len() >= CROSS_OUTPUT_ROWS {
                            outputs.push(self.stitch(&build_rows, &probe_rows, batch)?);
                            build_rows.clear();
                            probe_rows.clear();
                        }
                    }
                }
                if !build_rows.is_empty() {
                    outputs.push(self.stitch(&build_rows, &probe_rows, batch)?);
                }
                Ok(outputs)
            }
            JoinType::Semi | JoinType::Anti => {
                let keep = (build_count > 0) == (self.join_type == JoinType::Semi);
                if keep {
                    Ok(vec![batch.clone()])
                } else {
                    Ok(vec![])
                }
            }
        }
    }

    /// Combine matched build rows with their probe rows into one output
    /// batch via typed gathers on both sides.
    fn stitch(&self, build_rows: &[usize], probe_rows: &[usize], probe: &Batch) -> Result<Batch> {
        let build = self
            .build_side
            .as_ref()
            .ok_or_else(|| QuokkaError::internal("probe before the build side was sealed"))?;
        let mut columns = build.take(build_rows)?.into_columns();
        columns.extend(probe.take(probe_rows)?.into_columns());
        Batch::try_new(self.output.clone(), columns)
    }

    /// Emit unmatched probe rows with default-valued build columns (Left).
    fn stitch_defaults(&self, probe_rows: &[usize], probe: &Batch) -> Result<Batch> {
        let mut columns: Vec<Column> = Vec::with_capacity(self.output.len());
        for field in self.build_schema.fields() {
            columns.push(Column::default_of(field.data_type, probe_rows.len()));
        }
        columns.extend(probe.take(probe_rows)?.into_columns());
        Batch::try_new(self.output.clone(), columns)
    }
}

impl StageOperator for HashJoinOperator {
    fn push(&mut self, input: usize, batch: Batch) -> Result<Vec<Batch>> {
        match input {
            0 => {
                if self.build_done {
                    return Err(QuokkaError::internal("build input pushed after finish"));
                }
                self.staged_build.push(batch);
                Ok(vec![])
            }
            1 => {
                if self.build_done {
                    self.probe(&batch)
                } else {
                    self.pending_probe.push(batch);
                    Ok(vec![])
                }
            }
            other => Err(QuokkaError::internal(format!("join has no input {other}"))),
        }
    }

    fn finish_input(&mut self, input: usize) -> Result<Vec<Batch>> {
        if input == 0 && !self.build_done {
            self.build_done = true;
            self.seal_build()?;
            let pending = std::mem::take(&mut self.pending_probe);
            let mut out = Vec::new();
            for batch in pending {
                out.extend(self.probe(&batch)?);
            }
            return Ok(out);
        }
        Ok(vec![])
    }

    fn finish(&mut self) -> Result<Vec<Batch>> {
        // All output is produced while probing; nothing is held back.
        Ok(vec![])
    }

    fn output_schema(&self) -> Schema {
        self.output.clone()
    }

    fn state_bytes(&self) -> usize {
        let staged: usize = self.staged_build.iter().map(Batch::byte_size).sum();
        let build: usize = self.build_side.as_ref().map(Batch::byte_size).unwrap_or(0);
        let pending: usize = self.pending_probe.iter().map(Batch::byte_size).sum();
        staged + build + pending + self.table.key_bytes() + self.next.len() * 4
    }

    fn reset(&mut self) {
        self.staged_build.clear();
        self.build_side = None;
        self.table.clear();
        self.next.clear();
        self.pending_probe.clear();
        self.build_done = false;
    }
}

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

/// Hash aggregation; the group state is the channel's state variable.
///
/// Group keys are interned through a [`KeyMap`] from their compact binary
/// encoding (u64 fast path for single int/date keys) to a dense group id,
/// and every aggregate keeps one typed vector indexed by that id (see
/// [`AggState`]). The push path touches no `ScalarValue`: key values are
/// materialized with typed appends only when a group is first seen, and
/// accumulator updates run as typed column loops.
struct HashAggregateOperator {
    input_schema: Schema,
    group_by: Vec<(Expr, String)>,
    aggregates: Vec<AggExpr>,
    output: Schema,
    agg_input_types: Vec<DataType>,
    layout: KeyLayout,
    /// Encoded group key -> dense group id.
    table: KeyMap<u32>,
    /// Typed key values per group-by expression; row `g` is group `g`'s key.
    key_values: Vec<Column>,
    /// Vectorized accumulators, one per aggregate, indexed by group id.
    states: Vec<AggState>,
    /// For a global aggregate (no group columns) we must emit exactly one
    /// row even if no input arrives.
    global: bool,
    /// Fast path for a single dictionary-encoded group key: a memoized
    /// code -> group-id table for the dictionary `Arc` it was built against
    /// (`u32::MAX` = code not interned yet). The byte-keyed `table` stays
    /// authoritative, so batches with different dictionaries — or plain
    /// strings — land in the same groups.
    dict_lut: Option<(Arc<Vec<String>>, Vec<u32>)>,
}

impl HashAggregateOperator {
    fn new(
        input_schema: Schema,
        group_by: Vec<(Expr, String)>,
        aggregates: Vec<AggExpr>,
    ) -> Result<Self> {
        let output = aggregate_schema(&input_schema, &group_by, &aggregates)?;
        let agg_input_types = aggregates
            .iter()
            .map(|a| a.expr.data_type(&input_schema))
            .collect::<Result<Vec<_>>>()?;
        let key_types =
            group_by.iter().map(|(e, _)| e.data_type(&input_schema)).collect::<Result<Vec<_>>>()?;
        let layout = rowkey::key_layout(&key_types);
        let key_values = key_types.iter().map(|&t| Column::empty(t)).collect();
        let states = aggregates
            .iter()
            .zip(&agg_input_types)
            .map(|(a, &t)| AggState::new(a.func, t))
            .collect();
        let global = group_by.is_empty();
        Ok(HashAggregateOperator {
            input_schema,
            group_by,
            aggregates,
            output,
            agg_input_types,
            layout,
            table: KeyMap::new(layout),
            key_values,
            states,
            global,
            dict_lut: None,
        })
    }

    /// Dense group id for every row, creating groups (and materializing
    /// their key values) for keys seen for the first time.
    fn intern_groups(&mut self, group_columns: &[&Column], rows: usize) -> Result<Vec<u32>> {
        if self.global {
            return Ok(vec![0; rows]);
        }
        if let [Column::Dict(d)] = group_columns {
            return self.intern_dict_groups(d, rows);
        }
        let keys = rowkey::encode_keys(group_columns, self.layout)?;
        let mut group_ids = Vec::with_capacity(rows);
        for row in 0..rows {
            let next = self.table.len() as u32;
            let id = *self.table.get_mut_or_insert_with(&keys, row, || next)?;
            if id == next {
                for (builder, column) in self.key_values.iter_mut().zip(group_columns) {
                    builder.push_from(column, row)?;
                }
            }
            group_ids.push(id);
        }
        Ok(group_ids)
    }

    /// Group a single dictionary-encoded key column on its codes: per-row
    /// work is one LUT load, and the byte-key interning runs at most once
    /// per distinct dictionary entry instead of once per row. Groups are
    /// only created for codes that actually occur — a dictionary entry
    /// filtered out of the data never materializes a group.
    fn intern_dict_groups(
        &mut self,
        d: &quokka_batch::DictColumn,
        rows: usize,
    ) -> Result<Vec<u32>> {
        let reusable = matches!(&self.dict_lut, Some((arc, _)) if Arc::ptr_eq(arc, &d.values));
        if !reusable {
            self.dict_lut = Some((Arc::clone(&d.values), vec![u32::MAX; d.values.len()]));
        }
        let mut group_ids = Vec::with_capacity(rows);
        for &code in d.codes.iter().take(rows) {
            let code = code as usize;
            let (_, lut) = self.dict_lut.as_ref().expect("lut just installed");
            let mut id = lut[code];
            if id == u32::MAX {
                // First occurrence of this dictionary entry: intern through
                // the authoritative byte-keyed table (the encoding matches
                // what a plain Utf8 column would produce for this value).
                let single = Column::Utf8(vec![d.values[code].clone()]);
                let keys = rowkey::encode_keys(&[&single], self.layout)?;
                let next = self.table.len() as u32;
                id = *self.table.get_mut_or_insert_with(&keys, 0, || next)?;
                if id == next {
                    self.key_values[0]
                        .push(&quokka_batch::datatype::ScalarValue::Utf8(d.values[code].clone()))?;
                }
                self.dict_lut.as_mut().expect("lut just installed").1[code] = id;
            }
            group_ids.push(id);
        }
        Ok(group_ids)
    }

    fn num_groups(&self) -> usize {
        if self.global {
            // The group (at most one) materializes when the first batch
            // resizes the accumulator states; finish() adds the empty-input
            // row separately.
            self.states.first().map(|s| s.num_groups()).unwrap_or(0)
        } else {
            self.table.len()
        }
    }
}

impl StageOperator for HashAggregateOperator {
    fn push(&mut self, _input: usize, batch: Batch) -> Result<Vec<Batch>> {
        let batch = &batch;
        if batch.num_rows() == 0 {
            return Ok(vec![]);
        }
        if batch.schema() != &self.input_schema {
            return Err(QuokkaError::SchemaMismatch {
                expected: self.input_schema.to_string(),
                actual: batch.schema().to_string(),
            });
        }
        let group_columns = self
            .group_by
            .iter()
            .map(|(e, _)| evaluate_borrowed(e, batch))
            .collect::<Result<Vec<_>>>()?;
        let agg_columns = self
            .aggregates
            .iter()
            .map(|a| evaluate_borrowed(&a.expr, batch))
            .collect::<Result<Vec<_>>>()?;
        let group_refs: Vec<&Column> = group_columns.iter().map(AsRef::as_ref).collect();
        let group_ids = self.intern_groups(&group_refs, batch.num_rows())?;
        let num_groups = if self.global { 1 } else { self.table.len() };
        for (state, column) in self.states.iter_mut().zip(&agg_columns) {
            state.update_batch(column, &group_ids, num_groups)?;
        }
        Ok(vec![])
    }

    fn finish_input(&mut self, _input: usize) -> Result<Vec<Batch>> {
        Ok(vec![])
    }

    fn finish(&mut self) -> Result<Vec<Batch>> {
        let mut group_count = self.num_groups();
        if group_count == 0 && self.global {
            // SQL semantics: a global aggregate over zero rows still yields
            // one row of "zero" values.
            group_count = 1;
        }
        for state in &mut self.states {
            state.resize(group_count);
        }
        // Emit groups in ascending key order: deterministic across runs and
        // replays regardless of hash-map iteration order (the stringified
        // BTreeMap this replaces was sorted too).
        let mut order: Vec<usize> = (0..group_count).collect();
        order.sort_by(|&a, &b| {
            for column in &self.key_values {
                let ord = compute::cmp_values(column, a, column, b);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        let mut columns: Vec<Column> = Vec::with_capacity(self.output.len());
        for builder in &self.key_values {
            columns.push(builder.take(&order));
        }
        for state in &self.states {
            columns.push(state.finalize_column().take(&order));
        }
        let batch = Batch::try_new(self.output.clone(), columns)?;
        self.reset();
        Ok(vec![batch])
    }

    fn output_schema(&self) -> Schema {
        self.output.clone()
    }

    fn state_bytes(&self) -> usize {
        self.table.key_bytes()
            + self.key_values.iter().map(Column::byte_size).sum::<usize>()
            + self.states.iter().map(AggState::state_bytes).sum::<usize>()
    }

    fn reset(&mut self) {
        self.table.clear();
        // The lookup table caches group ids of the table just cleared.
        self.dict_lut = None;
        for builder in &mut self.key_values {
            *builder = Column::empty(builder.data_type());
        }
        let states = self
            .aggregates
            .iter()
            .zip(&self.agg_input_types)
            .map(|(a, &t)| AggState::new(a.func, t))
            .collect();
        self.states = states;
    }
}

/// Evaluate `expr` over `batch`, borrowing the column a plain column
/// reference names instead of copying it.
fn evaluate_borrowed<'b>(expr: &Expr, batch: &'b Batch) -> Result<Cow<'b, Column>> {
    match expr {
        Expr::Column(name) => Ok(Cow::Borrowed(batch.column_by_name(name)?)),
        computed => computed.evaluate(batch).map(Cow::Owned),
    }
}

// ---------------------------------------------------------------------------
// Partial aggregation
// ---------------------------------------------------------------------------

/// A batch is pre-aggregated only when the bound on its group count leaves
/// at least this many rows per group; otherwise hashing costs more than the
/// shuffle bytes it saves, and each row goes out as its own partial state.
const PARTIAL_MIN_ROWS_PER_GROUP: u64 = 2;

/// The map-side half of a two-phase aggregation ([`Transform::PartialAggregate`]).
///
/// Each batch becomes a batch of partial states keyed by the evaluated group
/// keys: one row per group when the batch is worth pre-aggregating, one row
/// per input row otherwise. The choice reads only the batch, so a replayed
/// task re-emits byte-identical partitions, and no state survives a batch.
struct PartialAggregator {
    /// Reused for every batch: `finish` emits a batch's groups and resets it.
    table: HashAggregateOperator,
    /// The projection that passes each row on as its own partial state: the
    /// keys, a 1 per COUNT, and the value itself for SUM, MIN and MAX.
    row_states: Vec<(Expr, String)>,
}

impl PartialAggregator {
    fn new(input: Schema, group_by: Vec<(Expr, String)>, aggregates: Vec<AggExpr>) -> Result<Self> {
        let table = HashAggregateOperator::new(input, group_by, aggregates)?;
        let states = &table.output.fields()[table.group_by.len()..];
        let mut row_states = table.group_by.clone();
        for ((agg, state), input_type) in
            table.aggregates.iter().zip(states).zip(&table.agg_input_types)
        {
            let value = match agg.func {
                AggFunc::Count => lit(1i64),
                // A SUM over dates accumulates as Float64.
                _ if *input_type != state.data_type => agg.expr.clone().mul(lit(1.0f64)),
                _ => agg.expr.clone(),
            };
            row_states.push((value, agg.alias.clone()));
        }
        Ok(PartialAggregator { table, row_states })
    }

    fn apply(&mut self, batch: Batch) -> Result<Batch> {
        let rows = batch.num_rows() as u64;
        if rows == 0 {
            // Not even a global aggregate's zero row: the final stage adds
            // that one when no partial state reaches it at all.
            return Ok(Batch::empty(self.table.output.clone()));
        }
        let groups = group_count_bound(&batch, &self.table.group_by);
        if groups.is_some_and(|g| g.saturating_mul(PARTIAL_MIN_ROWS_PER_GROUP) <= rows) {
            self.table.push(0, batch)?;
            return self
                .table
                .finish()?
                .pop()
                .ok_or_else(|| QuokkaError::internal("aggregate finished without a batch"));
        }
        project(batch, &self.row_states)
    }
}

/// An upper bound on the number of distinct group keys in `batch`, read off
/// each key column: a dictionary's size, a bit-packed column's width, a
/// plain integer or date column's value span, two for booleans. `None` when
/// some key has no such bound (an expression, a plain string or a float).
fn group_count_bound(batch: &Batch, group_by: &[(Expr, String)]) -> Option<u64> {
    group_by.iter().try_fold(1u64, |bound, (key, _)| {
        let Expr::Column(name) = key else { return None };
        let distinct = match batch.column_by_name(name).ok()? {
            Column::Dict(d) => d.values.len() as u64,
            Column::Packed(p) => 1u64.checked_shl(u32::from(p.width))?,
            Column::Int64(v) => value_span(v.iter().copied())?,
            Column::Date(v) => value_span(v.iter().map(|&d| i64::from(d)))?,
            Column::Bool(_) => 2,
            Column::Utf8(_) | Column::Float64(_) | Column::Xor(_) => return None,
        };
        bound.checked_mul(distinct)
    })
}

/// `max - min + 1` over a non-empty run of values.
fn value_span(values: impl Iterator<Item = i64>) -> Option<u64> {
    let (min, max) = values.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    u64::try_from(i128::from(max) - i128::from(min) + 1).ok()
}

// ---------------------------------------------------------------------------
// Sort / Limit
// ---------------------------------------------------------------------------

/// Buffering sort, optionally with a top-k limit.
struct SortOperator {
    schema: Schema,
    keys: Vec<SortKey>,
    limit: Option<usize>,
    buffered: Vec<Batch>,
}

impl SortOperator {
    fn new(schema: Schema, keys: Vec<(String, bool)>, limit: Option<usize>) -> Result<Self> {
        let keys = keys
            .iter()
            .map(|(name, asc)| Ok(SortKey { column: schema.index_of(name)?, ascending: *asc }))
            .collect::<Result<Vec<_>>>()?;
        Ok(SortOperator { schema, keys, limit, buffered: Vec::new() })
    }
}

impl StageOperator for SortOperator {
    fn push(&mut self, _input: usize, batch: Batch) -> Result<Vec<Batch>> {
        if batch.num_rows() > 0 {
            self.buffered.push(batch);
        }
        Ok(vec![])
    }
    fn finish_input(&mut self, _input: usize) -> Result<Vec<Batch>> {
        Ok(vec![])
    }
    fn finish(&mut self) -> Result<Vec<Batch>> {
        if self.buffered.is_empty() {
            return Ok(vec![Batch::empty(self.schema.clone())]);
        }
        let all = Batch::concat(&self.buffered)?;
        self.buffered.clear();
        let sorted = compute::sort_batch(&all, &self.keys)?;
        let result = match self.limit {
            Some(n) if n < sorted.num_rows() => sorted.slice(0, n),
            _ => sorted,
        };
        Ok(vec![result])
    }
    fn output_schema(&self) -> Schema {
        self.schema.clone()
    }
    fn state_bytes(&self) -> usize {
        self.buffered.iter().map(Batch::byte_size).sum()
    }
    fn reset(&mut self) {
        self.buffered.clear();
    }
}

/// Keeps the first `n` rows seen.
struct LimitOperator {
    schema: Schema,
    remaining: usize,
    n: usize,
}

impl StageOperator for LimitOperator {
    fn push(&mut self, _input: usize, batch: Batch) -> Result<Vec<Batch>> {
        if self.remaining == 0 || batch.num_rows() == 0 {
            return Ok(vec![]);
        }
        if batch.num_rows() <= self.remaining {
            self.remaining -= batch.num_rows();
            Ok(vec![batch])
        } else {
            let taken = batch.slice(0, self.remaining);
            self.remaining = 0;
            Ok(vec![taken])
        }
    }
    fn finish_input(&mut self, _input: usize) -> Result<Vec<Batch>> {
        Ok(vec![])
    }
    fn finish(&mut self) -> Result<Vec<Batch>> {
        Ok(vec![])
    }
    fn output_schema(&self) -> Schema {
        self.schema.clone()
    }
    fn state_bytes(&self) -> usize {
        8
    }
    fn reset(&mut self) {
        self.remaining = self.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{avg, count, sum};
    use crate::expr::{col, lit};
    use quokka_batch::datatype::ScalarValue;

    fn build_batch() -> Batch {
        Batch::try_new(
            Schema::from_pairs(&[("b_key", DataType::Int64), ("b_name", DataType::Utf8)]),
            vec![
                Column::Int64(vec![1, 2, 3]),
                Column::Utf8(vec!["one".into(), "two".into(), "three".into()]),
            ],
        )
        .unwrap()
    }

    fn probe_batch(keys: Vec<i64>) -> Batch {
        let vals: Vec<f64> = keys.iter().map(|&k| k as f64 * 10.0).collect();
        Batch::try_new(
            Schema::from_pairs(&[("p_key", DataType::Int64), ("p_val", DataType::Float64)]),
            vec![Column::Int64(keys), Column::Float64(vals)],
        )
        .unwrap()
    }

    fn join_spec(join_type: JoinType) -> OperatorSpec {
        OperatorSpec::new(CoreOp::HashJoin {
            build_schema: build_batch().schema().clone(),
            probe_schema: probe_batch(vec![]).schema().clone(),
            build_keys: vec![0],
            probe_keys: vec![0],
            join_type,
        })
    }

    #[test]
    fn inner_join_matches_and_pipelines() {
        let mut op = join_spec(JoinType::Inner).instantiate().unwrap();
        // Probe arrives before build finishes: buffered, nothing emitted.
        assert!(op.push(1, probe_batch(vec![1, 5])).unwrap().is_empty());
        op.push(0, build_batch()).unwrap();
        assert!(op.state_bytes() > 0);
        // Finishing the build releases the buffered probe rows.
        let released = op.finish_input(0).unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].num_rows(), 1); // key 5 has no match
        assert_eq!(released[0].value(0, 1), ScalarValue::Utf8("one".into()));
        // Subsequent probes stream straight through.
        let streamed = op.push(1, probe_batch(vec![2, 2])).unwrap();
        assert_eq!(streamed[0].num_rows(), 2);
        assert!(op.finish().unwrap().is_empty());
        op.reset();
        assert_eq!(op.state_bytes(), 0);
    }

    #[test]
    fn left_join_fills_defaults_for_unmatched_probe_rows() {
        let mut op = join_spec(JoinType::Left).instantiate().unwrap();
        op.push(0, build_batch()).unwrap();
        op.finish_input(0).unwrap();
        let out = op.push(1, probe_batch(vec![1, 99])).unwrap();
        let all = Batch::concat(&out).unwrap();
        assert_eq!(all.num_rows(), 2);
        // The unmatched row (p_key=99) has default build values.
        let unmatched_row = (0..2).find(|&r| all.value(r, 2) == ScalarValue::Int64(99)).unwrap();
        assert_eq!(all.value(unmatched_row, 0), ScalarValue::Int64(0));
        assert_eq!(all.value(unmatched_row, 1), ScalarValue::Utf8(String::new()));
    }

    #[test]
    fn semi_and_anti_join_preserve_probe_columns_only() {
        let mut semi = join_spec(JoinType::Semi).instantiate().unwrap();
        semi.push(0, build_batch()).unwrap();
        semi.finish_input(0).unwrap();
        let out = semi.push(1, probe_batch(vec![1, 99, 3])).unwrap();
        assert_eq!(out[0].num_rows(), 2);
        assert_eq!(out[0].schema().column_names(), vec!["p_key", "p_val"]);

        let mut anti = join_spec(JoinType::Anti).instantiate().unwrap();
        anti.push(0, build_batch()).unwrap();
        anti.finish_input(0).unwrap();
        let out = anti.push(1, probe_batch(vec![1, 99, 3])).unwrap();
        assert_eq!(out[0].num_rows(), 1);
        assert_eq!(out[0].value(0, 0), ScalarValue::Int64(99));
    }

    fn cross_join_spec(join_type: JoinType) -> OperatorSpec {
        OperatorSpec::new(CoreOp::HashJoin {
            build_schema: build_batch().schema().clone(),
            probe_schema: probe_batch(vec![]).schema().clone(),
            build_keys: vec![],
            probe_keys: vec![],
            join_type,
        })
    }

    #[test]
    fn keyless_join_emits_the_cartesian_product_in_bounded_chunks() {
        let mut op = cross_join_spec(JoinType::Inner).instantiate().unwrap();
        op.push(0, build_batch()).unwrap(); // 3 build rows
        op.finish_input(0).unwrap();
        // 6000 probe rows x 3 build rows = 18000 output rows, which must
        // arrive in several bounded batches rather than one.
        let probe = probe_batch((0..6000).collect());
        let out = op.push(1, probe.clone()).unwrap();
        assert!(out.len() > 1, "product must be chunked, got one batch of {}", out[0].num_rows());
        assert!(out.iter().all(|b| b.num_rows() <= 8192));
        assert_eq!(out.iter().map(Batch::num_rows).sum::<usize>(), 18_000);
        // Column stitching: every output row pairs a build row with a probe
        // row.
        assert_eq!(out[0].schema().len(), 4);

        // Keyless semi/anti: all-or-nothing on build emptiness.
        let mut semi = cross_join_spec(JoinType::Semi).instantiate().unwrap();
        semi.push(0, build_batch()).unwrap();
        semi.finish_input(0).unwrap();
        assert_eq!(semi.push(1, probe_batch(vec![1, 2])).unwrap()[0].num_rows(), 2);
        let mut anti = cross_join_spec(JoinType::Anti).instantiate().unwrap();
        anti.finish_input(0).unwrap(); // empty build side
        assert_eq!(anti.push(1, probe_batch(vec![1, 2])).unwrap()[0].num_rows(), 2);
    }

    #[test]
    fn hash_aggregate_groups_and_finalizes() {
        let schema = Schema::from_pairs(&[("k", DataType::Utf8), ("v", DataType::Int64)]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema.clone(),
            group_by: vec![(col("k"), "k".to_string())],
            aggregates: vec![sum(col("v"), "total"), count(col("v"), "n"), avg(col("v"), "mean")],
        });
        assert_eq!(spec.output_schema().unwrap().column_names(), vec!["k", "total", "n", "mean"]);
        let mut op = spec.instantiate().unwrap();
        let batch = Batch::try_new(
            schema,
            vec![
                Column::Utf8(vec!["a".into(), "b".into(), "a".into()]),
                Column::Int64(vec![1, 10, 3]),
            ],
        )
        .unwrap();
        assert!(op.push(0, batch.clone()).unwrap().is_empty());
        assert!(op.state_bytes() > 0);
        let out = op.finish().unwrap();
        assert_eq!(out.len(), 1);
        let result = &out[0];
        assert_eq!(result.num_rows(), 2);
        // BTreeMap ordering makes "a" come first.
        assert_eq!(result.value(0, 0), ScalarValue::Utf8("a".into()));
        assert_eq!(result.value(0, 1), ScalarValue::Int64(4));
        assert_eq!(result.value(0, 2), ScalarValue::Int64(2));
        assert_eq!(result.value(0, 3), ScalarValue::Float64(2.0));
        assert_eq!(result.value(1, 1), ScalarValue::Int64(10));
    }

    #[test]
    fn grouped_aggregate_with_no_input_emits_no_rows() {
        let schema = Schema::from_pairs(&[("k", DataType::Utf8), ("v", DataType::Int64)]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema.clone(),
            group_by: vec![(col("k"), "k".to_string())],
            aggregates: vec![sum(col("v"), "total")],
        });
        let mut op = spec.instantiate().unwrap();
        // Pushing an empty batch must not create a phantom group either.
        op.push(0, Batch::empty(schema)).unwrap();
        let out = op.finish().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_rows(), 0);
    }

    #[test]
    fn sum_type_follows_input_column_type() {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int64),
            ("ints", DataType::Int64),
            ("floats", DataType::Float64),
        ]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema.clone(),
            group_by: vec![(col("k"), "k".to_string())],
            aggregates: vec![sum(col("ints"), "int_sum"), sum(col("floats"), "float_sum")],
        });
        let mut op = spec.instantiate().unwrap();
        let batch = Batch::try_new(
            schema,
            vec![
                Column::Int64(vec![1, 1, 2]),
                Column::Int64(vec![10, 20, 30]),
                Column::Float64(vec![0.5, 0.25, 1.0]),
            ],
        )
        .unwrap();
        op.push(0, batch.clone()).unwrap();
        let out = op.finish().unwrap();
        let result = &out[0];
        // An all-integer SUM stays Int64; the float column sums as Float64.
        assert_eq!(result.column(1), &Column::Int64(vec![30, 30]));
        assert_eq!(result.column(2), &Column::Float64(vec![0.75, 1.0]));
    }

    #[test]
    fn min_max_on_strings() {
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("s", DataType::Utf8)]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema.clone(),
            group_by: vec![(col("k"), "k".to_string())],
            aggregates: vec![
                crate::aggregate::min(col("s"), "lo"),
                crate::aggregate::max(col("s"), "hi"),
            ],
        });
        let mut op = spec.instantiate().unwrap();
        // Spread the updates across two batches so replacement logic runs on
        // both fresh and existing groups.
        let first = Batch::try_new(
            schema.clone(),
            vec![Column::Int64(vec![1, 2]), Column::Utf8(vec!["pear".into(), "kiwi".into()])],
        )
        .unwrap();
        let second = Batch::try_new(
            schema,
            vec![
                Column::Int64(vec![1, 1, 2]),
                Column::Utf8(vec!["apple".into(), "quince".into(), "zucchini".into()]),
            ],
        )
        .unwrap();
        op.push(0, first.clone()).unwrap();
        op.push(0, second.clone()).unwrap();
        let out = op.finish().unwrap();
        let result = &out[0];
        assert_eq!(result.value(0, 1), ScalarValue::Utf8("apple".into()));
        assert_eq!(result.value(0, 2), ScalarValue::Utf8("quince".into()));
        assert_eq!(result.value(1, 1), ScalarValue::Utf8("kiwi".into()));
        assert_eq!(result.value(1, 2), ScalarValue::Utf8("zucchini".into()));
    }

    #[test]
    fn count_distinct_dedups_across_batches() {
        let schema = Schema::from_pairs(&[("k", DataType::Utf8), ("v", DataType::Int64)]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema.clone(),
            group_by: vec![(col("k"), "k".to_string())],
            aggregates: vec![crate::aggregate::count_distinct(col("v"), "distinct")],
        });
        let mut op = spec.instantiate().unwrap();
        let batch = |keys: Vec<&str>, vals: Vec<i64>| {
            Batch::try_new(
                schema.clone(),
                vec![
                    Column::Utf8(keys.into_iter().map(String::from).collect()),
                    Column::Int64(vals),
                ],
            )
            .unwrap()
        };
        // Value 7 for group "a" appears in both batches and must count once.
        op.push(0, batch(vec!["a", "a", "b"], vec![7, 8, 7])).unwrap();
        op.push(0, batch(vec!["a", "b", "b"], vec![7, 9, 9])).unwrap();
        let out = op.finish().unwrap();
        let result = &out[0];
        assert_eq!(result.value(0, 0), ScalarValue::Utf8("a".into()));
        assert_eq!(result.value(0, 1), ScalarValue::Int64(2)); // {7, 8}
        assert_eq!(result.value(1, 1), ScalarValue::Int64(2)); // {7, 9}
    }

    #[test]
    fn aggregate_on_integer_keys_uses_dense_group_ids() {
        // Exercises the u64 fast-path key layout end to end, including
        // emission in ascending (numeric, not stringified) key order.
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema.clone(),
            group_by: vec![(col("k"), "k".to_string())],
            aggregates: vec![count(col("v"), "n")],
        });
        let mut op = spec.instantiate().unwrap();
        let batch = Batch::try_new(
            schema,
            vec![Column::Int64(vec![10, 9, 10, -3]), Column::Int64(vec![0, 0, 0, 0])],
        )
        .unwrap();
        op.push(0, batch.clone()).unwrap();
        let out = op.finish().unwrap();
        assert_eq!(out[0].column(0), &Column::Int64(vec![-3, 9, 10]));
        assert_eq!(out[0].column(1), &Column::Int64(vec![1, 1, 2]));
    }

    #[test]
    fn global_aggregate_emits_one_row_even_for_empty_input() {
        let schema = Schema::from_pairs(&[("v", DataType::Float64)]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema,
            group_by: vec![],
            aggregates: vec![count(col("v"), "n")],
        });
        let mut op = spec.instantiate().unwrap();
        let out = op.finish().unwrap();
        assert_eq!(out[0].num_rows(), 1);
        assert_eq!(out[0].value(0, 0), ScalarValue::Int64(0));
    }

    #[test]
    fn aggregate_pushed_again_after_finish_regroups_dictionary_keys() {
        // `finish` resets the operator; a dictionary key pushed again must
        // get fresh group ids, not the ones cached before the reset.
        let schema = Schema::from_pairs(&[("k", DataType::Utf8), ("v", DataType::Int64)]);
        let spec = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: schema.clone(),
            group_by: vec![(col("k"), "k".to_string())],
            aggregates: vec![sum(col("v"), "total")],
        });
        let mut op = spec.instantiate().unwrap();
        let keys: Vec<String> = ["b", "a", "c", "b"].iter().map(|s| s.to_string()).collect();
        let dict = quokka_batch::DictColumn::from_plain(&keys);
        let batch = |codes: &[usize], values: Vec<i64>| {
            let codes = codes.iter().map(|&i| dict.codes[i]).collect();
            let keys = quokka_batch::DictColumn::from_parts(codes, Arc::clone(&dict.values));
            Batch::try_new(schema.clone(), vec![Column::Dict(keys), Column::Int64(values)]).unwrap()
        };
        op.push(0, batch(&[0, 1, 2, 3], vec![1, 2, 3, 4])).unwrap();
        let first = op.finish().unwrap();
        assert_eq!(first[0].column(1), &Column::Int64(vec![2, 5, 3]));
        op.push(0, batch(&[2, 2], vec![10, 20])).unwrap();
        let second = op.finish().unwrap();
        assert_eq!(second[0].column(0), &Column::Utf8(vec!["c".to_string()]));
        assert_eq!(second[0].column(1), &Column::Int64(vec![30]));
    }

    /// A 12-row batch grouped on `k`, with the key column given as `keys`.
    fn partial_input(keys: Column) -> Batch {
        let schema = Schema::from_pairs(&[("k", DataType::Utf8), ("v", DataType::Float64)]);
        let values = (0..12).map(|i| f64::from(i) * 0.1 + 0.05).collect();
        Batch::try_new(schema, vec![keys, Column::Float64(values)]).unwrap()
    }

    #[test]
    fn both_preaggregation_branches_merge_to_the_same_answer() {
        let names: Vec<String> = (0..12).map(|i| ["x", "y", "z"][i % 3].to_string()).collect();
        let bounded = partial_input(Column::Dict(quokka_batch::DictColumn::from_plain(&names)));
        let unbounded = partial_input(Column::Utf8(names));
        let group_by = vec![(col("k"), "k".to_string())];
        let aggregates = vec![
            sum(col("v"), "s"),
            avg(col("v"), "a"),
            count(col("v"), "n"),
            crate::aggregate::min(col("v"), "lo"),
            crate::aggregate::max(col("v"), "hi"),
        ];
        let split = crate::aggregate::TwoPhase::split(&["k".to_string()], &aggregates).unwrap();
        let partial =
            Transform::PartialAggregate { group_by: group_by.clone(), aggregates: split.partial };
        // A 3-entry dictionary bounds the batch at 3 groups for 12 rows, so
        // it is pre-aggregated; plain strings have no bound, so every row
        // goes out as its own partial state.
        let pre_aggregated = partial.apply(bounded.clone()).unwrap();
        let row_by_row = partial.apply(unbounded).unwrap();
        assert_eq!(pre_aggregated.num_rows(), 3);
        assert_eq!(row_by_row.num_rows(), 12);
        assert_eq!(pre_aggregated.schema(), row_by_row.schema());

        let merge = |states: &Batch| {
            let mut spec = OperatorSpec::new(CoreOp::HashAggregate {
                input_schema: states.schema().clone(),
                group_by: group_by.clone(),
                aggregates: split.merge.clone(),
            });
            spec.post.extend(split.finish.clone().map(Transform::Project));
            let mut op = spec.instantiate().unwrap();
            op.push(0, states.clone()).unwrap();
            op.finish().unwrap().remove(0)
        };
        let mut one_phase = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: bounded.schema().clone(),
            group_by: group_by.clone(),
            aggregates,
        })
        .instantiate()
        .unwrap();
        one_phase.push(0, bounded.clone()).unwrap();
        let expected = one_phase.finish().unwrap().remove(0);
        for merged in [merge(&pre_aggregated), merge(&row_by_row)] {
            assert_eq!(merged.schema(), expected.schema());
            assert!(crate::reference::results_match(&merged, &expected), "{merged:?}");
        }
        // An empty batch yields no partial states at all.
        assert_eq!(partial.apply(bounded.slice(0, 0)).unwrap().num_rows(), 0);
    }

    #[test]
    fn group_count_bounds_come_from_the_key_columns() {
        let keyed = |keys: Column| {
            let schema = Schema::from_pairs(&[("k", keys.data_type())]);
            Batch::try_new(schema, vec![keys]).unwrap()
        };
        let by_k = [(col("k"), "k".to_string())];
        let packed = Column::Int64(vec![5, 6, 7, 5]).encode_auto();
        assert_eq!(packed.encoding_name(), "packed");
        assert_eq!(group_count_bound(&keyed(packed), &by_k), Some(4));
        assert_eq!(group_count_bound(&keyed(Column::Int64(vec![-2, 7, 0])), &by_k), Some(10));
        assert_eq!(group_count_bound(&keyed(Column::Date(vec![3, 3])), &by_k), Some(1));
        assert_eq!(group_count_bound(&keyed(Column::Bool(vec![true])), &by_k), Some(2));
        assert_eq!(group_count_bound(&keyed(Column::Utf8(vec!["a".into()])), &by_k), None);
        assert_eq!(group_count_bound(&keyed(Column::Float64(vec![1.0])), &by_k), None);
        let year = [(col("k").year(), "y".to_string())];
        assert_eq!(group_count_bound(&keyed(Column::Date(vec![3])), &year), None);
        assert_eq!(group_count_bound(&keyed(Column::Int64(vec![i64::MIN, i64::MAX])), &by_k), None);
        assert_eq!(group_count_bound(&keyed(Column::Int64(vec![1])), &[]), Some(1));
    }

    #[test]
    fn moving_transforms_keep_their_results() {
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let batch = Batch::try_new(
            schema,
            vec![Column::Int64(vec![1, 2, 3]), Column::Int64(vec![3, 7, 9])],
        )
        .unwrap();
        // A filter that keeps every row hands its input back.
        let all = Transform::Filter(col("v").gt(lit(0i64)));
        assert_eq!(all.apply(batch.clone()).unwrap(), batch);
        // A projection selecting a column twice, around a computed one.
        let project = Transform::Project(vec![
            (col("v"), "a".to_string()),
            (col("v").add(col("k")), "sum".to_string()),
            (col("v"), "b".to_string()),
        ]);
        let out = project.apply(batch).unwrap();
        assert_eq!(out.schema().column_names(), vec!["a", "sum", "b"]);
        assert_eq!(out.column(0), &Column::Int64(vec![3, 7, 9]));
        assert_eq!(out.column(1), &Column::Int64(vec![4, 9, 12]));
        assert_eq!(out.column(2), &Column::Int64(vec![3, 7, 9]));
    }

    #[test]
    fn sort_and_limit_operators() {
        let schema = Schema::from_pairs(&[("v", DataType::Int64)]);
        let spec = OperatorSpec::new(CoreOp::Sort {
            input_schema: schema.clone(),
            keys: vec![("v".to_string(), false)],
            limit: Some(2),
        });
        let mut op = spec.instantiate().unwrap();
        let batch = Batch::try_new(schema.clone(), vec![Column::Int64(vec![5, 1, 9, 3])]).unwrap();
        op.push(0, batch.clone()).unwrap();
        let out = op.finish().unwrap();
        assert_eq!(out[0].column(0), &Column::Int64(vec![9, 5]));

        let spec = OperatorSpec::new(CoreOp::Limit { input_schema: schema.clone(), n: 3 });
        let mut op = spec.instantiate().unwrap();
        let first = op.push(0, batch.slice(0, 2)).unwrap();
        assert_eq!(first[0].num_rows(), 2);
        let second = op.push(0, batch.clone()).unwrap();
        assert_eq!(second[0].num_rows(), 1);
        assert!(op.push(0, batch.clone()).unwrap().is_empty());
        op.reset();
        assert_eq!(op.push(0, batch.clone()).unwrap()[0].num_rows(), 3);
    }

    #[test]
    fn post_transforms_apply_to_operator_output() {
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let spec = OperatorSpec::new(CoreOp::Map { input_schema: schema.clone() })
            .with_post(Transform::Filter(col("v").gt(lit(5i64))))
            .with_post(Transform::Project(vec![(col("v").mul(lit(2i64)), "doubled".to_string())]));
        assert_eq!(spec.output_schema().unwrap().column_names(), vec!["doubled"]);
        let mut op = spec.instantiate().unwrap();
        let batch = Batch::try_new(
            schema,
            vec![Column::Int64(vec![1, 2, 3]), Column::Int64(vec![3, 7, 9])],
        )
        .unwrap();
        let out = op.push(0, batch.clone()).unwrap();
        assert_eq!(out[0].column(0), &Column::Int64(vec![14, 18]));
        assert_eq!(out[0].schema().column_names(), vec!["doubled"]);
    }

    #[test]
    fn spec_metadata() {
        assert_eq!(join_spec(JoinType::Inner).num_inputs(), 2);
        assert!(join_spec(JoinType::Inner).is_stateful());
        let map = OperatorSpec::new(CoreOp::Map {
            input_schema: Schema::from_pairs(&[("x", DataType::Int64)]),
        });
        assert_eq!(map.num_inputs(), 1);
        assert!(!map.is_stateful());
    }
}
