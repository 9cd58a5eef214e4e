//! Shared plumbing for multi-process TPC-H runs.
//!
//! In process mode ([`quokka_engine::cluster`]) the driver and every
//! `quokka-workerd` process must agree *exactly* on the compiled stage graph
//! and the table split layout — they are derived independently in each
//! process rather than shipped over the wire. This module is the single
//! definition both sides call: TPC-H generation is seeded (`0xC0FFEE`, the
//! same seed [`QuokkaSession::tpch`](crate::QuokkaSession::tpch) uses) and
//! plan lowering is deterministic, so equal `(query, sf, config)` inputs
//! yield equal graphs in every process.

use crate::{EngineConfig, Result, Schema, TpchGenerator};
use quokka_plan::catalog::{Catalog, MemoryCatalog, TableSplits};
use quokka_plan::optimizer::Optimizer;
use quokka_plan::stage::StageGraph;
use std::collections::BTreeMap;

/// The seed [`QuokkaSession::tpch`](crate::QuokkaSession::tpch) generates
/// its catalog with; workerd processes must use the same one.
pub const TPCH_SEED: u64 = 0xC0FFEE;

/// Everything a process-mode participant derives from `(query, sf, config)`.
pub struct TpchProcessInputs {
    /// The compiled stage graph (identical across processes).
    pub graph: StageGraph,
    /// Schema of the query result.
    pub output_schema: Schema,
    /// Referenced base tables and their splits (the driver's durable store
    /// serves these).
    pub tables: BTreeMap<String, TableSplits>,
    /// Batch counts per referenced table — the split layout every process
    /// computes the channel-to-split assignment from.
    pub table_splits: BTreeMap<String, u64>,
}

/// Generate the TPC-H catalog at `sf`, lower query `number` exactly the way
/// [`QueryRunner::stream`](quokka_engine::QueryRunner::stream) would under
/// `config`, and compile its stage graph.
pub fn tpch_process_inputs(
    number: usize,
    sf: f64,
    config: &EngineConfig,
) -> Result<TpchProcessInputs> {
    let catalog = MemoryCatalog::new();
    TpchGenerator::new(sf, TPCH_SEED).register_all(&catalog)?;
    let plan = quokka_tpch::query(number)?;
    let plan = if config.optimize {
        Optimizer::with_catalog(&catalog).optimize(&plan)?
    } else {
        quokka_plan::optimizer::decorrelate(plan)?
    };
    let output_schema = plan.schema()?;
    let graph = StageGraph::compile(&plan)?;
    let mut tables = BTreeMap::new();
    let mut table_splits = BTreeMap::new();
    for table in plan.referenced_tables() {
        let batches = catalog.table_batches(&table)?;
        table_splits.insert(table.clone(), batches.len() as u64);
        tables.insert(table, batches);
    }
    Ok(TpchProcessInputs { graph, output_schema, tables, table_splits })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_inputs_are_deterministic_across_calls() {
        let config = EngineConfig::quokka(3);
        let a = tpch_process_inputs(3, 0.005, &config).unwrap();
        let b = tpch_process_inputs(3, 0.005, &config).unwrap();
        assert_eq!(a.graph.stages.len(), b.graph.stages.len());
        assert_eq!(a.table_splits, b.table_splits);
        assert_eq!(a.output_schema, b.output_schema);
        for (table, batches) in &a.tables {
            let other = &b.tables[table];
            assert_eq!(batches.len(), other.len());
            for (x, y) in batches.iter().zip(other.iter()) {
                assert_eq!(x, y);
            }
        }
    }
}
