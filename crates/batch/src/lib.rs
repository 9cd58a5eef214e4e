//! Columnar data substrate for the Quokka engine.
//!
//! The paper's Quokka implementation delegates single-node kernels to DuckDB
//! and Polars over Apache Arrow batches. Those dependencies are not
//! available here, so this crate provides the minimal columnar toolkit the
//! engine needs, built from scratch:
//!
//! * [`DataType`] / [`ScalarValue`] — the supported value types (64-bit
//!   integers, 64-bit floats, UTF-8 strings, booleans, and dates stored as
//!   days since the Unix epoch). TPC-H does not require nullable columns, so
//!   nulls are intentionally not modelled; this is documented in DESIGN.md.
//! * [`Column`] — a single column of values.
//! * [`Schema`] / [`Field`] — named, typed column metadata.
//! * [`Batch`] — an immutable bundle of equal-length columns, the unit of
//!   data exchanged between tasks (the paper's "data partition" contains one
//!   or more batches).
//! * [`compute`] — element-wise and relational kernels (filter, take,
//!   concat, arithmetic, comparisons, LIKE, hashing, hash partitioning,
//!   sorting).
//! * [`encoding`] — compressed column representations (dictionary strings,
//!   bit-packed integers, XOR-compressed floats) that the kernels and the
//!   wire format both understand natively.
//! * [`rowkey`] — compact binary row-key encoding (with a `u64` fast path)
//!   backing the hash-based group-by and join operators.
//! * [`wire`] — the one binary format: batch frames, the partition payload
//!   a task's output [`Slice`] is encoded to once and then backed up,
//!   spooled, shipped and replayed as (so the cost model charges real byte
//!   counts), the socket framing both planes share, and the primitives of
//!   every other hand-written protocol. [`codec`] keeps the partition
//!   functions' older names.

pub mod batch;
pub mod codec;
pub mod column;
pub mod compute;
pub mod datatype;
pub mod encoding;
pub mod rowkey;
pub mod schema;
pub mod wire;

pub use batch::Batch;
pub use column::Column;
pub use datatype::{DataType, ScalarValue};
pub use encoding::{DictColumn, PackedIntColumn, PackedLogical, XorFloatColumn};
pub use schema::{Field, Schema};
pub use wire::Slice;
