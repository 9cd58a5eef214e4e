//! The one binary format of the engine: batches, partitions and frames.
//!
//! A task's output slice is encoded once, where it is cut: a [`Slice`]
//! pairs the batches with their partition payload ([`encode_partition`]).
//! That payload is what the upstream backup and the durable spool store,
//! what the data plane charges to the cost model and the shuffle metrics,
//! what the TCP lane writes after its push header, and what a replay
//! re-pushes. The same batch frames carry base-table splits and sink
//! partitions over the process-mode control connection, and the `put_*` /
//! [`WireReader`] primitives underlie every other hand-written protocol
//! (the GCS records and the driver RPC), because the vendored `serde` shim
//! is a no-op and all serialisation is explicit. Both sockets, the data
//! plane's and the control plane's, cut their byte streams into messages
//! with [`write_frame`] / [`read_frame`] under one size limit,
//! [`MAX_FRAME_BYTES`].
//!
//! Properties:
//! * dependency-free: plain `Vec<u8>` and big-endian `to_be_bytes`;
//! * round-trip exact for all column types: `Float64` travels as raw IEEE-754
//!   bits (`to_bits`/`from_bits`), so NaN payloads and signed zeros survive,
//!   and re-encoding a decoded batch reproduces the exact bytes (a replayed
//!   partition is byte-identical to the original);
//! * corruption-safe: every decode failure is a typed
//!   [`QuokkaError::Storage`], never a panic, and length fields are bounds-
//!   checked against the remaining buffer before any allocation is sized
//!   from them.

use crate::batch::Batch;
use crate::column::Column;
use crate::datatype::DataType;
use crate::encoding::{
    width_for, BitReader, BitWriter, DictColumn, PackedIntColumn, PackedLogical, XorFloatColumn,
};
use crate::schema::{Field, Schema};
use bytes::Bytes;
use quokka_common::{QuokkaError, Result};
use std::io::{Read, Write};
use std::sync::Arc;

/// Magic prefix of a batch wire frame ("QKWF").
pub const WIRE_MAGIC: u32 = 0x514B_5746;

/// Row-count allowance for batches whose compressed payload is smaller than
/// one bit per row (all-equal columns pack at width zero). Far above any
/// batch the engine produces, far below anything that could size a harmful
/// allocation: the most a decoder expands one such column to.
pub const MAX_SMALL_FRAME_ROWS: usize = 1 << 22;

/// Largest frame either socket accepts: a length prefix beyond it is
/// corruption, and the connection is dropped before anything is read.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

// Per-column encoding tags (one byte ahead of every column payload).
const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;
const ENC_PACKED: u8 = 2;
const ENC_XOR: u8 = 3;
const ENC_BOOL_PACKED: u8 = 4;
/// Floats that are exactly `n / 10^exp` for integral `n`, shipped as
/// bit-packed integers plus the exponent.
const ENC_SCALED: u8 = 5;

// ---------------------------------------------------------------------------
// Write primitives: append to a caller-owned buffer.
// ---------------------------------------------------------------------------

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Floats travel as raw bits so the round trip is bit-exact (NaN payloads
/// and `-0.0` included).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// `u32` length prefix followed by the raw bytes.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

/// `u32` length prefix followed by the UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

// ---------------------------------------------------------------------------
// Read primitives: a cursor with typed truncation errors.
// ---------------------------------------------------------------------------

/// Cursor over a received frame. Every accessor returns a typed
/// [`QuokkaError::Storage`] on truncation instead of panicking, so corrupted
/// or short frames surface as ordinary errors the retry machinery can see.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset, for error context.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn short(&self, what: &str, need: usize) -> QuokkaError {
        QuokkaError::Storage(format!(
            "wire: truncated frame reading {what} at offset {} (need {need} bytes, {} left)",
            self.pos,
            self.remaining()
        ))
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short(what, n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2, "u16")?.try_into().expect("2 bytes")))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4, "u32")?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8, "u64")?.try_into().expect("8 bytes")))
    }

    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_be_bytes(self.take(4, "i32")?.try_into().expect("4 bytes")))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8, "i64")?.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Booleans must be exactly 0 or 1; anything else is corruption.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(QuokkaError::Storage(format!(
                "wire: invalid bool byte {other:#x} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// A `u32`-length-prefixed byte run; the length is validated against the
    /// remaining buffer before anything is sliced.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len, "length-prefixed bytes")
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| QuokkaError::Storage(format!("wire: invalid utf8 string: {e}")))
    }

    /// Fail unless the frame was consumed exactly.
    pub fn expect_end(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(QuokkaError::Storage(format!(
                "wire: {} trailing bytes after frame at offset {}",
                self.remaining(),
                self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Batch frames.
// ---------------------------------------------------------------------------

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn tag_dtype(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        4 => DataType::Date,
        other => return Err(QuokkaError::Storage(format!("wire: bad data type tag {other}"))),
    })
}

/// Upper bound on the byte length [`encode_batch_into`] will append for
/// `batch`, used to reserve the buffer up front. Opportunistic column
/// compression can only shrink the frame below this bound.
pub fn encoded_batch_len(batch: &Batch) -> usize {
    let mut len = 4 + 4 + 8; // magic + ncols + nrows
    for field in batch.schema().fields() {
        len += 1 + 4 + field.name.len();
    }
    for col in batch.columns() {
        len += 1 // encoding tag
            + match col {
                Column::Int64(v) => v.len() * 8,
                Column::Float64(v) => v.len() * 8,
                Column::Date(v) => v.len() * 4,
                Column::Bool(v) => v.len().div_ceil(8),
                Column::Utf8(v) => v.iter().map(|s| 4 + s.len()).sum(),
                Column::Dict(d) => {
                    4 + d.values.iter().map(|s| 4 + s.len()).sum::<usize>()
                        + packed_byte_len(d.len(), d.code_width())
                }
                Column::Packed(p) => 8 + 1 + packed_byte_len(p.len(), p.width),
                Column::Xor(x) => 8 + (x.bit_len() as usize).div_ceil(8),
            };
    }
    len
}

fn packed_byte_len(rows: usize, width: u8) -> usize {
    (rows * width as usize).div_ceil(8)
}

/// Append `bits` bits of `words` (LSB-first within each word) as
/// `ceil(bits/8)` bytes. The bit writer zeroes trailing bits, so the byte
/// stream is deterministic.
fn put_bits(buf: &mut Vec<u8>, words: &[u64], bits: u64) {
    let nbytes = (bits as usize).div_ceil(8);
    let mut written = 0;
    for w in words {
        let raw = w.to_le_bytes();
        let take = (nbytes - written).min(8);
        buf.extend_from_slice(&raw[..take]);
        written += take;
        if written == nbytes {
            break;
        }
    }
}

/// Read `ceil(bits/8)` bytes back into LSB-first words.
fn take_bits(r: &mut WireReader<'_>, bits: u64, what: &str) -> Result<Vec<u64>> {
    let nbytes = usize::try_from(bits.div_ceil(8))
        .map_err(|_| QuokkaError::Storage(format!("wire: absurd bit length {bits}")))?;
    let raw = r.take(nbytes, what)?;
    let mut words = vec![0u64; nbytes.div_ceil(8)];
    for (i, &b) in raw.iter().enumerate() {
        words[i / 8] |= (b as u64) << (8 * (i % 8));
    }
    Ok(words)
}

/// Append one column's payload (encoding tag + bytes) to `buf`.
///
/// Already-encoded columns ship natively — no decode/re-encode at the
/// boundary. Plain columns are opportunistically compressed when that is
/// strictly smaller: Int64/Date bit-pack, Float64 XOR-compresses, Bool is
/// always bit-packed. The choice is deterministic, so re-encoding a decoded
/// frame reproduces the exact bytes.
pub(crate) fn encode_column_payload(col: &Column, buf: &mut Vec<u8>) {
    match col {
        Column::Int64(v) => {
            let p = PackedIntColumn::from_values(PackedLogical::Int64, v);
            if 8 + 1 + packed_byte_len(v.len(), p.width) < v.len() * 8 {
                put_packed(buf, &p);
            } else {
                put_u8(buf, ENC_PLAIN);
                for x in v {
                    put_i64(buf, *x);
                }
            }
        }
        Column::Date(v) => {
            let as_i64: Vec<i64> = v.iter().map(|&x| x as i64).collect();
            let p = PackedIntColumn::from_values(PackedLogical::Date, &as_i64);
            if 8 + 1 + packed_byte_len(v.len(), p.width) < v.len() * 4 {
                put_packed(buf, &p);
            } else {
                put_u8(buf, ENC_PLAIN);
                for x in v {
                    put_i32(buf, *x);
                }
            }
        }
        Column::Float64(v) => {
            let plain_len = v.len() * 8;
            let x = XorFloatColumn::from_values(v);
            let xor_len = 8 + (x.bit_len() as usize).div_ceil(8);
            let scaled = scaled_ints(v);
            let scaled_len = scaled
                .as_ref()
                .map(|(_, p)| 1 + 8 + 1 + packed_byte_len(p.len(), p.width))
                .unwrap_or(usize::MAX);
            // Deterministic choice (it depends only on the values), so
            // re-encoding a decoded frame reproduces the exact bytes.
            if scaled_len < xor_len.min(plain_len) {
                let (exp, p) = scaled.expect("scaled_len came from Some");
                put_u8(buf, ENC_SCALED);
                put_u8(buf, exp);
                put_i64(buf, p.base);
                put_u8(buf, p.width);
                put_bits(buf, p.words(), (p.len() * p.width as usize) as u64);
            } else if xor_len < plain_len {
                put_xor(buf, &x);
            } else {
                put_u8(buf, ENC_PLAIN);
                for f in v {
                    put_f64(buf, *f);
                }
            }
        }
        Column::Bool(v) => {
            put_u8(buf, ENC_BOOL_PACKED);
            let mut byte = 0u8;
            for (i, &b) in v.iter().enumerate() {
                byte |= (b as u8) << (i % 8);
                if i % 8 == 7 {
                    buf.push(byte);
                    byte = 0;
                }
            }
            if v.len() % 8 != 0 {
                buf.push(byte);
            }
        }
        Column::Utf8(v) => {
            put_u8(buf, ENC_PLAIN);
            for s in v {
                put_str(buf, s);
            }
        }
        Column::Dict(d) => {
            put_u8(buf, ENC_DICT);
            put_u32(buf, d.values.len() as u32);
            for s in d.values.iter() {
                put_str(buf, s);
            }
            // The code width is derived from the dictionary size on both
            // sides, so it is not stored.
            let width = d.code_width();
            let mut w = BitWriter::new();
            for &c in &d.codes {
                w.put(c as u64, width);
            }
            let (words, bits) = w.finish();
            put_bits(buf, &words, bits);
        }
        Column::Packed(p) => put_packed(buf, p),
        Column::Xor(x) => {
            // An in-memory XOR column may still ship smaller as scaled
            // decimals (integral quantities compress to a few bits each).
            let xor_len = 8 + (x.bit_len() as usize).div_ceil(8);
            let scaled = scaled_ints(&x.to_vec());
            let scaled_len = scaled
                .as_ref()
                .map(|(_, p)| 1 + 8 + 1 + packed_byte_len(p.len(), p.width))
                .unwrap_or(usize::MAX);
            // The plain-length guard keeps the choice aligned with the
            // `Float64` arm, so decode (to plain) + re-encode is byte-exact.
            if scaled_len < xor_len.min(x.len() * 8) {
                let (exp, p) = scaled.expect("scaled_len came from Some");
                put_u8(buf, ENC_SCALED);
                put_u8(buf, exp);
                put_i64(buf, p.base);
                put_u8(buf, p.width);
                put_bits(buf, p.words(), (p.len() * p.width as usize) as u64);
            } else {
                put_xor(buf, x);
            }
        }
    }
}

/// Try to represent every float exactly as `n / 10^exp` with integral `n` —
/// the shape of TPC-H monetary columns (two decimals) and integral
/// quantities, which XOR compression handles poorly. The reconstruction
/// `n as f64 / 10^exp` is checked bit-for-bit per value (so `-0.0`, NaN,
/// infinities and anything rounded by the division all fall back), and the
/// smallest workable exponent wins deterministically.
fn scaled_ints(values: &[f64]) -> Option<(u8, PackedIntColumn)> {
    if values.is_empty() {
        return None;
    }
    'exps: for (exp, factor) in [(0u8, 1.0f64), (2, 100.0)] {
        let mut ints = Vec::with_capacity(values.len());
        for &v in values {
            let n = (v * factor).round();
            // Beyond 2^53, f64 loses integer precision (also catches NaN).
            if n.is_nan() || n.abs() > 9_007_199_254_740_992.0 {
                continue 'exps;
            }
            let i = n as i64;
            if (i as f64 / factor).to_bits() != v.to_bits() {
                continue 'exps;
            }
            ints.push(i);
        }
        return Some((exp, PackedIntColumn::from_values(PackedLogical::Int64, &ints)));
    }
    None
}

fn put_packed(buf: &mut Vec<u8>, p: &PackedIntColumn) {
    put_u8(buf, ENC_PACKED);
    put_i64(buf, p.base);
    put_u8(buf, p.width);
    put_bits(buf, p.words(), (p.len() * p.width as usize) as u64);
}

fn put_xor(buf: &mut Vec<u8>, x: &XorFloatColumn) {
    put_u8(buf, ENC_XOR);
    put_u64(buf, x.bit_len());
    put_bits(buf, x.words(), x.bit_len());
}

/// Append the frame for one batch to `buf` (this never allocates a
/// transient buffer of its own).
pub fn encode_batch_into(batch: &Batch, buf: &mut Vec<u8>) {
    buf.reserve(encoded_batch_len(batch));
    put_u32(buf, WIRE_MAGIC);
    put_u32(buf, batch.num_columns() as u32);
    put_u64(buf, batch.num_rows() as u64);
    for field in batch.schema().fields() {
        put_u8(buf, dtype_tag(field.data_type));
        put_str(buf, &field.name);
    }
    for col in batch.columns() {
        encode_column_payload(col, buf);
    }
}

/// Decode one batch frame from the reader, leaving the cursor just past it.
pub fn decode_batch_from(r: &mut WireReader<'_>) -> Result<Batch> {
    let magic = r.u32()?;
    if magic != WIRE_MAGIC {
        return Err(QuokkaError::Storage(format!("wire: bad batch magic {magic:#x}")));
    }
    let cols = r.u32()? as usize;
    let rows_raw = r.u64()?;
    let rows = usize::try_from(rows_raw)
        .map_err(|_| QuokkaError::Storage(format!("wire: absurd row count {rows_raw}")))?;
    // A corrupted count field must not size an allocation. Compressed
    // columns can legitimately carry almost no bytes per row (an all-equal
    // bit-packed column is ~9 bytes at any length), so small frames get a
    // fixed allowance instead of a strict bytes-per-row floor; anything
    // beyond both bounds is provably corrupt.
    if cols > r.remaining() || (rows > r.remaining().max(1) * 8 && rows > MAX_SMALL_FRAME_ROWS) {
        return Err(QuokkaError::Storage(format!(
            "wire: frame header claims {cols} cols x {rows} rows but only {} bytes follow",
            r.remaining()
        )));
    }
    let mut fields = Vec::with_capacity(cols);
    for _ in 0..cols {
        let dt = tag_dtype(r.u8()?)?;
        let name = r.str()?;
        fields.push(Field::new(name, dt));
    }
    let schema = Schema::new(fields);
    let mut columns = Vec::with_capacity(cols);
    for field in schema.fields() {
        columns.push(decode_column_payload(r, field.data_type, rows)?);
    }
    Batch::try_new(schema, columns)
}

/// Decode one column payload (encoding tag + bytes). Everything a frame
/// claims is validated before it is trusted: dictionary order, code ranges,
/// packed widths and value ranges, XOR stream integrity.
pub(crate) fn decode_column_payload(
    r: &mut WireReader<'_>,
    dt: DataType,
    rows: usize,
) -> Result<Column> {
    let enc = r.u8()?;
    match (enc, dt) {
        (ENC_PLAIN, _) => decode_plain_column(r, dt, rows),
        (ENC_DICT, DataType::Utf8) => decode_dict_column(r, rows),
        (ENC_PACKED, DataType::Int64) => decode_packed_column(r, PackedLogical::Int64, rows),
        (ENC_PACKED, DataType::Date) => decode_packed_column(r, PackedLogical::Date, rows),
        (ENC_XOR, DataType::Float64) => decode_xor_column(r, rows),
        (ENC_SCALED, DataType::Float64) => decode_scaled_column(r, rows),
        (ENC_BOOL_PACKED, DataType::Bool) => decode_packed_bool_column(r, rows),
        (enc, dt) => {
            Err(QuokkaError::Storage(format!("wire: encoding tag {enc} is invalid for {dt}")))
        }
    }
}

fn decode_dict_column(r: &mut WireReader<'_>, rows: usize) -> Result<Column> {
    let dict_len = r.u32()? as usize;
    if dict_len > r.remaining() {
        return Err(QuokkaError::Storage(format!(
            "wire: dictionary claims {dict_len} entries but only {} bytes follow",
            r.remaining()
        )));
    }
    if dict_len == 0 && rows > 0 {
        return Err(QuokkaError::Storage(format!("wire: empty dictionary for {rows} rows")));
    }
    let mut values = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let s = r.str()?;
        if let Some(prev) = values.last() {
            if *prev >= s {
                return Err(QuokkaError::Storage(
                    "wire: dictionary is not strictly ascending".into(),
                ));
            }
        }
        values.push(s);
    }
    let width = width_for((dict_len as u64).saturating_sub(1));
    let codes = if width == 0 {
        // Single-entry dictionary: every row is code 0, no bits on the wire.
        vec![0u32; rows]
    } else {
        let bits = rows as u64 * width as u64;
        let words = take_bits(r, bits, "dictionary codes")?;
        let mut reader = BitReader::new(&words, bits);
        let mut codes = Vec::with_capacity(rows);
        for _ in 0..rows {
            let code = reader
                .take(width)
                .ok_or_else(|| QuokkaError::Storage("wire: truncated dictionary codes".into()))?;
            if code >= dict_len as u64 {
                return Err(QuokkaError::Storage(format!(
                    "wire: dictionary code {code} out of range (dictionary has {dict_len} entries)"
                )));
            }
            codes.push(code as u32);
        }
        codes
    };
    Ok(Column::Dict(DictColumn::from_parts(codes, Arc::new(values))))
}

fn decode_packed_column(
    r: &mut WireReader<'_>,
    logical: PackedLogical,
    rows: usize,
) -> Result<Column> {
    let base = r.i64()?;
    let width = r.u8()?;
    if width > 64 {
        return Err(QuokkaError::Storage(format!("wire: packed width {width} exceeds 64")));
    }
    let bits = rows as u64 * width as u64;
    let words = take_bits(r, bits, "packed values")?;
    // Walk the deltas once so out-of-range values surface as typed errors
    // instead of silently wrapping at decode time. Width 0 means all rows
    // equal `base`, so only `base` itself needs the range check.
    let (lo, hi) = match logical {
        PackedLogical::Int64 => (i64::MIN as i128, i64::MAX as i128),
        PackedLogical::Date => (i32::MIN as i128, i32::MAX as i128),
    };
    let mut reader = BitReader::new(&words, bits);
    let checks = if width == 0 { (rows > 0) as usize } else { rows };
    for _ in 0..checks {
        let delta = reader
            .take(width)
            .ok_or_else(|| QuokkaError::Storage("wire: truncated packed values".into()))?;
        let value = base as i128 + delta as i128;
        if value < lo || value > hi {
            return Err(QuokkaError::Storage(format!(
                "wire: packed value {value} out of range for {logical:?}"
            )));
        }
    }
    Ok(Column::Packed(PackedIntColumn::from_parts(logical, base, width, rows, words)))
}

/// Decode scaled-decimal floats: bit-packed integers divided by `10^exp`.
/// Produces a plain `Float64` column — the scaling exists only on the wire.
fn decode_scaled_column(r: &mut WireReader<'_>, rows: usize) -> Result<Column> {
    let exp = r.u8()?;
    if exp > 18 {
        return Err(QuokkaError::Storage(format!("wire: scaled exponent {exp} exceeds 18")));
    }
    let factor = 10f64.powi(exp as i32);
    let base = r.i64()?;
    let width = r.u8()?;
    if width > 64 {
        return Err(QuokkaError::Storage(format!("wire: scaled width {width} exceeds 64")));
    }
    let bits = rows as u64 * width as u64;
    let words = take_bits(r, bits, "scaled values")?;
    let mut reader = BitReader::new(&words, bits);
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let delta = reader
            .take(width)
            .ok_or_else(|| QuokkaError::Storage("wire: truncated scaled values".into()))?;
        let value = base as i128 + delta as i128;
        if value < i64::MIN as i128 || value > i64::MAX as i128 {
            return Err(QuokkaError::Storage(format!(
                "wire: scaled value {value} out of range for Int64"
            )));
        }
        out.push(value as i64 as f64 / factor);
    }
    Ok(Column::Float64(out))
}

fn decode_xor_column(r: &mut WireReader<'_>, rows: usize) -> Result<Column> {
    let bits = r.u64()?;
    if bits.div_ceil(8) > r.remaining() as u64 {
        return Err(QuokkaError::Storage(format!(
            "wire: xor column claims {bits} bits but only {} bytes follow",
            r.remaining()
        )));
    }
    let words = take_bits(r, bits, "xor stream")?;
    let col = XorFloatColumn::from_parts(rows, bits, words);
    if !col.validate() {
        return Err(QuokkaError::Storage("wire: xor stream does not decode cleanly".into()));
    }
    Ok(Column::Xor(col))
}

fn decode_packed_bool_column(r: &mut WireReader<'_>, rows: usize) -> Result<Column> {
    let raw = r.take(rows.div_ceil(8), "packed bools")?;
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        out.push(raw[i / 8] >> (i % 8) & 1 == 1);
    }
    // Trailing pad bits must be zero so decode + re-encode is byte-exact.
    if !rows.is_multiple_of(8) && raw[rows / 8] >> (rows % 8) != 0 {
        return Err(QuokkaError::Storage("wire: nonzero pad bits in packed bools".into()));
    }
    Ok(Column::Bool(out))
}

fn decode_plain_column(r: &mut WireReader<'_>, dt: DataType, rows: usize) -> Result<Column> {
    Ok(match dt {
        DataType::Int64 => {
            let raw = r.take(checked_size(rows, 8)?, "Int64 column")?;
            Column::Int64(
                raw.chunks_exact(8)
                    .map(|c| i64::from_be_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            )
        }
        DataType::Float64 => {
            let raw = r.take(checked_size(rows, 8)?, "Float64 column")?;
            Column::Float64(
                raw.chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_be_bytes(c.try_into().expect("8 bytes"))))
                    .collect(),
            )
        }
        DataType::Date => {
            let raw = r.take(checked_size(rows, 4)?, "Date column")?;
            Column::Date(
                raw.chunks_exact(4)
                    .map(|c| i32::from_be_bytes(c.try_into().expect("4 bytes")))
                    .collect(),
            )
        }
        DataType::Bool => {
            // One byte per row, all present before the column is sized.
            let mut bytes = WireReader::new(r.take(rows, "Bool column")?);
            Column::Bool((0..rows).map(|_| bytes.bool()).collect::<Result<_>>()?)
        }
        DataType::Utf8 => {
            let mut out = Vec::with_capacity(rows.min(r.remaining() / 4 + 1));
            for _ in 0..rows {
                out.push(r.str()?);
            }
            Column::Utf8(out)
        }
    })
}

fn checked_size(rows: usize, width: usize) -> Result<usize> {
    rows.checked_mul(width)
        .ok_or_else(|| QuokkaError::Storage(format!("wire: column size overflow ({rows} rows)")))
}

/// Decode a standalone batch frame; the buffer must contain exactly one.
pub fn decode_batch(data: &[u8]) -> Result<Batch> {
    let mut r = WireReader::new(data);
    let batch = decode_batch_from(&mut r)?;
    r.expect_end()?;
    Ok(batch)
}

/// Encode one data partition (the batches of one output slice): a `u32`
/// batch count, then that many batch frames.
pub fn encode_partition(batches: &[Batch]) -> Bytes {
    let mut buf = Vec::new();
    put_u32(&mut buf, batches.len() as u32);
    for batch in batches {
        encode_batch_into(batch, &mut buf);
    }
    Bytes::from(buf)
}

/// Decode a payload produced by [`encode_partition`]; the buffer must hold
/// exactly one partition.
pub fn decode_partition(data: &[u8]) -> Result<Vec<Batch>> {
    let mut r = WireReader::new(data);
    let count = r.u32()? as usize;
    // Every batch frame is at least a 16-byte header.
    if count > r.remaining() / 16 {
        return Err(QuokkaError::Storage(format!(
            "wire: partition claims {count} batches but only {} bytes follow",
            r.remaining()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_batch_from(&mut r)?);
    }
    r.expect_end()?;
    Ok(out)
}

/// One output slice of a task: its batches plus their partition payload,
/// encoded once, where the slice is cut. Backups, spools and the TCP lane
/// store or ship the payload; an in-process delivery hands the batches over,
/// so only a wire receiver decodes.
#[derive(Debug, Clone)]
pub struct Slice {
    batches: Vec<Batch>,
    payload: Bytes,
}

impl Slice {
    /// Cut a slice from `batches`, encoding them once.
    pub fn new(batches: Vec<Batch>) -> Self {
        let payload = encode_partition(&batches);
        Slice { batches, payload }
    }

    /// Rebuild a slice from its stored payload (a backup or spool read).
    pub fn decode(payload: Bytes) -> Result<Self> {
        Ok(Slice { batches: decode_partition(&payload)?, payload })
    }

    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The batches' plain in-memory footprint, next to the payload's
    /// encoded size.
    pub fn raw_bytes(&self) -> u64 {
        self.batches.iter().map(|b| b.byte_size() as u64).sum()
    }
}

// ---------------------------------------------------------------------------
// Socket frames: a `u32` length prefix, then the message.
// ---------------------------------------------------------------------------

/// Write one frame whose message is `parts` back to back.
pub fn write_frame(w: &mut impl Write, parts: &[&[u8]]) -> std::io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let len = u32::try_from(len).ok().filter(|&len| len <= MAX_FRAME_BYTES).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        )
    })?;
    w.write_all(&len.to_be_bytes())?;
    for part in parts {
        w.write_all(part)?;
    }
    Ok(())
}

/// Read one frame. `Ok(None)` on a clean EOF before the length prefix (the
/// peer closed the connection). Beyond its first 64 KiB the buffer grows
/// with the bytes that actually arrive, so a garbage length prefix costs no
/// allocation of its claimed size.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut message = Vec::with_capacity((len as usize).min(1 << 16));
    r.take(u64::from(len)).read_to_end(&mut message)?;
    if message.len() != len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame cut short at {} of {len} bytes", message.len()),
        ));
    }
    Ok(Some(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::ScalarValue;

    fn sample() -> Batch {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("price", DataType::Float64),
            ("flag", DataType::Bool),
            ("ship", DataType::Date),
            ("comment", DataType::Utf8),
        ]);
        Batch::try_new(
            schema,
            vec![
                Column::Int64(vec![i64::MIN, -5, i64::MAX]),
                Column::Float64(vec![f64::NAN, -0.0, f64::INFINITY]),
                Column::Bool(vec![true, false, true]),
                Column::Date(vec![100, 0, -30]),
                Column::Utf8(vec!["hello".into(), "".into(), "unicode ✓".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let b = sample();
        let mut buf = Vec::new();
        encode_batch_into(&b, &mut buf);
        assert!(buf.len() <= encoded_batch_len(&b), "encoded_batch_len is an upper bound");
        let decoded = decode_batch(&buf).unwrap();
        // NaN != NaN under PartialEq, so compare the float column by bits.
        assert_eq!(decoded.schema(), b.schema());
        let (orig, got) =
            (b.columns()[1].to_f64_vec().unwrap(), decoded.columns()[1].to_f64_vec().unwrap());
        assert_eq!(
            orig.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(decoded.value(2, 4), ScalarValue::Utf8("unicode ✓".into()));
        // Re-encoding the decoded batch reproduces the exact bytes.
        let mut again = Vec::new();
        encode_batch_into(&decoded, &mut again);
        assert_eq!(buf, again);
    }

    #[test]
    fn encoded_columns_ship_natively() {
        let schema = Schema::from_pairs(&[
            ("mode", DataType::Utf8),
            ("qty", DataType::Int64),
            ("disc", DataType::Float64),
            ("day", DataType::Date),
        ]);
        let n = 64usize;
        let plain = Batch::try_new(
            schema.clone(),
            vec![
                Column::Utf8((0..n).map(|i| ["AIR", "MAIL", "SHIP"][i % 3].to_string()).collect()),
                Column::Int64((0..n).map(|i| (i % 50) as i64 + 1).collect()),
                Column::Float64((0..n).map(|i| (i % 8) as f64 * 0.125).collect()),
                Column::Date((0..n).map(|i| 9131 + (i % 30) as i32).collect()),
            ],
        )
        .unwrap();
        let encoded =
            Batch::try_new(schema, plain.columns().iter().map(Column::encode_auto).collect())
                .unwrap();
        assert!(encoded.columns().iter().all(Column::is_encoded));

        let mut buf = Vec::new();
        encode_batch_into(&encoded, &mut buf);
        assert!(buf.len() <= encoded_batch_len(&encoded));
        let decoded = decode_batch(&buf).unwrap();
        // The frame preserves the encodings and the logical content.
        assert!(decoded.columns().iter().all(Column::is_encoded));
        assert_eq!(&decoded, &plain);
        // Native pass-through: decode + re-encode is byte-exact.
        let mut again = Vec::new();
        encode_batch_into(&decoded, &mut again);
        assert_eq!(buf, again);
        // And the encoded frame is smaller than the plain frame.
        let mut plain_buf = Vec::new();
        encode_batch_into(&plain, &mut plain_buf);
        assert!(buf.len() < plain_buf.len(), "{} vs {}", buf.len(), plain_buf.len());
    }

    #[test]
    fn decimal_floats_ship_as_scaled_integers() {
        let schema = Schema::from_pairs(&[("price", DataType::Float64)]);
        // Two-decimal monetary values: XOR-incompressible, scaled-friendly.
        let prices: Vec<f64> = (0..512).map(|i| (90_000 + 37 * i) as f64 / 100.0).collect();
        let b = Batch::try_new(schema.clone(), vec![Column::Float64(prices.clone())]).unwrap();
        let mut frame = Vec::new();
        encode_batch_into(&b, &mut frame);
        assert!(
            frame.len() < 512 * 3,
            "scaled encoding should need ~2 bytes/value, got {} bytes",
            frame.len()
        );
        let decoded = decode_batch(&frame).unwrap();
        assert_eq!(decoded, b, "scaled round-trip changed the values");
        let mut again = Vec::new();
        encode_batch_into(&decoded, &mut again);
        assert_eq!(frame, again, "scaled re-encode must be byte-exact");

        // Integral quantities win the smaller exponent even when the column
        // arrives XOR-encoded in memory.
        let quantities: Vec<f64> = (0..512).map(|i| (1 + i % 50) as f64).collect();
        let xor = Column::Xor(XorFloatColumn::from_values(&quantities));
        let b = Batch::try_new(schema, vec![xor]).unwrap();
        frame.clear();
        encode_batch_into(&b, &mut frame);
        assert!(frame.len() < 512, "integral floats should pack to ~6 bits/value");
        let decoded = decode_batch(&frame).unwrap();
        assert_eq!(decoded, b);
        again.clear();
        encode_batch_into(&decoded, &mut again);
        assert_eq!(frame, again);

        // Values scaling cannot represent exactly (-0.0, NaN, irrationals)
        // fall back and still round-trip bit-exactly.
        let schema = Schema::from_pairs(&[("f", DataType::Float64)]);
        let b = Batch::try_new(
            schema,
            vec![Column::Float64(vec![-0.0, f64::NAN, std::f64::consts::PI, 1.0 / 3.0])],
        )
        .unwrap();
        frame.clear();
        encode_batch_into(&b, &mut frame);
        let decoded = decode_batch(&frame).unwrap();
        let bits: Vec<u64> =
            decoded.columns()[0].to_f64_vec().unwrap().iter().map(|f| f.to_bits()).collect();
        let expected: Vec<u64> =
            b.columns()[0].to_f64_vec().unwrap().iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn slab_reuse_appends_cleanly() {
        let b = sample();
        let mut buf = Vec::with_capacity(1024);
        encode_batch_into(&b, &mut buf);
        let first = buf.clone();
        buf.clear();
        encode_batch_into(&b, &mut buf);
        assert_eq!(buf, first);
        // A partition: two batch frames back to back decode in sequence.
        let partition = encode_partition(&[b.clone(), b.slice(0, 1)]);
        let decoded = decode_partition(&partition).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[1].num_rows(), 1);
    }

    #[test]
    fn empty_batches_and_columns() {
        let b = Batch::empty(sample().schema().clone());
        let mut buf = Vec::new();
        encode_batch_into(&b, &mut buf);
        let decoded = decode_batch(&buf).unwrap();
        assert_eq!(decoded.num_rows(), 0);
        assert_eq!(decoded.schema(), b.schema());
        assert!(decode_partition(&encode_partition(&[])).unwrap().is_empty());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let b = sample();
        let mut buf = Vec::new();
        encode_batch_into(&b, &mut buf);
        for cut in 0..buf.len() {
            match decode_batch(&buf[..cut]) {
                Err(QuokkaError::Storage(_)) => {}
                other => panic!("truncation at {cut} produced {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let b = sample();
        let mut buf = Vec::new();
        encode_batch_into(&b, &mut buf);
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_batch(&bad), Err(QuokkaError::Storage(_))));
        // Absurd row count must error before allocating.
        let mut bad = buf.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(decode_batch(&bad), Err(QuokkaError::Storage(_))));
        // Bad dtype tag.
        let mut bad = buf.clone();
        bad[16] = 99;
        assert!(matches!(decode_batch(&bad), Err(QuokkaError::Storage(_))));
        // Trailing garbage is rejected by the standalone decoder.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(matches!(decode_batch(&bad), Err(QuokkaError::Storage(_))));
        // Any single-byte corruption must decode cleanly or error — never
        // panic (bad encoding tags, dictionary order, code ranges, pad bits).
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            match decode_batch(&bad) {
                Ok(_) | Err(QuokkaError::Storage(_)) => {}
                other => panic!("corruption at {i} produced {other:?}"),
            }
        }
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 300);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX);
        put_i32(&mut buf, -4);
        put_i64(&mut buf, i64::MIN);
        put_f64(&mut buf, -0.0);
        put_bool(&mut buf, true);
        put_bytes(&mut buf, b"raw");
        put_str(&mut buf, "text ✓");
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i32().unwrap(), -4);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "text ✓");
        r.expect_end().unwrap();
        assert!(WireReader::new(&[]).u8().is_err());
    }
}
