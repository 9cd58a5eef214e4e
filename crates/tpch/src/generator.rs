//! Deterministic `dbgen`-style TPC-H data generator.
//!
//! The generator is seeded and pure: the same `(scale factor, seed)` pair
//! always produces byte-identical tables, and each table can be generated
//! independently of the others while keeping cross-table relationships
//! consistent (e.g. `l_suppkey` is always one of the four suppliers that
//! `partsupp` lists for `l_partkey`, which Q2/Q9/Q20 rely on).

use crate::schema;
use quokka_batch::datatype::parse_date;
use quokka_batch::{Batch, Column, Schema};
use quokka_common::rng::DetRng;
use quokka_common::{QuokkaError, Result};
use quokka_plan::catalog::MemoryCatalog;

/// Market segments (customer).
const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
/// Order priorities.
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// Ship modes.
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
/// Ship instructions.
const SHIP_INSTRUCT: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
/// Part type prefixes/middles/suffixes.
const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
/// Part containers.
const CONTAINER_SYLL1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_SYLL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
/// Colours used in part names (Q9 greps for "green", Q20 for "forest").
const COLORS: [&str; 24] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "chartreuse",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "forest",
    "frosted",
    "ghost",
    "goldenrod",
    "green",
    "honeydew",
    "hot",
];
/// Filler words for comments.
const WORDS: [&str; 20] = [
    "carefully",
    "quickly",
    "furiously",
    "deposits",
    "packages",
    "accounts",
    "instructions",
    "theodolites",
    "platelets",
    "pinto",
    "beans",
    "foxes",
    "ideas",
    "requests",
    "dependencies",
    "excuses",
    "asymptotes",
    "courts",
    "dolphins",
    "waters",
];
/// The 25 TPC-H nations and their region keys.
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("UNITED KINGDOM", 3),
    ("RUSSIA", 3),
    ("UNITED STATES", 1),
    ("VIETNAM", 2),
];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Deterministic TPC-H data generator.
#[derive(Debug, Clone)]
pub struct TpchGenerator {
    sf: f64,
    seed: u64,
    batch_rows: usize,
    /// Emit compressed column encodings (dictionary / bit-packed / XOR)
    /// from generation onwards. On by default; `with_encoding(false)`
    /// restores plain columns for baselines and A/B parity tests.
    encode: bool,
}

impl TpchGenerator {
    /// Create a generator for scale factor `sf` (1.0 ≈ the official 1 GB
    /// scale; the experiments here use 0.005 – 0.05).
    pub fn new(sf: f64, seed: u64) -> Self {
        TpchGenerator { sf, seed, batch_rows: 4096, encode: true }
    }

    /// Override the number of rows per generated batch (one batch = one
    /// input split for the distributed engine).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// Toggle compressed column encodings on generated tables (default on).
    pub fn with_encoding(mut self, encode: bool) -> Self {
        self.encode = encode;
        self
    }

    pub fn scale_factor(&self) -> f64 {
        self.sf
    }

    fn scaled(&self, base: f64) -> usize {
        ((base * self.sf).round() as usize).max(1)
    }

    /// Number of rows in `table`.
    pub fn num_rows(&self, table: &str) -> Result<usize> {
        Ok(match table {
            "region" => 5,
            "nation" => 25,
            "supplier" => self.scaled(10_000.0).max(8),
            "customer" => self.scaled(150_000.0).max(30),
            "part" => self.scaled(200_000.0).max(40),
            "partsupp" => self.num_rows("part")? * 4,
            "orders" => self.scaled(1_500_000.0).max(150),
            // lineitem rows are derived per order (1..=7 lines each); this
            // returns the exact count for the configured seed.
            "lineitem" => {
                let orders = self.num_rows("orders")?;
                (1..=orders as u64).map(|o| self.lines_per_order(o) as usize).sum()
            }
            other => return Err(QuokkaError::PlanError(format!("unknown TPC-H table '{other}'"))),
        })
    }

    fn lines_per_order(&self, orderkey: u64) -> u64 {
        let mut rng = DetRng::derive(self.seed ^ 0x11ee, orderkey);
        1 + rng.next_below(7)
    }

    /// The four suppliers that stock a part, mirroring dbgen's formula so
    /// that `lineitem` ⋈ `partsupp` on `(partkey, suppkey)` never loses rows.
    fn supplier_for_part(&self, partkey: i64, slot: i64, num_suppliers: i64) -> i64 {
        ((partkey + slot * (num_suppliers / 4).max(1)) % num_suppliers) + 1
    }

    fn comment(&self, rng: &mut DetRng, words: usize) -> String {
        let mut out = String::new();
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(rng.pick::<&str>(&WORDS));
        }
        out
    }

    /// Generate the named table, chunked into batches of `batch_rows` rows.
    pub fn generate(&self, table: &str) -> Result<Vec<Batch>> {
        let rows = self.generate_rows(table)?;
        Ok(rows)
    }

    /// Register every table in an in-memory catalog (used by the reference
    /// executor and by the engine's table loader).
    pub fn register_all(&self, catalog: &MemoryCatalog) -> Result<()> {
        for table in schema::TABLE_NAMES {
            let schema = schema::table_schema(table).expect("known table");
            let batches = self.generate(table)?;
            catalog.register(table, schema, batches);
        }
        Ok(())
    }

    /// Build a fully-populated catalog.
    pub fn catalog(&self) -> Result<MemoryCatalog> {
        let catalog = MemoryCatalog::new();
        self.register_all(&catalog)?;
        Ok(catalog)
    }

    fn chunk(&self, schema: Schema, columns: Vec<Column>) -> Result<Vec<Batch>> {
        // Encode whole-table columns *before* chunking: every chunk of a
        // dictionary column then shares one dictionary `Arc` (slicing keeps
        // the dictionary and narrows the codes), and bit-packed columns
        // keep a table-wide base/width.
        let columns = if self.encode {
            columns.into_iter().map(|c| c.encode_auto()).collect()
        } else {
            columns
        };
        let batch = Batch::try_new(schema, columns)?;
        Ok(batch.chunks(self.batch_rows))
    }

    fn generate_rows(&self, table: &str) -> Result<Vec<Batch>> {
        match table {
            "region" => self.gen_region(),
            "nation" => self.gen_nation(),
            "supplier" => self.gen_supplier(),
            "customer" => self.gen_customer(),
            "part" => self.gen_part(),
            "partsupp" => self.gen_partsupp(),
            "orders" => self.gen_orders(),
            "lineitem" => self.gen_lineitem(),
            other => Err(QuokkaError::PlanError(format!("unknown TPC-H table '{other}'"))),
        }
    }

    fn gen_region(&self) -> Result<Vec<Batch>> {
        let mut rng = DetRng::derive(self.seed, 1);
        let keys: Vec<i64> = (0..5).collect();
        let names: Vec<String> = REGIONS.iter().map(|s| s.to_string()).collect();
        let comments: Vec<String> = (0..5).map(|_| self.comment(&mut rng, 6)).collect();
        self.chunk(
            schema::region(),
            vec![Column::Int64(keys), Column::Utf8(names), Column::Utf8(comments)],
        )
    }

    fn gen_nation(&self) -> Result<Vec<Batch>> {
        let mut rng = DetRng::derive(self.seed, 2);
        let keys: Vec<i64> = (0..25).collect();
        let names: Vec<String> = NATIONS.iter().map(|(n, _)| n.to_string()).collect();
        let regions: Vec<i64> = NATIONS.iter().map(|(_, r)| *r).collect();
        let comments: Vec<String> = (0..25).map(|_| self.comment(&mut rng, 8)).collect();
        self.chunk(
            schema::nation(),
            vec![
                Column::Int64(keys),
                Column::Utf8(names),
                Column::Int64(regions),
                Column::Utf8(comments),
            ],
        )
    }

    fn gen_supplier(&self) -> Result<Vec<Batch>> {
        let n = self.num_rows("supplier")?;
        let mut rng = DetRng::derive(self.seed, 3);
        let mut keys = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let mut addresses = Vec::with_capacity(n);
        let mut nations = Vec::with_capacity(n);
        let mut phones = Vec::with_capacity(n);
        let mut acctbals = Vec::with_capacity(n);
        let mut comments = Vec::with_capacity(n);
        for i in 1..=n as i64 {
            keys.push(i);
            names.push(format!("Supplier#{i:09}"));
            addresses.push(format!("{} {}", rng.pick(&WORDS), rng.next_below(9999)));
            let nation = rng.next_below(25) as i64;
            nations.push(nation);
            phones.push(format!(
                "{}-{:03}-{:03}-{:04}",
                10 + nation,
                rng.next_below(1000),
                rng.next_below(1000),
                rng.next_below(10_000)
            ));
            acctbals.push(rng.range_f64(-999.99, 9999.99));
            // ~3% of suppliers have the "Customer Complaints" comment Q16
            // filters out.
            let comment = if rng.chance(0.03) {
                format!(
                    "{} Customer some Complaints {}",
                    self.comment(&mut rng, 2),
                    self.comment(&mut rng, 2)
                )
            } else {
                self.comment(&mut rng, 7)
            };
            comments.push(comment);
        }
        self.chunk(
            schema::supplier(),
            vec![
                Column::Int64(keys),
                Column::Utf8(names),
                Column::Utf8(addresses),
                Column::Int64(nations),
                Column::Utf8(phones),
                Column::Float64(acctbals),
                Column::Utf8(comments),
            ],
        )
    }

    fn gen_customer(&self) -> Result<Vec<Batch>> {
        let n = self.num_rows("customer")?;
        let mut rng = DetRng::derive(self.seed, 4);
        let mut keys = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let mut addresses = Vec::with_capacity(n);
        let mut nations = Vec::with_capacity(n);
        let mut phones = Vec::with_capacity(n);
        let mut acctbals = Vec::with_capacity(n);
        let mut segments = Vec::with_capacity(n);
        let mut comments = Vec::with_capacity(n);
        for i in 1..=n as i64 {
            keys.push(i);
            names.push(format!("Customer#{i:09}"));
            addresses.push(format!("{} {}", rng.pick(&WORDS), rng.next_below(9999)));
            let nation = rng.next_below(25) as i64;
            nations.push(nation);
            phones.push(format!(
                "{}-{:03}-{:03}-{:04}",
                10 + nation,
                rng.next_below(1000),
                rng.next_below(1000),
                rng.next_below(10_000)
            ));
            acctbals.push(rng.range_f64(-999.99, 9999.99));
            segments.push(rng.pick(&SEGMENTS).to_string());
            comments.push(self.comment(&mut rng, 10));
        }
        self.chunk(
            schema::customer(),
            vec![
                Column::Int64(keys),
                Column::Utf8(names),
                Column::Utf8(addresses),
                Column::Int64(nations),
                Column::Utf8(phones),
                Column::Float64(acctbals),
                Column::Utf8(segments),
                Column::Utf8(comments),
            ],
        )
    }

    fn gen_part(&self) -> Result<Vec<Batch>> {
        let n = self.num_rows("part")?;
        let mut rng = DetRng::derive(self.seed, 5);
        let mut keys = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let mut mfgrs = Vec::with_capacity(n);
        let mut brands = Vec::with_capacity(n);
        let mut types = Vec::with_capacity(n);
        let mut sizes = Vec::with_capacity(n);
        let mut containers = Vec::with_capacity(n);
        let mut prices = Vec::with_capacity(n);
        let mut comments = Vec::with_capacity(n);
        for i in 1..=n as i64 {
            keys.push(i);
            let c1 = *rng.pick(&COLORS);
            let c2 = *rng.pick(&COLORS);
            let c3 = *rng.pick(&COLORS);
            names.push(format!("{c1} {c2} {c3}"));
            let mfgr = 1 + rng.next_below(5);
            mfgrs.push(format!("Manufacturer#{mfgr}"));
            brands.push(format!("Brand#{}{}", mfgr, 1 + rng.next_below(5)));
            types.push(format!(
                "{} {} {}",
                rng.pick(&TYPE_SYLL1),
                rng.pick(&TYPE_SYLL2),
                rng.pick(&TYPE_SYLL3)
            ));
            sizes.push(1 + rng.next_below(50) as i64);
            containers.push(format!(
                "{} {}",
                rng.pick(&CONTAINER_SYLL1),
                rng.pick(&CONTAINER_SYLL2)
            ));
            prices.push(900.0 + (i % 1000) as f64 * 0.1 + (i / 10 % 200) as f64);
            comments.push(self.comment(&mut rng, 5));
        }
        self.chunk(
            schema::part(),
            vec![
                Column::Int64(keys),
                Column::Utf8(names),
                Column::Utf8(mfgrs),
                Column::Utf8(brands),
                Column::Utf8(types),
                Column::Int64(sizes),
                Column::Utf8(containers),
                Column::Float64(prices),
                Column::Utf8(comments),
            ],
        )
    }

    fn gen_partsupp(&self) -> Result<Vec<Batch>> {
        let parts = self.num_rows("part")? as i64;
        let suppliers = self.num_rows("supplier")? as i64;
        let mut rng = DetRng::derive(self.seed, 6);
        let n = (parts * 4) as usize;
        let mut partkeys = Vec::with_capacity(n);
        let mut suppkeys = Vec::with_capacity(n);
        let mut qtys = Vec::with_capacity(n);
        let mut costs = Vec::with_capacity(n);
        let mut comments = Vec::with_capacity(n);
        for p in 1..=parts {
            for slot in 0..4 {
                partkeys.push(p);
                suppkeys.push(self.supplier_for_part(p, slot, suppliers));
                qtys.push(1 + rng.next_below(9999) as i64);
                costs.push(rng.range_f64(1.0, 1000.0));
                comments.push(self.comment(&mut rng, 6));
            }
        }
        self.chunk(
            schema::partsupp(),
            vec![
                Column::Int64(partkeys),
                Column::Int64(suppkeys),
                Column::Int64(qtys),
                Column::Float64(costs),
                Column::Utf8(comments),
            ],
        )
    }

    fn order_date(&self, rng: &mut DetRng) -> i32 {
        // Orders span 1992-01-01 .. 1998-08-02, as in the spec.
        let start = parse_date("1992-01-01");
        let end = parse_date("1998-08-02");
        start + rng.next_below((end - start) as u64) as i32
    }

    fn gen_orders(&self) -> Result<Vec<Batch>> {
        let n = self.num_rows("orders")?;
        let customers = self.num_rows("customer")? as i64;
        let cutoff = parse_date("1995-06-17");
        let mut keys = Vec::with_capacity(n);
        let mut custs = Vec::with_capacity(n);
        let mut statuses = Vec::with_capacity(n);
        let mut totals = Vec::with_capacity(n);
        let mut dates = Vec::with_capacity(n);
        let mut priorities = Vec::with_capacity(n);
        let mut clerks = Vec::with_capacity(n);
        let mut shippriorities = Vec::with_capacity(n);
        let mut comments = Vec::with_capacity(n);
        for o in 1..=n as u64 {
            // Each order derives its own stream so lineitem generation can
            // reproduce the same order date independently.
            let mut rng = DetRng::derive(self.seed ^ 0x0d0e, o);
            keys.push(o as i64);
            custs.push(1 + rng.next_below(customers as u64) as i64);
            let date = self.order_date(&mut rng);
            dates.push(date);
            statuses.push(
                if date < cutoff {
                    if rng.chance(0.9) {
                        "F"
                    } else {
                        "P"
                    }
                } else {
                    "O"
                }
                .to_string(),
            );
            totals.push(rng.range_f64(1000.0, 400_000.0));
            priorities.push(rng.pick(&PRIORITIES).to_string());
            clerks.push(format!("Clerk#{:09}", 1 + rng.next_below(1000)));
            shippriorities.push(0);
            // ~2% of orders carry the "special ... requests" comment Q13
            // excludes.
            let comment = if rng.chance(0.02) {
                format!(
                    "{} special handling requests {}",
                    self.comment(&mut rng, 2),
                    self.comment(&mut rng, 2)
                )
            } else {
                self.comment(&mut rng, 8)
            };
            comments.push(comment);
        }
        self.chunk(
            schema::orders(),
            vec![
                Column::Int64(keys),
                Column::Int64(custs),
                Column::Utf8(statuses),
                Column::Float64(totals),
                Column::Date(dates),
                Column::Utf8(priorities),
                Column::Utf8(clerks),
                Column::Int64(shippriorities),
                Column::Utf8(comments),
            ],
        )
    }

    fn gen_lineitem(&self) -> Result<Vec<Batch>> {
        let orders = self.num_rows("orders")?;
        let parts = self.num_rows("part")? as i64;
        let suppliers = self.num_rows("supplier")? as i64;
        let cutoff = parse_date("1995-06-17");
        let mut orderkeys = Vec::new();
        let mut partkeys = Vec::new();
        let mut suppkeys = Vec::new();
        let mut linenumbers = Vec::new();
        let mut quantities = Vec::new();
        let mut prices = Vec::new();
        let mut discounts = Vec::new();
        let mut taxes = Vec::new();
        let mut returnflags = Vec::new();
        let mut linestatuses = Vec::new();
        let mut shipdates = Vec::new();
        let mut commitdates = Vec::new();
        let mut receiptdates = Vec::new();
        let mut shipinstructs = Vec::new();
        let mut shipmodes = Vec::new();
        let mut comments = Vec::new();
        for o in 1..=orders as u64 {
            // Recover the order date by replaying the order's own stream
            // (skip the custkey draw, then draw the date exactly as
            // `gen_orders` does).
            let order_date = {
                let mut r = DetRng::derive(self.seed ^ 0x0d0e, o);
                let _ = r.next_u64();
                self.order_date(&mut r)
            };
            let lines = self.lines_per_order(o);
            let mut rng = DetRng::derive(self.seed ^ 0x11f0, o);
            for line in 1..=lines {
                orderkeys.push(o as i64);
                let partkey = 1 + rng.next_below(parts as u64) as i64;
                partkeys.push(partkey);
                suppkeys.push(self.supplier_for_part(partkey, rng.next_below(4) as i64, suppliers));
                linenumbers.push(line as i64);
                let qty = 1.0 + rng.next_below(50) as f64;
                quantities.push(qty);
                let retail = 900.0 + (partkey % 1000) as f64 * 0.1 + (partkey / 10 % 200) as f64;
                prices.push(qty * retail);
                discounts.push((rng.next_below(11) as f64) / 100.0);
                taxes.push((rng.next_below(9) as f64) / 100.0);
                let shipdate = order_date + 1 + rng.next_below(121) as i32;
                let commitdate = order_date + 30 + rng.next_below(61) as i32;
                let receiptdate = shipdate + 1 + rng.next_below(30) as i32;
                shipdates.push(shipdate);
                commitdates.push(commitdate);
                receiptdates.push(receiptdate);
                returnflags.push(
                    if receiptdate <= cutoff {
                        if rng.chance(0.5) {
                            "R"
                        } else {
                            "A"
                        }
                    } else {
                        "N"
                    }
                    .to_string(),
                );
                linestatuses.push(if shipdate > cutoff { "O" } else { "F" }.to_string());
                shipinstructs.push(rng.pick(&SHIP_INSTRUCT).to_string());
                shipmodes.push(rng.pick(&SHIP_MODES).to_string());
                comments.push(self.comment(&mut rng, 4));
            }
        }
        self.chunk(
            schema::lineitem(),
            vec![
                Column::Int64(orderkeys),
                Column::Int64(partkeys),
                Column::Int64(suppkeys),
                Column::Int64(linenumbers),
                Column::Float64(quantities),
                Column::Float64(prices),
                Column::Float64(discounts),
                Column::Float64(taxes),
                Column::Utf8(returnflags),
                Column::Utf8(linestatuses),
                Column::Date(shipdates),
                Column::Date(commitdates),
                Column::Date(receiptdates),
                Column::Utf8(shipinstructs),
                Column::Utf8(shipmodes),
                Column::Utf8(comments),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_plan::catalog::Catalog;

    fn generator() -> TpchGenerator {
        TpchGenerator::new(0.002, 42).with_batch_rows(512)
    }

    /// Concatenated table with every column decoded to its plain form, for
    /// tests that inspect values through the typed slice accessors.
    fn plain_concat(batches: &[Batch]) -> Batch {
        let batch = Batch::concat(batches).unwrap();
        Batch::try_new(
            batch.schema().clone(),
            batch.columns().iter().map(|c| c.decoded().into_owned()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn row_counts_scale_with_sf() {
        let small = TpchGenerator::new(0.002, 1);
        let large = TpchGenerator::new(0.01, 1);
        assert!(small.num_rows("orders").unwrap() < large.num_rows("orders").unwrap());
        assert_eq!(small.num_rows("region").unwrap(), 5);
        assert_eq!(small.num_rows("nation").unwrap(), 25);
        assert_eq!(small.num_rows("partsupp").unwrap(), small.num_rows("part").unwrap() * 4);
        assert!(small.num_rows("unknown").is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generator().generate("orders").unwrap();
        let b = generator().generate("orders").unwrap();
        assert_eq!(a, b);
        let c = TpchGenerator::new(0.002, 43).generate("orders").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_tables_match_schemas_and_counts() {
        let generator = generator();
        for table in schema::TABLE_NAMES {
            let batches = generator.generate(table).unwrap();
            let rows: usize = batches.iter().map(Batch::num_rows).sum();
            assert_eq!(rows, generator.num_rows(table).unwrap(), "row count for {table}");
            let expected = schema::table_schema(table).unwrap();
            for batch in &batches {
                assert_eq!(batch.schema(), &expected, "schema for {table}");
                assert!(batch.num_rows() <= 512);
            }
        }
    }

    #[test]
    fn lineitem_keys_reference_partsupp_pairs() {
        let generator = generator();
        let catalog = generator.catalog().unwrap();
        let partsupp = Batch::concat(&catalog.table_batches("partsupp").unwrap()).unwrap();
        let mut valid_pairs = std::collections::HashSet::new();
        for row in 0..partsupp.num_rows() {
            let p = partsupp.value(row, 0).as_i64().unwrap();
            let s = partsupp.value(row, 1).as_i64().unwrap();
            valid_pairs.insert((p, s));
        }
        let lineitem = Batch::concat(&catalog.table_batches("lineitem").unwrap()).unwrap();
        for row in (0..lineitem.num_rows()).step_by(97) {
            let p = lineitem.value(row, 1).as_i64().unwrap();
            let s = lineitem.value(row, 2).as_i64().unwrap();
            assert!(valid_pairs.contains(&(p, s)), "lineitem ({p},{s}) not in partsupp");
        }
    }

    #[test]
    fn foreign_keys_are_in_range() {
        let generator = generator();
        let catalog = generator.catalog().unwrap();
        let customers = generator.num_rows("customer").unwrap() as i64;
        let orders = Batch::concat(&catalog.table_batches("orders").unwrap()).unwrap();
        for row in (0..orders.num_rows()).step_by(13) {
            let cust = orders.value(row, 1).as_i64().unwrap();
            assert!(cust >= 1 && cust <= customers);
        }
        let nation = Batch::concat(&catalog.table_batches("nation").unwrap()).unwrap();
        for row in 0..nation.num_rows() {
            let region = nation.value(row, 2).as_i64().unwrap();
            assert!((0..5).contains(&region));
        }
    }

    #[test]
    fn predicate_keywords_are_present_but_selective() {
        let generator = generator();
        let catalog = generator.catalog().unwrap();
        let part = plain_concat(&catalog.table_batches("part").unwrap());
        let names = part.as_strs("p_name").unwrap();
        let green = names.iter().filter(|n| n.contains("green")).count();
        assert!(green > 0 && green < names.len());
        let forest = names.iter().filter(|n| n.starts_with("forest")).count();
        assert!(forest > 0);

        let orders = plain_concat(&catalog.table_batches("orders").unwrap());
        let comments = orders.as_strs("o_comment").unwrap();
        let special = comments.iter().filter(|c| c.contains("special")).count();
        assert!(special > 0 && special * 5 < comments.len());
    }

    #[test]
    fn encoding_toggle_changes_representation_not_content() {
        let encoded = generator().generate("lineitem").unwrap();
        let plain = generator().with_encoding(false).generate("lineitem").unwrap();
        assert_eq!(encoded.len(), plain.len());
        // Logical content is identical batch by batch...
        for (e, p) in encoded.iter().zip(&plain) {
            assert_eq!(e, p);
        }
        // ...but the encoded tables are physically smaller, and low-
        // cardinality string columns dictionary-encode with one dictionary
        // shared across all chunks of the table.
        let encoded_bytes: usize = encoded.iter().map(Batch::memory_bytes).sum();
        let plain_bytes: usize = plain.iter().map(Batch::memory_bytes).sum();
        assert!(
            encoded_bytes * 3 < plain_bytes * 2,
            "expected >=1.5x compression on lineitem: {encoded_bytes} vs {plain_bytes}"
        );
        let shipmode = encoded[0].schema().index_of("l_shipmode").unwrap();
        let (first, second) = match (encoded[0].column(shipmode), encoded[1].column(shipmode)) {
            (Column::Dict(a), Column::Dict(b)) => (a, b),
            other => panic!("l_shipmode should be dictionary-encoded, got {other:?}"),
        };
        assert!(first.same_dict(second), "chunks must share one dictionary");
    }

    #[test]
    fn dates_are_consistent() {
        let generator = generator();
        let lineitem = plain_concat(&generator.generate("lineitem").unwrap());
        let ship = lineitem.as_dates("l_shipdate").unwrap();
        let receipt = lineitem.as_dates("l_receiptdate").unwrap();
        for i in (0..ship.len()).step_by(53) {
            assert!(receipt[i] > ship[i], "receipt date must follow ship date");
        }
        let lo = parse_date("1992-01-01");
        let hi = parse_date("1999-01-01");
        for &d in ship.iter().step_by(71) {
            assert!(d >= lo && d <= hi);
        }
    }
}
