//! # fact-data — the dataset substrate of the FACT toolkit
//!
//! This crate provides the data layer that every other FACT crate builds on:
//!
//! * a **columnar in-memory dataset engine** ([`Dataset`], [`Column`],
//!   [`Schema`]) with typed columns, null tracking, selection, filtering,
//!   grouping, and summaries;
//! * a small dense **matrix/linear-algebra kernel** ([`Matrix`]) used by the
//!   ML and causal-inference crates;
//! * **CSV** reading and writing with type inference;
//! * deterministic **sampling and splitting** utilities;
//! * **synthetic data generators** with *parametric, injectable bias* — the
//!   workloads for every experiment in the reproduction (loans, hiring,
//!   Berkeley-style admissions, clinical trials, census microdata);
//! * **bias injectors** that corrupt clean data in controlled ways;
//! * a **binary columnar segment store** ([`segment`]) — per-column buffers
//!   with null bitmaps and zone maps, column-pruned predicate-pushdown scans
//!   ([`SegmentSet::scan_columns`](segment::SegmentSet::scan_columns)), and
//!   segment-backed group-by ([`agg::aggregate_segments`]) that are
//!   bit-identical at any `fact_par` worker count; and
//! * an **event-stream generator** reproducing the "Internet Minute" rates
//!   cited in the paper (van der Aalst et al., BISE 59(5), 2017, §3).
//!
//! All randomized components take explicit seeds so experiments are exactly
//! reproducible.
//!
//! ## Quick example
//!
//! ```
//! use fact_data::synth::loans::{LoanConfig, generate_loans};
//!
//! let ds = generate_loans(&LoanConfig { n: 1_000, seed: 7, ..LoanConfig::default() });
//! assert_eq!(ds.n_rows(), 1_000);
//! assert!(ds.column("income").is_ok());
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod bias;
pub mod builder;
pub mod column;
pub mod csv;
pub mod durable;
pub mod error;
pub mod expr;
pub mod frame;
pub mod join;
pub mod matrix;
pub mod sample;
pub mod schema;
pub mod segment;
pub mod split;
pub mod stream;
pub mod synth;
pub mod value;

pub use builder::DatasetBuilder;
pub use column::{CatData, Column, ColumnData};
pub use error::{FactError, Result};
pub use frame::{Dataset, GroupBy, SummaryRow};
pub use matrix::Matrix;
pub use schema::{Field, Schema};
pub use segment::{Predicate, ScanStats, SegmentSet, SegmentWriteConfig};
pub use value::{DataType, Value};
