//! Counters, summary statistics, and table rendering for the `one-for-all`
//! experiment harness.
//!
//! Four building blocks:
//!
//! * [`CounterSnapshot`] — per-process event counters (messages,
//!   consensus-object invocations, coin flips, rounds) backing the paper's
//!   structural comparisons,
//! * [`Summary`] / [`Histogram`] — statistics over samples such as decision
//!   rounds and virtual-time latencies,
//! * [`LatencyHistogram`] / [`ServiceStats`] — the client-service metrics
//!   layer: deterministic fixed-bucket submit→commit latency (p50/p99
//!   without floats on the hot path), commit throughput over virtual time,
//!   and queue-depth/backpressure gauges,
//! * [`Table`] — the uniform output format of every experiment: rendered as
//!   text by the `experiments` binary, asserted on in tests, exported as
//!   CSV or Markdown.
//!
//! # Examples
//!
//! ```
//! use ofa_metrics::{Histogram, Summary, Table};
//!
//! let rounds: Histogram = [1u64, 2, 2, 3].into_iter().collect();
//! let s = Summary::of_ints(rounds.iter().flat_map(|(v, c)| std::iter::repeat(v).take(c as usize)));
//! let mut t = Table::new("rounds", &["mean", "max"]);
//! t.row([format!("{:.2}", s.mean), format!("{}", s.max)]);
//! assert!(t.render().contains("2.00"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
mod service;
mod stats;
mod table;

pub use counters::CounterSnapshot;
pub use service::{LatencyHistogram, ServiceStats};
pub use stats::{Histogram, Summary};
pub use table::{fmt_f64, fmt_ratio, Table};
