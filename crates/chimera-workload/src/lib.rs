//! # chimera-workload
//!
//! Deterministic, seeded workload generators for tests, property suites
//! and the benchmark harness:
//!
//! * [`stream`] — synthetic event streams over configurable event-type and
//!   object populations (uniform or skewed type mix);
//! * [`exprgen`] — random *well-formed* event expressions with tunable
//!   size, instance-operator probability and negation probability (the
//!   input distribution for the algebraic-law and evaluator-agreement
//!   property tests);
//! * [`stock`] — the paper's running example domain (`stock`, `show`,
//!   `stockOrder` classes plus the §2/§3 triggers) and an operation
//!   generator that drives a full [`chimera_exec::Engine`];
//! * [`trace`] — recordable/replayable operation traces;
//! * [`zipf`] — Zipf-skewed tenant populations (1 hot + N cold) for the
//!   multi-tenant scheduling soaks and stackbench's `tenant_churn`
//!   workload.

pub mod exprgen;
pub mod stock;
pub mod stream;
pub mod trace;
pub mod zipf;

pub use exprgen::{ExprGenConfig, RandomExprGen};
pub use stock::{stock_schema, stock_triggers, StockWorkload, StockWorkloadConfig};
pub use stream::{StreamConfig, StreamGen};
pub use trace::{Trace, TraceOp};
pub use zipf::{ZipfTenants, ZipfTenantsConfig};
