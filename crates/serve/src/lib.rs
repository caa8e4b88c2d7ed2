//! `gridband-serve`: a long-running bandwidth-reservation daemon.
//!
//! Exposes the WINDOW batched-admission scheduler as a network service:
//! clients submit transfer requests over a JSON-lines TCP protocol, the
//! engine batches them into `t_step` admission rounds against a live
//! capacity ledger, and decisions (with `retry_after` backpressure on
//! rejection) stream back per connection.
//!
//! With a [`StoreConfig`] in the engine config, every admission round is
//! written through a checksummed write-ahead log (`gridband-store`)
//! before its replies go out, periodic snapshots truncate the log, and a
//! restarted daemon recovers its exact pre-crash commitments — see the
//! recovery-equivalence tests in `tests/`.

// `#[derive(Wire)]` names the trait as `::gridband_serve::wire::Wire`,
// which must resolve inside this crate too.
extern crate self as gridband_serve;

pub mod engine;
mod history;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod state;
pub mod wire;

pub use engine::{Engine, EngineConfig, TimeMode};
pub use gridband_store::{FsDir, FsyncPolicy, MemDir, StoreConfig, StoreError};
pub use metrics::{MetricsRegistry, Role};
pub use protocol::{ClientMsg, RejectReason, ServerMsg, SubmitReq, WireRequest, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
pub use state::{EngineState, GcSweep, ReplayTally};
