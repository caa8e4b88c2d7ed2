//! Heuristics for **flexible** requests (§5): windows with slack, online
//! decisions, bandwidth chosen in `[MinRate, MaxRate]` by a
//! [`BandwidthPolicy`](crate::policy::BandwidthPolicy).

pub mod adaptive;
pub mod bookahead;
pub mod greedy;
pub mod window;

pub use adaptive::AdaptiveGreedy;
pub use bookahead::BookAhead;
pub use greedy::Greedy;
pub use window::WindowScheduler;
