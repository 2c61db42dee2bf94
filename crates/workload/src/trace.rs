//! Trace records: one request of a replayable request stream.
//!
//! Experiments can persist their request streams and replay them, so
//! analytic and simulated runs see byte-identical workloads. The
//! [`TraceRecord`] defined here is what the binary `.events` format of
//! [`crate::events`] carries.

use crate::catalog::ItemId;

/// One request in a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Request time (seconds).
    pub time: f64,
    /// Issuing client.
    pub client: u32,
    /// Referenced item.
    pub item: ItemId,
    /// Item size (size-units).
    pub size: f64,
}

impl TraceRecord {
    pub fn new(time: f64, client: u32, item: ItemId, size: f64) -> Self {
        TraceRecord { time, client, item, size }
    }
}
