//! # queueing — the paper's server-access substrate
//!
//! Tuah, Kumar & Venkatesh model "the entire network accessed through the
//! proxy as a server that provides a processor-sharing service for an M/G/1
//! round-robin queueing system" (paper §2.1). The single load-bearing fact
//! borrowed from Kleinrock is equation (2):
//!
//! ```text
//! r̄ = x / (1 − ρ)
//! ```
//!
//! the mean time to finish a job requiring service time `x` when the system
//! utilisation is `ρ`. This crate provides that substrate twice over:
//!
//! * [`theory`] — closed forms: M/G/1-PS, M/M/1, M/G/1-FIFO
//!   (Pollaczek–Khinchine), M/M/c (Erlang C), Little's-law helpers.
//! * [`ps`] — an event-driven **processor-sharing server** (virtual-time
//!   algorithm, O(log n) per event) so every formula can be checked against
//!   a running system.
//! * [`rr`] — an explicit **round-robin quantum server** (the discipline the
//!   paper names); converges to PS as the quantum shrinks.
//! * [`fifo`] — an M/G/1-FIFO server used as the ablation baseline: FIFO is
//!   *not* insensitive to the service distribution, PS is — exactly why the
//!   paper's analysis needs PS.
//! * [`table`] — many PS and FIFO servers in one [`ServerTable`]: flat
//!   per-server scalars and one pooled job family, so a network of
//!   thousands of links owns no per-link object or heap block. Its PS
//!   servers run the same virtual clock as [`PsServer`] (see [`ps`]), and
//!   its FIFO servers compute the same completion times as [`FifoServer`].
//! * [`driver`] — a harness that feeds an arrival trace through any
//!   [`Server`] and records per-job response times.
//!
//! Processor sharing therefore has two job containers — [`PsServer`]'s own
//! min-heap and the table's pooled pairing heaps — and one clock.
//!
//! Departures come out through a buffer the owner passes in:
//! [`Server::on_event`] and [`ServerTable::on_event`] append the jobs that
//! completed and leave earlier entries alone, so an owner that clears and
//! reuses one buffer handles every event without allocating.

pub mod driver;
pub mod fifo;
pub mod ps;
pub mod rr;
pub mod table;
pub mod theory;

pub use driver::{drive, Departure};
pub use fifo::FifoServer;
pub use ps::PsServer;
pub use rr::RrServer;
pub use table::{Discipline, ServerTable};

/// A completed job: when it finished and the caller's tag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion<T> {
    pub time: f64,
    pub tag: T,
}

/// A work-conserving single-server queue processing `work` units at a fixed
/// capacity, under some scheduling discipline.
///
/// The server is a *passive* state machine: the owner (a discrete-event
/// engine or the [`driver`]) tells it when jobs arrive and asks when it next
/// needs attention. The contract:
///
/// 1. `arrive` and `on_event` must be called with non-decreasing times;
/// 2. the owner must call `on_event(t, out)` at exactly `t = next_event()`
///    before advancing past it (arrivals in between are allowed and
///    invalidate the previous `next_event`);
/// 3. `on_event` appends the completions to the owner's `out` buffer and
///    never reads, reorders or removes what `out` already holds.
pub trait Server<T> {
    /// A job of `work` units arrives at time `t`.
    fn arrive(&mut self, t: f64, work: f64, tag: T);

    /// The next time the server needs attention (a departure or an internal
    /// reschedule), or `None` when idle.
    fn next_event(&self) -> Option<f64>;

    /// Handles the event at `t` (must equal `next_event()`), appending any
    /// jobs that completed at `t` to `out`.
    fn on_event(&mut self, t: f64, out: &mut Vec<Completion<T>>);

    /// Number of jobs currently in the system.
    fn in_system(&self) -> usize;

    /// Total busy time (at least one job present) up to the last update.
    fn busy_time(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts jobs of `works` together at t = 0 (tags `job-<i>`, owned
    /// strings) and drains `server` into one buffer that already holds an
    /// earlier entry, checking the [`Server::on_event`] contract at every
    /// event. Returns the tags of each event that completed anything.
    fn drain_all(server: &mut impl Server<String>, works: &[f64]) -> Vec<Vec<String>> {
        for (i, &w) in works.iter().enumerate() {
            server.arrive(0.0, w, format!("job-{i}"));
        }
        let mut out = vec![Completion { time: -1.0, tag: "earlier".to_string() }];
        let mut groups = Vec::new();
        while let Some(t) = server.next_event() {
            let before = out.clone();
            server.on_event(t, &mut out);
            assert_eq!(out[..before.len()], before[..], "on_event touched earlier entries");
            let new = &out[before.len()..];
            assert!(new.iter().all(|c| c.time == t), "completions stamped with the event time");
            if !new.is_empty() {
                groups.push(new.iter().map(|c| c.tag.clone()).collect());
            }
        }
        assert_eq!(server.in_system(), 0, "the final drain empties the server");
        assert_eq!(out.len(), works.len() + 1);
        groups
    }

    #[test]
    fn on_event_appends_to_the_callers_buffer() {
        let works = [2.0, 1.0, 2.0, 1.0];
        // PS: the two short jobs share one finish virtual time and leave in
        // one event, ordered by arrival sequence; then the two long ones.
        assert_eq!(
            drain_all(&mut PsServer::new(1.0), &works),
            [["job-1", "job-3"], ["job-0", "job-2"]]
        );
        assert_eq!(
            drain_all(&mut FifoServer::new(1.0), &works),
            [["job-0"], ["job-1"], ["job-2"], ["job-3"]]
        );
        // Half-second quanta: the short jobs finish in the second round.
        assert_eq!(
            drain_all(&mut RrServer::new(1.0, 0.5), &works),
            [["job-1"], ["job-3"], ["job-0"], ["job-2"]]
        );
    }
}
