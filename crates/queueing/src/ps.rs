//! Event-driven processor-sharing server.
//!
//! Implements egalitarian PS with the classic **virtual-time** algorithm.
//! The virtual time `V(t)` advances at rate `capacity / k(t)` where `k(t)`
//! is the number of jobs present: it measures the cumulative work received
//! by any one job. A job arriving at real time `t` with `w` units of work
//! finishes when `V` reaches `V(t) + w`. Because all jobs drain at the same
//! rate, departure order is arrival-`V` plus work — a min-heap on the finish
//! virtual time gives O(log n) arrivals and departures, independent of how
//! many service-rate changes occur in between (a naive implementation is
//! O(n) per event).
//!
//! Each job's tag lives in its heap entry, beside the `(finish_v, seq)`
//! key the heap orders by, so a departure pops the tag with the key and
//! the server keeps no second per-job table.

use crate::{Completion, Server};
use simcore::stats::TimeWeighted;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One job in service, ordered by `(finish_v, seq)` alone: `seq` is unique
/// per server, so the tag never takes part in a comparison.
struct PsEntry<T> {
    finish_v: f64,
    seq: u64,
    tag: T,
}

impl<T> PartialEq for PsEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.finish_v == other.finish_v && self.seq == other.seq
    }
}
impl<T> Eq for PsEntry<T> {}
impl<T> PartialOrd for PsEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for PsEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour inside BinaryHeap.
        other.finish_v.total_cmp(&self.finish_v).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An M/G/1-PS-capable server: jobs share `capacity` equally.
///
/// ```
/// use queueing::{PsServer, Server};
///
/// let mut server = PsServer::new(2.0); // 2 work-units per second
/// server.arrive(0.0, 4.0, "a");        // alone: rate 2 → would finish at t=2
/// server.arrive(1.0, 1.0, "b");        // now sharing: rate 1 each
/// // "b" needs 1 unit at rate 1 → done at t=2; "a" then finishes at t=2.5.
/// let mut done = Vec::new();
/// let t = server.next_event().unwrap();
/// assert!((t - 2.0).abs() < 1e-9);
/// server.on_event(t, &mut done);
/// let t = server.next_event().unwrap();
/// assert!((t - 2.5).abs() < 1e-9);
/// server.on_event(t, &mut done);
/// assert_eq!(done.iter().map(|c| c.tag).collect::<Vec<_>>(), ["b", "a"]);
/// ```
pub struct PsServer<T> {
    capacity: f64,
    tnow: f64,
    vnow: f64,
    heap: BinaryHeap<PsEntry<T>>,
    next_seq: u64,
    busy: f64,
    work_done: f64,
    in_system: TimeWeighted,
    revision: u64,
}

impl<T> PsServer<T> {
    /// A PS server processing `capacity` work-units per second in total.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        PsServer {
            capacity,
            tnow: 0.0,
            vnow: 0.0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            busy: 0.0,
            work_done: 0.0,
            in_system: TimeWeighted::new(),
            revision: 0,
        }
    }

    /// Changes the service capacity at time `t` — a time-varying link
    /// (e.g. a wireless channel alternating between good and bad states).
    ///
    /// The contract extends the [`Server`] one: the owner must process any
    /// departure scheduled before `t` first (capacity changes invalidate
    /// previously computed `next_event` times, so re-query afterwards).
    pub fn set_capacity(&mut self, t: f64, capacity: f64) {
        assert!(capacity > 0.0, "capacity must stay positive");
        self.advance_clock(t);
        self.capacity = capacity;
        self.revision += 1;
    }

    /// Cumulative work completed (units).
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// Time-average number of jobs in the system over `[0, t_end]`.
    pub fn mean_in_system(&self, t_end: f64) -> f64 {
        self.in_system.time_average(t_end)
    }

    /// Measured utilisation (busy fraction) over `[0, t_end]`.
    pub fn utilisation(&self, t_end: f64) -> f64 {
        if t_end <= 0.0 {
            0.0
        } else {
            // Busy time through tnow; the server state is unchanged after.
            let extra = if !self.heap.is_empty() { t_end - self.tnow } else { 0.0 };
            (self.busy + extra.max(0.0)) / t_end
        }
    }

    /// Advances the internal clock to `t`, accruing virtual time. Must not
    /// skip over a pending departure (the `Server` contract).
    fn advance_clock(&mut self, t: f64) {
        debug_assert!(t >= self.tnow - 1e-9, "time went backwards: {t} < {}", self.tnow);
        let dt = (t - self.tnow).max(0.0);
        let k = self.heap.len();
        if k > 0 && dt > 0.0 {
            let dv = self.capacity * dt / k as f64;
            debug_assert!(
                self.heap.peek().map(|e| self.vnow + dv <= e.finish_v + 1e-6).unwrap_or(true),
                "advanced past a departure"
            );
            self.vnow += dv;
            self.busy += dt;
            self.work_done += self.capacity * dt;
        }
        self.tnow = t;
    }
}

impl<T> Server<T> for PsServer<T> {
    fn arrive(&mut self, t: f64, work: f64, tag: T) {
        assert!(work > 0.0, "job work must be positive");
        self.advance_clock(t);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(PsEntry { finish_v: self.vnow + work, seq, tag });
        self.in_system.set(t, self.heap.len() as f64);
        // Every arrival changes the sharing rate, so every departure moves.
        self.revision += 1;
    }

    fn next_event(&self) -> Option<f64> {
        self.heap.peek().map(|e| {
            let remaining_v = (e.finish_v - self.vnow).max(0.0);
            self.tnow + remaining_v * self.heap.len() as f64 / self.capacity
        })
    }

    fn on_event(&mut self, t: f64, out: &mut Vec<Completion<T>>) {
        self.advance_clock(t);
        // Pop every job whose finish virtual time has been reached
        // (simultaneous departures share the same finish_v up to fp noise).
        while let Some(top) = self.heap.peek() {
            if top.finish_v <= self.vnow + 1e-9 {
                let e = self.heap.pop().expect("peeked entry");
                // Snap virtual time to the departure point to stop drift.
                if e.finish_v > self.vnow {
                    self.vnow = e.finish_v;
                }
                out.push(Completion { time: t, tag: e.tag });
            } else {
                break;
            }
        }
        self.in_system.set(t, self.heap.len() as f64);
        self.revision += 1;
    }

    fn in_system(&self) -> usize {
        self.heap.len()
    }

    fn busy_time(&self) -> f64 {
        self.busy
    }

    fn revision(&self) -> u64 {
        self.revision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the server on a fixed arrival list, returning (tag, departure).
    fn run_to_completion(cap: f64, arrivals: &[(f64, f64)]) -> Vec<(usize, f64)> {
        let mut server = PsServer::new(cap);
        let mut out = Vec::new();
        let mut done = Vec::new();
        let mut i = 0;
        loop {
            let next_arrival = arrivals.get(i).map(|a| a.0);
            match (server.next_event(), next_arrival) {
                (Some(te), Some(ta)) if te <= ta => {
                    server.on_event(te, &mut done);
                    out.extend(done.drain(..).map(|c| (c.tag, c.time)));
                }
                (_, Some(ta)) => {
                    server.arrive(ta, arrivals[i].1, i);
                    i += 1;
                }
                (Some(te), None) => {
                    server.on_event(te, &mut done);
                    out.extend(done.drain(..).map(|c| (c.tag, c.time)));
                }
                (None, None) => break,
            }
        }
        out
    }

    #[test]
    fn single_job_full_rate() {
        // One job of 10 units at capacity 5 → departs at t = 2.
        let out = run_to_completion(5.0, &[(0.0, 10.0)]);
        assert_eq!(out.len(), 1);
        assert!((out[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_equal_jobs_share_equally() {
        // Two jobs of 10 units arrive together at capacity 10:
        // each gets rate 5, both finish at t = 2.
        let out = run_to_completion(10.0, &[(0.0, 10.0), (0.0, 10.0)]);
        assert_eq!(out.len(), 2);
        for &(_, t) in &out {
            assert!((t - 2.0).abs() < 1e-9, "departure {t}");
        }
    }

    #[test]
    fn hand_computed_staggered_arrivals() {
        // Capacity 1. Job A (work 3) at t=0; job B (work 1) at t=1.
        // [0,1): A alone, A gets 1 unit (2 left).
        // [1,?): both share rate 1/2. B needs 1 unit → 2 seconds → B departs t=3
        //        (A also has 2 left, same finish v; both depart at t=3... check:
        //        at t=1, V=1. A finish_v = 3, B finish_v = 1+1 = 2.
        //        dV/dt = 1/2. B departs when V=2 → t=3. A remaining v=1, alone
        //        → dV/dt=1 → A departs t=4.
        let out = run_to_completion(1.0, &[(0.0, 3.0), (1.0, 1.0)]);
        let mut m = std::collections::HashMap::new();
        for (tag, t) in out {
            m.insert(tag, t);
        }
        assert!((m[&1] - 3.0).abs() < 1e-9, "B departs {}", m[&1]);
        assert!((m[&0] - 4.0).abs() < 1e-9, "A departs {}", m[&0]);
    }

    #[test]
    fn short_job_overtakes_long_job() {
        // PS lets short jobs pass long ones (no head-of-line blocking).
        let out = run_to_completion(1.0, &[(0.0, 100.0), (1.0, 1.0)]);
        let b = out.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        let a = out.iter().find(|(tag, _)| *tag == 0).unwrap().1;
        assert!(b < a, "short {b} should beat long {a}");
        assert!((b - 3.0).abs() < 1e-9);
    }

    #[test]
    fn work_conservation() {
        let arrivals: Vec<(f64, f64)> =
            (0..50).map(|i| (i as f64 * 0.3, 1.0 + (i % 5) as f64)).collect();
        let total_work: f64 = arrivals.iter().map(|a| a.1).sum();
        let mut server = PsServer::new(2.0);
        let mut done = Vec::new();
        let mut i = 0;
        let mut last_t = 0.0;
        loop {
            let next_arrival = arrivals.get(i).map(|a| a.0);
            match (server.next_event(), next_arrival) {
                (Some(te), Some(ta)) if te <= ta => {
                    last_t = te;
                    server.on_event(te, &mut done);
                }
                (_, Some(ta)) => {
                    server.arrive(ta, arrivals[i].1, i);
                    i += 1;
                }
                (Some(te), None) => {
                    last_t = te;
                    server.on_event(te, &mut done);
                }
                (None, None) => break,
            }
        }
        assert!((server.work_done() - total_work).abs() < 1e-6);
        assert_eq!(server.in_system(), 0);
        // Busy time = work/capacity only if never idle; here it may idle, so ≥.
        assert!(server.busy_time() * 2.0 >= total_work - 1e-6);
        assert!(last_t >= total_work / 2.0 - 1e-6);
    }

    #[test]
    fn simultaneous_departures() {
        // Three identical jobs arriving together depart together.
        let out = run_to_completion(3.0, &[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(out.len(), 3);
        for &(_, t) in &out {
            assert!((t - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn utilisation_measurement() {
        // One job of work 5 at capacity 1, observed over 10 seconds → 50% busy.
        let mut server = PsServer::new(1.0);
        server.arrive(0.0, 5.0, 0usize);
        let t = server.next_event().unwrap();
        assert!((t - 5.0).abs() < 1e-9);
        server.on_event(t, &mut Vec::new());
        assert!((server.utilisation(10.0) - 0.5).abs() < 1e-9);
        assert!((server.mean_in_system(10.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_change_mid_job() {
        // Work 10 at capacity 10: would finish at t = 1. Halve the
        // capacity at t = 0.5 (5 units done): the remaining 5 units take
        // 1 more second → departs at 1.5.
        let mut server = PsServer::new(10.0);
        server.arrive(0.0, 10.0, 0usize);
        server.set_capacity(0.5, 5.0);
        let t = server.next_event().unwrap();
        assert!((t - 1.5).abs() < 1e-9, "departure {t}");
        let mut done = Vec::new();
        server.on_event(t, &mut done);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn capacity_change_with_multiple_jobs() {
        // Two equal jobs of 10 units at capacity 10 (rate 5 each). At t=1
        // each has 5 left; capacity drops to 2 (rate 1 each): 5 more
        // seconds → both depart at t = 6.
        let mut server = PsServer::new(10.0);
        server.arrive(0.0, 10.0, 0usize);
        server.arrive(0.0, 10.0, 1usize);
        server.set_capacity(1.0, 2.0);
        let t = server.next_event().unwrap();
        assert!((t - 6.0).abs() < 1e-9, "departure {t}");
        let mut done = Vec::new();
        server.on_event(t, &mut done);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn capacity_raise_speeds_completion() {
        let mut server = PsServer::new(1.0);
        server.arrive(0.0, 10.0, 0usize);
        server.set_capacity(1.0, 9.0); // 9 units left? no: 1 done, 9 left at rate 9
        let t = server.next_event().unwrap();
        assert!((t - 2.0).abs() < 1e-9, "departure {t}");
    }

    #[test]
    fn every_arrival_moves_the_revision() {
        // PS resharing shifts every departure on each arrival, so the
        // revision must move every time.
        let mut server = PsServer::new(1.0);
        let r0 = server.revision();
        server.arrive(0.0, 2.0, 0usize);
        let r1 = server.revision();
        assert!(r1 > r0);
        server.arrive(0.5, 1.0, 1usize);
        let r2 = server.revision();
        assert!(r2 > r1, "a second arrival reshuffles departures");
        let t = server.next_event().unwrap();
        server.on_event(t, &mut Vec::new());
        assert!(server.revision() > r2);
    }

    #[test]
    fn slot_reuse_does_not_corrupt_tags() {
        let mut server = PsServer::new(1.0);
        let mut done = Vec::new();
        server.arrive(0.0, 1.0, "a");
        let t1 = server.next_event().unwrap();
        server.on_event(t1, &mut done);
        server.arrive(2.0, 1.0, "b");
        server.arrive(2.0, 2.0, "c");
        let t2 = server.next_event().unwrap();
        server.on_event(t2, &mut done);
        let t3 = server.next_event().unwrap();
        server.on_event(t3, &mut done);
        assert_eq!(done.iter().map(|c| c.tag).collect::<Vec<_>>(), ["a", "b", "c"]);
    }
}
