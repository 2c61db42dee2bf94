//! Round-robin quantum server.
//!
//! The paper's §2.1 calls the shared network "an M/G/1 round-robin queueing
//! system" and then uses the processor-sharing limit. This module implements
//! the *actual* Kleinrock round-robin discipline: the server serves the job
//! at the head of a cyclic queue for up to one quantum `q` of service time,
//! then rotates it to the tail. As `q → 0`, response times converge to PS —
//! experiment E10 demonstrates the convergence rate.

use crate::{Completion, Server};
use std::collections::VecDeque;

struct RrJob<T> {
    remaining: f64, // work units
    tag: T,
}

/// Work-conserving round-robin server with a fixed service quantum.
pub struct RrServer<T> {
    capacity: f64,
    /// Quantum in *seconds of service*.
    quantum: f64,
    tnow: f64,
    queue: VecDeque<RrJob<T>>,
    /// End of the current slice, if a job is in service.
    slice_end: Option<f64>,
    /// Work that the current slice will deliver.
    slice_work: f64,
    busy: f64,
}

impl<T> RrServer<T> {
    pub fn new(capacity: f64, quantum: f64) -> Self {
        assert!(capacity > 0.0 && quantum > 0.0);
        RrServer {
            capacity,
            quantum,
            tnow: 0.0,
            queue: VecDeque::new(),
            slice_end: None,
            slice_work: 0.0,
            busy: 0.0,
        }
    }

    fn start_slice(&mut self) {
        if let Some(head) = self.queue.front() {
            let slice_work = head.remaining.min(self.quantum * self.capacity);
            self.slice_work = slice_work;
            self.slice_end = Some(self.tnow + slice_work / self.capacity);
        } else {
            self.slice_end = None;
            self.slice_work = 0.0;
        }
    }
}

impl<T> Server<T> for RrServer<T> {
    fn arrive(&mut self, t: f64, work: f64, tag: T) {
        assert!(work > 0.0);
        debug_assert!(t >= self.tnow - 1e-9);
        self.queue.push_back(RrJob { remaining: work, tag });
        // An arrival behind a running slice leaves the clock alone: the
        // slice's busy interval accrues when it ends.
        if self.slice_end.is_none() {
            self.tnow = t;
            self.start_slice();
        }
    }

    fn next_event(&self) -> Option<f64> {
        self.slice_end
    }

    fn on_event(&mut self, t: f64, out: &mut Vec<Completion<T>>) {
        debug_assert!(self.slice_end.is_some(), "on_event with no slice running");
        debug_assert!((t - self.slice_end.unwrap()).abs() < 1e-6);
        self.busy += t - self.tnow;
        self.tnow = t;
        let mut head = self.queue.pop_front().expect("slice implies a head job");
        head.remaining -= self.slice_work;
        if head.remaining <= 1e-9 {
            out.push(Completion { time: t, tag: head.tag });
        } else {
            self.queue.push_back(head);
        }
        self.start_slice();
    }

    fn in_system(&self) -> usize {
        self.queue.len()
    }

    fn busy_time(&self) -> f64 {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cap: f64, quantum: f64, arrivals: &[(f64, f64)]) -> Vec<(usize, f64)> {
        let mut server = RrServer::new(cap, quantum);
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
    fn single_job_unaffected_by_quantum() {
        for q in [10.0, 1.0, 0.1] {
            let out = run(2.0, q, &[(0.0, 10.0)]);
            assert_eq!(out.len(), 1);
            assert!((out[0].1 - 5.0).abs() < 1e-9, "quantum {q}");
        }
    }

    #[test]
    fn alternation_with_two_jobs() {
        // Capacity 1, quantum 1s. Jobs A(2) and B(2) at t=0.
        // Slices: A[0,1) B[1,2) A[2,3)→done B[3,4)→done.
        let out = run(1.0, 1.0, &[(0.0, 2.0), (0.0, 2.0)]);
        let a = out.iter().find(|(tag, _)| *tag == 0).unwrap().1;
        let b = out.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        assert!((a - 3.0).abs() < 1e-9, "A departs {a}");
        assert!((b - 4.0).abs() < 1e-9, "B departs {b}");
    }

    #[test]
    fn short_job_not_stuck_behind_long() {
        // Unlike FIFO, RR lets the short job finish early.
        let out = run(1.0, 0.5, &[(0.0, 100.0), (0.0, 1.0)]);
        let long = out.iter().find(|(tag, _)| *tag == 0).unwrap().1;
        let short = out.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        assert!(short < 3.0, "short departs {short}");
        assert!(long > 100.0, "long departs {long}");
    }

    #[test]
    fn large_quantum_degenerates_to_fifo() {
        // Quantum larger than any job: pure FIFO order.
        let out = run(1.0, 1000.0, &[(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)]);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
        assert_eq!(out[2].0, 2);
        assert!((out[0].1 - 3.0).abs() < 1e-9);
        assert!((out[1].1 - 4.0).abs() < 1e-9);
        assert!((out[2].1 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn work_is_conserved() {
        let arrivals: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 0.1, 1.0)).collect();
        let out = run(2.0, 0.25, &arrivals);
        assert_eq!(out.len(), 20);
        let last = out.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        // 20 units of work at capacity 2 with no idling after t=0: ends at ≥ 10.
        assert!(last >= 10.0 - 1e-9, "last departure {last}");
    }

    #[test]
    fn busy_time_counts_the_slice_before_a_queued_arrival() {
        // Capacity 1, quantum 0.75: the two jobs of 1.0 keep the server
        // busy from 0 to 2 although the second joins mid-slice at 0.5.
        let mut server = RrServer::new(1.0, 0.75);
        server.arrive(0.0, 1.0, 0usize);
        server.arrive(0.5, 1.0, 1usize);
        while let Some(t) = server.next_event() {
            server.on_event(t, &mut Vec::new());
        }
        assert_eq!(server.busy_time(), 2.0);
    }
}
