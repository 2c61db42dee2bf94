//! First-in-first-out server (M/G/1-FIFO when fed Poisson arrivals).
//!
//! The ablation baseline for experiment E10: FIFO response times depend on
//! the service-time *second moment* (Pollaczek–Khinchine), so heavy-tailed
//! sizes behave qualitatively differently than under processor sharing.

use crate::{Completion, Server};
use std::collections::VecDeque;

struct FifoJob<T> {
    work: f64,
    tag: T,
}

/// Non-preemptive FIFO single server.
pub struct FifoServer<T> {
    capacity: f64,
    tnow: f64,
    queue: VecDeque<FifoJob<T>>,
    /// Completion time of the job in service (the queue head).
    head_done: Option<f64>,
    busy: f64,
    revision: u64,
}

impl<T> FifoServer<T> {
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0);
        FifoServer {
            capacity,
            tnow: 0.0,
            queue: VecDeque::new(),
            head_done: None,
            busy: 0.0,
            revision: 0,
        }
    }

    fn start_head(&mut self) {
        self.head_done = self.queue.front().map(|job| self.tnow + job.work / self.capacity);
        self.revision += 1;
    }
}

impl<T> Server<T> for FifoServer<T> {
    fn arrive(&mut self, t: f64, work: f64, tag: T) {
        assert!(work > 0.0);
        debug_assert!(t >= self.tnow - 1e-9);
        self.tnow = t;
        self.queue.push_back(FifoJob { work, tag });
        if self.head_done.is_none() {
            self.start_head();
        }
    }

    fn next_event(&self) -> Option<f64> {
        self.head_done
    }

    fn on_event(&mut self, t: f64, out: &mut Vec<Completion<T>>) {
        debug_assert!(self.head_done.is_some());
        debug_assert!((t - self.head_done.unwrap()).abs() < 1e-6);
        self.busy += t - self.tnow;
        self.tnow = t;
        let job = self.queue.pop_front().expect("job in service");
        self.start_head();
        out.push(Completion { time: t, tag: job.tag });
    }

    fn in_system(&self) -> usize {
        self.queue.len()
    }

    fn busy_time(&self) -> f64 {
        self.busy
    }

    /// Only moves when the head (and therefore `next_event`) changes: an
    /// arrival that joins a busy queue leaves the revision alone.
    fn revision(&self) -> u64 {
        self.revision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cap: f64, arrivals: &[(f64, f64)]) -> Vec<(usize, f64)> {
        let mut server = FifoServer::new(cap);
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
    fn serves_in_arrival_order() {
        let out = run(1.0, &[(0.0, 2.0), (0.5, 1.0), (0.6, 1.0)]);
        assert_eq!(out.iter().map(|&(tag, _)| tag).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!((out[0].1 - 2.0).abs() < 1e-9);
        assert!((out[1].1 - 3.0).abs() < 1e-9);
        assert!((out[2].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn head_of_line_blocking() {
        // Short job waits for the long one — opposite of PS/RR.
        let out = run(1.0, &[(0.0, 100.0), (1.0, 1.0)]);
        let short = out.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        assert!((short - 101.0).abs() < 1e-9);
    }

    #[test]
    fn idle_period_between_jobs() {
        let out = run(1.0, &[(0.0, 1.0), (10.0, 1.0)]);
        assert!((out[0].1 - 1.0).abs() < 1e-9);
        assert!((out[1].1 - 11.0).abs() < 1e-9);
    }

    #[test]
    fn revision_only_moves_when_next_event_changes() {
        let mut server = FifoServer::new(1.0);
        let r0 = server.revision();
        server.arrive(0.0, 2.0, 0usize);
        let r1 = server.revision();
        assert!(r1 > r0, "first arrival starts the head");
        server.arrive(0.5, 1.0, 1usize);
        assert_eq!(server.revision(), r1, "joining a busy queue leaves next_event alone");
        let t = server.next_event().unwrap();
        server.on_event(t, &mut Vec::new());
        assert!(server.revision() > r1, "a departure starts the next head");
    }

    #[test]
    fn busy_time_accounts_idle_gaps() {
        let mut server = FifoServer::new(1.0);
        server.arrive(0.0, 1.0, 0usize);
        let t = server.next_event().unwrap();
        server.on_event(t, &mut Vec::new());
        server.arrive(5.0, 2.0, 1usize);
        let t = server.next_event().unwrap();
        server.on_event(t, &mut Vec::new());
        assert!((server.busy_time() - 3.0).abs() < 1e-9);
    }
}
