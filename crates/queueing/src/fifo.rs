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
    /// When the server last went from idle to busy or finished a job:
    /// busy time accrues from here at the next departure.
    tnow: f64,
    queue: VecDeque<FifoJob<T>>,
    /// Completion time of the job in service (the queue head).
    head_done: Option<f64>,
    busy: f64,
}

impl<T> FifoServer<T> {
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0);
        FifoServer { capacity, tnow: 0.0, queue: VecDeque::new(), head_done: None, busy: 0.0 }
    }

    fn start_head(&mut self) {
        self.head_done = self.queue.front().map(|job| self.tnow + job.work / self.capacity);
    }
}

impl<T> Server<T> for FifoServer<T> {
    fn arrive(&mut self, t: f64, work: f64, tag: T) {
        assert!(work > 0.0);
        debug_assert!(t >= self.tnow - 1e-9);
        self.queue.push_back(FifoJob { work, tag });
        // Joining a busy queue leaves the clock alone: the busy interval
        // since the last departure accrues at the next one.
        if self.head_done.is_none() {
            self.tnow = t;
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

    #[test]
    fn busy_time_counts_the_interval_before_a_queued_arrival() {
        // Capacity 1: the first job runs over [0, 1], the second (queued
        // at 0.5) over [1, 2] — two busy seconds, none idle.
        let mut server = FifoServer::new(1.0);
        server.arrive(0.0, 1.0, 0usize);
        server.arrive(0.5, 1.0, 1usize);
        while let Some(t) = server.next_event() {
            server.on_event(t, &mut Vec::new());
        }
        assert_eq!(server.busy_time(), 2.0);
    }
}
