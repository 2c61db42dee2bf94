//! Many single servers in one table: the link servers of a simulated
//! network, without an object or a heap block per server.
//!
//! A [`ServerTable`] holds each server's scalars — capacity, clock,
//! virtual time, busy time, job count, carried bytes, completed jobs and
//! a stale-timer flag — in one flat `Vec`, and every server's jobs in one
//! pooled [`TimedHeaps`] family, one pairing heap per server, whose
//! payloads are the owner's `u32` tags. An idle server costs its row and
//! an empty root; a job costs one pool node, reused by the next arrival
//! anywhere in the table. A push is O(1) and a pop O(log n) amortised, so
//! an overloaded link thousands of jobs deep stays cheap per job.
//!
//! * **Processor sharing** keys each job by `(finish_v, seq)`, the order
//!   [`PsServer`](crate::PsServer) keeps in its heap, and runs the same
//!   virtual-clock arithmetic ([`crate::ps`]), so a table server departs
//!   the same tags at the same float times as a standalone `PsServer`.
//! * **FIFO** keys each job by its completion time, known on arrival:
//!   `(idle ? t : last completion) + work / capacity`, the float
//!   [`FifoServer`](crate::FifoServer) computes when the job reaches the
//!   head. An event departs the head alone, as `FifoServer` does.
//!
//! `seq` is one counter for the whole table, so jobs of one server keep
//! their arrival order on equal keys.

use crate::ps::VirtualClock;
use crate::Completion;
use simcore::sched::{Scheduler, TimedHeaps};

/// Scheduling discipline of one server of a [`ServerTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Processor sharing — the paper's model (insensitive to size dist).
    ProcessorSharing,
    /// First-in-first-out — the ablation discipline.
    Fifo,
}

/// One server's scalars (56 bytes).
#[derive(Clone, Copy, Debug)]
struct Row {
    capacity: f64,
    /// Processor sharing: the virtual clock. FIFO: `t` is when the server
    /// last went busy or finished a job, `v` the completion time of the
    /// last job queued.
    clock: VirtualClock,
    bytes_carried: f64,
    jobs_completed: u64,
    in_system: u32,
    /// The next event may have moved since [`ServerTable::sync_timer`]
    /// last mirrored it.
    stale: bool,
    discipline: Discipline,
}

/// A table of single servers, each processing `work` units at a fixed
/// capacity under its own [`Discipline`], addressed by index.
///
/// Each server follows the [`crate::Server`] contract: arrivals and
/// events come in non-decreasing time, and the owner fires
/// [`ServerTable::on_event`] at exactly [`ServerTable::next_event`].
///
/// ```
/// use queueing::table::{Discipline, ServerTable};
///
/// let servers = [(2.0, Discipline::ProcessorSharing), (1.0, Discipline::Fifo)];
/// let mut table = ServerTable::new(servers);
/// table.arrive(0, 0.0, 4.0, 10); // alone at rate 2: would finish at t = 2
/// table.arrive(0, 1.0, 1.0, 11); // now sharing at rate 1 each
/// table.arrive(1, 0.0, 1.0, 20);
/// table.arrive(1, 0.0, 1.0, 21); // queued behind 20
/// let mut done = Vec::new();
/// for (s, t) in [(1, 1.0), (0, 2.0), (1, 2.0), (0, 2.5)] {
///     assert_eq!(table.next_event(s), Some(t));
///     table.on_event(s, t, &mut done);
/// }
/// assert_eq!(done.iter().map(|c| c.tag).collect::<Vec<_>>(), [20, 11, 21, 10]);
/// assert_eq!((table.busy_time(0), table.busy_time(1)), (2.5, 2.0));
/// ```
#[derive(Debug)]
pub struct ServerTable {
    rows: Vec<Row>,
    /// Every server's jobs, one heap per server, tags as payloads.
    jobs: TimedHeaps<u32>,
    next_seq: u64,
}

impl ServerTable {
    /// One idle server per `(capacity, discipline)`, in order.
    pub fn new(servers: impl IntoIterator<Item = (f64, Discipline)>) -> Self {
        let rows: Vec<Row> = servers
            .into_iter()
            .map(|(capacity, discipline)| {
                assert!(capacity > 0.0, "capacity must be positive");
                Row {
                    capacity,
                    clock: VirtualClock::default(),
                    bytes_carried: 0.0,
                    jobs_completed: 0,
                    in_system: 0,
                    stale: false,
                    discipline,
                }
            })
            .collect();
        let jobs = TimedHeaps::new(rows.len());
        ServerTable { rows, jobs, next_seq: 0 }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A job of `work` units, tagged `tag`, arrives at server `s` at `t`.
    pub fn arrive(&mut self, s: usize, t: f64, work: f64, tag: u32) {
        assert!(work > 0.0, "job work must be positive");
        let seq = self.next_seq;
        self.next_seq += 1;
        let row = &mut self.rows[s];
        let key = match row.discipline {
            Discipline::ProcessorSharing => {
                let jobs = &self.jobs;
                row.clock.advance(t, row.in_system as usize, row.capacity, || jobs.next_time(s));
                // Every arrival changes the sharing rate, so every
                // departure moves.
                row.stale = true;
                row.clock.v + work
            }
            Discipline::Fifo => {
                debug_assert!(t >= row.clock.t - 1e-9, "time went backwards");
                let start = if row.in_system == 0 {
                    // Joining a busy queue leaves the head's departure
                    // alone; starting an idle server sets it.
                    row.clock.t = t;
                    row.stale = true;
                    t
                } else {
                    row.clock.v
                };
                row.clock.v = start + work / row.capacity;
                row.clock.v
            }
        };
        row.in_system += 1;
        self.jobs.push(s, key, seq, tag);
    }

    /// When server `s` next completes a job, or `None` when idle.
    pub fn next_event(&self, s: usize) -> Option<f64> {
        let head = self.jobs.next_time(s)?;
        let row = &self.rows[s];
        Some(match row.discipline {
            Discipline::ProcessorSharing => {
                row.clock.departure(head, row.in_system as usize, row.capacity)
            }
            Discipline::Fifo => head,
        })
    }

    /// Handles server `s`'s event at `t` (which must equal
    /// [`ServerTable::next_event`]), appending the jobs that completed to
    /// `out` and leaving earlier entries alone.
    pub fn on_event(&mut self, s: usize, t: f64, out: &mut Vec<Completion<u32>>) {
        let row = &mut self.rows[s];
        let before = out.len();
        match row.discipline {
            Discipline::ProcessorSharing => {
                let jobs = &self.jobs;
                row.clock.advance(t, row.in_system as usize, row.capacity, || jobs.next_time(s));
                while let Some(finish_v) = self.jobs.next_time(s) {
                    if !row.clock.departs(finish_v) {
                        break;
                    }
                    let tag = self.jobs.pop(s).expect("a head entry");
                    out.push(Completion { time: t, tag });
                }
            }
            Discipline::Fifo => {
                debug_assert!(self.jobs.next_time(s).is_some_and(|done| (t - done).abs() < 1e-6));
                row.clock.busy += t - row.clock.t;
                row.clock.t = t;
                let tag = self.jobs.pop(s).expect("a job in service");
                out.push(Completion { time: t, tag });
            }
        }
        let n = out.len() - before;
        row.in_system -= n as u32;
        row.jobs_completed += n as u64;
        row.stale = true;
    }

    /// Mirrors server `s`'s next event into `sched` under `key` — a no-op
    /// unless an arrival or event since the last sync may have moved it,
    /// so an arrival that joins a busy FIFO queue costs no timer work.
    pub fn sync_timer(&mut self, s: usize, sched: &mut Scheduler, key: usize) {
        if !std::mem::take(&mut self.rows[s].stale) {
            return;
        }
        sched.sync(key, self.next_event(s));
    }

    /// Credits `bytes` to server `s`'s carried total; the owner calls it
    /// once per departure it settles.
    pub fn carry(&mut self, s: usize, bytes: f64) {
        self.rows[s].bytes_carried += bytes;
    }

    /// Jobs at server `s`, in service or queued.
    pub fn in_system(&self, s: usize) -> usize {
        self.rows[s].in_system as usize
    }

    /// Server `s`'s busy time (at least one job present) up to its last
    /// arrival or event.
    pub fn busy_time(&self, s: usize) -> f64 {
        self.rows[s].clock.busy
    }

    /// Bytes credited to server `s` by [`ServerTable::carry`].
    pub fn bytes_carried(&self, s: usize) -> f64 {
        self.rows[s].bytes_carried
    }

    /// Jobs server `s` has completed.
    pub fn jobs_completed(&self, s: usize) -> u64 {
        self.rows[s].jobs_completed
    }

    /// The job family: one heap per server, pooled. Exposed read-only
    /// for audits (every node free once all servers drain).
    pub fn jobs(&self) -> &TimedHeaps<u32> {
        &self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_fits_in_64_bytes() {
        assert!(std::mem::size_of::<Row>() <= 64, "{}", std::mem::size_of::<Row>());
    }

    #[test]
    fn a_fifo_arrival_to_a_busy_server_leaves_the_timer_alone() {
        let mut table = ServerTable::new([(1.0, Discipline::Fifo)]);
        let mut sched = Scheduler::with_timers(1);
        assert!(!table.rows[0].stale);
        table.arrive(0, 0.0, 2.0, 0);
        assert!(table.rows[0].stale, "the first arrival starts the head");
        table.sync_timer(0, &mut sched, 0);
        assert_eq!((sched.armed(0), sched.arms()), (Some(2.0), 1));
        table.arrive(0, 0.5, 1.0, 1);
        assert!(!table.rows[0].stale, "joining a busy queue leaves next_event alone");
        table.sync_timer(0, &mut sched, 0);
        assert_eq!(sched.arms(), 1);
        table.on_event(0, 2.0, &mut Vec::new());
        assert!(table.rows[0].stale, "a departure starts the next head");
        table.sync_timer(0, &mut sched, 0);
        assert_eq!((sched.armed(0), sched.arms()), (Some(3.0), 2));
    }

    #[test]
    fn every_ps_arrival_rearms_the_timer() {
        // PS resharing shifts every departure on each arrival.
        let mut table = ServerTable::new([(1.0, Discipline::ProcessorSharing)]);
        let mut sched = Scheduler::with_timers(1);
        table.arrive(0, 0.0, 2.0, 0);
        assert!(table.rows[0].stale);
        table.sync_timer(0, &mut sched, 0);
        assert_eq!(sched.armed(0), Some(2.0));
        table.arrive(0, 0.5, 1.0, 1);
        assert!(table.rows[0].stale, "a second arrival reshuffles departures");
        table.sync_timer(0, &mut sched, 0);
        assert!(!table.rows[0].stale);
        // 1.5 units left of job 0 and 1.0 of job 1 at rate 1/2: job 1
        // leaves at 2.5.
        assert_eq!((sched.armed(0), sched.arms()), (Some(2.5), 2));
        table.on_event(0, 2.5, &mut Vec::new());
        assert!(table.rows[0].stale, "a departure speeds up the rest");
    }
}
