//! Differential test of [`ServerTable`] against the standalone servers:
//! several servers share one table (one job pool), each mirrored by its
//! own `PsServer<u32>` or `FifoServer<u32>`, and one random arrival
//! stream is driven through both. The table is driven the way an event
//! engine drives it — through a [`Scheduler`], re-synced with
//! `sync_timer` after every arrival and event — so a stale flag that
//! misses a moved departure shows up as a timer at the wrong time.
//!
//! At every step the table's next event, the scheduler's timer and the
//! reference server's next event agree bit for bit; every event departs
//! the same `(time bits, tag)` sequence; busy times are bit-identical;
//! and after the final drain every pool node is free.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use queueing::{Completion, Discipline, FifoServer, PsServer, Server, ServerTable};
use simcore::sched::Scheduler;

/// The reference server of one table server.
enum Reference {
    Ps(PsServer<u32>),
    Fifo(FifoServer<u32>),
}

impl Reference {
    fn server(&mut self) -> &mut dyn Server<u32> {
        match self {
            Reference::Ps(s) => s,
            Reference::Fifo(s) => s,
        }
    }
}

/// One arrival: `(server, gap since the previous arrival, work)`.
type Arrival = (usize, f64, f64);

const N_SERVERS: usize = 5;

/// Capacities on a coarse grid or continuous; disciplines mixed.
fn server_strategy() -> impl Strategy<Value = (f64, Discipline)> {
    (0u32..4, 0.1..8.0f64, 0u32..2).prop_map(|(kind, c, fifo)| {
        let capacity = match kind {
            0 => 1.0,
            1 => 2.0,
            _ => c,
        };
        let discipline = if fifo == 1 { Discipline::Fifo } else { Discipline::ProcessorSharing };
        (capacity, discipline)
    })
}

/// Gaps: often zero (same-time arrivals), often on a grid, else
/// continuous. Works: often on a grid (equal finish tags that drain in
/// one PS event), sometimes tiny (absorbed by the clock they add to).
fn arrival_strategy() -> impl Strategy<Value = Arrival> {
    (0..N_SERVERS, 0u32..10, 0.0..1.5f64, 0u32..10, 0.01..4.0f64, 0u32..8).prop_map(
        |(s, gap_kind, gap, work_kind, work, grid)| {
            let gap = match gap_kind {
                0..=3 => 0.0,
                4..=6 => 0.25 * f64::from(grid),
                _ => gap,
            };
            let work = match work_kind {
                0..=3 => 0.5 * f64::from(grid + 1),
                4 => 1e-12,
                5 => 1e-300,
                _ => work,
            };
            (s, gap, work)
        },
    )
}

fn bits(out: &[Completion<u32>]) -> Vec<(u64, u32)> {
    out.iter().map(|c| (c.time.to_bits(), c.tag)).collect()
}

/// Server `s`'s next event agrees across the table, its timer and the
/// reference.
fn check_next(
    table: &ServerTable,
    sched: &Scheduler,
    refs: &mut [Reference],
    s: usize,
) -> Result<(), TestCaseError> {
    let want = refs[s].server().next_event().map(f64::to_bits);
    prop_assert_eq!(table.next_event(s).map(f64::to_bits), want, "server {} next event", s);
    prop_assert_eq!(sched.armed(s).map(f64::to_bits), want, "server {} timer", s);
    prop_assert_eq!(table.in_system(s), refs[s].server().in_system());
    Ok(())
}

fn replay(servers: &[(f64, Discipline)], arrivals: &[Arrival]) -> Result<(), TestCaseError> {
    let mut table = ServerTable::new(servers.iter().copied());
    let mut refs: Vec<Reference> = servers
        .iter()
        .map(|&(c, d)| match d {
            Discipline::ProcessorSharing => Reference::Ps(PsServer::new(c)),
            Discipline::Fifo => Reference::Fifo(FifoServer::new(c)),
        })
        .collect();
    let mut sched = Scheduler::with_timers(servers.len());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut arrived = vec![0u64; servers.len()];
    let (mut next, mut t_arrival) = (0, 0.0);
    loop {
        let arrival = arrivals.get(next).map(|&(s, gap, work)| (s, t_arrival + gap, work));
        let depart = sched.peek().filter(|&(t, _)| arrival.is_none_or(|(_, ta, _)| t <= ta));
        let s = if let Some((t, s)) = depart {
            // Departures fire before arrivals at the same instant.
            sched.pop();
            let (gb, wb) = (got.len(), want.len());
            table.on_event(s, t, &mut got);
            refs[s].server().on_event(t, &mut want);
            prop_assert!(got.len() > gb, "server {} event at {} departed nothing", s, t);
            prop_assert_eq!(bits(&got[gb..]), bits(&want[wb..]), "server {} at {}", s, t);
            s
        } else if let Some((s, t, work)) = arrival {
            let tag = next as u32;
            table.arrive(s, t, work, tag);
            refs[s].server().arrive(t, work, tag);
            arrived[s] += 1;
            (next, t_arrival) = (next + 1, t);
            s
        } else {
            break;
        };
        table.sync_timer(s, &mut sched, s);
        check_next(&table, &sched, &mut refs, s)?;
        prop_assert_eq!(
            table.busy_time(s).to_bits(),
            refs[s].server().busy_time().to_bits(),
            "server {} busy time",
            s
        );
    }
    prop_assert_eq!(bits(&got), bits(&want));
    prop_assert_eq!(got.len(), arrivals.len());
    for (s, &n) in arrived.iter().enumerate() {
        check_next(&table, &sched, &mut refs, s)?;
        prop_assert_eq!(table.jobs_completed(s), n);
    }
    let jobs = table.jobs();
    prop_assert!(jobs.is_empty());
    prop_assert_eq!(jobs.free_len(), jobs.pool_len());
    Ok(())
}

proptest! {
    #[test]
    fn table_matches_standalone_servers(
        servers in proptest::collection::vec(server_strategy(), N_SERVERS..N_SERVERS + 1),
        arrivals in proptest::collection::vec(arrival_strategy(), 1..250),
    ) {
        replay(&servers, &arrivals)?;
    }
}

/// Three same-time PS arrivals with equal work share one finish tag and
/// leave in one event, in arrival order, while a FIFO server of the same
/// table sends them one event each.
#[test]
fn equal_ps_tags_drain_in_one_event() {
    let servers = [(1.0, Discipline::ProcessorSharing), (1.0, Discipline::Fifo)];
    let arrivals: Vec<Arrival> =
        (0..6).map(|i| (i % 2, if i == 0 { 1.0 } else { 0.0 }, 1.0)).collect();
    replay(&servers, &arrivals).unwrap();
    let mut table = ServerTable::new(servers);
    for (tag, &(s, _, work)) in arrivals.iter().enumerate() {
        table.arrive(s, 1.0, work, tag as u32);
    }
    let mut done = Vec::new();
    table.on_event(0, 4.0, &mut done);
    assert_eq!(done.iter().map(|c| c.tag).collect::<Vec<_>>(), [0, 2, 4]);
    table.on_event(1, 2.0, &mut done);
    assert_eq!(done.len(), 4);
}
