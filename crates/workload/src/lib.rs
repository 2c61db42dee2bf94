//! # workload — request streams for the prefetching simulators
//!
//! The paper's analysis is parametric: it only sees `(λ, s̄, h′, p, n̄(F))`.
//! To *validate* it against a running system we need request streams whose
//! parameters we control and whose structure predictors can learn:
//!
//! * [`catalog`] — item catalogs: identities, sizes, Zipf/uniform popularity.
//! * [`arrivals`] — arrival processes: Poisson, deterministic, MMPP
//!   (bursty), for the `λ` axis.
//! * [`markov`] — Markov-chain reference streams: the classic model under
//!   which speculative prediction is well-posed (Vitter & Krishnan's
//!   setting); also the ground truth against which predictors are scored.
//!   Rows draw through [`alias`]'s sparse alias rows, O(non-zeros) each.
//! * [`lru_stack`] — stack-distance streams with a *controllable* LRU hit
//!   ratio, giving direct command of the paper's `h′` knob.
//! * [`trace`] — trace records and their JSON-lines codec, for inspecting
//!   and diffing a replayable request stream.
//! * [`events`] — the one binary trace format, versioned `.events`: a chunked
//!   [`TraceStream`] reader that validates records and never materializes
//!   the trace, plus the matching [`EventsWriter`].
//! * [`scale`] — [`TraceScaler`]: superpose K time-dilated copies of one
//!   trace with disjoint key spaces, to synthesize production-scale load.
//! * [`synth_web`] — a synthetic web-proxy workload combining all of the
//!   above (the substitution for the proprietary proxy logs of the era;
//!   see DESIGN.md §7).

pub mod alias;
pub mod arrivals;
pub mod catalog;
pub mod events;
pub mod lru_stack;
pub mod markov;
pub mod scale;
pub mod sessions;
pub mod synth_web;
pub mod trace;

pub use arrivals::{ArrivalProcess, Mmpp2, PoissonArrivals};
pub use catalog::{Catalog, ItemId};
pub use events::{EventsWriter, TraceError, TraceSource, TraceStream};
pub use lru_stack::LruStackStream;
pub use markov::MarkovChain;
pub use scale::{ScaledStream, TraceScaler};
pub use sessions::{SessionArrivals, SessionProfile};
pub use trace::{TraceReader, TraceRecord, TraceWriter};

use simcore::rng::Rng;

/// A source of item references (one per user request).
pub trait RequestStream {
    /// The next referenced item.
    fn next_item(&mut self, rng: &mut Rng) -> ItemId;
}

/// Independent reference model (IRM): IID draws from the catalog's
/// popularity distribution. The simplest stream under which hit ratios are
/// analytically predictable.
pub struct IrmStream<'a> {
    pub catalog: &'a Catalog,
}

impl RequestStream for IrmStream<'_> {
    fn next_item(&mut self, rng: &mut Rng) -> ItemId {
        self.catalog.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irm_stream_draws_from_catalog() {
        let mut rng = Rng::new(1);
        let catalog = Catalog::zipf(100, 0.8, 1.0, &mut rng);
        let mut stream = IrmStream { catalog: &catalog };
        for _ in 0..1000 {
            let id = stream.next_item(&mut rng);
            assert!(id.0 < 100);
        }
    }
}
