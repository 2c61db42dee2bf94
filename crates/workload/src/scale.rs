//! Trace scaling: superpose K time-dilated copies with disjoint key spaces.
//!
//! One recorded trace becomes a K×-heavier workload: copy `k` runs at a
//! slightly different clock rate (`1 / dilation(k)` speed), touches keys
//! offset by `k * key_stride`, and presents clients offset by
//! `k * client_stride`. Because the copies share no keys, the scaled trace
//! models K independent user populations hitting the same proxy fabric —
//! the standard way trace-driven cache studies synthesize
//! millions-of-users load from one capture.
//!
//! [`ScaledStream`] performs the superposition as a lazy K-way merge over
//! independent [`TraceStream`]s, so memory stays O(K × chunk);
//! [`TraceScaler::scale_records`] is the eager equivalent for small traces
//! and produces the identical ordering.

use crate::catalog::ItemId;
use crate::events::{TraceError, TraceSource, TraceStream};
use crate::trace::TraceRecord;
use std::io::Read;

/// Parameters of a K-copy superposition.
#[derive(Clone, Copy, Debug)]
pub struct TraceScaler {
    /// Number of time-dilated copies to superpose (≥ 1).
    pub copies: u32,
    /// Copy `k` has its times multiplied by `1 + k * dilation_step`, so
    /// copies drift apart instead of striking in lockstep.
    pub dilation_step: f64,
    /// Key offset between copies; must exceed the source's key range.
    pub key_stride: u64,
    /// Client-id offset between copies.
    pub client_stride: u32,
}

impl TraceScaler {
    /// Time-dilation factor applied to copy `copy`.
    pub fn dilation(&self, copy: u32) -> f64 {
        1.0 + f64::from(copy) * self.dilation_step
    }

    /// Maps a source record into copy `copy`'s time/key/client space.
    pub fn transform(&self, copy: u32, rec: TraceRecord) -> TraceRecord {
        let item = rec
            .item
            .0
            .checked_add(u64::from(copy) * self.key_stride)
            .expect("scaled key space overflows u64");
        let client = rec
            .client
            .checked_add(copy.checked_mul(self.client_stride).expect("client stride overflows u32"))
            .expect("scaled client space overflows u32");
        TraceRecord {
            time: rec.time * self.dilation(copy),
            client,
            item: ItemId(item),
            size: rec.size,
        }
    }

    /// Lazily superposes `copies` independent streams of the same source
    /// trace. The streams must all read identical records (e.g. come from
    /// the same [`TraceSource`]).
    pub fn superpose<R: Read>(self, streams: Vec<TraceStream<R>>) -> ScaledStream<R> {
        assert!(self.copies >= 1, "need at least one copy");
        assert_eq!(streams.len(), self.copies as usize, "one stream per copy");
        let heads = vec![None; streams.len()];
        ScaledStream { scaler: self, streams, heads, primed: false, failed: false }
    }

    /// Opens `copies` streams over `source` and superposes them; total
    /// resident memory is O(copies × chunk).
    pub fn scale(
        self,
        source: &TraceSource,
        chunk_records: usize,
    ) -> Result<ScaledStream<Box<dyn Read + Send>>, TraceError> {
        let streams =
            (0..self.copies).map(|_| source.open(chunk_records)).collect::<Result<Vec<_>, _>>()?;
        Ok(self.superpose(streams))
    }

    /// Eager equivalent of [`Self::scale`] for in-memory traces; the output
    /// ordering matches the lazy merge exactly (time, then copy index).
    pub fn scale_records(self, records: &[TraceRecord]) -> Vec<TraceRecord> {
        assert!(self.copies >= 1, "need at least one copy");
        let mut out: Vec<(u32, TraceRecord)> =
            Vec::with_capacity(records.len() * self.copies as usize);
        for copy in 0..self.copies {
            for rec in records {
                out.push((copy, self.transform(copy, *rec)));
            }
        }
        out.sort_by(|a, b| a.1.time.total_cmp(&b.1.time).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(_, r)| r).collect()
    }
}

/// Lazy K-way merge of time-dilated trace copies, ordered by
/// `(time, copy index)`. Yields the first error from any underlying stream
/// and then fuses.
pub struct ScaledStream<R: Read> {
    scaler: TraceScaler,
    streams: Vec<TraceStream<R>>,
    heads: Vec<Option<TraceRecord>>,
    primed: bool,
    failed: bool,
}

impl<R: Read> ScaledStream<R> {
    fn pull(&mut self, copy: usize) -> Result<(), TraceError> {
        self.heads[copy] = match self.streams[copy].next() {
            Some(Ok(rec)) => Some(self.scaler.transform(copy as u32, rec)),
            Some(Err(e)) => return Err(e),
            None => None,
        };
        Ok(())
    }
}

impl<R: Read> Iterator for ScaledStream<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if !self.primed {
            self.primed = true;
            for copy in 0..self.streams.len() {
                if let Err(e) = self.pull(copy) {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        let mut best: Option<usize> = None;
        for (copy, head) in self.heads.iter().enumerate() {
            if let Some(rec) = head {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let bt = self.heads[b].expect("best head present").time;
                        rec.time.total_cmp(&bt).is_lt()
                    }
                };
                if better {
                    best = Some(copy);
                }
            }
        }
        let copy = best?;
        let rec = self.heads[copy].take().expect("selected head present");
        if let Err(e) = self.pull(copy) {
            self.failed = true;
            return Some(Err(e));
        }
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::encode_events;

    fn scaler(copies: u32) -> TraceScaler {
        TraceScaler { copies, dilation_step: 0.25, key_stride: 1000, client_stride: 100 }
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(0.0, 0, ItemId(1), 1.0),
            TraceRecord::new(1.0, 1, ItemId(2), 2.0),
            TraceRecord::new(3.0, 0, ItemId(3), 0.5),
        ]
    }

    #[test]
    fn scale_multiplies_records_and_offsets_keys() {
        let recs = sample();
        let scaled = scaler(3).scale_records(&recs);
        assert_eq!(scaled.len(), 3 * recs.len());
        for copy in 0..3u64 {
            let lo = copy * 1000;
            let in_copy = scaled.iter().filter(|r| r.item.0 >= lo && r.item.0 < lo + 1000).count();
            assert_eq!(in_copy, recs.len(), "copy {copy} keeps its own key range");
        }
    }

    #[test]
    fn scaled_times_are_sorted() {
        let scaled = scaler(4).scale_records(&sample());
        for w in scaled.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn lazy_merge_matches_eager_scaling() {
        let recs = sample();
        let src = TraceSource::from_records(&recs).unwrap();
        let lazy: Vec<_> = scaler(3).scale(&src, 2).unwrap().map(Result::unwrap).collect();
        assert_eq!(lazy, scaler(3).scale_records(&recs));
    }

    #[test]
    fn scaled_stream_is_valid_events_input() {
        // The merged output must itself satisfy the .events invariants
        // (non-decreasing time), so it can be written back out.
        let recs = sample();
        let scaled = scaler(4).scale_records(&recs);
        assert!(encode_events(&scaled).is_ok());
    }

    #[test]
    fn single_copy_is_identity() {
        let recs = sample();
        assert_eq!(scaler(1).scale_records(&recs), recs);
    }

    #[test]
    fn merge_propagates_stream_errors() {
        let recs = sample();
        let mut bytes = encode_events(&recs).unwrap();
        let cut = bytes.len() - 3;
        bytes.truncate(cut);
        let streams =
            vec![TraceStream::open(&bytes[..]).unwrap(), TraceStream::open(&bytes[..]).unwrap()];
        let results: Vec<_> = scaler(2).superpose(streams).collect();
        assert!(results.iter().any(|r| matches!(r, Err(TraceError::Truncated { .. }))));
        assert!(results.last().unwrap().is_err(), "stream fuses after error");
    }
}
