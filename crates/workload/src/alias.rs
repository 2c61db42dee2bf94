//! Sparse alias rows: Walker's alias method for rows with few non-zero
//! weights.
//!
//! A dense alias table over `n` outcomes ([`simcore::dist::Discrete`])
//! stores a `(prob, alias)` pair for every outcome, even when only a
//! handful of them carry weight — a navigation row with `branching`
//! links in a catalog of `n` items is all zeros but `branching` entries.
//! [`AliasRows`] stores the same tables as *pieces*: maximal runs of
//! indices sharing one `(prob, alias)` pair. Each row reproduces the dense
//! Vose table entry for entry, so a draw consumes the same two variates
//! (`rng.index(n)`, then `rng.f64()`) and returns the same outcome.
//!
//! Why a sparse row has few pieces: Vose's construction pairs each
//! "small" entry (scaled weight below 1) with the current "large" one.
//! A zero-weight entry gets `prob = 0.0` and the large entry that absorbs
//! it as its alias, and the absorption computes `(x + 0.0) - 1.0`, which
//! is exact in `f64` for `1 ≤ x < 2⁵³`. So one large entry absorbs a whole
//! stretch of a zero run in closed form (`x - m`, bit-identical to `m`
//! single steps), and a run of zeros splits only where a large entry
//! drops below 1 — once per non-zero entry at most. A row with `k`
//! non-zero weights therefore has at most `3k + 1` pieces.
//!
//! Finding the piece of a drawn index takes one guide lookup and, on
//! average, less than one step: every row is cut into the same number of
//! equal power-of-two-width buckets — at least `GUIDE_PER_PIECE` per piece
//! of the chain's longest row — and the guide names, per bucket, the
//! piece holding the bucket's first outcome. A draw reads its bucket's
//! entry and steps forward past pieces that end at or before its outcome.
//! With one stride for all rows the guide needs no per-row offsets, so a
//! draw makes two dependent loads, as the dense table's does.

use simcore::rng::Rng;

/// One piece of a sparse alias row: every index from the previous piece's
/// `end` (0 for the first piece) up to `end` (exclusive) has alias-table
/// entry `(prob, alias)`. A row's last piece ends at the row length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AliasPiece {
    pub end: u32,
    pub alias: u32,
    pub prob: f64,
}

/// Guide buckets per piece of the longest row, before rounding the bucket
/// width down to a power of two (which at most doubles the count).
const GUIDE_PER_PIECE: usize = 2;

/// Sparse alias rows over outcomes `0..n`, stored back to back in flat
/// arrays: all rows' pieces, and a guide of `buckets` entries per row.
/// Memory and build time are O(non-zeros) per row. Built by
/// [`AliasRowsBuilder`].
///
/// ```
/// use simcore::rng::Rng;
/// use workload::alias::AliasRowsBuilder;
///
/// // Weight on outcomes 2 and 7 of 10; everything else is zero.
/// let mut b = AliasRowsBuilder::new(10);
/// b.push(&[(2, 0.25), (7, 0.75)]);
/// let rows = b.finish();
/// assert!(rows.row(0).pieces().len() <= 7, "O(non-zeros) pieces, not 10 entries");
/// let mut rng = Rng::new(1);
/// for _ in 0..100 {
///     let i = rows.row(0).sample_index(&mut rng);
///     assert!(i == 2 || i == 7);
/// }
/// ```
pub struct AliasRows {
    n: usize,
    /// log₂ of the bucket width.
    shift: u32,
    /// Guide buckets per row.
    buckets: usize,
    /// Row `r`'s bucket `b` (outcomes from `b << shift`) is
    /// `guide[r * buckets + b]`: the index into `pieces` of the piece
    /// holding the bucket's first outcome.
    guide: Vec<u32>,
    pieces: Vec<AliasPiece>,
}

impl AliasRows {
    /// Heap bytes held by the rows (pieces and guide).
    pub fn heap_bytes(&self) -> usize {
        self.pieces.capacity() * std::mem::size_of::<AliasPiece>()
            + self.guide.capacity() * std::mem::size_of::<u32>()
    }

    /// Row `r` (an out-of-range row panics on first use).
    #[inline]
    pub fn row(&self, r: usize) -> AliasRow<'_> {
        AliasRow { rows: self, r }
    }

    #[inline]
    fn piece(&self, r: usize, i: usize) -> &AliasPiece {
        let mut k = self.guide[r * self.buckets + (i >> self.shift)] as usize;
        // The row's last piece ends at `n > i`, so the walk stays in the row.
        while self.pieces[k].end as usize <= i {
            k += 1;
        }
        &self.pieces[k]
    }
}

/// One row of an [`AliasRows`].
#[derive(Clone, Copy)]
pub struct AliasRow<'a> {
    rows: &'a AliasRows,
    r: usize,
}

impl<'a> AliasRow<'a> {
    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.rows.n
    }

    pub fn is_empty(&self) -> bool {
        self.rows.n == 0
    }

    /// The row's pieces, in ascending index order.
    pub fn pieces(&self) -> &'a [AliasPiece] {
        let AliasRows { buckets, guide, pieces, .. } = self.rows;
        let first = guide[self.r * buckets] as usize;
        let end = guide.get((self.r + 1) * buckets).map_or(pieces.len(), |&k| k as usize);
        &pieces[first..end]
    }

    /// The dense table's `(prob, alias)` entry for outcome `i`.
    pub fn entry(&self, i: usize) -> (f64, usize) {
        assert!(i < self.rows.n, "outcome {i} out of range");
        let p = self.rows.piece(self.r, i);
        (p.prob, p.alias as usize)
    }

    /// Draws an outcome: the same variates, and the same result, as
    /// [`simcore::dist::Discrete::sample_index`] over the dense row.
    #[inline]
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        let i = rng.index(self.rows.n);
        let p = self.rows.piece(self.r, i);
        if rng.f64() < p.prob {
            i
        } else {
            p.alias as usize
        }
    }
}

/// Compiles rows one at a time into an [`AliasRows`].
pub struct AliasRowsBuilder {
    n: usize,
    pieces: Vec<AliasPiece>,
    /// Row `r`'s pieces are `pieces[piece_at[r]..piece_at[r + 1]]`.
    piece_at: Vec<usize>,
    buffers: Buffers,
}

impl AliasRowsBuilder {
    /// No rows yet, over `n` outcomes each.
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n <= u32::MAX as usize, "alias rows over {n} outcomes");
        AliasRowsBuilder { n, pieces: Vec::new(), piece_at: vec![0], buffers: Buffers::default() }
    }

    /// Appends the row with weight `w` at each `(index, w)` of `entries`
    /// (strictly ascending indices, non-negative weights, not all zero)
    /// and zero everywhere else. The row reproduces `Discrete::new` on the
    /// dense weight vector exactly: the stacks, the pairing order and
    /// every floating-point operation are Vose's, with runs of zeros
    /// handled in closed form.
    pub fn push(&mut self, entries: &[(u32, f64)]) {
        self.buffers.pieces(self.n, entries, &mut self.pieces);
        self.piece_at.push(self.pieces.len());
    }

    /// Sizes the buckets for the longest row and writes the guide.
    pub fn finish(self) -> AliasRows {
        let AliasRowsBuilder { n, mut pieces, piece_at, .. } = self;
        assert!(pieces.len() <= u32::MAX as usize, "too many alias pieces");
        let longest = piece_at.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(1);
        let target = GUIDE_PER_PIECE * longest;
        let shift = if n > target { (n / target).ilog2() } else { 0 };
        let buckets = ((n - 1) >> shift) + 1;
        let mut guide = Vec::with_capacity((piece_at.len() - 1) * buckets);
        for &first in &piece_at[..piece_at.len() - 1] {
            let mut k = first;
            for b in 0..buckets {
                while pieces[k].end as usize <= b << shift {
                    k += 1;
                }
                guide.push(k as u32);
            }
        }
        pieces.shrink_to_fit();
        AliasRows { n, shift, buckets, guide, pieces }
    }
}

/// An entry of Vose's "small" stack: one explicit entry (by its position
/// in the input), or a run of zero-weight indices `lo..hi` whose top is
/// `hi - 1`.
#[derive(Clone, Copy)]
enum Small {
    Entry(usize),
    Zeros { lo: u32, hi: u32 },
}

/// Reusable buffers of the row construction.
#[derive(Default)]
struct Buffers {
    scaled: Vec<f64>,
    small: Vec<Small>,
    large: Vec<usize>,
    starts: Vec<(u32, AliasPiece)>,
}

impl Buffers {
    /// Appends the pieces of one row to `out` (see [`AliasRowsBuilder::push`]).
    fn pieces(&mut self, n: usize, entries: &[(u32, f64)], out: &mut Vec<AliasPiece>) {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0)
                && entries.last().is_none_or(|&(j, _)| (j as usize) < n),
            "entries must have strictly ascending indices below {n}"
        );
        // Zeros add nothing to the dense row's left-to-right sum.
        let sum: f64 = entries.iter().map(|&(_, w)| w).sum();
        assert!(sum > 0.0 && sum.is_finite(), "weights must sum to a positive finite value");
        assert!(entries.iter().all(|&(_, w)| w >= 0.0), "negative weight");

        let Buffers { scaled, small, large, starts } = self;
        scaled.clear();
        scaled.extend(entries.iter().map(|&(_, w)| w * n as f64 / sum));
        // Both stacks in ascending index order, as Vose's dense scan
        // pushes them.
        small.clear();
        large.clear();
        let mut next = 0u32;
        for (k, &(j, _)) in entries.iter().enumerate() {
            if next < j {
                small.push(Small::Zeros { lo: next, hi: j });
            }
            if scaled[k] < 1.0 {
                small.push(Small::Entry(k));
            } else {
                large.push(k);
            }
            next = j + 1;
        }
        if (next as usize) < n {
            small.push(Small::Zeros { lo: next, hi: n as u32 });
        }

        // Pieces keyed by their first index: one per explicit entry,
        // updated in place; leftovers keep the dense table's initial
        // alias 0 and final prob 1.0.
        let piece = |alias, prob| AliasPiece { end: 0, alias, prob };
        starts.clear();
        starts.extend(entries.iter().map(|&(j, _)| (j, piece(0, 1.0))));
        while let (Some(top), Some(&l)) = (small.last_mut(), large.last()) {
            let alias = entries[l].0;
            match *top {
                Small::Entry(s) => {
                    small.pop();
                    starts[s].1 = piece(alias, scaled[s]);
                    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
                }
                Small::Zeros { lo, hi } => {
                    // `l` absorbs zeros while its weight stays ≥ 1: after
                    // `floor(x)` of them it drops below 1.
                    let x = scaled[l];
                    let take = (hi - lo).min(x as u32);
                    starts.push((hi - take, piece(alias, 0.0)));
                    if take == hi - lo {
                        small.pop();
                    } else {
                        *top = Small::Zeros { lo, hi: hi - take };
                    }
                    scaled[l] = x - take as f64;
                }
            }
            if scaled[l] < 1.0 {
                large.pop();
                small.push(Small::Entry(l));
            }
        }
        // Numerical leftovers: zero runs still on the small stack (entries
        // already carry prob 1.0).
        for s in small.iter() {
            if let Small::Zeros { lo, .. } = *s {
                starts.push((lo, piece(0, 1.0)));
            }
        }
        starts.sort_unstable_by_key(|&(start, _)| start);
        let ends = starts.iter().skip(1).map(|&(start, _)| start).chain([n as u32]);
        out.extend(starts.iter().zip(ends).map(|(&(_, p), end)| AliasPiece { end, ..p }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, rows: &[&[(u32, f64)]]) -> AliasRows {
        let mut b = AliasRowsBuilder::new(n);
        for entries in rows {
            b.push(entries);
        }
        b.finish()
    }

    #[test]
    fn single_entry_row_is_deterministic() {
        let rows = rows(5, &[&[(3, 1.0)]]);
        let row = rows.row(0);
        let mut rng = Rng::new(2);
        for _ in 0..200 {
            assert_eq!(row.sample_index(&mut rng), 3);
        }
        assert_eq!(row.entry(0), (0.0, 3));
        assert_eq!(row.entry(3), (1.0, 0));
    }

    #[test]
    fn rows_are_independent() {
        let rows = rows(6, &[&[(0, 1.0)], &[(5, 1.0)], &[(1, 0.5), (4, 0.5)]]);
        assert_eq!(rows.guide.len() / rows.buckets, 3);
        assert_eq!(
            rows.row(1).pieces(),
            &[
                AliasPiece { end: 5, alias: 5, prob: 0.0 },
                AliasPiece { end: 6, alias: 0, prob: 1.0 }
            ]
        );
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            assert_eq!(rows.row(0).sample_index(&mut rng), 0);
            assert_eq!(rows.row(1).sample_index(&mut rng), 5);
            assert!(matches!(rows.row(2).sample_index(&mut rng), 1 | 4));
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_entries() {
        rows(5, &[&[(3, 0.5), (1, 0.5)]]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_weights() {
        rows(5, &[&[(1, 1.5), (3, -0.5)]]);
    }
}
