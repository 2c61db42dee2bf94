//! Indexed event scheduler: a position-tracked 4-ary min-heap of timers
//! over a fixed key space.
//!
//! This is the workspace's one event core. It serves a simulation with a
//! *known set of recurring timer streams* (one per link, one per arrival
//! process, one per periodic task), each of which is re-armed and
//! cancelled many times over a run. Every stream owns a small-integer
//! **key**; arming the key again simply replaces the previous deadline.
//! The scheduler carries no payloads: a stream that delivers data keeps
//! it in one queue of a [`TimedQueues`] family (sorted lists, for queues
//! mostly pushed in order) or a [`TimedHeaps`] family (pairing heaps, for
//! queues pushed in any order) and arms its key at that queue's next
//! time.
//!
//! The heap holds **exactly one entry per armed key**, and a per-key
//! position table says where it sits. A re-arm rewrites the key's entry
//! and sifts it in place; a cancel removes it in place. So `schedule`,
//! `cancel` and `pop` are O(log n), `peek` and `armed` are O(1), and the
//! heap never holds a superseded deadline. Each entry packs
//! `(time, key)` into one `u128` whose integer order is the
//! `(f64::total_cmp, key)` order, so a sift step is one integer compare.
//!
//! [`Scheduler::pop`] **defers the root's repair**: it disarms the fired
//! key and leaves the root slot open. A simulation re-arms the stream
//! that just fired more often than it does anything else next (about
//! three pops in four on the cluster workloads), and that re-arm drops
//! its new entry into the open slot and sifts it down from the root, so
//! a pop plus its re-arm cost one heap repair instead of two. Any other
//! mutation first closes the slot by moving the heap's last entry to the
//! root and sifting it down: a re-arm of a key that is still armed, a
//! [`Scheduler::cancel`], or the next pop. Meanwhile [`Scheduler::peek`]
//! reads the least of the root's children, and [`Scheduler::len`] does
//! not count the open slot. The smallest of a full group of four
//! children is picked by a two-level tournament (two independent pairwise
//! compares, then one), not a serial scan.
//!
//! Determinism: [`Scheduler::pop`] yields events in nondecreasing time,
//! and simultaneous events fire in ascending key order. Callers that need
//! a specific same-instant ordering (the `cluster` engines fire link
//! completions before request arrivals before prefetch issues) encode it
//! in the key layout.
//!
//! ```
//! use simcore::sched::Scheduler;
//!
//! let mut sched = Scheduler::with_timers(3);
//! sched.schedule(2, 5.0);
//! sched.schedule(0, 9.0);
//! sched.schedule(2, 1.0); // re-arm: replaces the 5.0 deadline
//! assert_eq!(sched.pop(), Some((1.0, 2)));
//! assert_eq!(sched.pop(), Some((9.0, 0)));
//! assert_eq!(sched.pop(), None);
//! ```

/// A partition of a scheduler's key space into ordered **classes** — the
/// shard-handle API the `cluster` drivers build their timer layouts on.
///
/// A driver with several kinds of recurring timers (one per link, one per
/// arrival process, …) registers one class per kind, in the order
/// same-instant events must fire, and addresses each stream as
/// `(class, index)` instead of hand-computing key offsets. Because
/// [`Scheduler`] breaks time ties by ascending key, class registration
/// order *is* the same-instant precedence — and two layouts built from the
/// same class sequence assign consistent relative orders even when their
/// per-class counts differ (the property the sharded cluster driver
/// depends on: each shard's local layout must order its local events
/// exactly as the global layout would).
#[derive(Clone, Debug, Default)]
pub struct KeyLayout {
    /// `offsets[c]..offsets[c] + counts[c]` is class `c`'s key range.
    offsets: Vec<usize>,
    counts: Vec<usize>,
    /// `classes[key]`: the `(class, index)` the key addresses.
    classes: Vec<(u32, u32)>,
}

impl KeyLayout {
    /// An empty layout; add classes with [`KeyLayout::class`].
    pub fn new() -> Self {
        KeyLayout::default()
    }

    /// Registers the next class with `count` timer streams; returns its
    /// class index. Classes fire in registration order on time ties.
    pub fn class(&mut self, count: usize) -> usize {
        let class = self.offsets.len();
        self.offsets.push(self.n_keys());
        self.counts.push(count);
        self.classes.extend((0..count).map(|idx| (class as u32, idx as u32)));
        class
    }

    /// Total keys across all classes.
    pub fn n_keys(&self) -> usize {
        self.classes.len()
    }

    /// Number of streams in `class`.
    pub fn count(&self, class: usize) -> usize {
        self.counts[class]
    }

    /// The scheduler key of stream `idx` of `class`.
    pub fn key(&self, class: usize, idx: usize) -> usize {
        debug_assert!(idx < self.counts[class], "stream {idx} out of class {class}");
        self.offsets[class] + idx
    }

    /// Inverse of [`KeyLayout::key`]: which `(class, index)` a key is.
    pub fn decode(&self, key: usize) -> (usize, usize) {
        let (class, idx) = self.classes[key];
        (class as usize, idx as usize)
    }

    /// A scheduler provisioned with one timer per key of this layout.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::with_timers(self.n_keys())
    }
}

/// A family of deterministic time-ordered queues of pending payloads, each
/// keyed by `(time, id)` — the companion structure for timer streams that
/// carry *data* (the in-flight arrivals of every link, the pending
/// deliveries of every proxy).
///
/// The owning driver arms one [`Scheduler`] timer per queue at
/// [`TimedQueues::next_time`] and drains every entry due at the fired
/// instant. Each queue pops its entries in ascending `(time, id)` order
/// **regardless of insertion order**, which is what makes a mailbox-fed
/// queue deterministic: messages arriving from concurrent senders are
/// sequenced by their timestamps and stable ids, never by delivery race.
///
/// The `n` queues are sorted singly linked lists threaded through **one
/// node pool**, with a free list: a queue costs its `(head, tail)` pair
/// and nothing else, so a family of thousands of mostly idle queues (one
/// per link of a peer mesh) allocates only as many nodes as entries were
/// ever pending at once, and a popped node is reused by the next push to
/// any queue. A push that sorts after its queue's tail is appended, which
/// is the common case (fixed-latency handoffs onto a link arrive in time
/// order); any other push is inserted at its sorted position by a walk
/// from the head. `pop_due` pops the head.
///
/// Payloads are plain `Copy` values: a freed node keeps its stale payload
/// until a push overwrites it.
///
/// ```
/// use simcore::sched::TimedQueues;
///
/// let mut q = TimedQueues::new(2);
/// q.push(0, 2.0, 7, "late");
/// q.push(1, 1.0, 3, "other queue");
/// q.push(0, 1.0, 9, "early");
/// assert_eq!(q.next_time(0), Some(1.0));
/// assert_eq!(q.pop_due(0, 1.0), Some("early"));
/// assert_eq!(q.pop_due(0, 1.0), None, "the 2.0 entry is not due yet");
/// assert_eq!(q.pop_due(1, 1.0), Some("other queue"));
/// assert_eq!(q.pool_len(), 3);
/// q.push(1, 4.0, 1, "reuses a freed node");
/// assert_eq!((q.len(), q.pool_len()), (2, 3));
/// ```
#[derive(Debug)]
pub struct TimedQueues<T> {
    /// `ends[q]`: the `(head, tail)` nodes of queue `q`, both [`NIL`]
    /// when it is empty.
    ends: Vec<[u32; 2]>,
    /// Every node ever allocated: pending entries and free ones.
    nodes: Vec<Node<T>>,
    /// First node of the free list, or [`NIL`].
    free: u32,
    /// Entries pending across every queue.
    len: usize,
}

/// One pooled entry of a [`TimedQueues`] family.
#[derive(Clone, Copy, Debug)]
struct Node<T> {
    /// `pack(time, id)`.
    key: u128,
    /// The next node of this node's queue (ascending), or of the free
    /// list; [`NIL`] at either list's end.
    next: u32,
    payload: T,
}

/// The end of a [`TimedQueues`] list, and an empty queue's head and tail.
const NIL: u32 = u32::MAX;

impl<T: Copy> TimedQueues<T> {
    /// `n` empty queues over an empty pool.
    pub fn new(n: usize) -> Self {
        TimedQueues { ends: vec![[NIL; 2]; n], nodes: Vec::new(), free: NIL, len: 0 }
    }

    /// Number of queues in the family.
    pub fn n_queues(&self) -> usize {
        self.ends.len()
    }

    /// Enqueues `payload` on queue `q` to surface at `time`; `id` breaks
    /// time ties (it must be unique per pending entry of the queue for the
    /// order to be total).
    pub fn push(&mut self, q: usize, time: f64, id: u64, payload: T) {
        assert!(time.is_finite(), "queued entry at non-finite time {time}");
        let key = pack(time, id);
        let [head, tail] = self.ends[q];
        let (prev, next) = if tail == NIL {
            (NIL, NIL)
        } else if self.nodes[tail as usize].key <= key {
            (tail, NIL)
        } else if key < self.nodes[head as usize].key {
            (NIL, head)
        } else {
            // head <= key < tail: after the last node that sorts <= key.
            let mut prev = head;
            loop {
                let next = self.nodes[prev as usize].next;
                if key < self.nodes[next as usize].key {
                    break (prev, next);
                }
                prev = next;
            }
        };
        let node = Node { key, next, payload };
        let i = match self.free {
            NIL => {
                let i = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than 2^32 - 1 entries pending at once");
                self.nodes.push(node);
                i
            }
            i => {
                self.free = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            }
        };
        match prev {
            NIL => self.ends[q][0] = i,
            p => self.nodes[p as usize].next = i,
        }
        if next == NIL {
            self.ends[q][1] = i;
        }
        self.len += 1;
    }

    /// When queue `q`'s earliest pending entry is due.
    pub fn next_time(&self, q: usize) -> Option<f64> {
        match self.ends[q][0] {
            NIL => None,
            head => Some(entry_time(self.nodes[head as usize].key)),
        }
    }

    /// Pops queue `q`'s earliest entry if it is due exactly at `time` —
    /// drivers drain a fired instant with
    /// `while let Some(x) = queues.pop_due(q, t)`.
    pub fn pop_due(&mut self, q: usize, time: f64) -> Option<T> {
        let head = self.ends[q][0];
        if head == NIL || entry_time(self.nodes[head as usize].key) != time {
            return None;
        }
        let Node { next, payload, .. } = self.nodes[head as usize];
        self.ends[q][0] = next;
        if next == NIL {
            self.ends[q][1] = NIL;
        }
        self.nodes[head as usize].next = self.free;
        self.free = head;
        self.len -= 1;
        Some(payload)
    }

    /// Entries pending on queue `q` (a walk of its list).
    pub fn queue_len(&self, q: usize) -> usize {
        self.walk(self.ends[q][0])
    }

    /// Entries pending across every queue.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Nodes in the pool, pending and free: the most entries ever pending
    /// at once, since a push allocates only when the free list is empty.
    pub fn pool_len(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes on the free list (a walk of it); equal to
    /// [`TimedQueues::pool_len`] once every queue has drained.
    pub fn free_len(&self) -> usize {
        self.walk(self.free)
    }

    /// Length of the list that starts at node `i`.
    fn walk(&self, mut i: u32) -> usize {
        let mut n = 0;
        while i != NIL {
            n += 1;
            i = self.nodes[i as usize].next;
        }
        n
    }
}

/// A family of pooled min-heaps of pending payloads keyed by `(time, id)`:
/// the [`TimedQueues`] contract for queues whose pushes land anywhere in
/// their order, such as the jobs of processor-sharing servers, keyed by
/// finish virtual time.
///
/// A sorted list pays a walk for every push that does not sort last, so a
/// queue thousands deep turns each push into thousands of steps. Here
/// each queue is a **pairing heap** threaded through one node pool with a
/// free list: a push links the new node under the root or the root under
/// it (O(1)), and a pop melds the root's children in two passes (O(log
/// n) amortised). A queue still costs one root index and no allocation of
/// its own, and a popped node is reused by the next push to any queue.
/// Entries pop in ascending `(time, id)` order, so the pop sequence is a
/// pure function of the pushed keys.
///
/// ```
/// use simcore::sched::TimedHeaps;
///
/// let mut h = TimedHeaps::new(2);
/// h.push(0, 3.0, 0, "late");
/// h.push(0, 1.0, 1, "early");
/// h.push(1, 2.0, 2, "other heap");
/// h.push(0, 2.0, 3, "middle");
/// assert_eq!(h.next_time(0), Some(1.0));
/// let popped: Vec<_> = std::iter::from_fn(|| h.pop(0)).collect();
/// assert_eq!(popped, ["early", "middle", "late"]);
/// assert_eq!((h.len(), h.pool_len(), h.free_len()), (1, 4, 3));
/// ```
#[derive(Debug)]
pub struct TimedHeaps<T> {
    /// `roots[q]`: the root node of heap `q`, or [`NIL`] when empty.
    roots: Vec<u32>,
    /// Every node ever allocated: pending entries and free ones.
    nodes: Vec<HeapNode<T>>,
    /// First node of the free list (threaded through `sibling`), or
    /// [`NIL`].
    free: u32,
    /// Entries pending across every heap.
    len: usize,
}

/// One pooled entry of a [`TimedHeaps`] family.
#[derive(Clone, Copy, Debug)]
struct HeapNode<T> {
    /// `pack(time, id)`.
    key: u128,
    /// First child, or [`NIL`].
    child: u32,
    /// Next sibling under the same parent, or the next node of the free
    /// list; [`NIL`] at either list's end. A root's is unused.
    sibling: u32,
    payload: T,
}

impl<T: Copy> TimedHeaps<T> {
    /// `n` empty heaps over an empty pool.
    pub fn new(n: usize) -> Self {
        TimedHeaps { roots: vec![NIL; n], nodes: Vec::new(), free: NIL, len: 0 }
    }

    /// Number of heaps in the family.
    pub fn n_queues(&self) -> usize {
        self.roots.len()
    }

    /// Enqueues `payload` on heap `q` under `(time, id)`; `id` breaks time
    /// ties (it must be unique per pending entry of the heap for the order
    /// to be total).
    pub fn push(&mut self, q: usize, time: f64, id: u64, payload: T) {
        assert!(time.is_finite(), "queued entry at non-finite time {time}");
        let node = HeapNode { key: pack(time, id), child: NIL, sibling: NIL, payload };
        let i = match self.free {
            NIL => {
                let i = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than 2^32 - 1 entries pending at once");
                self.nodes.push(node);
                i
            }
            i => {
                self.free = self.nodes[i as usize].sibling;
                self.nodes[i as usize] = node;
                i
            }
        };
        let root = self.roots[q];
        self.roots[q] = if root == NIL { i } else { self.link(root, i) };
        self.len += 1;
    }

    /// The time of heap `q`'s earliest pending entry.
    pub fn next_time(&self, q: usize) -> Option<f64> {
        match self.roots[q] {
            NIL => None,
            root => Some(entry_time(self.nodes[root as usize].key)),
        }
    }

    /// Pops heap `q`'s earliest entry, whatever its time.
    pub fn pop(&mut self, q: usize) -> Option<T> {
        let root = self.roots[q];
        if root == NIL {
            return None;
        }
        let HeapNode { child, payload, .. } = self.nodes[root as usize];
        self.roots[q] = self.merge_pairs(child);
        self.nodes[root as usize].sibling = self.free;
        self.free = root;
        self.len -= 1;
        Some(payload)
    }

    /// Entries pending across every heap.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Nodes in the pool, pending and free: the most entries ever pending
    /// at once.
    pub fn pool_len(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes on the free list (a walk of it); equal to
    /// [`TimedHeaps::pool_len`] once every heap has drained.
    pub fn free_len(&self) -> usize {
        let (mut n, mut i) = (0, self.free);
        while i != NIL {
            n += 1;
            i = self.nodes[i as usize].sibling;
        }
        n
    }

    /// Melds the heaps rooted at `a` and `b`: the larger root becomes the
    /// first child of the smaller, which is returned.
    #[inline]
    fn link(&mut self, a: u32, b: u32) -> u32 {
        let (top, sub) =
            if self.nodes[b as usize].key < self.nodes[a as usize].key { (b, a) } else { (a, b) };
        self.nodes[sub as usize].sibling = self.nodes[top as usize].child;
        self.nodes[top as usize].child = sub;
        top
    }

    /// Melds the sibling list starting at `first` into one heap, returning
    /// its root: pairs linked left to right, then the pair roots linked
    /// right to left (the two-pass pairing that bounds a pop at O(log n)
    /// amortised).
    fn merge_pairs(&mut self, first: u32) -> u32 {
        // Pass 1: each linked pair is pushed onto a stack threaded through
        // `sibling`, so the stack holds the pairs last first.
        let (mut stack, mut cur) = (NIL, first);
        while cur != NIL {
            let a = cur;
            let b = self.nodes[a as usize].sibling;
            let top = if b == NIL {
                cur = NIL;
                a
            } else {
                cur = self.nodes[b as usize].sibling;
                self.link(a, b)
            };
            self.nodes[top as usize].sibling = stack;
            stack = top;
        }
        // Pass 2: fold the stack into one heap.
        let mut root = NIL;
        while stack != NIL {
            let next = self.nodes[stack as usize].sibling;
            root = if root == NIL { stack } else { self.link(root, stack) };
            stack = next;
        }
        root
    }
}

/// Marks a disarmed key in [`Scheduler`]'s position table.
const DISARMED: u32 = u32::MAX;

/// Heap arity: four children per node halves the depth of a binary heap,
/// and a node's children share one or two cache lines.
const ARITY: usize = 4;

/// Packs `(t, key)` into one integer whose unsigned order is the
/// `(f64::total_cmp(t), key)` order: the time's bits are mapped so that
/// their unsigned order matches `total_cmp` (sign bit flipped for
/// non-negative values, every bit flipped for negative ones) and sit
/// above the key. [`TimedQueues`] packs `(time, id)` the same way.
#[inline]
fn pack(t: f64, key: u64) -> u128 {
    let bits = t.to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
    ((ordered as u128) << 64) | key as u128
}

/// The deadline packed into an entry (inverse of [`pack`]'s time map).
#[inline]
fn entry_time(e: u128) -> f64 {
    let ordered = (e >> 64) as u64;
    f64::from_bits(ordered ^ (((!ordered as i64) >> 63) as u64 | (1 << 63)))
}

/// The key packed into an entry.
#[inline]
fn entry_key(e: u128) -> usize {
    e as u64 as usize
}

/// Index of the smallest entry among `heap[first..n]`, a sibling group of
/// at most [`ARITY`] children. A full group is decided by a two-level
/// tournament: the two pairwise compares are independent, so they overlap
/// in the pipeline where a serial scan would chain three.
#[inline]
fn min_child(heap: &[u128], first: usize, n: usize) -> usize {
    if first + ARITY <= n {
        let g = &heap[first..first + ARITY];
        let a = usize::from(g[1] < g[0]);
        let b = 2 + usize::from(g[3] < g[2]);
        first + if g[b] < g[a] { b } else { a }
    } else {
        let mut m = first;
        for j in first + 1..n {
            if heap[j] < heap[m] {
                m = j;
            }
        }
        m
    }
}

/// Indexed timer scheduler: a position-tracked 4-ary min-heap holding
/// exactly one entry per armed key, ordered by `(time, key)`.
#[derive(Default)]
pub struct Scheduler {
    /// Packed `(time, key)` entries ([`pack`]), a 4-ary min-heap. While
    /// `hole` is set, `heap[0]` is a dead slot and the root's children
    /// head valid sub-heaps.
    heap: Vec<u128>,
    /// The last [`Scheduler::pop`] left the root slot empty (see the
    /// module docs).
    hole: bool,
    /// `pos[key]`: index of the key's entry in `heap`, or [`DISARMED`].
    pos: Vec<u32>,
    /// Arms performed (first arms and re-arms).
    arms: u64,
    /// Armed keys disarmed by [`Scheduler::cancel`].
    cancels: u64,
}

impl Scheduler {
    /// An empty scheduler; add keys with [`Scheduler::add_timer`].
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// A scheduler with keys `0..n`, all disarmed.
    pub fn with_timers(n: usize) -> Self {
        assert!(n <= DISARMED as usize, "{n} timer keys overflow the position table");
        Scheduler { heap: Vec::new(), hole: false, pos: vec![DISARMED; n], arms: 0, cancels: 0 }
    }

    /// Registers one more timer stream; returns its key (sequential).
    pub fn add_timer(&mut self) -> usize {
        assert!(self.pos.len() < DISARMED as usize, "timer keys overflow the position table");
        self.pos.push(DISARMED);
        self.pos.len() - 1
    }

    /// Number of registered timer keys (armed or not).
    pub fn n_timers(&self) -> usize {
        self.pos.len()
    }

    /// Number of currently armed timers: the heap holds one entry per
    /// armed key, plus the root slot a pop left open, which is not
    /// counted.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.hole)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arms performed so far, first arms and re-arms alike (a
    /// [`Scheduler::sync`] to an unchanged deadline is not one).
    pub fn arms(&self) -> u64 {
        self.arms
    }

    /// Armed timers disarmed by [`Scheduler::cancel`] (or a
    /// [`Scheduler::sync`] to `None`) so far; pops are not counted.
    pub fn cancels(&self) -> u64 {
        self.cancels
    }

    /// The deadline `key` is armed for, if any.
    pub fn armed(&self, key: usize) -> Option<f64> {
        match self.pos[key] {
            DISARMED => None,
            i => Some(entry_time(self.heap[i as usize])),
        }
    }

    /// Arms (or re-arms) `key` to fire at absolute time `t`, replacing any
    /// previous deadline of this key in place.
    pub fn schedule(&mut self, key: usize, t: f64) {
        assert!(t.is_finite(), "timer {key} armed at non-finite time {t}");
        self.arms += 1;
        let e = pack(t, key as u64);
        if self.pos[key] == DISARMED && self.hole {
            // Typically the stream that just fired: its new deadline
            // fills the root slot its pop left open.
            self.hole = false;
            self.sift_down(0, e);
            return;
        }
        self.close_hole();
        match self.pos[key] {
            DISARMED => {
                self.heap.push(e);
                self.sift_up(self.heap.len() - 1, e);
            }
            i => {
                let i = i as usize;
                if e < self.heap[i] {
                    self.sift_up(i, e);
                } else {
                    self.sift_down(i, e);
                }
            }
        }
    }

    /// Disarms `key`; a no-op when it is not armed.
    pub fn cancel(&mut self, key: usize) {
        if self.pos[key] != DISARMED {
            self.cancels += 1;
            self.close_hole();
            self.remove_at(self.pos[key] as usize);
        }
    }

    /// Arms `key` at `t`, or disarms it when `t` is `None` — but leaves
    /// the heap untouched when the deadline is unchanged (the cheap path
    /// for owners that re-sync after every state change).
    pub fn sync(&mut self, key: usize, t: Option<f64>) {
        if self.armed(key) == t {
            return;
        }
        match t {
            Some(t) => self.schedule(key, t),
            None => self.cancel(key),
        }
    }

    /// Earliest armed `(time, key)` without firing it: the root, or with
    /// the root slot open, the least of its (at most four) children.
    pub fn peek(&self) -> Option<(f64, usize)> {
        let top = if self.hole {
            let n = self.heap.len();
            if n == 1 {
                return None;
            }
            self.heap[min_child(&self.heap, 1, n)]
        } else {
            *self.heap.first()?
        };
        Some((entry_time(top), entry_key(top)))
    }

    /// Fires the earliest armed timer: returns `(time, key)` and disarms
    /// the key (re-arm it to keep the stream going). Leaves the root slot
    /// open for that re-arm to fill (see the module docs).
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        self.close_hole();
        let &top = self.heap.first()?;
        self.pos[entry_key(top)] = DISARMED;
        self.hole = true;
        Some((entry_time(top), entry_key(top)))
    }

    /// Refills the root slot a pop left open, if any: the heap's last
    /// entry moves to the root and sifts down.
    #[inline]
    fn close_hole(&mut self) {
        if !self.hole {
            return;
        }
        self.hole = false;
        let last = self.heap.pop().expect("an open root slot is a heap slot");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
    }

    /// Removes the entry at heap index `i` and disarms its key.
    fn remove_at(&mut self, i: usize) {
        let removed = self.heap[i];
        self.pos[entry_key(removed)] = DISARMED;
        let last = self.heap.pop().expect("removing from a non-empty heap");
        if i < self.heap.len() {
            if last < removed {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
    }

    /// Places `e` at or above index `i`, moving larger ancestors down.
    fn sift_up(&mut self, mut i: usize, e: u128) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let p = self.heap[parent];
            if p <= e {
                break;
            }
            self.heap[i] = p;
            self.pos[entry_key(p)] = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.pos[entry_key(e)] = i as u32;
    }

    /// Places `e` at or below index `i`, moving smaller children up.
    fn sift_down(&mut self, mut i: usize, e: u128) {
        let n = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let child = min_child(&self.heap, first, n);
            let c = self.heap[child];
            if e <= c {
                break;
            }
            self.heap[i] = c;
            self.pos[entry_key(c)] = i as u32;
            i = child;
        }
        self.heap[i] = e;
        self.pos[entry_key(e)] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut Scheduler) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        while let Some(ev) = s.pop() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::with_timers(3);
        s.schedule(0, 3.0);
        s.schedule(1, 1.0);
        s.schedule(2, 2.0);
        assert_eq!(drain(&mut s), vec![(1.0, 1), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    fn ties_fire_in_key_order() {
        let mut s = Scheduler::with_timers(5);
        for key in [3usize, 0, 4, 1, 2] {
            s.schedule(key, 7.0);
        }
        assert_eq!(drain(&mut s), (0..5).map(|k| (7.0, k)).collect::<Vec<_>>());
    }

    #[test]
    fn rearm_supersedes_previous_deadline() {
        let mut s = Scheduler::with_timers(2);
        s.schedule(0, 5.0);
        s.schedule(1, 2.0);
        s.schedule(0, 1.0); // earlier
        assert_eq!(s.len(), 2);
        assert_eq!(drain(&mut s), vec![(1.0, 0), (2.0, 1)]);

        s.schedule(0, 1.0);
        s.schedule(0, 9.0); // later: the 1.0 deadline must not fire
        s.schedule(1, 3.0);
        assert_eq!(drain(&mut s), vec![(3.0, 1), (9.0, 0)]);
    }

    #[test]
    fn cancel_disarms() {
        let mut s = Scheduler::with_timers(2);
        s.schedule(0, 1.0);
        s.schedule(1, 2.0);
        s.cancel(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.armed(0), None);
        assert_eq!(drain(&mut s), vec![(2.0, 1)]);
        s.cancel(0); // cancelling a disarmed key is a no-op
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn pop_disarms_the_key() {
        let mut s = Scheduler::with_timers(1);
        s.schedule(0, 1.0);
        assert_eq!(s.pop(), Some((1.0, 0)));
        assert_eq!(s.armed(0), None);
        assert!(s.is_empty());
        s.schedule(0, 2.0); // recurring stream: re-arm after firing
        assert_eq!(s.pop(), Some((2.0, 0)));
    }

    #[test]
    fn sync_skips_heap_churn_on_unchanged_deadline() {
        let mut s = Scheduler::with_timers(1);
        s.sync(0, Some(4.0));
        assert_eq!(s.arms(), 1);
        s.sync(0, Some(4.0)); // identical deadline: no re-arm
        assert_eq!(s.arms(), 1);
        s.sync(0, Some(5.0)); // moved deadline: a re-arm
        assert_eq!(s.arms(), 2);
        s.sync(0, None);
        assert!(s.is_empty());
        assert_eq!(s.cancels(), 1);
        s.sync(0, None); // disarming a disarmed key: no-op
        assert!(s.is_empty());
        assert_eq!((s.arms(), s.cancels()), (2, 1));
    }

    #[test]
    fn add_timer_extends_key_space() {
        let mut s = Scheduler::new();
        assert_eq!(s.add_timer(), 0);
        assert_eq!(s.add_timer(), 1);
        assert_eq!(s.n_timers(), 2);
        s.schedule(1, 1.0);
        assert_eq!(s.pop(), Some((1.0, 1)));
    }

    #[test]
    fn peek_matches_pop() {
        let mut s = Scheduler::with_timers(3);
        s.schedule(2, 2.0);
        s.schedule(1, 2.0);
        s.schedule(2, 8.0); // re-arm later: only key 1 remains at t=2
        assert_eq!(s.peek(), Some((2.0, 1)));
        assert_eq!(s.pop(), Some((2.0, 1)));
        assert_eq!(s.peek(), Some((8.0, 2)));
    }

    #[test]
    fn packed_entries_order_like_total_cmp_then_key() {
        let times = [f64::MIN, -3.5, -1e-300, -0.0, 0.0, 1e-300, 2.0, f64::MAX];
        for &a in &times {
            assert_eq!(entry_time(pack(a, 7)).to_bits(), a.to_bits(), "round trip of {a}");
            for &b in &times {
                for (ka, kb) in [(0, 0), (0, 1), (1, 0), (u64::MAX, 2)] {
                    let expected = a.total_cmp(&b).then(ka.cmp(&kb));
                    assert_eq!(
                        pack(a, ka).cmp(&pack(b, kb)),
                        expected,
                        "({a}, {ka}) vs ({b}, {kb})"
                    );
                }
            }
        }
    }

    #[test]
    fn heap_holds_one_entry_per_armed_key() {
        let mut s = Scheduler::with_timers(3);
        for round in 0..10 {
            for key in 0..3 {
                s.schedule(key, (round * 3 + key) as f64);
            }
            assert_eq!(s.heap.len(), 3, "re-arms replace entries in place");
        }
        s.cancel(1);
        assert_eq!(s.heap.len(), 2);
        assert_eq!(s.arms(), 30);
        assert_eq!(s.cancels(), 1);
    }

    #[test]
    #[should_panic]
    fn non_finite_deadline_panics() {
        let mut s = Scheduler::with_timers(1);
        s.schedule(0, f64::NAN);
    }

    #[test]
    fn key_layout_round_trips() {
        let mut layout = KeyLayout::new();
        let links = layout.class(3);
        let empty = layout.class(0);
        let proxies = layout.class(2);
        assert_eq!((links, empty, proxies), (0, 1, 2));
        assert_eq!(layout.n_keys(), 5);
        assert_eq!(layout.count(empty), 0);
        for (class, idx) in [(links, 0), (links, 2), (proxies, 0), (proxies, 1)] {
            assert_eq!(layout.decode(layout.key(class, idx)), (class, idx));
        }
        assert_eq!(layout.scheduler().n_timers(), 5);
    }

    #[test]
    fn key_layout_orders_classes_before_indices() {
        // Same-instant precedence: every stream of an earlier class fires
        // before any stream of a later class.
        let mut layout = KeyLayout::new();
        let a = layout.class(2);
        let b = layout.class(2);
        let mut s = layout.scheduler();
        for key in 0..4 {
            s.schedule(key, 1.0);
        }
        let order: Vec<(usize, usize)> =
            std::iter::from_fn(|| s.pop()).map(|(_, key)| layout.decode(key)).collect();
        assert_eq!(order, vec![(a, 0), (a, 1), (b, 0), (b, 1)]);
    }

    #[test]
    fn timed_queue_pops_by_time_then_id_not_insertion() {
        let mut q = TimedQueues::new(1);
        q.push(0, 2.0, 7, "late");
        q.push(0, 1.0, 9, "tie-high");
        q.push(0, 1.0, 4, "tie-low");
        assert_eq!(q.next_time(0), Some(1.0));
        assert_eq!(q.pop_due(0, 1.0), Some("tie-low"));
        assert_eq!(q.pop_due(0, 1.0), Some("tie-high"));
        assert_eq!(q.pop_due(0, 1.0), None, "2.0 entry is not due yet");
        assert_eq!(q.next_time(0), Some(2.0));
        assert_eq!(q.pop_due(0, 2.0), Some("late"));
        assert!(q.is_empty());
        assert_eq!(q.free_len(), q.pool_len());
    }
}
