//! The decided-request history behind `Query`: a FIFO-bounded map from
//! request id to its last decided state.
//!
//! A daemon decides millions of requests and must remember the outcome
//! of the most recent `capacity` of them, so the cost that matters is
//! bytes per remembered request. The layout is two parts:
//!
//! * a **ring** — `ids` and `states`, parallel vectors in decision
//!   order (8 + 1 bytes per request). Slots fill `0, 1, 2, …` until
//!   `capacity` of them exist; from then on each new request overwrites
//!   the oldest slot, `head`, and `head` moves on. An entry never changes
//!   slot, and FIFO order is `head.., ..head`.
//! * a **table** — open addressing with linear probing over `u32` words,
//!   `0` for an empty bucket, otherwise `(tag << 4 | dist) << pos_bits |
//!   slot + 1`: the ring slot in the low bits, then how far the entry
//!   sits from its home bucket (15 standing for "15 or more"), then, in
//!   the bits that are left, the top bits of the id's hash. A probe
//!   compares tag and distance before it touches the ring, so it walks
//!   past nearly every foreign entry for free. The table doubles when it
//!   would pass 7/8 full — between 4.6 and 9.1 bytes per request — and
//!   evicting the oldest entry closes its gap by shifting the rest of
//!   its cluster back, so probe chains never hold tombstones; the stored
//!   distance says how far an entry may move without looking up its id
//!   and hashing it again (each a cache miss at 2²⁰ entries).
//!
//! 13.6–18.1 bytes per request in all, against ≈50 for the
//! `HashMap<u64, ReqState>` plus `VecDeque<u64>` this replaces (17-byte
//! buckets at load ≤ 7/8, both tables alive while one resizes, and the
//! id stored a second time in the queue). Ids come from clients, so the
//! hash stays std's keyed SipHash (`RandomState`): nobody outside the
//! process can aim ids at one bucket.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::protocol::ReqState;

/// Buckets of a fresh table (a power of two, as every later size is).
const MIN_BUCKETS: usize = 8;

/// Bits of a word that hold the entry's distance from its home bucket.
const DIST_BITS: u32 = 4;

/// The largest stored distance, which stands for itself or anything more.
const DIST_MAX: usize = (1 << DIST_BITS) - 1;

/// The most entries a `u32` word can address beside the distance and at
/// least one bit of hash tag; larger bounds are clamped to it (≈1.2 GB
/// of ring).
const MAX_CAPACITY: usize = (1 << 27) - 1;

/// See the module docs.
#[derive(Debug)]
pub(crate) struct OutcomeHistory {
    /// Bound on remembered requests; the oldest is evicted beyond it.
    capacity: usize,
    /// Request id per ring slot.
    ids: Vec<u64>,
    /// Decided state per ring slot.
    states: Vec<ReqState>,
    /// Slot of the oldest entry; stays 0 until the ring is full.
    head: usize,
    /// `0`, or `(tag << DIST_BITS | dist) << pos_bits | slot + 1`, per
    /// bucket.
    table: Vec<u32>,
    /// Low bits of a word that hold `slot + 1`.
    pos_bits: u32,
    hasher: RandomState,
}

/// Where a probe for an absent id ended: the first empty bucket from its
/// home, and how many buckets that is from home.
#[derive(Clone, Copy)]
struct Vacancy {
    bucket: usize,
    dist: usize,
}

impl OutcomeHistory {
    /// An empty history remembering at most `capacity` requests.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.min(MAX_CAPACITY);
        OutcomeHistory {
            capacity,
            ids: Vec::new(),
            states: Vec::new(),
            head: 0,
            table: vec![0; MIN_BUCKETS],
            pos_bits: u32::BITS - (capacity as u32).leading_zeros(),
            hasher: RandomState::new(),
        }
    }

    /// The home bucket of a hash: its low bits.
    fn home(&self, hash: u64) -> usize {
        hash as usize & (self.table.len() - 1)
    }

    /// What a word holds above the slot for an entry with this hash,
    /// `dist` buckets from home: as many top bits of the hash as fit,
    /// then the distance.
    fn key(&self, hash: u64, dist: usize) -> u32 {
        let tag = (hash >> 32) as u32 >> (self.pos_bits + DIST_BITS);
        tag << DIST_BITS | dist.min(DIST_MAX) as u32
    }

    /// The ring slot a non-empty word points at.
    fn slot_of(&self, word: u32) -> usize {
        (word & ((1 << self.pos_bits) - 1)) as usize - 1
    }

    /// The ring slot holding `id`, whose hash is `hash` — or, if it is
    /// not remembered, where its table entry would go.
    fn find(&self, id: u64, hash: u64) -> Result<usize, Vacancy> {
        let mask = self.table.len() - 1;
        let (mut bucket, mut dist) = (self.home(hash), 0);
        // The load bound keeps at least one bucket empty, so this ends.
        loop {
            let word = self.table[bucket];
            if word == 0 {
                return Err(Vacancy { bucket, dist });
            }
            if word >> self.pos_bits == self.key(hash, dist) {
                let slot = self.slot_of(word);
                if self.ids[slot] == id {
                    return Ok(slot);
                }
            }
            bucket = (bucket + 1) & mask;
            dist += 1;
        }
    }

    /// The first empty bucket from the home of `hash`.
    fn vacancy(&self, hash: u64) -> Vacancy {
        let mask = self.table.len() - 1;
        let (mut bucket, mut dist) = (self.home(hash), 0);
        while self.table[bucket] != 0 {
            bucket = (bucket + 1) & mask;
            dist += 1;
        }
        Vacancy { bucket, dist }
    }

    /// Enter `slot`, whose id hashes to `hash`, into the table at `at`.
    fn link(&mut self, slot: usize, hash: u64, at: Vacancy) {
        self.table[at.bucket] = self.key(hash, at.dist) << self.pos_bits | (slot as u32 + 1);
    }

    /// Take `slot` out of the table and close the gap: each later entry
    /// of the cluster moves back into the hole unless that would put it
    /// before its own home bucket, where no probe would find it.
    fn unlink(&mut self, slot: usize) {
        let mask = self.table.len() - 1;
        let mut hole = self.home(self.hasher.hash_one(self.ids[slot]));
        while self.slot_of(self.table[hole]) != slot {
            hole = (hole + 1) & mask;
        }
        let dist_mask = (DIST_MAX as u32) << self.pos_bits;
        let mut bucket = (hole + 1) & mask;
        while self.table[bucket] != 0 {
            let word = self.table[bucket];
            let mut dist = ((word & dist_mask) >> self.pos_bits) as usize;
            if dist == DIST_MAX {
                // "15 or more": only the id's hash can say how much more.
                let home = self.home(self.hasher.hash_one(self.ids[self.slot_of(word)]));
                dist = bucket.wrapping_sub(home) & mask;
            }
            let gap = bucket.wrapping_sub(hole) & mask;
            if dist >= gap {
                let moved = (dist - gap).min(DIST_MAX) as u32;
                self.table[hole] = word & !dist_mask | moved << self.pos_bits;
                hole = bucket;
            }
            bucket = (bucket + 1) & mask;
        }
        self.table[hole] = 0;
    }

    /// Replace the table by one of `buckets` buckets and re-enter every
    /// slot from the ring: nothing is read from the old table, so it is
    /// freed first.
    fn rebuild_table(&mut self, buckets: usize) {
        self.table = Vec::new();
        self.table = vec![0; buckets];
        for slot in 0..self.ids.len() {
            let hash = self.hasher.hash_one(self.ids[slot]);
            self.link(slot, hash, self.vacancy(hash));
        }
    }

    /// Make room for `additional` more requests at once — a snapshot
    /// being restored knows how many it holds — so that the table is
    /// sized for them directly, not doubled up to them.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let len = (self.ids.len().saturating_add(additional)).min(self.capacity);
        self.ids.reserve(len - self.ids.len());
        self.states.reserve(len - self.states.len());
        let mut buckets = self.table.len();
        while len * 8 > buckets * 7 {
            buckets *= 2;
        }
        if buckets > self.table.len() {
            self.rebuild_table(buckets);
        }
    }

    /// Record the decided state of `id`. A known id keeps its place in
    /// the eviction order and only changes state; a new one becomes the
    /// newest entry, evicting the oldest if the history is full.
    pub(crate) fn record(&mut self, id: u64, state: ReqState) {
        let hash = self.hasher.hash_one(id);
        let vacancy = match self.find(id, hash) {
            Ok(slot) => {
                self.states[slot] = state;
                return;
            }
            Err(vacancy) => vacancy,
        };
        if self.ids.len() < self.capacity {
            self.ids.push(id);
            self.states.push(state);
            if self.ids.len() * 8 > self.table.len() * 7 {
                self.rebuild_table(self.table.len() * 2);
            } else {
                self.link(self.ids.len() - 1, hash, vacancy);
            }
        } else if self.capacity > 0 {
            // Closing the evicted entry's gap may open a bucket nearer
            // this id's home than the vacancy found above.
            let slot = self.head;
            self.unlink(slot);
            self.ids[slot] = id;
            self.states[slot] = state;
            self.link(slot, hash, self.vacancy(hash));
            self.head = (slot + 1) % self.capacity;
        }
    }

    /// The last recorded state of `id`, if it is still remembered.
    pub(crate) fn get(&self, id: u64) -> Option<ReqState> {
        let slot = self.find(id, self.hasher.hash_one(id)).ok()?;
        Some(self.states[slot])
    }

    /// Every remembered `(id, state)`, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, ReqState)> + '_ {
        (self.head..self.ids.len())
            .chain(0..self.head)
            .map(|slot| (self.ids[slot], self.states[slot]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::{HashMap, VecDeque};

    /// The `HashMap` + `VecDeque` pair `EngineState` used to keep, with
    /// its `record_state` and the order its `export` walked: the
    /// reference the compact history must be indistinguishable from.
    struct Model {
        capacity: usize,
        states: HashMap<u64, ReqState>,
        history: VecDeque<u64>,
    }

    impl Model {
        fn new(capacity: usize) -> Self {
            Model {
                capacity,
                states: HashMap::new(),
                history: VecDeque::new(),
            }
        }

        fn record(&mut self, id: u64, state: ReqState) {
            if !self.states.contains_key(&id) {
                self.history.push_back(id);
                if self.history.len() > self.capacity {
                    if let Some(old) = self.history.pop_front() {
                        self.states.remove(&old);
                    }
                }
            }
            self.states.insert(id, state);
        }

        fn get(&self, id: u64) -> Option<ReqState> {
            self.states.get(&id).copied()
        }

        fn fifo(&self) -> Vec<(u64, ReqState)> {
            self.history
                .iter()
                .map(|id| (*id, self.states[id]))
                .collect()
        }
    }

    const STATES: [ReqState; 3] = [ReqState::Accepted, ReqState::Rejected, ReqState::Cancelled];

    /// Every ring slot has exactly one word, no empty bucket lies between
    /// an entry and its home, and the stored distance is the true one
    /// (or 15 for more).
    fn assert_table_is_sound(h: &OutcomeHistory) {
        let mask = h.table.len() - 1;
        let mut seen = vec![false; h.ids.len()];
        for (bucket, &word) in h.table.iter().enumerate().filter(|(_, &w)| w != 0) {
            let slot = h.slot_of(word);
            assert!(
                !std::mem::replace(&mut seen[slot], true),
                "slot {slot} twice"
            );
            let hash = h.hasher.hash_one(h.ids[slot]);
            let dist = bucket.wrapping_sub(h.home(hash)) & mask;
            assert_eq!(word >> h.pos_bits, h.key(hash, dist), "bucket {bucket}");
            assert!((1..=dist).all(|back| h.table[bucket.wrapping_sub(back) & mask] != 0));
        }
        assert!(seen.iter().all(|&s| s), "a slot has no word");
    }

    /// Feed both the same records; after each one the touched id and one
    /// other must read alike, and every `check_every` records so must the
    /// whole FIFO order.
    fn run_against_model(
        capacity: usize,
        records: usize,
        check_every: usize,
        mut next_id: impl FnMut(&mut StdRng) -> u64,
    ) -> OutcomeHistory {
        let mut rng = StdRng::seed_from_u64(capacity as u64);
        let mut real = OutcomeHistory::new(capacity);
        let mut model = Model::new(capacity);
        for n in 1..=records {
            let id = next_id(&mut rng);
            let state = STATES[rng.gen_range(0..3usize)];
            real.record(id, state);
            model.record(id, state);
            assert_eq!(real.get(id), model.get(id), "id {id} after record {n}");
            let other = next_id(&mut rng);
            assert_eq!(real.get(other), model.get(other), "id {other} at {n}");
            if n % check_every == 0 || n == records {
                assert_table_is_sound(&real);
                assert_eq!(real.iter().collect::<Vec<_>>(), model.fifo(), "at {n}");
            }
        }
        real
    }

    #[test]
    fn small_capacities_with_duplicate_ids_match_the_model() {
        // Ids drawn from 3× the capacity: about a third of the records
        // update an entry in place (its FIFO position must not move), the
        // rest evict at the bound.
        for capacity in 1..=64 {
            let universe = 3 * capacity as u64;
            run_against_model(capacity, 2_000, 1, |rng| rng.gen_range(0..universe));
        }
    }

    #[test]
    fn random_ids_match_the_model_across_doublings() {
        // Unbounded in effect: 8 buckets double nine times on the way.
        let h = run_against_model(1 << 20, 3_000, 250, |rng| rng.gen());
        assert_eq!(h.table.len(), 4096);
        // Bounded at 1 000: the table stops at 2 048 and eviction takes over.
        let h = run_against_model(1_000, 20_000, 500, |rng| rng.gen_range(0..5_000u64));
        assert_eq!((h.ids.len(), h.table.len()), (1_000, 2_048));
    }

    #[test]
    fn the_default_bound_evicts_in_fifo_order() {
        // 2²⁰ + 2¹⁸ distinct ids through the daemon's default capacity:
        // eighteen doublings, then a quarter of the ring overwritten.
        let capacity = 1 << 20;
        let total = capacity as u64 + (1 << 18);
        let mut h = OutcomeHistory::new(capacity);
        for id in 0..total {
            h.record(id * 7, STATES[(id % 3) as usize]);
        }
        assert_eq!(h.ids.len(), capacity);
        assert_eq!(h.table.len(), 1 << 21);
        assert_eq!(h.get(0), None);
        assert_eq!(h.get(((1 << 18) - 1) * 7), None);
        for id in [1 << 18, 1 << 19, total - 1] {
            assert_eq!(h.get(id * 7), Some(STATES[(id % 3) as usize]), "id {id}");
        }
        assert!(h
            .iter()
            .map(|(id, _)| id)
            .eq(((1 << 18)..total).map(|id| id * 7)));
    }

    #[test]
    fn ids_sharing_a_home_bucket_survive_eviction_and_wrap_around() {
        // Ids picked by their home bucket in the table the bound settles
        // on, so that they form one probe cluster: all on the last of 8
        // buckets (the cluster wraps to bucket 0); spread over the last
        // two (shifting back must respect each entry's own home); and 27
        // on one of 32 buckets, where most sit further from home than a
        // word can say and eviction has to ask their hashes.
        for (capacity, buckets, homes) in [(7, 8, [7, 7]), (7, 8, [6, 7]), (27, 32, [30, 30])] {
            let mut real = OutcomeHistory::new(capacity);
            let hasher = real.hasher.clone();
            let ids: Vec<u64> = (0..u64::MAX)
                .filter(|&id| homes.contains(&(hasher.hash_one(id) as usize & (buckets - 1))))
                .take(capacity + 9)
                .collect();
            let mut rng = StdRng::seed_from_u64(7);
            let mut model = Model::new(capacity);
            for n in 0..5_000 {
                let id = ids[rng.gen_range(0..ids.len())];
                let state = STATES[rng.gen_range(0..3usize)];
                real.record(id, state);
                model.record(id, state);
                assert_table_is_sound(&real);
                assert_eq!(real.iter().collect::<Vec<_>>(), model.fifo(), "at {n}");
                for &id in &ids {
                    assert_eq!(real.get(id), model.get(id), "id {id} at {n}");
                }
            }
            assert_eq!(real.table.len(), buckets);
        }
    }

    #[test]
    fn reserving_changes_the_table_size_and_nothing_else() {
        let (mut plain, mut reserved) = (OutcomeHistory::new(500), OutcomeHistory::new(500));
        for id in 0..100 {
            plain.record(id, ReqState::Accepted);
            reserved.record(id, ReqState::Accepted);
        }
        reserved.reserve(10_000);
        assert_table_is_sound(&reserved);
        assert_eq!((plain.table.len(), reserved.table.len()), (128, 1024));
        for id in 50..1_000 {
            plain.record(id, ReqState::Rejected);
            reserved.record(id, ReqState::Rejected);
        }
        assert_table_is_sound(&reserved);
        assert_eq!(reserved.table.len(), plain.table.len());
        assert!(reserved.iter().eq(plain.iter()));
        assert!((0..1_000).all(|id| reserved.get(id) == plain.get(id)));
    }

    #[test]
    fn a_zero_bound_remembers_nothing() {
        let mut h = OutcomeHistory::new(0);
        h.record(1, ReqState::Accepted);
        assert_eq!(h.get(1), None);
        assert_eq!(h.iter().count(), 0);
    }
}
