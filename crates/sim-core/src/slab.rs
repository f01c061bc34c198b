//! Deterministic dense containers for the simulator's hot paths.
//!
//! The determinism pass (DESIGN.md §5) banned `HashMap`/`HashSet` for
//! their per-process random iteration order, and the hot paths landed on
//! `BTreeMap` — deterministic, but O(log n) with pointer-chasing on
//! every timer fire, TLB lookup, page-waiter wake and evicting-set
//! probe. The two containers here restore O(1) access while keeping
//! every *observable* order a pure function of the operation history:
//!
//! * [`Slab`] — an index-keyed arena with a dense LIFO free-list. Keys
//!   are handed out by the slab (recycled deterministically), so lookup
//!   is one bounds-checked array index.
//! * [`PageMap`] — an open-addressed map keyed by `u64` (page numbers,
//!   sequence numbers) using Fibonacci multiplicative hashing, linear
//!   probing and backward-shift deletion. The probe function is a fixed
//!   constant — no per-process SipHash keys — so layout, growth and
//!   probe order replay identically for the same insert/remove history.
//!
//! Neither container exposes raw storage-order iteration: walking a
//! `PageMap` in probe order would make behaviour depend on the hash
//! layout, which is deterministic but *not* semantically meaningful
//! (an innocuous capacity change would reorder it). Iteration is only
//! available in sorted-key form, which is what the fuzz suites compare
//! against a `BTreeMap` shadow model.

/// Sentinel for "no slot" in intrusive structures built on [`Slab`].
pub const NIL: u32 = u32::MAX;

/// An index-keyed arena with a dense free-list.
///
/// `insert` returns a stable `u32` key; `remove` recycles it LIFO. The
/// recycling order is part of the container's deterministic contract:
/// the same operation history always yields the same keys.
#[derive(Default)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning its key (recycled LIFO when possible).
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        match self.free.pop() {
            Some(key) => {
                debug_assert!(self.slots[key as usize].is_none());
                self.slots[key as usize] = Some(value);
                key
            }
            None => {
                let key = u32::try_from(self.slots.len()).expect("slab key space exhausted");
                assert_ne!(key, NIL, "slab key space exhausted");
                self.slots.push(Some(value));
                key
            }
        }
    }

    /// Removes and returns the value at `key`, freeing the slot.
    pub fn remove(&mut self, key: u32) -> Option<T> {
        let v = self.slots.get_mut(key as usize)?.take()?;
        self.free.push(key);
        self.len -= 1;
        Some(v)
    }

    /// Shared access to the value at `key`.
    pub fn get(&self, key: u32) -> Option<&T> {
        self.slots.get(key as usize)?.as_ref()
    }

    /// Mutable access to the value at `key`.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.slots.get_mut(key as usize)?.as_mut()
    }

    /// True if `key` holds a live value.
    pub fn contains(&self, key: u32) -> bool {
        self.slots.get(key as usize).is_some_and(Option::is_some)
    }

    /// Live keys in ascending order (the only iteration order offered;
    /// storage order is an implementation detail).
    pub fn keys_sorted(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, key: u32) -> &T {
        self.get(key).expect("stale slab key")
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, key: u32) -> &mut T {
        self.get_mut(key).expect("stale slab key")
    }
}

/// Fibonacci multiplicative hash: spreads consecutive page numbers over
/// the table while staying a fixed pure function (no per-process keys).
#[inline]
fn fib_hash(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// An open-addressed `u64 → V` map with deterministic layout.
///
/// Linear probing with backward-shift deletion (no tombstones), growth
/// at ¾ load. Point operations are O(1) expected with a probe sequence
/// fully determined by the key history — the structure the page-waiter,
/// evicting and replica sets use instead of `BTreeMap`. (The per-core
/// TLBs keep their own 4-byte-per-slot index, `mage_mmu::tlb`, small
/// enough for 56 of them to stay cache-resident.)
///
/// Keys and values live in parallel arrays so the probe loop touches 8
/// bytes per slot (the key array) and only dereferences a value on a
/// hit — measurably faster than probing `Option<(u64, V)>` slots in the
/// events/sec harness.
pub struct PageMap<V> {
    /// `key + 1` per slot; 0 marks an empty slot. Keys of `u64::MAX`
    /// are rejected at insert (page and sequence numbers never get
    /// there).
    keys: Vec<u64>,
    /// Value for each occupied slot, `None` where `keys` is 0.
    vals: Vec<Option<V>>,
    shift: u32,
    len: usize,
}

impl<V> Default for PageMap<V> {
    fn default() -> Self {
        PageMap::new()
    }
}

impl<V> PageMap<V> {
    const MIN_CAP: usize = 16;

    /// An empty map (allocates the minimum table eagerly so the probe
    /// arithmetic never special-cases zero capacity).
    pub fn new() -> Self {
        Self::with_pow2_capacity(Self::MIN_CAP)
    }

    /// An empty map sized for `n` entries without growing. The table is
    /// the smallest power of two keeping `n` at or under ¾ load — the
    /// same threshold [`insert`](Self::insert) grows at, so a map sized
    /// for its working set never reallocates *or* overshoots to the next
    /// power of two (1,536 entries fit 2,048 slots exactly).
    pub fn with_capacity(n: usize) -> Self {
        let cap = (n * 4).div_ceil(3).next_power_of_two().max(Self::MIN_CAP);
        Self::with_pow2_capacity(cap)
    }

    fn with_pow2_capacity(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        let mut vals = Vec::new();
        vals.resize_with(cap, || None);
        PageMap {
            keys: vec![0; cap],
            vals,
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Slot index of `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.mask();
        let tagged = key.checked_add(1)?; // u64::MAX is never stored
        let mut i = fib_hash(key, self.shift);
        loop {
            let k = self.keys[i];
            if k == tagged {
                return Some(i);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Shared access to the value under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| self.vals[i].as_ref().expect("found slot is occupied"))
    }

    /// Mutable access to the value under `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        Some(self.vals[i].as_mut().expect("found slot is occupied"))
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        assert_ne!(key, u64::MAX, "u64::MAX is reserved");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let tagged = key + 1;
        let mut i = fib_hash(key, self.shift);
        loop {
            let k = self.keys[i];
            if k == 0 {
                self.keys[i] = tagged;
                self.vals[i] = Some(value);
                self.len += 1;
                return None;
            }
            if k == tagged {
                return self.vals[i].replace(value);
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns a mutable reference to the value under `key`, inserting
    /// `make()` first if absent (the `entry().or_insert_with()` shape).
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        if self.find(key).is_none() {
            self.insert(key, make());
        }
        let i = self.find(key).expect("key just ensured present");
        self.vals[i].as_mut().expect("found slot is occupied")
    }

    /// Removes `key`, returning its value. Backward-shift deletion keeps
    /// probe chains tombstone-free, so lookup cost never decays.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        self.keys[hole] = 0;
        let value = self.vals[hole].take().expect("found slot is occupied");
        self.len -= 1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let k = self.keys[i];
            if k == 0 {
                break;
            }
            let home = fib_hash(k - 1, self.shift);
            // Shift `i` back into the hole iff its home position does not
            // lie strictly between the hole and `i` (cyclic distance test).
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.keys[i] = 0;
                self.vals[hole] = self.vals[i].take();
                hole = i;
            }
        }
        Some(value)
    }

    /// Entries in ascending key order — the only iteration offered, so
    /// callers can never observe the hash layout.
    pub fn iter_sorted(&self) -> Vec<(u64, &V)> {
        let mut out: Vec<(u64, &V)> = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != 0)
            .map(|(&k, v)| (k - 1, v.as_ref().expect("occupied slot has a value")))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, {
            let mut v = Vec::new();
            v.resize_with(new_cap, || None);
            v
        });
        self.shift = 64 - new_cap.trailing_zeros();
        let mask = self.mask();
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == 0 {
                continue;
            }
            let mut i = fib_hash(k - 1, self.shift);
            while self.keys[i] != 0 {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_recycles_lifo() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.insert("c"), a, "freed key is recycled LIFO");
        assert_eq!(s[a], "c");
        assert_eq!(s.len(), 2);
        assert_eq!(s.keys_sorted().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn slab_stale_key_is_none() {
        let mut s = Slab::new();
        let k = s.insert(7u64);
        s.remove(k);
        assert_eq!(s.get(k), None);
        assert!(!s.contains(k));
        assert_eq!(s.remove(k), None, "double remove is inert");
    }

    #[test]
    fn pagemap_basic_ops() {
        let mut m = PageMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(42, "x"), None);
        assert_eq!(m.insert(42, "y"), Some("x"));
        assert_eq!(m.get(42), Some(&"y"));
        assert!(m.contains_key(42));
        assert_eq!(m.remove(42), Some("y"));
        assert_eq!(m.remove(42), None);
        assert!(m.is_empty());
    }

    #[test]
    fn pagemap_grows_and_keeps_entries() {
        let mut m = PageMap::new();
        for k in 0..10_000u64 {
            m.insert(k * 7, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 7), Some(&k), "key {k} survived growth");
        }
        let sorted = m.iter_sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn pagemap_backward_shift_preserves_chains() {
        // Colliding keys (same home slot) must stay reachable after an
        // interior deletion — the case tombstone-free tables get wrong.
        let mut m = PageMap::new();
        // With a 16-slot table, keys that hash to the same bucket:
        let mut colliders = Vec::new();
        let mut k = 0u64;
        while colliders.len() < 4 {
            if fib_hash(k, 64 - 4) == 3 {
                colliders.push(k);
            }
            k += 1;
        }
        for &c in &colliders {
            m.insert(c, c);
        }
        m.remove(colliders[1]);
        for &c in [colliders[0], colliders[2], colliders[3]].iter() {
            assert_eq!(m.get(c), Some(&c), "collider {c} lost after deletion");
        }
    }

    #[test]
    fn pagemap_get_or_insert_with() {
        let mut m: PageMap<Vec<u32>> = PageMap::new();
        m.get_or_insert_with(5, Vec::new).push(1);
        m.get_or_insert_with(5, || panic!("must not re-create")).push(2);
        assert_eq!(m.get(5), Some(&vec![1, 2]));
    }
}
