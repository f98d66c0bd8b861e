//! Bounded priority submission queue.
//!
//! A deliberately simple `Vec`-backed structure: the serving engine holds it
//! under one mutex and queue depths are bounded (tens to hundreds), so a
//! linear scan beats a binary heap that would need secondary bookkeeping for
//! shed-oldest removal anyway. Ordering rules:
//!
//! * [`pop_best`](BoundedQueue::pop_best) returns the highest-priority item;
//!   ties break FIFO (lowest submission sequence number first).
//! * [`shed_oldest`](BoundedQueue::shed_oldest) removes the item with the
//!   lowest sequence number regardless of priority — under the
//!   `ShedOldest` backpressure policy the job that has waited longest is
//!   the one closest to its deadline and thus the cheapest to drop.

/// A bounded FIFO-within-priority queue. Capacity is enforced by the caller
/// (the engine decides *how* to react to a full queue); the structure itself
/// only reports fullness.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    capacity: usize,
    next_seq: u64,
    items: Vec<(u64, u8, T)>,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), next_seq: 0, items: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Appends an item with the given priority, assigning it the next
    /// submission sequence number. The caller must have made room first.
    pub fn push(&mut self, priority: u8, item: T) {
        debug_assert!(!self.is_full(), "engine must shed or block before pushing");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push((seq, priority, item));
    }

    /// Removes and returns the highest-priority item (FIFO within a
    /// priority level).
    pub fn pop_best(&mut self) -> Option<T> {
        let best = self
            .items
            .iter()
            .enumerate()
            .max_by_key(|(_, (seq, priority, _))| (*priority, std::cmp::Reverse(*seq)))
            .map(|(i, _)| i)?;
        Some(self.items.remove(best).2)
    }

    /// Removes and returns the longest-waiting item (lowest sequence
    /// number), ignoring priority.
    pub fn shed_oldest(&mut self) -> Option<T> {
        let oldest = self.items.iter().enumerate().min_by_key(|(_, (seq, _, _))| *seq)?.0;
        Some(self.items.remove(oldest).2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_is_fifo_within_priority() {
        let mut q = BoundedQueue::new(8);
        q.push(0, "a");
        q.push(0, "b");
        q.push(0, "c");
        assert_eq!(q.pop_best(), Some("a"));
        assert_eq!(q.pop_best(), Some("b"));
        assert_eq!(q.pop_best(), Some("c"));
        assert_eq!(q.pop_best(), None);
    }

    #[test]
    fn higher_priority_preempts_queue_order() {
        let mut q = BoundedQueue::new(8);
        q.push(0, "low-early");
        q.push(5, "high-late");
        q.push(5, "high-later");
        q.push(0, "low-late");
        assert_eq!(q.pop_best(), Some("high-late"));
        assert_eq!(q.pop_best(), Some("high-later"));
        assert_eq!(q.pop_best(), Some("low-early"));
        assert_eq!(q.pop_best(), Some("low-late"));
    }

    #[test]
    fn shed_oldest_ignores_priority() {
        let mut q = BoundedQueue::new(8);
        q.push(0, "oldest");
        q.push(9, "urgent");
        assert_eq!(q.shed_oldest(), Some("oldest"));
        assert_eq!(q.len(), 1);
        assert_eq!(q.shed_oldest(), Some("urgent"));
        assert_eq!(q.shed_oldest(), None);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q: BoundedQueue<()> = BoundedQueue::new(0);
        assert!(!q.is_full());
        let mut q = BoundedQueue::new(0);
        q.push(0, ());
        assert!(q.is_full());
    }
}
