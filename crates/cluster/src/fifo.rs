//! Single-threaded bounded FIFO for event-engine device queues.
//!
//! The threaded cluster's workers block on [`ctb_serve::BoundedQueue`]
//! (a `Mutex` plus two `Condvar`s); the discrete-event engine drives
//! every queue from one thread, so paying a lock and a futex wake per
//! push and pop buys it nothing. [`DeviceQueue`] is the same contract
//! as a plain value: the same capacity clamp, the same close semantics
//! (closed queues still drain) and the same error priority — a push
//! against a full queue reports [`PushError::Full`] even when the queue
//! is also closed. The differential property test below drives both
//! queues through random scripts and requires identical answers.

use ctb_serve::PushError;
use std::collections::VecDeque;

#[derive(Debug)]
pub(crate) struct DeviceQueue<T> {
    q: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> DeviceQueue<T> {
    /// An open, empty queue; a zero capacity is clamped to one, exactly
    /// like [`ctb_serve::BoundedQueue::new`].
    pub(crate) fn new(capacity: usize) -> Self {
        DeviceQueue::restore(capacity, false, Vec::new())
    }

    /// Rebuild a queue from serialized state: same clamped capacity,
    /// same closed flag, same items in FIFO order.
    pub(crate) fn restore(capacity: usize, closed: bool, items: Vec<T>) -> Self {
        DeviceQueue { q: VecDeque::from(items), capacity: capacity.max(1), closed }
    }

    /// Append `item` unless the queue is full (checked first) or
    /// closed; on refusal the item is handed back.
    pub(crate) fn try_push(&mut self, item: T) -> Result<(), (PushError, T)> {
        if self.q.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        if self.closed {
            return Err((PushError::Closed, item));
        }
        self.q.push_back(item);
        Ok(())
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    /// Pop the front item only when `pred` accepts it.
    pub(crate) fn pop_if(&mut self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        if pred(self.q.front()?) {
            self.q.pop_front()
        } else {
            None
        }
    }

    pub(crate) fn front(&self) -> Option<&T> {
        self.q.front()
    }

    /// Stop accepting items; queued items stay poppable.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Queued items, front to back.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_serve::BoundedQueue;
    use proptest::prelude::*;

    #[test]
    fn full_is_reported_before_closed() {
        let mut q = DeviceQueue::new(1);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err((PushError::Full, 2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(2), Err((PushError::Closed, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn restore_clamps_capacity_and_keeps_order() {
        let mut q = DeviceQueue::restore(0, false, vec![7]);
        assert_eq!(q.try_push(8), Err((PushError::Full, 8)), "capacity clamped to one");
        assert_eq!(q.pop_if(|&v| v == 8), None, "declined front stays");
        assert_eq!(q.pop_if(|&v| v == 7), Some(7));
        assert!(q.is_empty());
    }

    /// One scripted operation against both queues.
    #[derive(Debug, Clone)]
    enum Op {
        Push,
        Pop,
        /// Pop when the front item's parity matches.
        PopIf(bool),
        Close,
    }

    /// Pushes outweigh pops so queues reach capacity; closes are rare
    /// so most scripts run open for a while first.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..20).prop_map(|v| match v {
            0..=8 => Op::Push,
            9..=14 => Op::Pop,
            15..=18 => Op::PopIf(v % 2 == 1),
            _ => Op::Close,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The device FIFO answers every push, pop, conditional pop and
        /// close exactly like the locked `BoundedQueue` it replaces in
        /// the event engine: same `Ok`/`Full`/`Closed` results, same
        /// items, same lengths.
        #[test]
        fn device_queue_matches_bounded_queue(
            cap in 0usize..=5,
            ops in collection::vec(op(), 1..=80),
        ) {
            let reference: BoundedQueue<u64> = BoundedQueue::new(cap);
            let mut local: DeviceQueue<u64> = DeviceQueue::new(cap);
            let mut next = 0u64;
            for op in &ops {
                match op {
                    Op::Push => {
                        prop_assert_eq!(local.try_push(next), reference.try_push(next));
                        next += 1;
                    }
                    Op::Pop => {
                        prop_assert_eq!(local.pop(), reference.pop_if(|_| true));
                    }
                    Op::PopIf(odd) => {
                        let want = |v: &u64| (v % 2 == 1) == *odd;
                        prop_assert_eq!(local.pop_if(want), reference.pop_if(want));
                    }
                    Op::Close => {
                        local.close();
                        reference.close();
                    }
                }
                prop_assert_eq!(local.len(), reference.len());
                prop_assert_eq!(local.is_empty(), reference.is_empty());
                prop_assert_eq!(local.is_closed(), reference.is_closed());
                prop_assert_eq!(local.front().copied(), reference.peek_map(|v| *v));
            }
        }
    }
}
