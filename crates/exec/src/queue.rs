//! Bounded MPSC job queue with explicit back-pressure.
//!
//! [`BoundedQueue`] is the admission-control primitive behind the
//! `flh-serve` session layer: producers submit work with [`try_push`],
//! which fails fast with [`PushError::Full`] — the back-pressure signal a
//! protocol front end turns into a `rejected` reply — and a consumer
//! drains with [`pop_wait`]. Closing the queue wakes the waiting consumer;
//! a closed queue rejects new items but still hands out what was already
//! enqueued, so shutdown drains instead of dropping work.
//!
//! The queue is strictly FIFO. With a single consumer (the job-engine
//! executor), pop order equals push order — which is what keeps
//! session-level job execution deterministic.
//!
//! [`try_push`]: BoundedQueue::try_push
//! [`pop_wait`]: BoundedQueue::pop_wait

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back to the caller.
    Full(T),
    /// The queue was closed; the item is handed back to the caller.
    Closed(T),
}

impl<T> PushError<T> {
    /// The rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue: blocking pop, fail-fast push, drain-on-close
/// semantics.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    /// Metric prefix for [`named`](BoundedQueue::named) queues; depth is
    /// published to the **nondeterministic** gauge bank on every push/pop
    /// (the level observed by a racing producer or consumer is scheduling
    /// shape, never a result).
    stat: Option<&'static str>,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            stat: None,
        }
    }

    /// Like [`new`](BoundedQueue::new), but every push/pop publishes the
    /// observed depth as nondeterministic gauges `<prefix>.depth` and
    /// `<prefix>.depth_peak` (no-ops while no recorder is installed).
    pub fn named(capacity: usize, prefix: &'static str) -> Self {
        let mut q = Self::new(capacity);
        q.stat = Some(prefix);
        q
    }

    /// Publishes a depth observation taken while the lock was held.
    fn publish_depth(&self, len: usize) {
        if let Some(prefix) = self.stat {
            if flh_obs::enabled() {
                flh_obs::nondet_gauge_set(&format!("{prefix}.depth"), len as i64);
                flh_obs::nondet_gauge_max(&format!("{prefix}.depth_peak"), len as i64);
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        // A poisoning panic in a producer must not wedge the consumer.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after close;
    /// both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        self.publish_depth(depth);
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` only when the queue is closed **and** drained.
    pub fn pop_wait(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                let depth = inner.items.len();
                drop(inner);
                self.publish_depth(depth);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: new pushes fail, queued items remain poppable,
    /// every blocked consumer wakes.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_len() {
        let q = BoundedQueue::new(4);
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 4);
        for i in 0..4 {
            q.try_push(i).expect("under capacity");
        }
        assert_eq!(q.len(), 4);
        q.close();
        for i in 0..4 {
            assert_eq!(q.pop_wait(), Some(i));
        }
        assert_eq!(q.pop_wait(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_exerts_back_pressure_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("slot 1");
        q.try_push(2).expect("slot 2");
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop_wait(), Some(1));
        q.try_push(3).expect("slot freed");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_pushes_but_drains_pops() {
        let q = BoundedQueue::new(3);
        q.try_push("a").expect("open");
        q.close();
        assert_eq!(q.try_push("b"), Err(PushError::Closed("b")));
        assert_eq!(q.pop_wait(), Some("a"));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(7).expect("one slot");
        assert_eq!(q.try_push(8).map_err(PushError::into_inner), Err(8));
    }

    #[test]
    fn pop_wait_wakes_on_push_from_another_thread() {
        let q = Arc::new(BoundedQueue::new(2));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        q.try_push(42).expect("push");
        assert_eq!(consumer.join().expect("consumer thread"), Some(42));
    }
}
