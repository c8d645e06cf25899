//! Campaign fan-out over shared immutable state.
//!
//! A [`Campaign`] pairs an `Arc`-owned immutable payload — typically a
//! compiled circuit, a profile list, or a whole evaluation context — with
//! a [`ThreadPool`], and fans independent work units (vector shards,
//! circuit × style cells) out over the pool.
//! Owning the payload through an `Arc` lets a campaign outlive the scope
//! that built it and be handed between layers without re-borrowing.

use std::sync::Arc;

use crate::pool::ThreadPool;

/// Shared-state fan-out: an `Arc<C>` payload plus the pool that runs the
/// cells. All determinism rules of [`ThreadPool`] apply unchanged.
#[derive(Clone, Debug)]
pub struct Campaign<C> {
    shared: Arc<C>,
    pool: ThreadPool,
}

impl<C: Send + Sync> Campaign<C> {
    /// Campaign owning `shared`, running on `pool`.
    pub fn new(shared: C, pool: ThreadPool) -> Self {
        Campaign {
            shared: Arc::new(shared),
            pool,
        }
    }

    /// Campaign over an already-shared payload (no clone of the data).
    pub fn with_arc(shared: Arc<C>, pool: ThreadPool) -> Self {
        Campaign { shared, pool }
    }

    /// Campaign on the environment-selected pool ([`ThreadPool::from_env`]).
    pub fn from_env(shared: C) -> Self {
        Campaign::new(shared, ThreadPool::from_env())
    }

    /// The shared payload.
    pub fn shared(&self) -> &C {
        &self.shared
    }

    /// A new handle on the shared payload.
    pub fn arc(&self) -> Arc<C> {
        Arc::clone(&self.shared)
    }

    /// The pool the campaign runs on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Runs `cells` independent work units against the shared payload,
    /// results in cell order (see [`ThreadPool::run`]).
    pub fn run_cells<T, F>(&self, cells: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&C, usize) -> T + Sync,
    {
        if flh_obs::enabled() {
            flh_obs::sched_add("campaign.cell_runs", 1);
            flh_obs::sched_add("campaign.cells", cells as u64);
        }
        let shared = &*self.shared;
        self.pool.run(cells, move |i| f(shared, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_share_one_payload() {
        let campaign = Campaign::new(vec![2u64, 3, 5, 7, 11], ThreadPool::new(4));
        let doubled = campaign.run_cells(5, |data, i| data[i] * 2);
        assert_eq!(doubled, vec![4, 6, 10, 14, 22]);
        assert_eq!(campaign.pool().size(), 4);
    }

    #[test]
    fn arc_payloads_are_not_cloned() {
        let payload = Arc::new(vec![1u8; 1024]);
        let campaign = Campaign::with_arc(Arc::clone(&payload), ThreadPool::new(2));
        assert_eq!(Arc::strong_count(&payload), 2);
        let ones = campaign.run_cells(3, |d, _| d.iter().map(|&b| b as usize).sum::<usize>());
        assert_eq!(ones, vec![1024; 3]);
        assert!(Arc::ptr_eq(&payload, &campaign.arc()));
    }
}
