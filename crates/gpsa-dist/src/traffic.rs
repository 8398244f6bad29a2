//! Cross-node traffic accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `N×N` matrix of message counts: `count(from, to)` messages were
/// routed from a dispatcher on node `from` to a compute actor on node
/// `to`. Off-diagonal entries are what a real cluster would put on the
/// wire.
#[derive(Debug)]
pub struct TrafficMatrix {
    n: usize,
    cells: Vec<AtomicU64>,
}

impl TrafficMatrix {
    /// A zeroed `n × n` matrix.
    pub fn new(n: usize) -> Self {
        TrafficMatrix {
            n,
            cells: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Record `count` messages from node `from` to node `to`.
    #[inline]
    pub fn record(&self, from: usize, to: usize, count: u64) {
        self.cells[from * self.n + to].fetch_add(count, Ordering::Relaxed);
    }

    /// Messages from `from` to `to`.
    pub fn count(&self, from: usize, to: usize) -> u64 {
        self.cells[from * self.n + to].load(Ordering::Relaxed)
    }

    /// Total messages that stayed on their origin node.
    pub fn local(&self) -> u64 {
        (0..self.n).map(|i| self.count(i, i)).sum()
    }

    /// Total messages that crossed nodes (the simulated network volume).
    pub fn remote(&self) -> u64 {
        let mut sum = 0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    sum += self.count(i, j);
                }
            }
        }
        sum
    }

    /// All messages.
    pub fn total(&self) -> u64 {
        self.local() + self.remote()
    }

    /// Snapshot as a plain matrix.
    pub fn snapshot(&self) -> Vec<Vec<u64>> {
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self.count(i, j)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_classifies() {
        let t = TrafficMatrix::new(3);
        t.record(0, 0, 5);
        t.record(0, 1, 7);
        t.record(2, 1, 1);
        t.record(1, 1, 2);
        assert_eq!(t.count(0, 1), 7);
        assert_eq!(t.local(), 7);
        assert_eq!(t.remote(), 8);
        assert_eq!(t.total(), 15);
        assert_eq!(t.snapshot()[2][1], 1);
        assert_eq!(t.n_nodes(), 3);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let t = std::sync::Arc::new(TrafficMatrix::new(2));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    t.record(0, 1, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.remote(), 40_000);
    }
}
