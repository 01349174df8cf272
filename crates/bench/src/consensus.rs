//! Consensus checker.
//!
//! Client-observed linearizability can hold even when the replicas'
//! state-machine histories disagree, so Paxi separately validates that
//! consensus was reached on every state transition: it collects the full
//! per-key version history from every node's multi-version store and checks
//! that, for every key, all nodes share a common prefix. A version is a
//! 64-bit digest of the value it installed, so two replicas that installed
//! different values at one index pass only if their digests collide, a
//! chance of about 2⁻⁶⁴ per compared pair; where two chains are equally
//! long, their last values are compared byte for byte as well.

use paxi_core::command::Key;
use paxi_core::store::MultiVersionStore;

/// A point where two replicas' histories diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The key whose history diverged.
    pub key: Key,
    /// Index of the first replica (in the order given).
    pub node_a: usize,
    /// Index of the second replica.
    pub node_b: usize,
    /// Position in the version chain where they disagree.
    pub at: usize,
}

/// Verifies the common-prefix property across all stores. Returns the first
/// divergence found, or `Ok(())`.
pub fn check_consensus(stores: &[&MultiVersionStore]) -> Result<(), Divergence> {
    // Collect the union of keys across all stores.
    let mut keys: Vec<Key> = stores.iter().flat_map(|s| s.keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        for a in 0..stores.len() {
            for b in (a + 1)..stores.len() {
                let ha = stores[a].history(key);
                let hb = stores[b].history(key);
                let common = ha.len().min(hb.len());
                let last_differs = ha.len() == hb.len() && stores[a].get(key) != stores[b].get(key);
                let at = (0..common)
                    .find(|&i| ha[i] != hb[i])
                    .or_else(|| last_differs.then(|| common - 1));
                if let Some(at) = at {
                    return Err(Divergence {
                        key,
                        node_a: a,
                        node_b: b,
                        at,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::command::Command;

    #[test]
    fn identical_stores_pass() {
        let mut a = MultiVersionStore::new();
        let mut b = MultiVersionStore::new();
        for s in [&mut a, &mut b] {
            s.execute(&Command::put(1, vec![1]));
            s.execute(&Command::put(1, vec![2]));
            s.execute(&Command::put(2, vec![9]));
        }
        assert!(check_consensus(&[&a, &b]).is_ok());
    }

    #[test]
    fn prefix_is_enough() {
        let mut a = MultiVersionStore::new();
        let mut b = MultiVersionStore::new();
        a.execute(&Command::put(1, vec![1]));
        a.execute(&Command::put(1, vec![2]));
        b.execute(&Command::put(1, vec![1])); // lagging replica
        assert!(check_consensus(&[&a, &b]).is_ok());
    }

    #[test]
    fn divergence_is_reported() {
        let mut a = MultiVersionStore::new();
        let mut b = MultiVersionStore::new();
        a.execute(&Command::put(1, vec![1]));
        b.execute(&Command::put(1, vec![2]));
        let d = check_consensus(&[&a, &b]).unwrap_err();
        assert_eq!(d.key, 1);
        assert_eq!(d.at, 0);
    }

    #[test]
    fn a_divergence_below_an_equal_last_value_is_found_where_it_is() {
        let mut a = MultiVersionStore::new();
        let mut b = MultiVersionStore::new();
        for i in 0..10u8 {
            a.execute(&Command::put(4, vec![i]));
            b.execute(&Command::put(4, vec![if i == 3 { 99 } else { i }]));
        }
        assert_eq!(a.get(4), b.get(4));
        let d = check_consensus(&[&a, &b]).unwrap_err();
        assert_eq!((d.key, d.at), (4, 3));
    }

    #[test]
    fn empty_store_set_passes() {
        assert!(check_consensus(&[]).is_ok());
    }

    #[test]
    fn keys_only_on_one_node_pass() {
        let mut a = MultiVersionStore::new();
        let b = MultiVersionStore::new();
        a.execute(&Command::put(5, vec![1]));
        assert!(check_consensus(&[&a, &b]).is_ok());
    }
}
