//! Offline stand-in for `crossbeam`: the `channel` subset the paxi
//! transports use, over `std::sync::mpsc` (which has been crossbeam's own
//! channel implementation since Rust 1.67, so queueing behaviour and cost
//! are the same; only the multi-consumer half is missing, and unused).

pub mod channel {
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    /// Sending half of a bounded or unbounded channel.
    pub struct Sender<T> {
        flavor: Flavor<T>,
        /// Shared by every clone of one channel's sender: its identity.
        channel: Arc<()>,
    }

    enum Flavor<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let flavor = match &self.flavor {
                Flavor::Unbounded(tx) => Flavor::Unbounded(tx.clone()),
                Flavor::Bounded(tx) => Flavor::Bounded(tx.clone()),
            };
            Sender {
                flavor,
                channel: Arc::clone(&self.channel),
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Blocks while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.flavor {
                Flavor::Unbounded(tx) => tx.send(value),
                Flavor::Bounded(tx) => tx.send(value),
            }
        }

        /// Never blocks: a full bounded channel returns the value.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            match &self.flavor {
                Flavor::Unbounded(tx) => tx
                    .send(value)
                    .map_err(|SendError(v)| TrySendError::Disconnected(v)),
                Flavor::Bounded(tx) => tx.try_send(value),
            }
        }

        /// Whether both senders feed the same channel.
        pub fn same_channel(&self, other: &Sender<T>) -> bool {
            Arc::ptr_eq(&self.channel, &other.channel)
        }
    }

    /// Receiving half of a channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }
        pub fn try_iter(&self) -> mpsc::TryIter<'_, T> {
            self.0.try_iter()
        }
    }

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender {
                flavor: Flavor::Unbounded(tx),
                channel: Arc::new(()),
            },
            Receiver(rx),
        )
    }

    /// A channel holding at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Sender {
                flavor: Flavor::Bounded(tx),
                channel: Arc::new(()),
            },
            Receiver(rx),
        )
    }
}
