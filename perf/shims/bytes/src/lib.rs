//! Offline stand-in for `bytes`: the `BytesMut` subset `paxi-codec`'s
//! `FrameDecoder` uses. As in the published crate, `advance` and `split_to`
//! move an offset instead of shifting the buffer; `split_to(..).to_vec()`
//! costs one copy of the frame, as it does there.

use std::ops::Deref;

/// Read-cursor operations.
pub trait Buf {
    /// Discards the first `cnt` bytes.
    fn advance(&mut self, cnt: usize);
}

/// A growable byte buffer consumed from the front.
#[derive(Debug, Default, Clone)]
pub struct BytesMut {
    buf: Vec<u8>,
    head: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        // Reclaim the consumed prefix when it is free (nothing left) or when
        // growing would otherwise reallocate around mostly-dead bytes.
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= self.buf.len() / 2
            && self.buf.len() + extend.len() > self.buf.capacity()
        {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(extend);
    }

    /// Removes and returns the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> Split {
        assert!(
            at <= self.len(),
            "split_to out of bounds: {at} > {}",
            self.len()
        );
        let start = self.head;
        self.head += at;
        Split(self.buf[start..self.head].to_vec())
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

impl Buf for BytesMut {
    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len(),
            "advance out of bounds: {cnt} > {}",
            self.len()
        );
        self.head += cnt;
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.head..]
    }
}

/// The bytes [`BytesMut::split_to`] removed.
#[derive(Debug, Clone)]
pub struct Split(Vec<u8>);

impl Split {
    /// Shadows the slice method so handing the frame on is a move, keeping
    /// `split_to(n).to_vec()` at the published crate's single copy.
    #[allow(clippy::wrong_self_convention)]
    pub fn to_vec(self) -> Vec<u8> {
        self.0
    }
}

impl Deref for Split {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}
