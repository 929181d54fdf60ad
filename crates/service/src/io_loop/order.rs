//! Reply ordering for one connection.
//!
//! A connection may have up to [`WINDOW`] frames awaiting their turn on
//! the wire. Deferred replies finish in any order, yet the peer must read
//! them in request order: [`ReplyOrder`] gives each such frame a sequence
//! number ([`issue`](ReplyOrder::issue)) and writes a finished reply
//! ([`deliver`](ReplyOrder::deliver)) only once every earlier one is
//! written, parking it until then. An inline answer read behind an
//! outstanding frame takes its turn the same way
//! ([`inline`](ReplyOrder::inline)); with nothing outstanding it goes
//! straight out.
//!
//! The type does no I/O and takes no lock: only the connection's poller
//! touches it, and `out` is the connection's output buffer.

use std::collections::VecDeque;

/// Frames one connection may have issued and not yet written: deferred
/// frames plus the inline answers parked behind them. The loop stops
/// reading a connection while its window is full, so a peer that keeps
/// sending costs at most this many parked replies.
pub const WINDOW: usize = 8;

/// Issue order and parked replies of one connection.
#[derive(Debug, Default)]
pub(crate) struct ReplyOrder {
    /// Sequence number of the next frame to issue.
    next_issue: u64,
    /// One slot per issued, unwritten frame, oldest first: the front
    /// slot is the next to go out, and a slot holds its reply once
    /// delivered.
    slots: VecDeque<Option<Vec<u8>>>,
}

impl ReplyOrder {
    /// Frames issued and not yet written.
    pub(crate) fn outstanding(&self) -> usize {
        self.slots.len()
    }

    /// Takes the next sequence number.
    pub(crate) fn issue(&mut self) -> u64 {
        self.slots.push_back(None);
        self.next_issue += 1;
        self.next_issue - 1
    }

    /// Files the reply of frame `seq` (empty for a frame nobody will
    /// read) and appends to `out` every reply now due, in order.
    pub(crate) fn deliver(&mut self, seq: u64, frame: &[u8], out: &mut Vec<u8>) {
        let first = self.next_issue - self.slots.len() as u64;
        let slot = usize::try_from(seq - first).expect("sequence number in range");
        debug_assert!(self.slots[slot].is_none(), "reply {seq} delivered twice");
        if slot > 0 {
            self.slots[slot] = Some(frame.to_vec());
            return;
        }
        out.extend_from_slice(frame);
        self.slots.pop_front();
        while let Some(Some(_)) = self.slots.front() {
            let parked = self.slots.pop_front().flatten().expect("checked above");
            out.extend_from_slice(&parked);
        }
    }

    /// An inline answer: written now when nothing is outstanding,
    /// otherwise parked behind the outstanding frames.
    pub(crate) fn inline(&mut self, frame: &[u8], out: &mut Vec<u8>) {
        if self.slots.is_empty() {
            out.extend_from_slice(frame);
        } else {
            let seq = self.issue();
            self.deliver(seq, frame, out);
        }
    }

    /// Replies delivered and waiting for an earlier one.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn early_replies_park_until_the_front_is_written() {
        let mut order = ReplyOrder::default();
        let mut out = Vec::new();
        let (a, b, c) = (order.issue(), order.issue(), order.issue());
        order.deliver(c, b"C", &mut out);
        order.inline(b"i", &mut out);
        order.deliver(b, b"B", &mut out);
        assert!(out.is_empty());
        assert_eq!(order.parked(), 3);
        order.deliver(a, b"A", &mut out);
        assert_eq!(out, b"ABCi");
        assert_eq!(order.outstanding(), 0);
        order.inline(b"j", &mut out);
        assert_eq!(out, b"ABCij");
    }

    /// How a frame is answered in the model below.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        /// Answered on the poller as it is read.
        Inline,
        /// Answered later by a worker.
        Deferred,
        /// The worker gives up: the frame's turn passes with no bytes.
        Abandoned,
        /// The worker never answers; the loop writes `internal`.
        TimedOut,
    }

    fn kind(k: u8) -> Kind {
        match k % 4 {
            0 => Kind::Inline,
            1 => Kind::Deferred,
            2 => Kind::Abandoned,
            _ => Kind::TimedOut,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Frames of random kinds read as the window allows, and deferred
        /// answers finishing in random order: the output is every frame's
        /// answer in issue order, and never more than `WINDOW` replies
        /// are parked.
        #[test]
        fn prop_replies_leave_in_issue_order(
            kinds in prop::collection::vec(0u8..4, 1..64),
            picks in prop::collection::vec(any::<u64>(), 0..256),
        ) {
            let mut order = ReplyOrder::default();
            let mut out = Vec::new();
            let mut expected = Vec::new();
            // Deferred frames awaiting their answer: (seq, answer bytes).
            let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut next = 0usize;
            let mut picks = picks.into_iter();
            while next < kinds.len() || !pending.is_empty() {
                let pick = picks.next().unwrap_or(0);
                // Odd picks read a frame while the window has room; even
                // picks (and a full window) finish a random deferred one.
                let read = next < kinds.len()
                    && order.outstanding() < WINDOW
                    && (pick % 2 == 1 || pending.is_empty());
                if read {
                    let frame = format!("<{next}>").into_bytes();
                    match kind(kinds[next]) {
                        Kind::Inline => {
                            expected.extend_from_slice(&frame);
                            order.inline(&frame, &mut out);
                        }
                        Kind::Deferred => {
                            expected.extend_from_slice(&frame);
                            pending.push((order.issue(), frame));
                        }
                        Kind::Abandoned => pending.push((order.issue(), Vec::new())),
                        Kind::TimedOut => {
                            let internal = format!("<{next}:internal>").into_bytes();
                            expected.extend_from_slice(&internal);
                            pending.push((order.issue(), internal));
                        }
                    }
                    next += 1;
                } else {
                    let (seq, frame) = pending.swap_remove((pick / 2) as usize % pending.len());
                    order.deliver(seq, &frame, &mut out);
                }
                prop_assert!(order.parked() <= WINDOW);
                prop_assert!(order.outstanding() <= WINDOW);
                prop_assert!(expected.starts_with(&out));
            }
            prop_assert_eq!(order.outstanding(), 0);
            prop_assert_eq!(out, expected);
        }
    }
}
