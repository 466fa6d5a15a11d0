//! Node ids, queued payloads and wire-size accounting.
//!
//! The paper's notion of "efficiency" is about **control information**: how
//! much protocol metadata a process must carry and propagate about variables
//! it does not replicate. To make that measurable, every payload carried by
//! the simulator implements [`WireSize`], which splits its serialized size
//! into *data bytes* (the application value being written) and *control
//! bytes* (timestamps, vector clocks, dependency summaries, sequence
//! numbers...). The statistics module aggregates both per link and per node.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated node (both the MCS process and its application
/// process live on one node). Dense, zero-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// Size-on-the-wire accounting for a message payload.
///
/// Implementations report how many bytes of the encoded message are
/// application data versus protocol control information. The simulator does
/// not actually serialize payloads; the numbers are the protocol's own
/// accounting of what it *would* send, which is exactly the quantity the
/// paper reasons about.
pub trait WireSize {
    /// Bytes of application data (e.g. the written value).
    fn data_bytes(&self) -> usize;

    /// Bytes of protocol control information (timestamps, clocks,
    /// dependency metadata, sequence numbers, variable ids...).
    fn control_bytes(&self) -> usize;

    /// Total bytes on the wire.
    fn total_bytes(&self) -> usize {
        self.data_bytes() + self.control_bytes()
    }
}

/// A queued payload: owned outright by its delivery event (the unicast
/// case) or shared behind an [`Rc`](std::rc::Rc) by every delivery event
/// of one multicast fan-out.
///
/// Expanding an [`Outgoing::Many`](crate::node::Outgoing::Many) used to
/// clone the payload once per destination, so a single causal broadcast
/// at `n` nodes held `n - 1` live copies of an `O(n)` vector clock in the
/// event queue — `O(n²)` bytes of queued payload per write. Sharing one
/// allocation makes the queued cost `O(n)` again. The sharing is purely
/// a memory optimization: [`Payload::into_owned`] materializes a private
/// copy at delivery time (reclaiming the allocation without a copy for
/// the last receiver), so nodes observe exactly the cloned-per-
/// destination semantics, bit for bit.
pub enum Payload<P> {
    /// The event owns its payload.
    Owned(P),
    /// The payload is shared with the other events of its fan-out.
    Shared(std::rc::Rc<P>),
}

impl<P> Payload<P> {
    /// Borrow the payload value, wherever it lives.
    pub fn value(&self) -> &P {
        match self {
            Payload::Owned(p) => p,
            Payload::Shared(rc) => rc,
        }
    }
}

impl<P: Clone> Payload<P> {
    /// Take ownership of the payload value: by move when owned, by
    /// unwrapping when this is the last live handle of its fan-out, and
    /// by clone only while other deliveries still share it.
    pub fn into_owned(self) -> P {
        match self {
            Payload::Owned(p) => p,
            Payload::Shared(rc) => {
                std::rc::Rc::try_unwrap(rc).unwrap_or_else(|shared| (*shared).clone())
            }
        }
    }
}

impl<P> Clone for Payload<P>
where
    P: Clone,
{
    fn clone(&self) -> Self {
        match self {
            Payload::Owned(p) => Payload::Owned(p.clone()),
            Payload::Shared(rc) => Payload::Shared(std::rc::Rc::clone(rc)),
        }
    }
}

impl<P: fmt::Debug> fmt::Debug for Payload<P> {
    /// Transparent: traces print the payload value itself, so trace
    /// output is identical whether or not the payload was shared.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value().fmt(f)
    }
}

impl<P: PartialEq> PartialEq for Payload<P> {
    /// Value equality: an owned payload equals a shared one carrying the
    /// same value.
    fn eq(&self, other: &Self) -> bool {
        self.value() == other.value()
    }
}

impl<P: Eq> Eq for Payload<P> {}

impl<P: WireSize> WireSize for Payload<P> {
    fn data_bytes(&self) -> usize {
        self.value().data_bytes()
    }
    fn control_bytes(&self) -> usize {
        self.value().control_bytes()
    }
}

/// A trivial payload with explicit sizes; useful for tests and for traffic
/// generators that only care about volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RawPayload {
    /// Declared data bytes.
    pub data: usize,
    /// Declared control bytes.
    pub control: usize,
}

impl RawPayload {
    /// A payload of `data` data bytes and `control` control bytes.
    pub fn new(data: usize, control: usize) -> Self {
        RawPayload { data, control }
    }
}

impl WireSize for RawPayload {
    fn data_bytes(&self) -> usize {
        self.data
    }
    fn control_bytes(&self) -> usize {
        self.control
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(7);
        assert_eq!(n.index(), 7);
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(format!("{n:?}"), "n7");
        assert_eq!(NodeId::from(3), NodeId(3));
    }

    #[test]
    fn raw_payload_wire_size() {
        let p = RawPayload::new(10, 32);
        assert_eq!(p.data_bytes(), 10);
        assert_eq!(p.control_bytes(), 32);
        assert_eq!(p.total_bytes(), 42);
    }

    #[test]
    fn node_id_ordering_is_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(NodeId(10) > NodeId(2));
    }

    #[test]
    fn payload_sharing_is_observably_transparent() {
        let owned: Payload<RawPayload> = Payload::Owned(RawPayload::new(4, 8));
        let shared: Payload<RawPayload> = Payload::Shared(std::rc::Rc::new(RawPayload::new(4, 8)));
        // Value equality across representations.
        assert_eq!(owned, shared);
        // Wire accounting and debug output delegate to the value.
        assert_eq!(shared.data_bytes(), 4);
        assert_eq!(shared.control_bytes(), 8);
        assert_eq!(shared.total_bytes(), 12);
        assert_eq!(format!("{owned:?}"), format!("{shared:?}"));
        assert_eq!(
            format!("{shared:?}"),
            format!("{:?}", RawPayload::new(4, 8))
        );
    }

    #[test]
    fn into_owned_reclaims_the_last_shared_handle() {
        let rc = std::rc::Rc::new(RawPayload::new(1, 2));
        let a: Payload<RawPayload> = Payload::Shared(std::rc::Rc::clone(&rc));
        let b: Payload<RawPayload> = Payload::Shared(std::rc::Rc::clone(&rc));
        drop(rc);
        // First materialization clones (the fan-out still shares)...
        assert_eq!(a.into_owned(), RawPayload::new(1, 2));
        // ...the last one unwraps the allocation without copying.
        assert_eq!(b.into_owned(), RawPayload::new(1, 2));
        assert_eq!(
            Payload::Owned(RawPayload::new(9, 9)).into_owned(),
            RawPayload::new(9, 9)
        );
    }
}
