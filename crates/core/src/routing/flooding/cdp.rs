//! The channel-discovery packet (CDP) and candidate routes.

use drt_net::{LinkId, NodeId, Route};

/// One channel-discovery packet copy in flight (Section 4.1), as a record
/// of the flood's copy arena.
///
/// The paper's CDP carries the request (`srce-id`, `dest-id`, `conn-id`,
/// `hc-limit`, `bw-req`), which is the same for every copy of one flood
/// and so is kept once by the flood, not per copy; the hop count
/// `hc-curr`; the `primary-flag`; and `list`, the node trail used for
/// loop-free flooding and for building the route at the destination. A
/// record keeps the trail as a link to the copy it was forwarded from:
/// following [`Cdp::parent`] back to the source visits the trail's nodes
/// and links in reverse, so forwarding a copy appends one fixed-size
/// record instead of copying the trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cdp {
    /// The node the copy travels to.
    pub node: NodeId,
    /// The arena index of the copy this one was forwarded from; `None`
    /// for a copy the source sent.
    pub parent: Option<u32>,
    /// The link the copy took to reach [`Cdp::node`].
    pub link: LinkId,
    /// Hops taken so far (`hc-curr`).
    pub hc_curr: u32,
    /// `true` while every traversed link had `total − (prime + spare) ≥
    /// bw_req` — the route can carry a *primary* channel.
    pub primary_flag: bool,
}

/// Fixed header size of a CDP on the wire: ids, hop counts, bandwidth,
/// flags (modelled after the field list of Section 4.1).
pub(crate) const CDP_HEADER_BYTES: u64 = 28;

impl Cdp {
    /// Size of this packet on the wire: the header plus 4 bytes per trail
    /// entry, and a copy that took `hc_curr` hops carries `hc_curr`
    /// entries (the source and every forwarding node before it).
    pub fn wire_bytes(&self) -> u64 {
        CDP_HEADER_BYTES + 4 * u64::from(self.hc_curr)
    }
}

/// One entry of the destination's candidate-route table (CRT).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The discovered route.
    pub route: Route,
    /// Whether the route can carry a primary channel.
    pub primary_flag: bool,
    /// Hop count of the route.
    pub hops: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_grow_with_the_trail() {
        let copy = |hc_curr| Cdp {
            node: NodeId::new(4),
            parent: None,
            link: LinkId::new(3),
            hc_curr,
            primary_flag: true,
        };
        assert_eq!(copy(0).wire_bytes(), CDP_HEADER_BYTES);
        assert_eq!(copy(1).wire_bytes(), CDP_HEADER_BYTES + 4);
        assert_eq!(copy(3).wire_bytes(), CDP_HEADER_BYTES + 12);
    }
}
