//! Line-oriented text serialisation of [`Network`]s.
//!
//! Topologies are deterministic per generator seed, but pinning the exact
//! graph in a file makes experiment artifacts self-contained (a scenario
//! file plus a topology file fully reproduce a run, independent of
//! generator evolution). The format mirrors the scenario format of
//! `drt-sim`: one directive per line, `#` comments, documented by example:
//!
//! ```text
//! # drt-topology v1
//! nodes 3
//! pos 0 0.25 0.5          # optional: node index, x, y
//! duplex 0 1 100000       # node a, node b, capacity in kb/s
//! link 1 2 50000          # unidirectional variant
//! srlg 0 1 1 2            # shared-risk group: member links as src/dst pairs
//! ```

use crate::{Bandwidth, NetError, Network, NetworkBuilder, NodeId};

/// The largest capacity a topology file may give one link, in kb/s
/// (≈ 4.3 Tb/s). Link ids are 32-bit, so the capacities of any parsed
/// network sum without overflowing `u64` ([`Network::total_capacity`]).
const MAX_LINK_KBPS: u64 = u32::MAX as u64;

fn bad(line_no: usize, what: &str) -> NetError {
    NetError::Infeasible(format!("topology file line {line_no}: {what}"))
}

/// Parses the next token of a line as a `T`; ids, counts and capacities
/// are unsigned integers, so a sign, a fraction, an exponent, `NaN` and
/// out-of-range values are all errors rather than silent casts.
fn field<'a, T: std::str::FromStr>(
    tok: &mut impl Iterator<Item = &'a str>,
    line_no: usize,
    what: &str,
) -> Result<T, NetError> {
    tok.next()
        .ok_or_else(|| bad(line_no, &format!("missing {what}")))?
        .parse()
        .map_err(|_| bad(line_no, &format!("invalid {what}")))
}

impl Network {
    /// Serialises the network to the text format above. Duplex pairs are
    /// written as single `duplex` lines; unpaired links as `link` lines.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# drt-topology v1\n");
        out.push_str(&format!("nodes {}\n", self.num_nodes()));
        for n in self.nodes() {
            let [x, y] = self.node_position(n);
            // Positions default to the exact origin; only explicitly
            // placed nodes are worth a `pos` line. lint:allow(float-eq)
            if x != 0.0 || y != 0.0 {
                out.push_str(&format!("pos {} {x} {y}\n", n.index()));
            }
        }
        for l in self.links() {
            match l.reverse() {
                Some(rev) if rev < l.id() => continue, // written by the twin
                Some(_) => out.push_str(&format!(
                    "duplex {} {} {}\n",
                    l.src().index(),
                    l.dst().index(),
                    l.capacity().kbps()
                )),
                None => out.push_str(&format!(
                    "link {} {} {}\n",
                    l.src().index(),
                    l.dst().index(),
                    l.capacity().kbps()
                )),
            }
        }
        for g in self.srlg_ids() {
            out.push_str("srlg");
            for &m in self.srlg(g) {
                let l = self.link(m);
                out.push_str(&format!(" {} {}", l.src().index(), l.dst().index()));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`Network::to_text`].
    ///
    /// Note: link *ids* are assigned in file order, which round-trips
    /// exactly for networks produced by this crate's generators (their
    /// duplex pairs are already adjacent and sorted).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Infeasible`] describing the first malformed
    /// line (a non-integer id, count or capacity, a capacity above
    /// 4 294 967 295 kb/s, a second `nodes` line, …), or the underlying
    /// builder error for invalid links.
    pub fn from_text(text: &str) -> Result<Network, NetError> {
        let mut builder: Option<NetworkBuilder> = None;
        let mut positions: Vec<(usize, [f64; 2])> = Vec::new();
        // (src, dst) -> id lookup for `srlg` lines, built as links appear.
        let mut link_ids: std::collections::BTreeMap<(u32, u32), crate::LinkId> =
            std::collections::BTreeMap::new();

        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let directive = tok.next().expect("nonempty line");
            match directive {
                "nodes" => {
                    if builder.is_some() {
                        // A second builder would drop the links read so
                        // far while `link_ids` kept their ids.
                        return Err(bad(line_no, "repeated `nodes` directive"));
                    }
                    let n: usize = field(&mut tok, line_no, "node count")?;
                    builder = Some(NetworkBuilder::with_nodes(n));
                }
                "pos" => {
                    let idx: usize = field(&mut tok, line_no, "node index")?;
                    let x: f64 = field(&mut tok, line_no, "x")?;
                    let y: f64 = field(&mut tok, line_no, "y")?;
                    positions.push((idx, [x, y]));
                }
                "duplex" | "link" => {
                    let b = builder
                        .as_mut()
                        .ok_or_else(|| bad(line_no, "links before `nodes` directive"))?;
                    let a: u32 = field(&mut tok, line_no, "source")?;
                    let c: u32 = field(&mut tok, line_no, "destination")?;
                    let kbps: u64 = field(&mut tok, line_no, "capacity")?;
                    if kbps > MAX_LINK_KBPS {
                        return Err(bad(
                            line_no,
                            &format!("capacity above {MAX_LINK_KBPS} kb/s"),
                        ));
                    }
                    let cap = Bandwidth::from_kbps(kbps);
                    if directive == "duplex" {
                        let (fwd, rev) = b.add_duplex_link(NodeId::new(a), NodeId::new(c), cap)?;
                        link_ids.insert((a, c), fwd);
                        link_ids.insert((c, a), rev);
                    } else {
                        let id = b.add_link(NodeId::new(a), NodeId::new(c), cap)?;
                        link_ids.insert((a, c), id);
                    }
                }
                "srlg" => {
                    let b = builder
                        .as_mut()
                        .ok_or_else(|| bad(line_no, "srlg before `nodes` directive"))?;
                    let mut members = Vec::new();
                    let mut tok = tok.peekable();
                    while tok.peek().is_some() {
                        let src: u32 = field(&mut tok, line_no, "srlg source")?;
                        let dst: u32 = field(&mut tok, line_no, "srlg destination")?;
                        let id = link_ids.get(&(src, dst)).ok_or_else(|| {
                            bad(
                                line_no,
                                &format!("srlg member {src} -> {dst} is not a link"),
                            )
                        })?;
                        members.push(*id);
                    }
                    b.add_srlg(&members)
                        .map_err(|e| bad(line_no, &e.to_string()))?;
                }
                other => return Err(bad(line_no, &format!("unknown directive '{other}'"))),
            }
        }
        let builder = builder.ok_or_else(|| bad(0, "missing `nodes` directive"))?;
        let mut net = builder.build();
        for (idx, pos) in positions {
            if idx >= net.num_nodes() {
                return Err(NetError::UnknownNode(NodeId::new(idx as u32)));
            }
            net.positions[idx] = pos;
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn roundtrip_generated_topologies() {
        for net in [
            topology::mesh(3, 4, Bandwidth::from_mbps(10)).unwrap(),
            topology::ring(7, Bandwidth::from_kbps(1_500)).unwrap(),
            topology::WaxmanConfig::new(25, 3.0)
                .seed(4)
                .build()
                .unwrap(),
        ] {
            let text = net.to_text();
            let parsed = Network::from_text(&text).unwrap();
            assert_eq!(net, parsed);
        }
    }

    #[test]
    fn unidirectional_links_roundtrip() {
        let mut b = NetworkBuilder::with_nodes(3);
        b.add_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_kbps(100))
            .unwrap();
        b.add_duplex_link(NodeId::new(1), NodeId::new(2), Bandwidth::from_kbps(200))
            .unwrap();
        let net = b.build();
        let parsed = Network::from_text(&net.to_text()).unwrap();
        assert_eq!(net, parsed);
        assert!(parsed.find_link(NodeId::new(1), NodeId::new(0)).is_none());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\nnodes 2\n  # indented comment\nduplex 0 1 100 # trailing\n";
        let net = Network::from_text(text).unwrap();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.num_links(), 2);
    }

    #[test]
    fn srlg_roundtrip() {
        let mut b = NetworkBuilder::with_nodes(4);
        let (ab, ba) = b
            .add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_kbps(100))
            .unwrap();
        let (bc, _) = b
            .add_duplex_link(NodeId::new(1), NodeId::new(2), Bandwidth::from_kbps(100))
            .unwrap();
        let cd = b
            .add_link(NodeId::new(2), NodeId::new(3), Bandwidth::from_kbps(50))
            .unwrap();
        b.add_srlg(&[ab, ba, bc]).unwrap();
        b.add_srlg(&[cd]).unwrap();
        let net = b.build();
        let text = net.to_text();
        assert!(text.contains("srlg 0 1 1 0 1 2"));
        assert!(text.contains("srlg 2 3"));
        let parsed = Network::from_text(&text).unwrap();
        assert_eq!(net, parsed);
        assert_eq!(parsed.num_srlgs(), 2);
        assert_eq!(parsed.srlg(crate::SrlgId::new(0)), &[ab, ba, bc]);
    }

    #[test]
    fn malformed_srlg_rejected() {
        let base = "nodes 3\nduplex 0 1 100\n";
        // Odd token count (member missing destination).
        assert!(Network::from_text(&format!("{base}srlg 0 1 2\n")).is_err());
        // Not an existing link.
        assert!(Network::from_text(&format!("{base}srlg 0 2\n")).is_err());
        // Empty group.
        assert!(Network::from_text(&format!("{base}srlg\n")).is_err());
        // Before any nodes.
        assert!(Network::from_text("srlg 0 1\n").is_err());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(Network::from_text("").is_err()); // no nodes directive
        assert!(Network::from_text("duplex 0 1 100\n").is_err()); // links first
        assert!(Network::from_text("nodes 2\nduplex 0 100\n").is_err()); // missing field
        assert!(Network::from_text("nodes 2\nwat 1 2 3\n").is_err()); // unknown
        assert!(Network::from_text("nodes 2\nduplex 0 5 100\n").is_err()); // bad node
        assert!(Network::from_text("nodes 2\npos 9 0.5 0.5\n").is_err()); // bad pos
    }

    /// Numerics that used to be read as `f64` and cast: each of these was
    /// accepted (the capacity ones then panicked `total_capacity`), and a
    /// second `nodes` line silently dropped every link before it.
    #[test]
    fn garbage_numerics_rejected_with_line_number() {
        for (text, line) in [
            ("nodes 3\nduplex -1 2.7 100\n", 2),
            ("nodes 3\nduplex 0 2.7 100\n", 2),
            ("nodes 2\nduplex 0 1 1e30\n", 2),
            ("nodes 2\nduplex 0 1 NaN\n", 2),
            ("nodes 2\nlink 0 1 -5\n", 2),
            ("nodes 2\nduplex 0 1 4294967296\n", 2),
            ("nodes 2\nduplex 0 1 18446744073709551616\n", 2),
            ("nodes 2.5\n", 1),
            ("nodes -3\n", 1),
            ("nodes 2\npos 0.5 0 0\n", 2),
            ("nodes 3\nduplex 0 1 100\nsrlg 0 1.0\n", 3),
            (
                "nodes 3\nduplex 0 1 100\nnodes 3\nduplex 1 2 100\nsrlg 0 1 1 2\n",
                3,
            ),
        ] {
            match Network::from_text(text) {
                Err(NetError::Infeasible(why)) => assert!(
                    why.starts_with(&format!("topology file line {line}: ")),
                    "{text:?}: {why}"
                ),
                other => panic!("{text:?} must be rejected, got {other:?}"),
            }
        }
        // The largest accepted capacity still sums without overflow.
        let net = Network::from_text("nodes 2\nduplex 0 1 4294967295\n").unwrap();
        assert_eq!(net.total_capacity().kbps(), 2 * MAX_LINK_KBPS);
    }

    #[test]
    fn positions_preserved() {
        let net = topology::WaxmanConfig::new(10, 3.0)
            .seed(2)
            .build()
            .unwrap();
        let parsed = Network::from_text(&net.to_text()).unwrap();
        for n in net.nodes() {
            assert_eq!(net.node_position(n), parsed.node_position(n));
        }
    }
}
