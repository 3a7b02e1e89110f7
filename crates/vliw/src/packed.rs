//! Packed execution format: a scheduled [`Group`] lowered into flat,
//! execution-ordered arenas for the simulation hot loop.
//!
//! The tree representation ([`crate::tree`]) is built for *scheduling*:
//! every node owns its own parcel vector, children are ids local to the
//! VLIW, and walking a path chases a pointer per node. Executing it
//! directly makes the simulator's per-cycle loop bound by pointer
//! chasing rather than by parcel semantics. Lowering produces a
//! [`PackedGroup`]:
//!
//! * **one contiguous arena** of [`Operation`]s holding every parcel of
//!   every node in execution order — a node's parcels are a dense
//!   `(offset, len)` run into that arena, so the hot loop iterates
//!   slices without indirection;
//! * **one flat node table** for the whole group with *absolute* child
//!   indices, so condition routing is branch-table indexing rather than
//!   per-VLIW id translation;
//! * **preresolved exits** — every direct-branch exit carries the
//!   chain-link slot index it was lowered to, so the dispatch loop
//!   installs and follows group-to-group links without re-searching the
//!   exit-target table.
//!
//! Commit and load-verify behaviour needs no side tables: the
//! `is_commit`/`bypassed_store` flags ride on each [`Operation`] in the
//! arena, already in execution order.
//!
//! Lowering is total and lossless for any group that passes
//! [`Group::validate`]; the `daisy` core crate's property tests pin the
//! packed walk to the reference interpreter's architected state.

use crate::op::{OpKind, Operation};
use crate::reg::Reg;
use crate::tree::{Cond, Exit, Group, IndirectVia, NodeKind};

/// Fast-dispatch class of a parcel, pre-computed at lowering time so
/// the hot loop switches on one dense byte instead of re-deriving the
/// execution shape from [`Operation`] flags on every execution.
///
/// The hottest shapes get their own class (and their own straight-line
/// arm in the engine); anything unusual — trap checks and the
/// load-verify commits of bypassed loads — lands in
/// [`OpClass::General`], which the engine routes to its outlined
/// full-semantics interpreter. A parcel's class covers only the
/// *clean-source* path: the engine falls back to the general
/// interpreter whenever a source carries an exception tag, so poison
/// propagation (§2.1) stays in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// Committed [`OpKind::Copy`] — the commit primitive; the single
    /// most frequent parcel in scheduled code.
    Copy,
    /// Committed [`OpKind::Li`].
    LoadImm,
    /// Committed [`OpKind::Add`].
    Add,
    /// Committed [`OpKind::AddImm`].
    AddImm,
    /// Committed [`OpKind::CmpSImm`].
    CmpSImm,
    /// Committed [`OpKind::RotlImmMask`].
    RotlImmMask,
    /// Any other committed non-memory value op (evaluated through the
    /// generic [`crate::op::eval`] table).
    Value,
    /// Speculative non-memory value op: renamed destinations, no
    /// architected event.
    SpecValue,
    /// Memory load (speculative or committed).
    Load,
    /// Memory store.
    Store,
    /// Full-semantics fallback: trap checks and load-verify commits.
    General,
}

/// Pre-decoded per-parcel execution metadata, parallel to
/// [`PackedGroup::ops`]: register numbers as plain dense indices,
/// source-slot masks for a branchless poison check, and the
/// [`OpClass`] dispatch byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMeta {
    /// Fast-path class.
    pub class: OpClass,
    /// Source register indices; unused slots alias register 0.
    pub s: [u8; 3],
    /// `true` where `s[i]` is a real source (masks the slot into the
    /// exception-tag check).
    pub smask: [bool; 3],
    /// Number of real sources.
    pub nsrc: u8,
    /// Primary destination index, or [`OpMeta::NONE`].
    pub d1: u8,
    /// Carry destination index, or [`OpMeta::NONE`].
    pub d2: u8,
}

impl OpMeta {
    /// Sentinel for an absent destination.
    pub const NONE: u8 = u8::MAX;

    /// Pre-decodes one parcel.
    pub fn decode(op: &Operation) -> OpMeta {
        let srcs = op.srcs();
        let mut s = [0u8; 3];
        let mut smask = [false; 3];
        for (i, r) in srcs.iter().enumerate() {
            s[i] = r.0;
            smask[i] = true;
        }
        let class = match op.kind {
            OpKind::Load { .. } => OpClass::Load,
            OpKind::Store { .. } => OpClass::Store,
            OpKind::TrapIf { .. } => OpClass::General,
            _ if op.is_commit && op.bypassed_store => OpClass::General,
            _ if op.speculative => OpClass::SpecValue,
            // The specialized committed arms assume a destination and
            // no carry-out; anything else evaluates generically.
            _ if op.dest.is_none() || op.dest2.is_some() => OpClass::Value,
            OpKind::Copy => OpClass::Copy,
            OpKind::Li => OpClass::LoadImm,
            OpKind::Add => OpClass::Add,
            OpKind::AddImm => OpClass::AddImm,
            OpKind::CmpSImm => OpClass::CmpSImm,
            OpKind::RotlImmMask => OpClass::RotlImmMask,
            _ => OpClass::Value,
        };
        OpMeta {
            class,
            s,
            smask,
            nsrc: srcs.len() as u8,
            d1: op.dest.map_or(OpMeta::NONE, |r| r.0),
            d2: op.dest2.map_or(OpMeta::NONE, |r| r.0),
        }
    }
}

/// Continuation of a [`PackedNode`]: either an in-tree conditional
/// split or one of the group's exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedCtrl {
    /// Conditional split; `taken` and `fall` are *absolute* indices
    /// into [`PackedGroup::nodes`].
    Cond {
        /// The tested condition (evaluated against VLIW-entry state).
        cond: Cond,
        /// Node index when the condition holds.
        taken: u32,
        /// Node index when it does not.
        fall: u32,
    },
    /// Fall into the root of VLIW `vliw` of the same group (the tree
    /// representation's `Exit::Goto`). Always forward
    /// ([`Group::validate`]), so one group entry visits each node at
    /// most once.
    Next {
        /// Index of the successor VLIW.
        vliw: u32,
    },
    /// Leave the group through a static direct branch.
    Leave {
        /// Base-architecture target address.
        target: u32,
        /// Precomputed chain-link slot: index into the group's
        /// exit-target/link tables ([`PackedGroup::exit_targets`]).
        slot: u32,
    },
    /// Leave through an indirect (LR/CTR) branch.
    Indirect {
        /// Register read for the target address.
        src: Reg,
        /// Which architected register this stands for.
        via: IndirectVia,
    },
    /// Hand the instruction at `addr` to the VMM for interpretation.
    Interp {
        /// Base-architecture address of the instruction to interpret.
        addr: u32,
    },
}

/// One lowered tree node: a dense run of parcels in the group's op
/// arena plus its continuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedNode {
    /// First parcel of this node's run in [`PackedGroup::ops`].
    pub start: u32,
    /// Number of parcels in the run.
    pub len: u32,
    /// What happens after the run executes.
    pub ctrl: PackedCtrl,
}

/// A [`Group`] lowered to flat execution-ordered arrays (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedGroup {
    /// Every parcel of every node, in execution order. Nodes address
    /// this arena through `(start, len)` runs.
    pub ops: Vec<Operation>,
    /// Pre-decoded execution metadata, parallel to `ops`.
    pub meta: Vec<OpMeta>,
    /// Every node of every VLIW, with absolute child indices.
    pub nodes: Vec<PackedNode>,
    /// Index into [`PackedGroup::nodes`] of each VLIW's root.
    pub roots: Vec<u32>,
    /// Guest anchor address of each VLIW (`Vliw::base_entry`), parallel
    /// to `roots`.
    anchors: Vec<u32>,
    /// Sorted distinct direct-branch exit targets;
    /// [`PackedCtrl::Leave::slot`] indexes this table (and the runtime
    /// chain-link table kept parallel to it).
    exit_targets: Vec<u32>,
    /// Provenance side-table, parallel to `ops`: the base-architecture
    /// address (`Operation::base_addr`) of the guest instruction each
    /// arena slot was scheduled from. Kept *outside* [`OpMeta`] on
    /// purpose — the execution hot loop never reads it; retirement and
    /// sampling code (`daisy::profile`) indexes it by arena slot.
    origin: Vec<u32>,
    /// Owning-VLIW side-table, parallel to `nodes`: the VLIW index each
    /// flattened node belongs to, so retirement code can map an
    /// absolute node index back to its VLIW (and from there to the
    /// VLIW's `base_entry`) without a binary search over `roots`.
    node_vliw: Vec<u32>,
}

impl PackedGroup {
    /// Lowers a scheduled group.
    ///
    /// # Panics
    ///
    /// Panics if the group contains an `Open` node — translation seals
    /// every node before publishing a group ([`Group::validate`]).
    pub fn lower(group: &Group) -> PackedGroup {
        let mut exit_targets: Vec<u32> = group
            .vliws
            .iter()
            .flat_map(|v| v.nodes().iter())
            .filter_map(|n| match n.kind {
                NodeKind::Exit(Exit::Branch { target }) => Some(target),
                _ => None,
            })
            .collect();
        exit_targets.sort_unstable();
        exit_targets.dedup();

        let anchors: Vec<u32> = group.vliws.iter().map(|v| v.base_entry).collect();
        let total_ops: usize = group.vliws.iter().map(|v| v.num_ops() as usize).sum();
        let total_nodes: usize = group.vliws.iter().map(|v| v.nodes().len()).sum();
        let mut ops = Vec::with_capacity(total_ops);
        let mut meta = Vec::with_capacity(total_ops);
        let mut nodes = Vec::with_capacity(total_nodes);
        let mut roots = Vec::with_capacity(group.vliws.len());
        let mut origin = Vec::with_capacity(total_ops);
        let mut node_vliw = Vec::with_capacity(total_nodes);

        for (vi, v) in group.vliws.iter().enumerate() {
            let base = nodes.len() as u32;
            roots.push(base);
            for n in v.nodes() {
                let start = ops.len() as u32;
                ops.extend(n.ops.iter().copied());
                meta.extend(n.ops.iter().map(OpMeta::decode));
                origin.extend(n.ops.iter().map(|o| o.base_addr));
                node_vliw.push(vi as u32);
                let ctrl = match &n.kind {
                    NodeKind::Open => panic!("cannot lower an open node"),
                    NodeKind::Branch { cond, taken, fall } => {
                        PackedCtrl::Cond { cond: *cond, taken: base + taken.0, fall: base + fall.0 }
                    }
                    NodeKind::Exit(Exit::Goto(next)) => PackedCtrl::Next { vliw: next.0 },
                    NodeKind::Exit(Exit::Branch { target }) => PackedCtrl::Leave {
                        target: *target,
                        slot: exit_targets
                            .binary_search(target)
                            .expect("every Branch target is in exit_targets")
                            as u32,
                    },
                    NodeKind::Exit(Exit::Indirect { src, via }) => {
                        PackedCtrl::Indirect { src: *src, via: *via }
                    }
                    NodeKind::Exit(Exit::Interp { addr }) => PackedCtrl::Interp { addr: *addr },
                };
                nodes.push(PackedNode { start, len: ops.len() as u32 - start, ctrl });
            }
        }
        PackedGroup { ops, meta, nodes, roots, anchors, exit_targets, origin, node_vliw }
    }

    /// Guest anchor address of VLIW `vliw`: the base instruction its
    /// issue cycle is attributed to.
    #[inline]
    pub fn anchor(&self, vliw: usize) -> u32 {
        self.anchors[vliw]
    }

    /// Sorted distinct direct-branch exit targets — one chain-link slot
    /// per entry, in table order.
    pub fn exit_targets(&self) -> &[u32] {
        &self.exit_targets
    }

    /// The chain-link slot for a static direct-branch exit `target`, if
    /// the group has such an exit.
    pub fn exit_slot(&self, target: u32) -> Option<usize> {
        self.exit_targets.binary_search(&target).ok()
    }

    /// The dense parcel run of `node`.
    #[inline]
    pub fn node_ops(&self, node: &PackedNode) -> &[Operation] {
        &self.ops[node.start as usize..(node.start + node.len) as usize]
    }

    /// The provenance side-table: `origins()[k]` is the base-architecture
    /// address of the guest instruction arena slot `k` was scheduled
    /// from (parallel to [`PackedGroup::ops`]).
    pub fn origins(&self) -> &[u32] {
        &self.origin
    }

    /// Origin guest PC of arena slot `k` (see [`PackedGroup::origins`]).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds of the op arena.
    pub fn origin_pc(&self, k: usize) -> u32 {
        self.origin[k]
    }

    /// The guest-PC provenance of `node`'s parcel run, parallel to
    /// [`PackedGroup::node_ops`].
    pub fn node_origins(&self, node: &PackedNode) -> &[u32] {
        &self.origin[node.start as usize..(node.start + node.len) as usize]
    }

    /// The owning VLIW index of the node at absolute index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds of the node table.
    pub fn node_vliw(&self, idx: usize) -> u32 {
        self.node_vliw[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tree::{VliwId, ROOT};

    fn alu() -> Operation {
        Operation::new(OpKind::Add, 0).dst(Reg(32)).src(Reg(1)).src(Reg(2))
    }

    fn two_vliw_group() -> Group {
        let mut g = Group::new(0x1000);
        let v0 = &mut g.vliws[0];
        v0.add_op(ROOT, alu());
        let cond =
            Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1000 };
        let (t, f) = v0.split(ROOT, cond);
        v0.seal(t, Exit::Branch { target: 0x2000 });
        v0.add_op(f, alu());
        v0.seal(f, Exit::Goto(VliwId(1)));
        let v1 = g.push_vliw(0x1008);
        g.vliw_mut(v1).add_op(ROOT, alu());
        g.vliw_mut(v1).seal(ROOT, Exit::Branch { target: 0x1000 });
        g
    }

    #[test]
    fn lowering_flattens_nodes_and_ops() {
        let g = two_vliw_group();
        let p = PackedGroup::lower(&g);
        assert_eq!(p.roots, vec![0, 3]);
        assert_eq!(p.nodes.len(), 4);
        assert_eq!(p.ops.len(), 3);
        // Root of VLIW 0: one parcel, conditional split with absolute
        // children.
        let n0 = p.nodes[0];
        assert_eq!((n0.start, n0.len), (0, 1));
        match n0.ctrl {
            PackedCtrl::Cond { taken, fall, .. } => {
                assert_eq!((taken, fall), (1, 2));
            }
            other => panic!("expected Cond, got {other:?}"),
        }
        // Fall side: one parcel, then into VLIW 1.
        assert_eq!(p.nodes[2].ctrl, PackedCtrl::Next { vliw: 1 });
        assert_eq!(p.node_ops(&p.nodes[2]).len(), 1);
    }

    #[test]
    fn provenance_side_table_tracks_arena_slots() {
        let mut g = Group::new(0x1000);
        let v0 = &mut g.vliws[0];
        v0.add_op(ROOT, Operation::new(OpKind::Add, 0x1000).dst(Reg(32)).src(Reg(1)).src(Reg(2)));
        v0.add_op(ROOT, Operation::new(OpKind::Li, 0x1004).dst(Reg(33)));
        let cond =
            Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1008 };
        let (t, f) = v0.split(ROOT, cond);
        v0.add_op(t, Operation::new(OpKind::Add, 0x200c).dst(Reg(34)).src(Reg(1)).src(Reg(2)));
        v0.seal(t, Exit::Branch { target: 0x2000 });
        v0.seal(f, Exit::Branch { target: 0x100c });
        let p = PackedGroup::lower(&g);

        // Arena-slot provenance is parallel to the op arena and mirrors
        // each parcel's base_addr without the hot loop touching ops.
        assert_eq!(p.origins(), &[0x1000, 0x1004, 0x200c]);
        assert_eq!(p.origins().len(), p.ops.len());
        for (k, op) in p.ops.iter().enumerate() {
            assert_eq!(p.origin_pc(k), op.base_addr);
        }
        // Node-level views line up with node_ops.
        assert_eq!(p.node_origins(&p.nodes[0]), &[0x1000, 0x1004]);
        assert_eq!(p.node_origins(&p.nodes[1]), &[0x200c]);
        assert!(p.node_origins(&p.nodes[2]).is_empty());
        // Branch provenance rides on the lowered condition.
        let PackedCtrl::Cond { cond, .. } = p.nodes[0].ctrl else { panic!("root splits") };
        assert_eq!(cond.origin, 0x1008);
    }

    #[test]
    fn node_vliw_side_table_maps_absolute_indices() {
        let g = two_vliw_group();
        let p = PackedGroup::lower(&g);
        // VLIW 0 owns nodes 0..3, VLIW 1 owns node 3.
        assert_eq!(
            (0..p.nodes.len()).map(|i| p.node_vliw(i)).collect::<Vec<_>>(),
            vec![0, 0, 0, 1]
        );
    }

    #[test]
    fn exits_carry_precomputed_slots() {
        let g = two_vliw_group();
        let p = PackedGroup::lower(&g);
        assert_eq!(p.exit_targets(), &[0x1000, 0x2000]);
        let PackedCtrl::Leave { target, slot } = p.nodes[1].ctrl else {
            panic!("taken side is a direct exit");
        };
        assert_eq!(target, 0x2000);
        assert_eq!(slot as usize, p.exit_slot(0x2000).unwrap());
        let PackedCtrl::Leave { target, slot } = p.nodes[3].ctrl else {
            panic!("vliw 1 exits directly");
        };
        assert_eq!(target, 0x1000);
        assert_eq!(slot, 0);
    }
}
