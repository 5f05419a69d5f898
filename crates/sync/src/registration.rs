//! The cluster registration abstraction of Section 3.2.
//!
//! Within one cluster tree and one stage, nodes *register* before performing a piece
//! of work, *deregister* once done, and then wait for a `Go-Ahead` from the cluster.
//! The two guarantees (Lemmas 3.4 and 3.5) are:
//!
//! 1. when a node receives its Go-Ahead, every node that registered before this node
//!    deregistered has already deregistered, and
//! 2. once no more registrations happen and all registered nodes have deregistered,
//!    every registered node receives its Go-Ahead within `O(h)` time, spending only
//!    messages proportional to the registrations.
//!
//! The implementation follows the paper: registration marks the tree path to the
//! root *dirty* (procedure `R`), deregistration converts dirty edges to *waiting*
//! (procedure `D`), and the root propagates Go-Aheads down waiting edges
//! (procedure `G`).
//!
//! [`RegistrationInstance`] is a pure node-local state machine: it consumes local
//! commands ([`RegistrationInstance::register`], [`RegistrationInstance::deregister`])
//! and peer messages ([`RegistrationInstance::on_message`]), and emits
//! [`RegAction`]s — messages to tree neighbors plus local notifications — which the
//! embedding protocol (the synchronizer) routes over the network. One instance exists
//! per (cluster, stage) pair per node while a registration wave passes through it:
//! the synchronizer creates it lazily and drops it again once it is idle
//! ([`RegistrationInstance::is_idle`]).

use ds_graph::NodeId;

/// Messages exchanged between cluster-tree neighbors by the registration abstraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegMsg {
    /// Child → parent: "I marked our edge dirty; run `R` and tell me when the path to
    /// the root is dirty."
    RegisterUp,
    /// Parent → child: "`R` is complete here (the path from me to the root is dirty)."
    RegisterDone,
    /// Child → parent: "our edge is no longer dirty but waiting; run `D`."
    DeregisterUp,
    /// Parent → child over a waiting edge: the Go-Ahead (procedure `G`).
    GoAheadDown,
}

/// Local effects produced by the state machine for the embedding protocol to act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegAction {
    /// Send `msg` to the cluster-tree neighbor `to`.
    Send { to: NodeId, msg: RegMsg },
    /// This node's own registration is confirmed (the path to the root is dirty).
    Registered,
    /// This node received the Go-Ahead it was waiting for after deregistering.
    Free,
}

/// Edge marks as seen from the node above the edge (for child edges) or below it (for
/// the parent edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum EdgeMark {
    #[default]
    Clean,
    Dirty,
    Waiting,
}

/// One cluster-tree child edge, as seen from the parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChildEdge {
    node: NodeId,
    mark: EdgeMark,
    /// Whether this child's `R` invocation is waiting for this node to become
    /// finished.
    r_waiting: bool,
}

/// Per-node state of the registration abstraction for one (cluster, stage).
///
/// An instance is *idle* ([`RegistrationInstance::is_idle`]) when no wave is passing
/// through it; an idle instance behaves exactly like a fresh one, so the embedding
/// protocol may drop it and recreate it lazily (DESIGN.md §3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistrationInstance {
    /// Parent in the cluster tree (`None` for the cluster root).
    parent: Option<NodeId>,
    /// The child edges, in cluster-tree order (flat: children lists are short, so a
    /// linear scan beats any map).
    children: Vec<ChildEdge>,
    /// Whether the path from this node to the root is known to be fully dirty.
    finished: bool,
    /// This node's own lifecycle.
    registered: bool,
    deregistered: bool,
    free: bool,
    /// Mark of the edge to the parent, from this node's point of view.
    parent_edge: EdgeMark,
    /// Whether this node's own registration is waiting for the parent's `R`.
    own_r_pending: bool,
    /// Whether a `RegisterUp` has been sent and not yet answered.
    awaiting_parent: bool,
}

impl RegistrationInstance {
    /// Creates the instance for a node with cluster-tree `parent` and `children`. The
    /// cluster root (no parent) starts out `finished`, as in the paper.
    pub fn new(parent: Option<NodeId>, children: &[NodeId]) -> Self {
        Self::with_edges(Vec::new(), parent, children)
    }

    /// Like [`RegistrationInstance::new`], but builds the child edges in `edges`
    /// (cleared first), so a buffer returned by [`RegistrationInstance::into_edges`]
    /// is reused instead of allocating a new one.
    pub(crate) fn with_edges(
        mut edges: Vec<ChildEdge>,
        parent: Option<NodeId>,
        children: &[NodeId],
    ) -> Self {
        edges.clear();
        edges.extend(children.iter().map(|&node| ChildEdge {
            node,
            mark: EdgeMark::Clean,
            r_waiting: false,
        }));
        RegistrationInstance {
            parent,
            children: edges,
            finished: parent.is_none(),
            registered: false,
            deregistered: false,
            free: false,
            parent_edge: EdgeMark::Clean,
            own_r_pending: false,
            awaiting_parent: false,
        }
    }

    /// Consumes the instance and returns its child-edge buffer for reuse by
    /// [`RegistrationInstance::with_edges`].
    pub(crate) fn into_edges(self) -> Vec<ChildEdge> {
        self.children
    }

    /// Whether no registration wave is passing through this node: the state equals
    /// [`RegistrationInstance::new`] for the same tree position, except that a node
    /// which deregistered and has been freed keeps its `deregistered` and `free`
    /// flags.
    ///
    /// Those flags make the one behavioural difference between an idle instance and
    /// a fresh one: a second [`RegistrationInstance::deregister`] panics. Dropping an
    /// idle instance and recreating it loses only that one-shot check; the
    /// synchronizer asserts instead that an anchor starts each (stage, cluster)
    /// registration once.
    pub fn is_idle(&self) -> bool {
        self.finished == self.parent.is_none()
            && !self.registered
            && self.deregistered == self.free
            && self.parent_edge == EdgeMark::Clean
            && !self.own_r_pending
            && !self.awaiting_parent
            && self.children.iter().all(|e| e.mark == EdgeMark::Clean && !e.r_waiting)
    }

    /// The child edge to `child`.
    ///
    /// # Panics
    ///
    /// Panics if `child` is not a cluster-tree child of this node (registration
    /// messages only travel along cluster-tree edges).
    fn child_edge(&mut self, child: NodeId) -> &mut ChildEdge {
        self.children
            .iter_mut()
            .find(|e| e.node == child)
            .expect("registration message from a non-child")
    }

    /// Whether this node's registration has been confirmed.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Whether this node has deregistered.
    pub fn is_deregistered(&self) -> bool {
        self.deregistered
    }

    /// Whether this node has received its Go-Ahead.
    pub fn is_free(&self) -> bool {
        self.free
    }

    /// Starts this node's registration (procedure `R`). Idempotent.
    pub fn register(&mut self, actions: &mut Vec<RegAction>) {
        if self.registered || self.own_r_pending {
            return;
        }
        self.own_r_pending = true;
        self.invoke_r(actions);
    }

    /// Deregisters this node (procedure `D`).
    ///
    /// # Panics
    ///
    /// Panics if the node has not completed registration, or deregisters twice: the
    /// synchronizer always registers, waits for confirmation, then deregisters once.
    pub fn deregister(&mut self, actions: &mut Vec<RegAction>) {
        assert!(self.registered, "deregister requires a confirmed registration");
        assert!(!self.deregistered, "deregister is one-shot per instance");
        self.registered = false;
        self.deregistered = true;
        self.invoke_d(actions);
    }

    /// Handles a registration message from the cluster-tree neighbor `from`.
    pub fn on_message(&mut self, from: NodeId, msg: RegMsg, actions: &mut Vec<RegAction>) {
        match msg {
            RegMsg::RegisterUp => {
                let edge = self.child_edge(from);
                edge.mark = EdgeMark::Dirty;
                edge.r_waiting = true;
                self.invoke_r(actions);
            }
            RegMsg::RegisterDone => {
                self.awaiting_parent = false;
                self.complete_r(actions);
            }
            RegMsg::DeregisterUp => {
                self.child_edge(from).mark = EdgeMark::Waiting;
                if self.parent.is_none() {
                    self.maybe_issue_goahead(actions);
                } else {
                    self.invoke_d(actions);
                }
            }
            RegMsg::GoAheadDown => {
                // The Go-Ahead resolves the wave whose DeregisterUp marked this edge
                // waiting. A Dirty mark means a newer registration wave has already
                // re-dirtied the edge (its RegisterUp is ordered after our
                // DeregisterUp on the link, so the parent learns of it after issuing
                // this Go-Ahead) — the stale Go-Ahead must not wipe that mark, or the
                // new wave's deregistration can never propagate and the cluster
                // deadlocks.
                if self.parent_edge == EdgeMark::Waiting {
                    self.parent_edge = EdgeMark::Clean;
                }
                self.receive_goahead(actions);
            }
        }
    }

    /// Procedure `R` at this node.
    fn invoke_r(&mut self, actions: &mut Vec<RegAction>) {
        if self.finished {
            self.complete_r(actions);
            return;
        }
        let parent = self.parent.expect("only the root is finished from the start");
        if self.parent_edge != EdgeMark::Dirty {
            self.parent_edge = EdgeMark::Dirty;
        }
        if !self.awaiting_parent {
            self.awaiting_parent = true;
            actions.push(RegAction::Send { to: parent, msg: RegMsg::RegisterUp });
        }
    }

    /// This node has become finished: complete all pending `R` invocations.
    fn complete_r(&mut self, actions: &mut Vec<RegAction>) {
        self.finished = true;
        if self.own_r_pending {
            self.own_r_pending = false;
            self.registered = true;
            actions.push(RegAction::Registered);
        }
        for edge in &mut self.children {
            if edge.r_waiting {
                edge.r_waiting = false;
                actions.push(RegAction::Send { to: edge.node, msg: RegMsg::RegisterDone });
            }
        }
    }

    /// Procedure `D` at this node.
    fn invoke_d(&mut self, actions: &mut Vec<RegAction>) {
        if self.any_child_dirty() {
            return;
        }
        if self.registered {
            return;
        }
        match self.parent {
            None => self.maybe_issue_goahead(actions),
            Some(parent) => {
                if self.parent_edge == EdgeMark::Dirty {
                    self.parent_edge = EdgeMark::Waiting;
                    self.finished = false;
                    actions.push(RegAction::Send { to: parent, msg: RegMsg::DeregisterUp });
                } else if self.deregistered && !self.free && self.parent_edge == EdgeMark::Clean {
                    // The node deregistered without ever dirtying its parent edge
                    // (possible only if it was already finished through another
                    // registration wave that has since been fully resolved). Nothing
                    // upstream tracks it, so it frees itself.
                    self.free = true;
                    actions.push(RegAction::Free);
                }
            }
        }
    }

    /// Procedure `G` at this node: consume and forward the Go-Ahead.
    fn receive_goahead(&mut self, actions: &mut Vec<RegAction>) {
        if self.deregistered && !self.free {
            self.free = true;
            actions.push(RegAction::Free);
        }
        for edge in &mut self.children {
            if edge.mark == EdgeMark::Waiting {
                edge.mark = EdgeMark::Clean;
                actions.push(RegAction::Send { to: edge.node, msg: RegMsg::GoAheadDown });
            }
        }
    }

    /// At the root: issue a Go-Ahead if no child edge is dirty.
    fn maybe_issue_goahead(&mut self, actions: &mut Vec<RegAction>) {
        debug_assert!(self.parent.is_none());
        if self.any_child_dirty() {
            return;
        }
        self.receive_goahead(actions);
    }

    fn any_child_dirty(&self) -> bool {
        self.children.iter().any(|e| e.mark == EdgeMark::Dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::rng::Prng;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// A tiny sequential harness that delivers registration messages between the
    /// node-local instances of one cluster tree, in FIFO order, and records local
    /// notifications. Used to unit-test the state machine without the full simulator
    /// (the simulator-level tests live in the synchronizer integration tests).
    struct Harness {
        nodes: BTreeMap<NodeId, RegistrationInstance>,
        inbox: Vec<(NodeId, NodeId, RegMsg)>,
        registered: BTreeSet<NodeId>,
        freed: Vec<NodeId>,
        messages: usize,
    }

    impl Harness {
        fn new(parents: &[(usize, Option<usize>)]) -> Self {
            let mut children: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
            for &(v, p) in parents {
                if let Some(p) = p {
                    children.entry(p).or_default().push(NodeId(v));
                }
            }
            let nodes = parents
                .iter()
                .map(|&(v, p)| {
                    let kids = children.get(&v).cloned().unwrap_or_default();
                    (NodeId(v), RegistrationInstance::new(p.map(NodeId), &kids))
                })
                .collect();
            Harness {
                nodes,
                inbox: Vec::new(),
                registered: BTreeSet::new(),
                freed: Vec::new(),
                messages: 0,
            }
        }

        fn apply(&mut self, node: NodeId, actions: Vec<RegAction>) {
            for a in actions {
                match a {
                    RegAction::Send { to, msg } => {
                        self.messages += 1;
                        self.inbox.push((node, to, msg));
                    }
                    RegAction::Registered => {
                        self.registered.insert(node);
                    }
                    RegAction::Free => self.freed.push(node),
                }
            }
        }

        fn register(&mut self, v: usize) {
            let mut actions = Vec::new();
            self.nodes.get_mut(&NodeId(v)).unwrap().register(&mut actions);
            self.apply(NodeId(v), actions);
        }

        fn deregister(&mut self, v: usize) {
            let mut actions = Vec::new();
            self.nodes.get_mut(&NodeId(v)).unwrap().deregister(&mut actions);
            self.apply(NodeId(v), actions);
        }

        /// Delivers queued messages until quiescence.
        fn drain(&mut self) {
            while !self.inbox.is_empty() {
                let (from, to, msg) = self.inbox.remove(0);
                let mut actions = Vec::new();
                self.nodes.get_mut(&to).unwrap().on_message(from, msg, &mut actions);
                self.apply(to, actions);
            }
        }

        /// Every wave has passed: each instance is back in its fresh state (the
        /// equivalence the synchronizer's retirement of idle instances relies on).
        fn assert_all_idle(&self) {
            for (v, inst) in &self.nodes {
                assert!(inst.is_idle(), "node {v} is not idle: {inst:?}");
            }
        }
    }

    /// Path tree 0 (root) - 1 - 2 - 3.
    fn path_tree() -> Harness {
        Harness::new(&[(0, None), (1, Some(0)), (2, Some(1)), (3, Some(2))])
    }

    #[test]
    fn single_registration_roundtrip() {
        let mut h = path_tree();
        h.register(3);
        h.drain();
        assert!(h.registered.contains(&NodeId(3)));
        assert!(h.freed.is_empty());
        h.deregister(3);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(3)]);
        h.assert_all_idle();
    }

    #[test]
    fn root_registration_is_immediate() {
        let mut h = path_tree();
        h.register(0);
        assert!(h.registered.contains(&NodeId(0)));
        h.deregister(0);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(0)]);
        h.assert_all_idle();
    }

    #[test]
    fn go_ahead_waits_for_all_registered_nodes() {
        let mut h = path_tree();
        h.register(2);
        h.register(3);
        h.drain();
        assert!(h.registered.contains(&NodeId(2)) && h.registered.contains(&NodeId(3)));
        // Deregister only node 3: node 2's registration keeps the path dirty, so no
        // Go-Ahead may be issued (register guarantee 1).
        h.deregister(3);
        h.drain();
        assert!(h.freed.is_empty());
        h.deregister(2);
        h.drain();
        let mut freed = h.freed.clone();
        freed.sort();
        assert_eq!(freed, vec![NodeId(2), NodeId(3)]);
        h.assert_all_idle();
    }

    #[test]
    fn registration_after_goahead_starts_a_new_wave() {
        let mut h = path_tree();
        h.register(3);
        h.drain();
        h.deregister(3);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(3)]);
        // A different node registers afterwards; it must get its own confirmation and
        // (after deregistering) its own Go-Ahead.
        h.register(2);
        h.drain();
        assert!(h.registered.contains(&NodeId(2)));
        h.deregister(2);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(3), NodeId(2)]);
        h.assert_all_idle();
    }

    #[test]
    fn overlapping_registrations_on_a_star() {
        // Root 0 with children 1, 2, 3.
        let mut h = Harness::new(&[(0, None), (1, Some(0)), (2, Some(0)), (3, Some(0))]);
        h.register(1);
        h.register(2);
        h.register(3);
        h.drain();
        h.deregister(2);
        h.drain();
        assert!(h.freed.is_empty(), "nodes 1 and 3 are still registered");
        h.deregister(1);
        h.deregister(3);
        h.drain();
        let mut freed = h.freed.clone();
        freed.sort();
        assert_eq!(freed, vec![NodeId(1), NodeId(2), NodeId(3)]);
        h.assert_all_idle();
    }

    #[test]
    fn message_cost_is_proportional_to_path_length() {
        // Register guarantee 1: registration and deregistration of a node at depth h
        // cost O(h) messages; with a single registrant on a path of depth 3 the whole
        // cycle (register, deregister, go-ahead) uses at most 3 messages per phase.
        let mut h = path_tree();
        h.register(3);
        h.drain();
        let after_register = h.messages;
        assert!(after_register <= 2 * 3, "registration used {after_register} messages");
        h.deregister(3);
        h.drain();
        assert!(h.messages - after_register <= 2 * 3);
        h.assert_all_idle();
    }

    #[test]
    fn intermediate_nodes_piggyback_on_existing_dirty_paths() {
        let mut h = path_tree();
        h.register(3);
        h.drain();
        let before = h.messages;
        // Node 1 lies on the already-dirty path, so its registration completes with no
        // additional messages up the tree.
        h.register(1);
        assert!(h.registered.contains(&NodeId(1)));
        assert_eq!(h.messages, before);
        h.deregister(1);
        h.deregister(3);
        h.drain();
        let mut freed = h.freed.clone();
        freed.sort();
        assert_eq!(freed, vec![NodeId(1), NodeId(3)]);
        h.assert_all_idle();
    }

    #[test]
    #[should_panic(expected = "confirmed registration")]
    fn deregister_without_registration_panics() {
        let mut h = path_tree();
        h.deregister(2);
    }

    /// Regression test: a Go-Ahead still in flight from a finished wave must not
    /// wipe a parent edge that a newer registration wave has re-dirtied. (Observed
    /// as a cluster-wide deadlock on stage 14 of an 8x8-grid BFS run: the relay's
    /// parent edge was reset to Clean, so the second wave's deregistration never
    /// propagated and the root's child edge stayed Dirty forever.)
    #[test]
    fn stale_goahead_does_not_wipe_a_redirtied_parent_edge() {
        // Root 0 — relay 1 — leaves 2 and 3. Messages are delivered by hand so the
        // stale Go-Ahead can be held back and reordered after the new RegisterUp.
        let mut n0 = RegistrationInstance::new(None, &[NodeId(1)]);
        let mut n1 = RegistrationInstance::new(Some(NodeId(0)), &[NodeId(2), NodeId(3)]);
        let mut n2 = RegistrationInstance::new(Some(NodeId(1)), &[]);
        let mut n3 = RegistrationInstance::new(Some(NodeId(1)), &[]);
        let deliver = |inst: &mut RegistrationInstance, from: usize, msg: RegMsg| {
            let mut actions = Vec::new();
            inst.on_message(NodeId(from), msg, &mut actions);
            actions
        };

        // Wave 1: node 2 registers through the relay and deregisters.
        let mut a = Vec::new();
        n2.register(&mut a);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterUp }]);
        let a = deliver(&mut n1, 2, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::RegisterUp }]);
        let a = deliver(&mut n0, 1, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterDone }]);
        let a = deliver(&mut n1, 0, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(2), msg: RegMsg::RegisterDone }]);
        let a = deliver(&mut n2, 1, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Registered]);
        let mut a = Vec::new();
        n2.deregister(&mut a);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::DeregisterUp }]);
        let a = deliver(&mut n1, 2, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::DeregisterUp }]);
        // The root issues the wave-1 Go-Ahead — hold it in flight.
        let a = deliver(&mut n0, 1, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::GoAheadDown }]);

        // Wave 2: node 3 registers; the relay re-dirties its parent edge.
        let mut a = Vec::new();
        n3.register(&mut a);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterUp }]);
        let a = deliver(&mut n1, 3, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::RegisterUp }]);

        // The stale wave-1 Go-Ahead now lands: it must free node 2 without clearing
        // the re-dirtied parent edge.
        let a = deliver(&mut n1, 0, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(2), msg: RegMsg::GoAheadDown }]);
        let a = deliver(&mut n2, 1, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Free]);

        // Wave 2 completes: registration confirms, then deregistration must still
        // propagate up (this is the step the bug broke) and the Go-Ahead must return.
        let a = deliver(&mut n0, 1, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterDone }]);
        let a = deliver(&mut n1, 0, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(3), msg: RegMsg::RegisterDone }]);
        let a = deliver(&mut n3, 1, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Registered]);
        let mut a = Vec::new();
        n3.deregister(&mut a);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::DeregisterUp }]);
        let a = deliver(&mut n1, 3, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::DeregisterUp }]);
        let a = deliver(&mut n0, 1, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::GoAheadDown }]);
        let a = deliver(&mut n1, 0, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(3), msg: RegMsg::GoAheadDown }]);
        let a = deliver(&mut n3, 1, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Free]);
        for (v, inst) in [n0, n1, n2, n3].iter().enumerate() {
            assert!(inst.is_idle(), "node {v} is not idle: {inst:?}");
        }
    }

    #[test]
    fn idle_means_fresh_up_to_the_deregistered_flag() {
        let kids = [NodeId(2), NodeId(3)];
        let fresh = RegistrationInstance::new(Some(NodeId(0)), &kids);
        assert!(fresh.is_idle());
        // A recycled edge buffer builds exactly the fresh instance.
        let spare = RegistrationInstance::new(None, &[NodeId(7)]).into_edges();
        assert_eq!(RegistrationInstance::with_edges(spare, Some(NodeId(0)), &kids), fresh);
        // Mid-wave states are not idle.
        let mut inst = fresh.clone();
        inst.register(&mut Vec::new());
        assert!(!inst.is_idle(), "a pending registration is not idle");
        let mut inst = fresh.clone();
        inst.on_message(NodeId(3), RegMsg::RegisterUp, &mut Vec::new());
        assert!(!inst.is_idle(), "a relayed registration is not idle");
        // A root that registered, deregistered and was freed is idle but keeps its
        // `deregistered` flag: the one field in which it differs from a fresh root.
        let mut root = RegistrationInstance::new(None, &kids);
        root.register(&mut Vec::new());
        root.deregister(&mut Vec::new());
        assert!(root.is_free() && root.is_idle());
        assert_ne!(root, RegistrationInstance::new(None, &kids));
    }

    /// What one seeded interleaving produced: every local action in order, the
    /// freed nodes, the instances still stored at the end, and how many instances
    /// were created over the run.
    struct Outcome {
        actions: Vec<(NodeId, RegAction)>,
        freed: BTreeSet<NodeId>,
        left: BTreeMap<NodeId, RegistrationInstance>,
        created: usize,
        registrants: BTreeSet<NodeId>,
    }

    /// Runs one seeded interleaving over the cluster tree `parents` (node `v`'s
    /// parent is `parents[v]`). Each step picks uniformly among the enabled moves:
    /// deliver the head of a non-empty link (links are FIFO, as in the simulator),
    /// register a chosen registrant that has not yet registered (each node registers
    /// at most once, the synchronizer's contract), or deregister a confirmed one.
    ///
    /// Instances are created lazily from [`RegistrationInstance::new`]. With
    /// `retire`, an instance is dropped as soon as it is idle — the synchronizer's
    /// policy; without it, every instance is kept for the whole run.
    fn run_interleaving(parents: &[Option<usize>], seed: u64, retire: bool) -> Outcome {
        let n = parents.len();
        let mut children = vec![Vec::new(); n];
        for (v, p) in parents.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(NodeId(v));
            }
        }
        let mut rng = Prng::new(seed);
        let mut to_register: Vec<usize> = (0..n).filter(|_| rng.next_below(2) == 0).collect();
        if to_register.is_empty() {
            to_register.push(rng.index_in(0, n));
        }
        let registrants = to_register.iter().map(|&v| NodeId(v)).collect();
        let mut to_deregister: Vec<usize> = Vec::new();
        let mut links: BTreeMap<(usize, usize), VecDeque<RegMsg>> = BTreeMap::new();
        let mut out = Outcome {
            actions: Vec::new(),
            freed: BTreeSet::new(),
            left: BTreeMap::new(),
            created: 0,
            registrants,
        };
        loop {
            let busy: Vec<(usize, usize)> =
                links.iter().filter(|(_, q)| !q.is_empty()).map(|(k, _)| *k).collect();
            let moves = busy.len() + to_register.len() + to_deregister.len();
            if moves == 0 {
                break;
            }
            let pick = rng.index_in(0, moves);
            let node = if pick < busy.len() {
                busy[pick].1
            } else if pick < busy.len() + to_register.len() {
                to_register[pick - busy.len()]
            } else {
                to_deregister[pick - busy.len() - to_register.len()]
            };
            let inst = out.left.entry(NodeId(node)).or_insert_with(|| {
                out.created += 1;
                RegistrationInstance::new(parents[node].map(NodeId), &children[node])
            });
            let mut actions = Vec::new();
            if pick < busy.len() {
                let (from, _) = busy[pick];
                let msg = links.get_mut(&(from, node)).unwrap().pop_front().unwrap();
                inst.on_message(NodeId(from), msg, &mut actions);
            } else if pick < busy.len() + to_register.len() {
                to_register.remove(pick - busy.len());
                inst.register(&mut actions);
            } else {
                to_deregister.remove(pick - busy.len() - to_register.len());
                inst.deregister(&mut actions);
            }
            if retire && inst.is_idle() {
                out.left.remove(&NodeId(node));
            }
            for a in actions {
                out.actions.push((NodeId(node), a));
                match a {
                    RegAction::Send { to, msg } => {
                        links.entry((node, to.index())).or_default().push_back(msg);
                    }
                    RegAction::Registered => to_deregister.push(node),
                    RegAction::Free => {
                        out.freed.insert(NodeId(node));
                    }
                }
            }
        }
        out
    }

    /// Dropping idle instances and recreating them lazily is unobservable: over
    /// path, star and binary cluster trees and many seeded interleavings, the run
    /// that retires idle instances produces the same action stream and frees the
    /// same nodes as the run that keeps every instance, and ends holding none.
    #[test]
    fn retiring_idle_instances_is_unobservable() {
        let path: Vec<Option<usize>> = (0..6usize).map(|v| v.checked_sub(1)).collect();
        let star: Vec<Option<usize>> =
            (0..6).map(|v| if v == 0 { None } else { Some(0) }).collect();
        let binary: Vec<Option<usize>> =
            (0..15).map(|v| if v == 0 { None } else { Some((v - 1) / 2) }).collect();
        let mut recreated = 0;
        for (name, tree) in [("path", &path), ("star", &star), ("binary", &binary)] {
            for seed in 0..300 {
                let kept = run_interleaving(tree, seed, false);
                let retired = run_interleaving(tree, seed, true);
                assert_eq!(kept.actions, retired.actions, "{name} seed {seed}: action streams");
                assert_eq!(kept.freed, retired.freed, "{name} seed {seed}: freed sets");
                assert_eq!(kept.freed, kept.registrants, "{name} seed {seed}: liveness");
                for (v, inst) in &kept.left {
                    assert!(inst.is_idle(), "{name} seed {seed}: node {v} not idle: {inst:?}");
                }
                assert!(retired.left.is_empty(), "{name} seed {seed}: retained instances");
                recreated += retired.created - kept.created;
            }
        }
        assert!(recreated > 0, "no interleaving ever recreated a retired instance");
    }
}
