//! Compiled evaluation plans: the compile/evaluate split for `ts`.
//!
//! ## Why a plan
//!
//! The recursive evaluators ([`crate::ts_logical`], [`crate::instance`])
//! re-walk the [`EventExpr`] tree on every evaluation, and the §4.3
//! instance→set boundary is the expensive part: for every evaluation it
//! rebuilds the object quantification domain (collect → sort → dedup over
//! the window slice) and then recurses the tree once per object, paying a
//! hash probe + binary search per `(type, oid)` leaf. PR 1's benches put
//! the resulting gap at ~200× between set-oriented `ts` and an
//! `ots`-rooted boundary on a 10k-event window.
//!
//! ## What compilation produces
//!
//! [`Plan::compile`] flattens a validated expression into flat arenas:
//!
//! * set-oriented operators become a postorder [`SetOp`] array (children
//!   always precede parents; the root is the last op);
//! * every maximal instance-oriented subtree in set context becomes a
//!   [`BoundaryPlan`]: its own postorder [`InstOp`] array plus the
//!   *interned leaf slots* — the distinct primitive event types of the
//!   subtree, which are simultaneously the §4.3 quantification domain
//!   types and the columns of the evaluation scratchpad.
//!
//! ## How evaluation works
//!
//! [`PlanEval`] pairs a plan with a reusable scratchpad. Evaluating a
//! boundary at `(w, t)`:
//!
//! 1. the object domain comes from the event base's epoch-versioned
//!    domain cache ([`EventBase::objects_of_types_in`]) — a shared
//!    `Arc<[Oid]>` slice, no per-evaluation sort;
//! 2. each leaf slot is resolved for *all* domain objects at once with
//!    one reverse index sweep ([`EventBase::last_of_type_objs_in`]) into a
//!    column of the scratchpad — instead of `objects × leaves` separate
//!    hash probes;
//! 3. the per-object fold walks the op array over the scratchpad columns;
//!    only a leaf stamp later than the instant being evaluated (an earlier
//!    probe, or an inner `<=` re-evaluating its left operand) ever falls
//!    back to a point probe;
//! 4. the boundary result is memoized per `(clip, t)` and the whole
//!    scratchpad is keyed on the event base's `(uid, cut, epoch)`
//!    ([`EventBase::memo_key`]), so re-evaluations between arrivals are
//!    O(1).
//!
//! ## One production path, one reference
//!
//! The **interpreted reference** ([`crate::instance::boundary_ts_logical`]
//! / `boundary_ts_algebraic`, reached through
//! [`crate::ts_logical_interpreted`]) re-walks the AST and rescans the
//! window on every call. It is never on a hot path; it is the
//! property-tested ground truth.
//!
//! The **planned** evaluation builds each boundary's scratch for the
//! window up to the event base's frontier, `(w.after, max(t, now)]`, so
//! all probe instants of an epoch share one build. That is exact for
//! every boundary: a negation-free component gives `-t` for any object
//! without a matching occurrence up to `t`, and a widened
//! (negation-carrying) one records each row's first in-window stamp and
//! folds only the rows already in the domain at `t`. The scratch is
//! built cold when the window's lower bound moves (rule
//! consideration/consumption), it belongs to another event base, or the
//! base has been cut since it was built (a transaction start).
//! Otherwise, when the epoch advances, it is **advanced,
//! not rebuilt**: the epoch's new occurrences are read through the EB's
//! per-type delta columns ([`EventBase::type_occurrences_since`]), new
//! domain rows are spliced in by a single sorted merge, touched
//! `(type, object)` stamp cells are overwritten in place, and the
//! boundary memo is invalidated selectively by the boundary's variation
//! types `V(E)` instead of wholesale. Negation-free boundaries
//! additionally maintain a running *aggregate* (the max per-object root
//! activation stamp, which is monotone under arrivals), so a
//! post-arrival probe at the window frontier is O(arrivals), not
//! O(objects).
//!
//! Values match the recursive evaluators **bit for bit** (including the
//! structured negative residues); `tests/plan_equivalence.rs` asserts this
//! against both `boundary_ts_logical` and `boundary_ts_algebraic` on
//! random expressions × random histories, and asserts the advanced
//! scratch matrix equals a from-scratch cold rebuild cell for cell under
//! interleaved arrivals, window advances, and probes.

use crate::expr::EventExpr;
use crate::ts::{ts_prim, TsVal};
use crate::Result;
use chimera_events::{EventBase, EventId, EventType, Timestamp, Window};
use chimera_model::Oid;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// One set-oriented operator of a compiled plan. Operand fields are
/// indices into the plan's op array (always smaller than the op's own
/// index: the array is in postorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Primitive event type, resolved to a slot in the set-leaf table.
    Leaf(u32),
    /// `- E`.
    Not(u32),
    /// `E1 + E2`.
    And(u32, u32),
    /// `E1 , E2`.
    Or(u32, u32),
    /// `E1 < E2`.
    Prec(u32, u32),
    /// A maximal instance-oriented subtree crossing the §4.3 boundary,
    /// resolved to a slot in the plan's boundary table.
    Boundary(u32),
}

/// One instance-oriented operator of a [`BoundaryPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstOp {
    /// Primitive event type, resolved to an interned leaf slot.
    Leaf(u32),
    /// `-= E` (a *nested* instance negation; a root `-=` is absorbed
    /// into its [`BoundaryPlan`] as the boundary's negated form).
    Not(u32),
    /// `E1 += E2`.
    And(u32, u32),
    /// `E1 ,= E2`.
    Or(u32, u32),
    /// `E1 <= E2`.
    Prec(u32, u32),
}

/// A compiled instance-oriented subtree in set context.
#[derive(Debug, Clone)]
pub struct BoundaryPlan {
    /// Postorder op array; root is the last op.
    pub(crate) ops: Vec<InstOp>,
    /// Interned leaf slots: the distinct primitive event types, in
    /// first-occurrence order. Doubles as the domain type list.
    pub(crate) leaves: Vec<EventType>,
    /// Root was `-=`: the boundary takes "no object activates the
    /// component" semantics (§3.2).
    pub(crate) inot: bool,
    /// Component contains a nested negation: the quantification domain
    /// widens to every object affected in the window (§4.3).
    pub(crate) widen: bool,
}

impl BoundaryPlan {
    fn build(component: &EventExpr, inot: bool) -> BoundaryPlan {
        let mut bp = BoundaryPlan {
            ops: Vec::new(),
            leaves: Vec::new(),
            inot,
            widen: component.contains_negation(),
        };
        bp.push_inst(component);
        bp
    }

    fn push_inst(&mut self, expr: &EventExpr) -> u32 {
        let op = match expr {
            EventExpr::Prim(ty) => InstOp::Leaf(intern(&mut self.leaves, *ty)),
            EventExpr::INot(e) => InstOp::Not(self.push_inst(e)),
            EventExpr::IAnd(a, b) => {
                let (na, nb) = (self.push_inst(a), self.push_inst(b));
                InstOp::And(na, nb)
            }
            EventExpr::IOr(a, b) => {
                let (na, nb) = (self.push_inst(a), self.push_inst(b));
                InstOp::Or(na, nb)
            }
            EventExpr::IPrec(a, b) => {
                let (na, nb) = (self.push_inst(a), self.push_inst(b));
                InstOp::Prec(na, nb)
            }
            _ => unreachable!("set operator inside instance subtree (validated expression)"),
        };
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    /// Number of ops (the root is op `len() - 1`).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// A boundary plan always has at least one op.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The interned leaf event types.
    pub fn leaves(&self) -> &[EventType] {
        &self.leaves
    }

    /// Does the quantification domain widen to every object affected in
    /// the window (a nested negation in the component)?
    pub fn widens(&self) -> bool {
        self.widen
    }
}

/// A compiled evaluation plan for one validated [`EventExpr`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// Postorder set-level op array; root is the last op.
    pub(crate) ops: Vec<SetOp>,
    /// Set-level interned leaves.
    pub(crate) set_leaves: Vec<EventType>,
    /// Compiled instance subtrees, indexed by [`SetOp::Boundary`].
    pub(crate) boundaries: Vec<BoundaryPlan>,
}

impl Plan {
    /// Compile a validated expression. Fails exactly when
    /// [`EventExpr::validate`] does (§3.2 well-formedness).
    pub fn compile(expr: &EventExpr) -> Result<Plan> {
        expr.validate()?;
        let mut plan = Plan {
            ops: Vec::new(),
            set_leaves: Vec::new(),
            boundaries: Vec::new(),
        };
        plan.push_set(expr);
        Ok(plan)
    }

    /// Compile a validated *instance-oriented* expression as a single
    /// per-object component (a root `-=` stays a nested [`InstOp::Not`],
    /// giving `ots` rather than boundary semantics). Used for the
    /// `occurred` / `at` event-formula path, which needs per-object
    /// activity instead of the boundary max.
    pub(crate) fn compile_instance(expr: &EventExpr) -> Result<Plan> {
        expr.validate()?;
        debug_assert!(expr.is_instance_oriented());
        Ok(Plan {
            ops: vec![SetOp::Boundary(0)],
            set_leaves: Vec::new(),
            boundaries: vec![BoundaryPlan::build(expr, false)],
        })
    }

    fn push_set(&mut self, expr: &EventExpr) -> u32 {
        let op = match expr {
            EventExpr::Prim(ty) => SetOp::Leaf(intern(&mut self.set_leaves, *ty)),
            EventExpr::Not(e) => SetOp::Not(self.push_set(e)),
            EventExpr::And(a, b) => {
                let (na, nb) = (self.push_set(a), self.push_set(b));
                SetOp::And(na, nb)
            }
            EventExpr::Or(a, b) => {
                let (na, nb) = (self.push_set(a), self.push_set(b));
                SetOp::Or(na, nb)
            }
            EventExpr::Prec(a, b) => {
                let (na, nb) = (self.push_set(a), self.push_set(b));
                SetOp::Prec(na, nb)
            }
            EventExpr::IAnd(..) | EventExpr::IOr(..) | EventExpr::IPrec(..) => {
                self.boundaries.push(BoundaryPlan::build(expr, false));
                SetOp::Boundary((self.boundaries.len() - 1) as u32)
            }
            EventExpr::INot(inner) => {
                self.boundaries.push(BoundaryPlan::build(inner, true));
                SetOp::Boundary((self.boundaries.len() - 1) as u32)
            }
        };
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    /// Number of set-level ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// A plan always has at least one op.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The compiled boundary subtrees.
    pub fn boundaries(&self) -> &[BoundaryPlan] {
        &self.boundaries
    }

    /// The set-level op array (postorder; root last).
    pub(crate) fn set_ops(&self) -> &[SetOp] {
        &self.ops
    }
}

/// Intern an event type into a leaf-slot table (first-occurrence order).
fn intern(leaves: &mut Vec<EventType>, ty: EventType) -> u32 {
    match leaves.iter().position(|&l| l == ty) {
        Some(i) => i as u32,
        None => {
            leaves.push(ty);
            (leaves.len() - 1) as u32
        }
    }
}

/// Per-boundary reusable evaluation state.
#[derive(Debug, Clone)]
struct BoundaryScratch {
    /// The clipped window the domain + stamp matrix were built for.
    clip: Option<Window>,
    /// Shared quantification domain (sorted OIDs).
    domain: Arc<[Oid]>,
    /// Leaf stamp matrix, column-major: `stamps[leaf * D + obj]` is the
    /// most recent in-window stamp of `leaves[leaf]` on `domain[obj]`.
    stamps: Vec<Option<Timestamp>>,
    /// Widened boundaries only (empty otherwise): `first[obj]` is the
    /// stamp of `domain[obj]`'s first occurrence in `clip`, the instant
    /// it joins the domain. A probe at `t` folds only rows with
    /// `first <= t`, so one frontier build serves every earlier instant.
    first: Vec<Timestamp>,
    /// Event-base epoch the matrix has absorbed: every logged occurrence
    /// at a position `< built_epoch` that falls inside `clip` is
    /// reflected in `domain`/`stamps`. Later occurrences are applied by
    /// [`PlanEval::advance_boundary`] through the EB's per-type delta
    /// columns.
    built_epoch: u64,
    /// Largest leaf stamp present in the matrix (`None` = no in-window
    /// leaf occurrence). Probes at `t >= max_stamp` see every matrix cell
    /// and are eligible for the aggregate fast path.
    max_stamp: Option<Timestamp>,
    /// Negation-free aggregate: the max per-object *root* activation
    /// stamp over the whole domain (`None` = no object active). Roots of
    /// negation-free components are monotone under arrivals, so the
    /// aggregate is maintained by folding only the delta-touched objects.
    agg: Option<Timestamp>,
    /// Is `agg` populated for the current matrix? (Set lazily by the
    /// first eligible full fold; never set for widened boundaries.)
    agg_valid: bool,
    /// Small memo of recent boundary results, keyed `(clip, t)`;
    /// invalidated selectively — by the boundary's variation types — when
    /// the event base's epoch advances.
    memo: Vec<(Window, Timestamp, TsVal)>,
}

/// Memoized boundary results kept per epoch (covers the handful of
/// distinct `(window, instant)` probes a trigger check performs).
const BOUNDARY_MEMO_CAP: usize = 8;

impl Default for BoundaryScratch {
    fn default() -> Self {
        BoundaryScratch {
            clip: None,
            domain: Arc::from(Vec::new()),
            stamps: Vec::new(),
            first: Vec::new(),
            built_epoch: 0,
            max_stamp: None,
            agg: None,
            agg_valid: false,
            memo: Vec::new(),
        }
    }
}

impl BoundaryScratch {
    /// Forget everything (the scratch belongs to a different event base,
    /// or to this one before a cut): no memo entry answers again, and
    /// the next `prepare_boundary` takes the cold build, which rewrites
    /// every other field while reusing the buffers' allocations.
    fn reset(&mut self) {
        self.clip = None;
        self.memo.clear();
    }
}

/// A compiled plan plus its reusable scratchpad: the unit an engine
/// caches per rule. Cloning yields an independent scratchpad over the
/// same (cheap, immutable) plan.
#[derive(Debug, Clone)]
pub struct PlanEval {
    plan: Arc<Plan>,
    pad: Scratchpad,
}

/// One evaluator's scratch state, apart from the plan it belongs to: an
/// evaluation borrows the plan rather than cloning its `Arc`, so
/// evaluators on different threads over one shared plan never write to
/// its reference count.
#[derive(Debug, Clone)]
struct Scratchpad {
    /// [`EventBase::memo_key`] of the event base the scratch state
    /// belongs to.
    key: Option<(u64, u64, u64)>,
    scratch: Vec<BoundaryScratch>,
}

impl PlanEval {
    /// Compile an expression into an evaluator with a fresh scratchpad.
    pub fn compile(expr: &EventExpr) -> Result<PlanEval> {
        Ok(PlanEval::new(Plan::compile(expr)?))
    }

    /// Wrap an already compiled plan.
    pub fn new(plan: Plan) -> PlanEval {
        PlanEval {
            pad: Scratchpad::new(&plan),
            plan: Arc::new(plan),
        }
    }

    /// A fresh evaluator over the same (shared, immutable) compiled plan,
    /// with an empty scratchpad.
    pub fn fresh(&self) -> PlanEval {
        PlanEval {
            plan: self.plan.clone(),
            pad: Scratchpad::new(&self.plan),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Evaluate `ts(E, t)` over window `w` of `eb`. Equals
    /// [`crate::ts_logical`] (and [`crate::ts_algebraic`]) bit for bit.
    pub fn eval(&mut self, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
        let plan = &*self.plan;
        self.pad.refresh_key(plan, eb);
        self.pad.eval_set(plan, plan.ops.len() - 1, eb, w, t)
    }

    /// The objects for which an instance-compiled plan
    /// ([`Plan::compile_instance`]) is active at `w.upto` — the
    /// `occurred(expr, X)` set, sorted by OID.
    pub(crate) fn active_objects(&mut self, eb: &EventBase, w: Window) -> Vec<Oid> {
        let plan = &*self.plan;
        self.pad.refresh_key(plan, eb);
        debug_assert_eq!(plan.boundaries.len(), 1);
        let bp = &plan.boundaries[0];
        let t = w.upto;
        self.pad.prepare_boundary(0, bp, eb, w.clip_upto(t));
        let ctx = InstCtx {
            bp,
            scr: &self.pad.scratch[0],
            eb,
            w,
        };
        let root = bp.ops.len() - 1;
        (0..ctx.scr.domain.len())
            .filter(|&j| ctx.eval(root, t, j).is_active())
            .map(|j| ctx.scr.domain[j])
            .collect()
    }

    /// Test-only: force every boundary's matrix to be prepared for the
    /// window frontier, bypassing the result memo (which can legitimately
    /// answer a probe while the matrix still describes an earlier epoch).
    /// Lets equivalence suites compare scratch state against a cold
    /// rebuild through whichever path — advance or rebuild — production
    /// would pick for this window.
    #[doc(hidden)]
    pub fn prepare_frontier(&mut self, eb: &EventBase, w: Window) {
        let plan = &*self.plan;
        self.pad.refresh_key(plan, eb);
        for (bi, bp) in plan.boundaries.iter().enumerate() {
            self.pad.prepare_boundary(bi, bp, eb, frontier_clip(eb, w, w.upto));
        }
    }

    /// Test-only view of the per-boundary scratch state (`domain`, the
    /// column-major stamp matrix and a widened domain's entry stamps),
    /// used by the equivalence suites to assert the arrival-incremental
    /// matrix equals a from-scratch cold rebuild cell for cell.
    #[doc(hidden)]
    pub fn boundary_scratch(&self) -> Vec<BoundaryScratchView> {
        self.pad
            .scratch
            .iter()
            .map(|s| (s.domain.to_vec(), s.stamps.clone(), s.first.clone()))
            .collect()
    }
}

impl Scratchpad {
    fn new(plan: &Plan) -> Scratchpad {
        Scratchpad {
            key: None,
            scratch: vec![BoundaryScratch::default(); plan.boundaries.len()],
        }
    }

    fn refresh_key(&mut self, plan: &Plan, eb: &EventBase) {
        let key = eb.memo_key();
        if self.key == Some(key) {
            return;
        }
        match self.key {
            // Arrival delta on the same event base since the same cut:
            // drop only the memo entries the delta can affect. A boundary
            // none of whose variation types (its leaves; any type at all
            // for widened domains, which every arrival can join) occurs
            // in the delta keeps everything; otherwise entries whose
            // window closes before the first relevant arrival still
            // describe the same occurrence set and survive. The matrix
            // itself is advanced lazily by `prepare_boundary`. A new cut
            // drops occurrences, so it takes the cold reset below.
            Some((uid, cut, old_epoch))
                if (uid, cut) == (key.0, key.1) && key.2 >= old_epoch =>
            {
                let delta = eb.occurrences_since(old_epoch);
                for (bi, scr) in self.scratch.iter_mut().enumerate() {
                    let bp = &plan.boundaries[bi];
                    let first_relevant = delta
                        .iter()
                        .find(|o| bp.widen || bp.leaves.contains(&o.ty))
                        .map(|o| o.ts);
                    if let Some(ts) = first_relevant {
                        scr.memo.retain(|&(mc, _, _)| mc.upto < ts);
                    }
                }
            }
            _ => {
                for scr in &mut self.scratch {
                    scr.reset();
                }
            }
        }
        self.key = Some(key);
    }

    fn eval_set(&mut self, plan: &Plan, idx: usize, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
        match plan.ops[idx] {
            SetOp::Leaf(slot) => ts_prim(eb, w, t, plan.set_leaves[slot as usize]),
            SetOp::Not(c) => self.eval_set(plan, c as usize, eb, w, t).negate(),
            SetOp::And(a, b) => {
                let ta = self.eval_set(plan, a as usize, eb, w, t);
                let tb = self.eval_set(plan, b as usize, eb, w, t);
                if ta.is_active() && tb.is_active() {
                    ta.max(tb)
                } else {
                    ta.min(tb)
                }
            }
            SetOp::Or(a, b) => {
                let ta = self.eval_set(plan, a as usize, eb, w, t);
                let tb = self.eval_set(plan, b as usize, eb, w, t);
                if ta.is_active() || tb.is_active() {
                    ta.max(tb)
                } else {
                    ta.min(tb)
                }
            }
            SetOp::Prec(a, b) => {
                let tb = self.eval_set(plan, b as usize, eb, w, t);
                match tb.activation() {
                    Some(b_stamp) => {
                        let ta_at_b = self.eval_set(plan, a as usize, eb, w, b_stamp);
                        if ta_at_b.is_active() {
                            tb
                        } else {
                            TsVal::inactive(t)
                        }
                    }
                    None => TsVal::inactive(t),
                }
            }
            SetOp::Boundary(bi) => self.eval_boundary(plan, bi as usize, eb, w, t),
        }
    }

    /// Build, advance, or reuse the domain + stamp matrix for `clip`.
    fn prepare_boundary(&mut self, bi: usize, bp: &BoundaryPlan, eb: &EventBase, clip: Window) {
        let epoch = eb.epoch();
        {
            let scr = &self.scratch[bi];
            if scr.clip == Some(clip) && scr.built_epoch == epoch {
                return;
            }
            // Arrival-incremental advance: reuse the matrix when the new
            // clip is a pure upper-bound extension of the built one and
            // the old build absorbed every occurrence logged at its epoch
            // (always true for the frontier build clip, whose upper bound
            // is `>= now`, and for a build at the cut itself, which saw no
            // live occurrence; `refresh_key` has reset every scratch built
            // before the cut). Everything else — a moved lower bound after
            // consumption, a clip narrower than the built one — takes the
            // cold rebuild below.
            if let Some(old) = scr.clip {
                debug_assert!(scr.built_epoch >= eb.cut(), "scratch built before the cut");
                let absorbed_all = scr.built_epoch == eb.cut()
                    || eb
                        .get(EventId(scr.built_epoch))
                        .is_some_and(|last| last.ts <= old.upto);
                if clip.extends(old)
                    && epoch >= scr.built_epoch
                    && absorbed_all
                    && self.advance_boundary(bi, bp, eb, clip)
                {
                    return;
                }
            }
        }
        self.build_boundary(bi, bp, eb, clip);
    }

    /// Cold build of the domain + stamp matrix for `clip`.
    fn build_boundary(&mut self, bi: usize, bp: &BoundaryPlan, eb: &EventBase, clip: Window) {
        let scr = &mut self.scratch[bi];
        scr.domain = if bp.widen {
            eb.objects_in(clip)
        } else {
            eb.objects_of_types_in(&bp.leaves, clip)
        };
        let d = scr.domain.len();
        scr.stamps.clear();
        scr.stamps.resize(bp.leaves.len() * d, None);
        for (l, &ty) in bp.leaves.iter().enumerate() {
            eb.last_of_type_objs_in(ty, &scr.domain, clip, &mut scr.stamps[l * d..(l + 1) * d]);
        }
        scr.first = if bp.widen {
            scr.domain
                .iter()
                .map(|&oid| first_in(eb, oid, clip))
                .collect()
        } else {
            Vec::new()
        };
        scr.clip = Some(clip);
        scr.built_epoch = eb.epoch();
        scr.max_stamp = bp
            .leaves
            .iter()
            .filter_map(|&ty| eb.last_of_type_in(ty, clip))
            .max();
        scr.agg = None;
        scr.agg_valid = false;
    }

    /// Arrival-incremental advance: extend the existing matrix
    /// from its built epoch to the current one by splicing new domain
    /// rows in and overwriting the delta-touched stamp cells, instead of
    /// rescanning the window. Returns `false` (leaving the scratch intact
    /// for the cold rebuild) if the cached domain turns out not to be a
    /// subset of the extended one — impossible for an append-only log
    /// with a fixed lower bound, but checked rather than trusted.
    fn advance_boundary(&mut self, bi: usize, bp: &BoundaryPlan, eb: &EventBase, clip: Window) -> bool {
        let scr = &mut self.scratch[bi];
        let new_domain = if bp.widen {
            eb.objects_in(clip)
        } else {
            eb.objects_of_types_in(&bp.leaves, clip)
        };
        let l = bp.leaves.len();
        if !Arc::ptr_eq(&new_domain, &scr.domain) && *new_domain != *scr.domain {
            // re-layout: map every old row to its slot in the extended
            // domain with one merged sweep; fresh rows start all-None.
            let old_d = scr.domain.len();
            let nd = new_domain.len();
            let mut stamps = vec![None; l * nd];
            let mut j = 0usize;
            for (i, &oid) in scr.domain.iter().enumerate() {
                while j < nd && new_domain[j] < oid {
                    j += 1;
                }
                if j >= nd || new_domain[j] != oid {
                    debug_assert!(false, "domain shrank under a window extension");
                    return false;
                }
                for slot in 0..l {
                    stamps[slot * nd + j] = scr.stamps[slot * old_d + i];
                }
                j += 1;
            }
            if bp.widen {
                // old rows keep their entry stamp; fresh rows enter at
                // their first occurrence, which is in the arrival delta
                let mut old = scr.domain.iter().zip(&scr.first).peekable();
                scr.first = new_domain
                    .iter()
                    .map(|&oid| match old.next_if(|&(&o, _)| o == oid) {
                        Some((_, &f)) => f,
                        None => first_in(eb, oid, clip),
                    })
                    .collect();
            }
            scr.stamps = stamps;
            scr.domain = new_domain;
        }
        // apply the per-type arrival deltas in place (timestamp order, so
        // a later stamp simply overwrites an earlier one)
        let d = scr.domain.len();
        let agg_maintained = scr.agg_valid;
        let mut touched: Vec<usize> = Vec::new();
        for (slot, &ty) in bp.leaves.iter().enumerate() {
            for (ts, oid) in eb.type_occurrences_since(ty, scr.built_epoch).iter() {
                if ts <= clip.after || ts > clip.upto {
                    continue;
                }
                let Ok(j) = scr.domain.binary_search(&oid) else {
                    debug_assert!(false, "delta object missing from the extended domain");
                    return false;
                };
                scr.stamps[slot * d + j] = Some(ts);
                scr.max_stamp = Some(scr.max_stamp.map_or(ts, |m| m.max(ts)));
                if agg_maintained {
                    touched.push(j);
                }
            }
        }
        scr.clip = Some(clip);
        scr.built_epoch = eb.epoch();
        // fold only the touched objects back into the negation-free
        // aggregate: their roots are monotone under arrivals, so a max
        // merge over the delta is exact.
        if agg_maintained && !touched.is_empty() {
            touched.sort_unstable();
            touched.dedup();
            let scr = &self.scratch[bi];
            let ctx = InstCtx {
                bp,
                scr,
                eb,
                w: clip,
            };
            let root = bp.ops.len() - 1;
            let mut agg = scr.agg;
            for &j in &touched {
                if let Some(s) = ctx.eval(root, clip.upto, j).activation() {
                    agg = Some(agg.map_or(s, |m| m.max(s)));
                }
            }
            self.scratch[bi].agg = agg;
        }
        true
    }

    /// §4.3 boundary evaluation over the scratchpad.
    fn eval_boundary(
        &mut self,
        plan: &Plan,
        bi: usize,
        eb: &EventBase,
        w: Window,
        t: Timestamp,
    ) -> TsVal {
        let clip = w.clip_upto(t);
        if let Some(&(_, _, v)) = self.scratch[bi]
            .memo
            .iter()
            .find(|&&(mc, mt, _)| mc == clip && mt == t)
        {
            return v;
        }
        let bp = &plan.boundaries[bi];
        // The domain and stamp matrix are built once per epoch over the
        // window up to the frontier and shared by every probe instant: the
        // per-leaf `s <= t` check + point-probe fallback resolves earlier
        // instants. Negation-free components evaluate to exactly `-t` for
        // any object without a matching occurrence up to `t`, so the wider
        // domain is harmless to them; a widened (negation-carrying)
        // component would gain vacuously-active members, so its fold skips
        // the rows that join the domain after `t`.
        self.prepare_boundary(bi, bp, eb, frontier_clip(eb, w, t));
        let scr = &self.scratch[bi];
        // Aggregate fast path: a negation-free per-object root probed at
        // an instant covering every matrix stamp is either active with a
        // t-independent stamp or exactly `-t`, so the boundary max
        // reduces to the maintained max active root stamp — O(1), no
        // domain fold.
        let agg_eligible = !bp.widen && scr.max_stamp.is_none_or(|m| t >= m);
        if agg_eligible && scr.agg_valid {
            return match (scr.agg, bp.inot) {
                (Some(s), false) => TsVal::active(s),
                (Some(s), true) => TsVal::active(s).negate(),
                (None, false) => TsVal::inactive(t),
                (None, true) => TsVal::active(t),
            };
        }
        let ctx = InstCtx { bp, scr, eb, w };
        let root = bp.ops.len() - 1;
        let mut best: Option<TsVal> = None;
        for j in 0..ctx.scr.domain.len() {
            if bp.widen && ctx.scr.first[j] > t {
                continue; // not in the `(w.after, t]` domain
            }
            let v = ctx.eval(root, t, j);
            best = Some(match best {
                None => v,
                Some(b) => b.max(v),
            });
        }
        let res = if bp.inot {
            match best {
                // ∃ active object → inactive; nobody active → active "now"
                Some(v) if v.is_active() => v.negate(),
                _ => TsVal::active(t),
            }
        } else {
            best.unwrap_or(TsVal::inactive(t))
        };
        let scr = &mut self.scratch[bi];
        if agg_eligible {
            // this fold just computed the aggregate; keep it maintained
            scr.agg = best.and_then(TsVal::activation);
            scr.agg_valid = true;
        }
        if scr.memo.len() >= BOUNDARY_MEMO_CAP {
            scr.memo.remove(0);
        }
        scr.memo.push((clip, t, res));
        res
    }
}

/// One boundary's scratch state as [`PlanEval::boundary_scratch`] shows
/// it: the domain, the stamp matrix and the per-row entry stamps.
#[doc(hidden)]
pub type BoundaryScratchView = (Vec<Oid>, Vec<Option<Timestamp>>, Vec<Timestamp>);

/// The clip a boundary's scratch is built for when probed at `t` over
/// `w`: the whole window up to the event base's frontier, so every
/// probe instant of an epoch shares one build.
fn frontier_clip(eb: &EventBase, w: Window, t: Timestamp) -> Window {
    w.clip_upto(t.max(eb.now()))
}

/// Stamp of `oid`'s first occurrence in `clip`: the instant it joins a
/// widened domain built for `clip`.
fn first_in(eb: &EventBase, oid: Oid, clip: Window) -> Timestamp {
    eb.occurrences_of_obj_in(oid, clip)
        .next()
        .expect("domain objects occur in their clip")
        .ts
}

/// Borrowed context for the per-object fold: the boundary's compiled
/// shape, its prepared scratchpad, and the evaluation window.
struct InstCtx<'a> {
    bp: &'a BoundaryPlan,
    scr: &'a BoundaryScratch,
    eb: &'a EventBase,
    w: Window,
}

impl InstCtx<'_> {
    /// `ots` of one object over the op array and its scratchpad row.
    fn eval(&self, idx: usize, t: Timestamp, obj: usize) -> TsVal {
        match self.bp.ops[idx] {
            InstOp::Leaf(slot) => {
                let d = self.scr.domain.len();
                match self.scr.stamps[slot as usize * d + obj] {
                    Some(s) if s <= t => TsVal::active(s),
                    // matrix stamp is later than the probe instant (an
                    // inner `<=` evaluating at an earlier reference
                    // instant): fall back to a point probe.
                    Some(_) => match self.eb.last_of_type_obj_in(
                        self.bp.leaves[slot as usize],
                        self.scr.domain[obj],
                        self.w.clip_upto(t),
                    ) {
                        Some(s) => TsVal::active(s),
                        None => TsVal::inactive(t),
                    },
                    None => TsVal::inactive(t),
                }
            }
            InstOp::Not(c) => self.eval(c as usize, t, obj).negate(),
            InstOp::And(a, b) => {
                let ta = self.eval(a as usize, t, obj);
                let tb = self.eval(b as usize, t, obj);
                if ta.is_active() && tb.is_active() {
                    ta.max(tb)
                } else {
                    ta.min(tb)
                }
            }
            InstOp::Or(a, b) => {
                let ta = self.eval(a as usize, t, obj);
                let tb = self.eval(b as usize, t, obj);
                if ta.is_active() || tb.is_active() {
                    ta.max(tb)
                } else {
                    ta.min(tb)
                }
            }
            InstOp::Prec(a, b) => {
                let tb = self.eval(b as usize, t, obj);
                match tb.activation() {
                    Some(b_stamp) => {
                        let ta_at_b = self.eval(a as usize, b_stamp, obj);
                        if ta_at_b.is_active() {
                            tb
                        } else {
                            TsVal::inactive(t)
                        }
                    }
                    None => TsVal::inactive(t),
                }
            }
        }
    }
}

/// Number of shards in the process-wide plan caches.
const PLAN_CACHE_SHARDS: usize = 16;
/// Per-shard entry cap; the least-recently-used entry beyond it is
/// evicted (property suites generate unbounded fresh expressions).
const PLAN_CACHE_SHARD_CAP: usize = 64;

/// Evaluators kept per cache entry: one per recently seen event base
/// (scratch state is keyed to a single EB `uid`, so engines with
/// different event bases must not share one scratchpad — they would
/// reset it on every alternation). Oldest-used evicted beyond the cap.
const ENTRY_EVALS_CAP: usize = 4;

/// One cached compiled plan plus its per-event-base scratchpads. The
/// evaluators are `Mutex`-wrapped because a [`PlanEval`] carries mutable
/// scratch state; neither the shard lock nor the entry lock is held
/// while an evaluator runs (claim → evaluate privately → push back), so
/// concurrent engines sharing an expression contend only on the brief
/// claim/return, never on the evaluation itself. All evaluators in an
/// entry share one compiled `Plan` arena; only the scratch differs.
struct CacheEntry {
    evals: Mutex<Vec<PlanEval>>,
    /// Logical use stamp for LRU eviction (shared cache-wide counter).
    last_used: AtomicU64,
}

type Shard = RwLock<HashMap<EventExpr, Arc<CacheEntry>>>;

/// A process-wide expression → compiled-plan cache, sharded by expression
/// hash. Replaces the former per-thread caches so that every thread of a
/// multi-threaded engine shares one set of compiled arenas (and their
/// arrival-incrementally maintained scratch state) instead of each
/// rebuilding its own.
struct PlanCache {
    shards: Vec<Shard>,
    tick: AtomicU64,
}

impl PlanCache {
    fn new() -> PlanCache {
        PlanCache {
            shards: (0..PLAN_CACHE_SHARDS).map(|_| RwLock::default()).collect(),
            tick: AtomicU64::new(0),
        }
    }

    fn shard(&self, expr: &EventExpr) -> &Shard {
        let mut h = std::hash::DefaultHasher::new();
        expr.hash(&mut h);
        &self.shards[(h.finish() as usize) % PLAN_CACHE_SHARDS]
    }

    /// Run `f` over the cached evaluator for `expr` and the event base
    /// identified by `uid`, compiling (and possibly evicting the shard's
    /// LRU entry) on first sight of the expression, and growing a fresh
    /// scratchpad over the shared plan on first sight of the event base.
    fn with<R>(
        &self,
        expr: &EventExpr,
        uid: u64,
        compile: impl Fn(&EventExpr) -> Result<PlanEval>,
        f: impl FnOnce(&mut PlanEval) -> R,
    ) -> R {
        let shard = self.shard(expr);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let cached = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(expr)
            .cloned();
        let entry = match cached {
            Some(e) => e,
            None => {
                // compile outside the write lock; a racing thread may have
                // inserted meanwhile, in which case its entry wins
                let pe = compile(expr).unwrap_or_else(|e| {
                    panic!("plan compilation of a used expression failed: {e} ({expr})")
                });
                let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                let entry = map
                    .entry(expr.clone())
                    .or_insert_with(|| {
                        Arc::new(CacheEntry {
                            evals: Mutex::new(vec![pe]),
                            last_used: AtomicU64::new(tick),
                        })
                    })
                    .clone();
                if map.len() > PLAN_CACHE_SHARD_CAP {
                    let victim = map
                        .iter()
                        .filter(|(k, _)| *k != expr)
                        .min_by_key(|(_, v)| v.last_used.load(Ordering::Relaxed))
                        .map(|(k, _)| k.clone());
                    if let Some(victim) = victim {
                        map.remove(&victim);
                    }
                }
                entry
            }
        };
        entry.last_used.store(tick, Ordering::Relaxed);
        // claim an evaluator under the entry lock...
        let mut pe = {
            let mut evals = entry.evals.lock().unwrap_or_else(PoisonError::into_inner);
            // the evaluator whose scratch belongs to this event base — or
            // an unclaimed fresh one; most recently used live at the back
            let idx = evals
                .iter()
                .position(|pe| pe.pad.key.is_none_or(|k| k.0 == uid));
            match idx {
                Some(i) => evals.remove(i),
                None => {
                    if evals.len() >= ENTRY_EVALS_CAP {
                        evals.remove(0);
                    }
                    match evals.first() {
                        Some(proto) => proto.fresh(),
                        // only reachable if a panicked evaluation lost the
                        // entry's last evaluator: recompile
                        None => compile(expr).unwrap_or_else(|e| {
                            panic!("plan compilation of a used expression failed: {e} ({expr})")
                        }),
                    }
                }
            }
        };
        // ...but evaluate *outside* it: the claimed evaluator is privately
        // owned, so threads of different event bases sharing an expression
        // (every tenant of a multi-tenant runtime with a common rule set)
        // evaluate concurrently instead of serializing on the entry. Two
        // threads of the *same* event base may race to claim; the loser
        // grows a fresh scratchpad that is merged back by the push below.
        let out = f(&mut pe);
        entry
            .evals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(pe);
        out
    }
}

/// Compile-time `Send + Sync` audit of everything the process-wide plan
/// caches share across engine threads. The cache hands `Arc<CacheEntry>`
/// clones to arbitrary threads and the entries carry whole evaluators, so
/// a non-`Sync` field sneaking into any of these types must be a build
/// error here rather than an `unsafe impl` or a runtime race.
#[allow(dead_code)]
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Plan>();
    assert_send_sync::<BoundaryPlan>();
    assert_send_sync::<PlanEval>();
    assert_send_sync::<BoundaryScratch>();
    assert_send_sync::<CacheEntry>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<TsVal>();
};

/// Boundary-rooted plans used by the `ts_logical` / `ts_algebraic`
/// dispatch (one per distinct boundary subtree).
static BOUNDARY_PLANS: OnceLock<PlanCache> = OnceLock::new();
/// Instance-compiled plans used by the `occurred` formula path.
static INSTANCE_PLANS: OnceLock<PlanCache> = OnceLock::new();

/// Evaluate a boundary-rooted (instance-oriented in set context)
/// expression through the process-wide sharded compiled-plan cache. This
/// is the production path behind [`crate::ts_logical`] /
/// [`crate::ts_algebraic`]; the recursive definitions remain as
/// [`crate::instance::boundary_ts_logical`] and
/// [`crate::instance::boundary_ts_algebraic`] (the cross-checked
/// references).
pub(crate) fn boundary_ts_planned(
    expr: &EventExpr,
    eb: &EventBase,
    w: Window,
    t: Timestamp,
) -> TsVal {
    BOUNDARY_PLANS
        .get_or_init(PlanCache::new)
        .with(expr, eb.uid(), PlanEval::compile, |pe| pe.eval(eb, w, t))
}

/// `occurred(expr, X)` through the process-wide instance-plan cache.
pub(crate) fn occurred_objects_planned(expr: &EventExpr, eb: &EventBase, w: Window) -> Vec<Oid> {
    INSTANCE_PLANS.get_or_init(PlanCache::new).with(
        expr,
        eb.uid(),
        |e| Plan::compile_instance(e).map(PlanEval::new),
        |pe| pe.active_objects(eb, w),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{boundary_ts_algebraic, boundary_ts_logical};
    use crate::ts::{ts_logical, ts_logical_interpreted};
    use chimera_model::ClassId;

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }

    fn history() -> EventBase {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(2), Timestamp(2));
        eb.append_at(et(1), Oid(1), Timestamp(3));
        eb.append_at(et(0), Oid(3), Timestamp(5));
        eb.append_at(et(2), Oid(2), Timestamp(6));
        eb.append_at(et(0), Oid(2), Timestamp(8));
        eb.tick();
        eb
    }

    /// The expression menu crossing every op and boundary shape.
    fn menu() -> Vec<EventExpr> {
        vec![
            p(0),
            p(0).and(p(1)),
            p(0).or(p(1)).not(),
            p(0).prec(p(1)),
            p(0).iand(p(1)),
            p(0).ior(p(1)),
            p(0).iprec(p(1)),
            p(0).iand(p(1)).inot(),
            p(0).iand(p(1).inot()),
            p(0).inot().inot(),
            p(2).and(p(0).iprec(p(1))),
            p(0).iprec(p(1)).or(p(2).not()),
            p(0).iand(p(1)).prec(p(2)),
            p(2).prec(p(0).iand(p(1))),
        ]
    }

    #[test]
    fn plan_matches_recursive_everywhere() {
        let eb = history();
        for expr in menu() {
            let mut pe = PlanEval::compile(&expr).unwrap();
            for wa in [0u64, 2, 5] {
                for t in 1..=9u64 {
                    let w = Window::new(Timestamp(wa), Timestamp(9));
                    let want = ts_logical_interpreted(&expr, &eb, w, Timestamp(t));
                    assert_eq!(
                        pe.eval(&eb, w, Timestamp(t)),
                        want,
                        "{expr} over ({wa},9] at t{t}"
                    );
                    // and the cached dispatch path agrees too
                    assert_eq!(ts_logical(&expr, &eb, w, Timestamp(t)), want);
                }
            }
        }
    }

    #[test]
    fn boundary_plan_matches_both_recursive_styles() {
        let eb = history();
        for expr in [
            p(0).iand(p(1)),
            p(0).iprec(p(1)),
            p(0).iand(p(1)).inot(),
            p(0).ior(p(1).inot()),
        ] {
            let mut pe = PlanEval::compile(&expr).unwrap();
            for t in 1..=9u64 {
                let w = Window::from_origin(Timestamp(9));
                let v = pe.eval(&eb, w, Timestamp(t));
                assert_eq!(v, boundary_ts_logical(&expr, &eb, w, Timestamp(t)), "{expr}@{t}");
                assert_eq!(v, boundary_ts_algebraic(&expr, &eb, w, Timestamp(t)), "{expr}@{t}");
            }
        }
    }

    #[test]
    fn scratch_survives_event_base_growth() {
        let mut eb = EventBase::new();
        let expr = p(0).iand(p(1));
        let mut pe = PlanEval::compile(&expr).unwrap();
        let probe = |pe: &mut PlanEval, eb: &EventBase| {
            let w = Window::from_origin(eb.now());
            let got = pe.eval(eb, w, eb.now());
            assert_eq!(got, ts_logical_interpreted(&expr, eb, w, eb.now()));
            got
        };
        eb.append(et(0), Oid(1));
        assert!(!probe(&mut pe, &eb).is_active());
        eb.append(et(1), Oid(1));
        assert!(probe(&mut pe, &eb).is_active());
        // repeated probes at the same epoch hit the memo
        assert!(probe(&mut pe, &eb).is_active());
        eb.append(et(0), Oid(2));
        assert!(probe(&mut pe, &eb).is_active());
        // a different event base invalidates the scratch key
        let mut other = EventBase::new();
        other.append(et(1), Oid(7));
        assert!(!probe(&mut pe, &other).is_active());
        assert!(probe(&mut pe, &eb).is_active());
    }

    #[test]
    fn arrival_advance_matches_cold_rebuild_matrix() {
        // an evaluator kept across epochs must hold exactly the matrix a
        // fresh cold build would produce, at every step
        let exprs = [
            p(0).iand(p(1)),
            p(0).iprec(p(1)),
            p(0).iand(p(1)).inot(),
            p(0).iand(p(1).inot()), // widened domain
        ];
        for expr in exprs {
            let mut eb = EventBase::new();
            let mut inc = PlanEval::compile(&expr).unwrap();
            let plan = inc.plan().clone();
            let stream = [
                (0u32, 1u64),
                (1, 2),
                (1, 1),
                (0, 3),
                (2, 9), // irrelevant type: V(E)-filtered delta
                (0, 2),
                (1, 3),
            ];
            for &(ty, oid) in &stream {
                eb.append(et(ty), Oid(oid));
                let w = Window::from_origin(eb.now());
                let now = eb.now();
                let got = inc.eval(&eb, w, now);
                let mut cold = PlanEval::new(plan.clone());
                assert_eq!(got, cold.eval(&eb, w, now), "{expr} at {now}");
                assert_eq!(
                    got,
                    ts_logical_interpreted(&expr, &eb, w, now),
                    "{expr} at {now}"
                );
                assert_eq!(
                    inc.boundary_scratch(),
                    cold.boundary_scratch(),
                    "{expr} matrix diverged at {now}"
                );
            }
        }
    }

    #[test]
    fn advance_survives_gap_probes_and_earlier_instants() {
        // probes at earlier instants between arrivals must not corrupt
        // the advanced state (they exercise memo + point-probe fallbacks)
        let expr = p(0).iprec(p(1));
        let mut eb = EventBase::new();
        let mut inc = PlanEval::compile(&expr).unwrap();
        for round in 0..12u64 {
            eb.append(et((round % 2) as u32), Oid(round % 3 + 1));
            if round % 3 == 0 {
                eb.tick();
            }
            let now = eb.now();
            let w = Window::from_origin(now);
            for t in 1..=now.raw() {
                assert_eq!(
                    inc.eval(&eb, w, Timestamp(t)),
                    ts_logical_interpreted(&expr, &eb, w, Timestamp(t)),
                    "{expr} at t{t} (round {round})"
                );
            }
        }
    }

    #[test]
    fn consumption_falls_back_to_cold_rebuild() {
        // a moved window lower bound (rule consumption) is the cold path;
        // the advanced state must not leak occurrences the new window hides
        let expr = p(0).iand(p(1));
        let mut eb = EventBase::new();
        let mut inc = PlanEval::compile(&expr).unwrap();
        eb.append(et(0), Oid(1));
        eb.append(et(1), Oid(1));
        let now = eb.now();
        assert!(inc.eval(&eb, Window::from_origin(now), now).is_active());
        // consume: window restarts after `now`
        eb.append(et(1), Oid(1));
        let w = Window::new(now, eb.now());
        let got = inc.eval(&eb, w, eb.now());
        assert_eq!(got, ts_logical_interpreted(&expr, &eb, w, eb.now()));
        assert!(!got.is_active(), "et0 was consumed, pair incomplete");
        // and extending again from the consumed bound advances cleanly
        eb.append(et(0), Oid(1));
        eb.append(et(1), Oid(1));
        let w = Window::new(now, eb.now());
        let got = inc.eval(&eb, w, eb.now());
        assert_eq!(got, ts_logical_interpreted(&expr, &eb, w, eb.now()));
        assert!(got.is_active());
    }

    #[test]
    fn irrelevant_arrivals_keep_boundary_memo() {
        // arrivals outside the boundary's variation types must not wipe
        // the memo (the V(E)-selective invalidation)
        let expr = p(0).iand(p(1));
        let mut eb = EventBase::new();
        let mut pe = PlanEval::compile(&expr).unwrap();
        eb.append(et(0), Oid(1));
        eb.append(et(1), Oid(1));
        let w0 = Window::from_origin(eb.now());
        let t0 = eb.now();
        let want = pe.eval(&eb, w0, t0);
        // irrelevant arrival advances the epoch
        eb.append(et(7), Oid(5));
        assert_eq!(pe.eval(&eb, w0, t0), want, "memoized probe stays exact");
        // relevant arrival invalidates entries whose window covers it
        eb.append(et(1), Oid(2));
        let w1 = Window::from_origin(eb.now());
        assert_eq!(
            pe.eval(&eb, w1, eb.now()),
            ts_logical_interpreted(&expr, &eb, w1, eb.now())
        );
    }

    #[test]
    fn process_wide_cache_is_shared_across_threads() {
        // the same expression evaluated from several threads goes through
        // the sharded global cache and stays exact
        let expr = p(0).iand(p(1));
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        eb.append(et(1), Oid(1));
        eb.tick();
        let want = ts_logical_interpreted(&expr, &eb, Window::from_origin(eb.now()), eb.now());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let w = Window::from_origin(eb.now());
                    for _ in 0..50 {
                        assert_eq!(ts_logical(&expr, &eb, w, eb.now()), want);
                    }
                });
            }
        });
    }

    #[test]
    fn cache_keeps_scratch_per_event_base() {
        // alternating engines with different event bases must each keep
        // a warm scratchpad instead of resetting a shared one
        let cache = PlanCache::new();
        let expr = p(0).iand(p(1));
        let mut eb1 = EventBase::new();
        let mut eb2 = EventBase::new();
        eb1.append(et(0), Oid(1));
        eb1.append(et(1), Oid(1));
        eb2.append(et(0), Oid(2));
        for _ in 0..3 {
            let v1 = cache.with(&expr, eb1.uid(), PlanEval::compile, |pe| {
                pe.eval(&eb1, Window::from_origin(eb1.now()), eb1.now())
            });
            assert!(v1.is_active());
            let v2 = cache.with(&expr, eb2.uid(), PlanEval::compile, |pe| {
                pe.eval(&eb2, Window::from_origin(eb2.now()), eb2.now())
            });
            assert!(!v2.is_active());
        }
        let shard = cache.shard(&expr).read().unwrap();
        let evals = shard.get(&expr).unwrap().evals.lock().unwrap();
        assert_eq!(evals.len(), 2, "one evaluator per event base");
        assert!(evals.iter().all(|pe| pe.pad.key.is_some()));
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let cache = PlanCache::new();
        // overfill a single logical cache; every expression still works
        for round in 0..3u32 {
            for n in 0..(PLAN_CACHE_SHARDS * PLAN_CACHE_SHARD_CAP + 50) as u32 {
                let expr = p(n).iand(p(n + 1 + round));
                let mut eb = EventBase::new();
                eb.append(et(n), Oid(1));
                eb.append(et(n + 1 + round), Oid(1));
                let v = cache.with(&expr, eb.uid(), PlanEval::compile, |pe| {
                    pe.eval(&eb, Window::from_origin(eb.now()), eb.now())
                });
                assert!(v.is_active());
            }
        }
        for shard in &cache.shards {
            assert!(shard.read().unwrap().len() <= PLAN_CACHE_SHARD_CAP + 1);
        }
    }

    #[test]
    fn compile_rejects_invalid_expressions() {
        assert!(Plan::compile(&p(0).and(p(1)).iand(p(2))).is_err());
        assert!(Plan::compile(&p(0).or(p(1)).inot()).is_err());
    }

    #[test]
    fn compiled_shapes() {
        // A += (B <= A): 2 interned leaf slots, 5 ops (A referenced twice)
        let plan = Plan::compile(&p(0).iand(p(1).iprec(p(0)))).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.boundaries().len(), 1);
        let bp = &plan.boundaries()[0];
        assert_eq!(bp.leaves(), &[et(0), et(1)]);
        assert_eq!(bp.len(), 5);
        assert!(!bp.inot && !bp.widen);
        // root -= is absorbed into the flag; nested -= widens the domain
        let plan = Plan::compile(&p(0).iand(p(1).inot()).inot()).unwrap();
        let bp = &plan.boundaries()[0];
        assert!(bp.inot && bp.widen);
        assert_eq!(bp.len(), 4); // A, B, -=, +=  (root -= not an op)
        // set mixture: two boundaries, shared set leaves interned
        let plan = Plan::compile(&p(0).iand(p(1)).and(p(2).or(p(2)))).unwrap();
        assert_eq!(plan.boundaries().len(), 1);
        assert_eq!(plan.set_leaves.len(), 1); // p2 interned once
    }

    #[test]
    fn active_objects_matches_occurred_semantics() {
        let eb = history();
        let w = Window::from_origin(eb.now());
        let expr = p(0).iand(p(1));
        let mut pe = PlanEval::new(Plan::compile_instance(&expr).unwrap());
        // O1 has both; O2 has et1+et0 (both) ; O3 only et0
        assert_eq!(pe.active_objects(&eb, w), vec![Oid(1), Oid(2)]);
        let mut pe = PlanEval::new(Plan::compile_instance(&p(0).iand(p(1).inot())).unwrap());
        assert_eq!(pe.active_objects(&eb, w), vec![Oid(3)]);
    }
}
