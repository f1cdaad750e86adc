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
//! 1. the object domain is the scratchpad's own sorted `Vec<Oid>`: a cold
//!    build scans the clip into it ([`EventBase::objects_into`]), and an
//!    advance merges in only the objects of the arrival delta — no
//!    per-evaluation sort and no cache shared with other plans;
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
//!    O(1) and nothing built before a cut answers after it. This is the
//!    only probe-result cache: each rule probes its own plan, and no
//!    result is shared across rules.
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
//! base has been cut since it was built (a transaction end).
//! Otherwise, when the epoch advances, it is **advanced,
//! not rebuilt**: the epoch's new occurrences are read through the EB's
//! per-type delta columns ([`EventBase::type_occurrences_since`]), new
//! domain rows are merged into the sorted domain in place, touched
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
//!
//! ## Where each plan lives
//!
//! A plan is compiled once and shared; a scratchpad belongs to one
//! evaluator. Nothing in this module is process-global.
//!
//! * A rule's triggering expression ([`Plan::compile`]) and each of its
//!   condition's `occurred` expressions ([`Plan::compile_instance`]) are
//!   compiled once, at definition, into the rule's immutable
//!   `CompiledRule` (`chimera-rules`) as prototype evaluators. Every
//!   engine that installs the rule keeps its own [`PlanEval::fresh`]
//!   scratch for each of them in its `RuleState`.
//! * The free functions — [`crate::ts_logical`] / [`crate::ts_algebraic`]
//!   at a boundary, and [`crate::occurred_objects`] — compile and
//!   evaluate a throwaway plan on every call. They serve the reference
//!   predicate `is_triggered`, the net-effect helpers and tests, never
//!   the engine's hot path.

use crate::error::CalculusError;
use crate::expr::EventExpr;
use crate::ts::{ts_prim, TsVal};
use crate::Result;
use chimera_events::{EventBase, EventId, EventType, Timestamp, Window};
use chimera_model::Oid;
use std::sync::Arc;

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

    /// Compile an *instance-oriented* expression as a single per-object
    /// component (a root `-=` stays a nested [`InstOp::Not`], giving
    /// `ots` rather than boundary semantics): the plan of an
    /// `occurred(expr, X)` event formula, which needs per-object activity
    /// instead of the boundary max. Fails with
    /// [`CalculusError::SetOrientedFormula`] for any expression holding a
    /// set-oriented operator (an instance-oriented tree is well formed).
    pub fn compile_instance(expr: &EventExpr) -> Result<Plan> {
        if !expr.is_instance_oriented() {
            return Err(CalculusError::SetOrientedFormula);
        }
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

/// Per-boundary reusable evaluation state. Every buffer is kept and
/// reused from one build or advance to the next.
#[derive(Debug, Clone, Default)]
struct BoundaryScratch {
    /// The clipped window the domain + stamp matrix were built for.
    clip: Option<Window>,
    /// Quantification domain (sorted OIDs).
    domain: Vec<Oid>,
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
    /// Advance buffer: the delta's objects new to the domain.
    fresh: Vec<Oid>,
    /// Advance buffer: the domain rows the delta touched.
    touched: Vec<usize>,
}

/// Memoized boundary results kept per epoch (covers the handful of
/// distinct `(window, instant)` probes a trigger check performs).
const BOUNDARY_MEMO_CAP: usize = 8;

impl BoundaryScratch {
    /// Forget everything (the scratch belongs to a different event base,
    /// or to this one before a cut): no memo entry answers again, and
    /// the next `prepare_boundary` takes the cold build, which rewrites
    /// every other field while reusing the buffers' allocations.
    fn reset(&mut self) {
        self.clip = None;
        self.memo.clear();
    }

    /// Merge the sorted `fresh` objects, none of them in the domain yet,
    /// into the domain, moving each old row of the stamp matrix and of
    /// `first` to its new place. Fresh rows start with no stamp and, in a
    /// widened boundary, enter at their first occurrence in `clip`.
    fn splice_fresh(&mut self, bp: &BoundaryPlan, eb: &EventBase, clip: Window) {
        let old_d = self.domain.len();
        self.domain.extend_from_slice(&self.fresh);
        self.domain.sort_unstable();
        let d = self.domain.len();
        self.stamps.resize(bp.leaves.len() * d, None);
        for slot in (0..bp.leaves.len()).rev() {
            relayout(
                &mut self.stamps,
                slot * old_d,
                slot * d,
                &self.domain,
                &self.fresh,
                |_| None,
            );
        }
        if bp.widen {
            self.first.resize(d, Timestamp::ZERO);
            relayout(&mut self.first, 0, 0, &self.domain, &self.fresh, |oid| {
                first_in(eb, oid, clip)
            });
        }
    }
}

/// Move one column's rows over the old domain, `col[old_base..]`, to
/// their rows in the merged `domain`, `col[new_base..]` (`new_base >=
/// old_base`), and fill the rows of the `fresh` objects with `fill`.
/// Rows move last first, so each lands at or after its source and past
/// every row not yet moved: the move is in place, and the columns of a
/// column-major matrix move in place too when relaid out last first.
fn relayout<T: Copy>(
    col: &mut [T],
    old_base: usize,
    new_base: usize,
    domain: &[Oid],
    fresh: &[Oid],
    mut fill: impl FnMut(Oid) -> T,
) {
    let (mut old, mut k) = (domain.len() - fresh.len(), fresh.len());
    for j in (0..domain.len()).rev() {
        col[new_base + j] = if k > 0 && fresh[k - 1] == domain[j] {
            k -= 1;
            fill(domain[j])
        } else {
            old -= 1;
            col[old_base + old]
        };
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
    pub fn active_objects(&mut self, eb: &EventBase, w: Window) -> Vec<Oid> {
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
            .map(|s| (s.domain.clone(), s.stamps.clone(), s.first.clone()))
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
                if clip.extends(old) && epoch >= scr.built_epoch && absorbed_all {
                    self.advance_boundary(bi, bp, eb, clip);
                    return;
                }
            }
        }
        self.build_boundary(bi, bp, eb, clip);
    }

    /// Cold build of the domain + stamp matrix for `clip`.
    fn build_boundary(&mut self, bi: usize, bp: &BoundaryPlan, eb: &EventBase, clip: Window) {
        let scr = &mut self.scratch[bi];
        let types: &[EventType] = if bp.widen { &[] } else { &bp.leaves };
        eb.objects_into(types, clip, &mut scr.domain);
        let d = scr.domain.len();
        scr.stamps.clear();
        scr.stamps.resize(bp.leaves.len() * d, None);
        for (l, &ty) in bp.leaves.iter().enumerate() {
            eb.last_of_type_objs_in(ty, &scr.domain, clip, &mut scr.stamps[l * d..(l + 1) * d]);
        }
        scr.first.clear();
        if bp.widen {
            scr.first
                .extend(scr.domain.iter().map(|&oid| first_in(eb, oid, clip)));
        }
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

    /// Arrival-incremental advance: extend the existing matrix from its
    /// built epoch to the current one by merging the delta's new objects
    /// into the domain and overwriting the delta-touched stamp cells,
    /// instead of rescanning the window.
    fn advance_boundary(&mut self, bi: usize, bp: &BoundaryPlan, eb: &EventBase, clip: Window) {
        let scr = &mut self.scratch[bi];
        let inside = |ts: Timestamp| ts > clip.after && ts <= clip.upto;
        // the delta's objects new to the domain: any arrival joins a
        // widened one, only a leaf's arrival the others
        scr.fresh.clear();
        for o in eb.occurrences_since(scr.built_epoch) {
            if inside(o.ts)
                && (bp.widen || bp.leaves.contains(&o.ty))
                && scr.domain.binary_search(&o.oid).is_err()
            {
                scr.fresh.push(o.oid);
            }
        }
        if !scr.fresh.is_empty() {
            scr.fresh.sort_unstable();
            scr.fresh.dedup();
            scr.splice_fresh(bp, eb, clip);
        }
        // apply the per-type arrival deltas in place (timestamp order, so
        // a later stamp simply overwrites an earlier one)
        let d = scr.domain.len();
        let agg_maintained = scr.agg_valid;
        scr.touched.clear();
        for (slot, &ty) in bp.leaves.iter().enumerate() {
            for (ts, oid) in eb.type_occurrences_since(ty, scr.built_epoch).iter() {
                if !inside(ts) {
                    continue;
                }
                let j = scr
                    .domain
                    .binary_search(&oid)
                    .expect("the delta's objects are in the extended domain");
                scr.stamps[slot * d + j] = Some(ts);
                scr.max_stamp = Some(scr.max_stamp.map_or(ts, |m| m.max(ts)));
                if agg_maintained {
                    scr.touched.push(j);
                }
            }
        }
        scr.clip = Some(clip);
        scr.built_epoch = eb.epoch();
        // fold only the touched objects back into the negation-free
        // aggregate: their roots are monotone under arrivals, so a max
        // merge over the delta is exact.
        if agg_maintained && !scr.touched.is_empty() {
            scr.touched.sort_unstable();
            scr.touched.dedup();
            let scr = &self.scratch[bi];
            let ctx = InstCtx {
                bp,
                scr,
                eb,
                w: clip,
            };
            let root = bp.ops.len() - 1;
            let mut agg = scr.agg;
            for &j in &scr.touched {
                if let Some(s) = ctx.eval(root, clip.upto, j).activation() {
                    agg = Some(agg.map_or(s, |m| m.max(s)));
                }
            }
            self.scratch[bi].agg = agg;
        }
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

/// Compile-time `Send + Sync` audit of what a `CompiledRule` shares
/// across engine threads: its prototype evaluators and, through them,
/// the compiled plans. A non-`Sync` field sneaking into any of these
/// types must be a build error here rather than an `unsafe impl` or a
/// runtime race.
#[allow(dead_code)]
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Plan>();
    assert_send_sync::<BoundaryPlan>();
    assert_send_sync::<PlanEval>();
};

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
                    // and the per-call dispatch path agrees too
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
    fn compile_rejects_invalid_expressions() {
        assert!(Plan::compile(&p(0).and(p(1)).iand(p(2))).is_err());
        assert!(Plan::compile(&p(0).or(p(1)).inot()).is_err());
        // an `occurred` plan takes instance-oriented expressions only
        for bad in [p(0).and(p(1)), p(0).and(p(1)).iand(p(2)), p(0).not().inot()] {
            assert_eq!(
                Plan::compile_instance(&bad).unwrap_err(),
                CalculusError::SetOrientedFormula,
                "{bad}"
            );
        }
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
