//! Set-oriented condition evaluation.
//!
//! A condition produces the set of *binding tuples* for which all its
//! formulas hold; the rule's action then executes once over all tuples
//! (§2). Evaluation proceeds in three phases:
//!
//! 1. **event formulas** (`occurred`, `at`) in writing order — they bind
//!    class variables to the objects affected by composite events within
//!    the rule's consumption window (§3.3), and time variables to the
//!    occurrence instants;
//! 2. **extent binding** — declared variables not bound by any event
//!    formula range over the full (deep) class extent, making plain
//!    queries expressible;
//! 3. **comparison predicates** filter the tuples.
//!
//! All intermediate sets are ordered (OIDs, then instants), so evaluation
//! is fully deterministic.

use crate::error::ExecError;
use crate::Result;
use chimera_calculus::{at_occurrences, PlanEval};
use chimera_events::{EventBase, Window};
use chimera_model::{ObjectStore, Oid, Schema, Value};
use chimera_rules::condition::{CmpOp, Condition, Formula, Term};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One binding tuple: variable name → value (`Ref` for class variables,
/// `Time` for `at` time variables).
pub type Binding = BTreeMap<String, Value>;

/// Evaluate a condition over the store and the rule's consumption window.
/// Returns the binding tuples (empty ⇒ the condition failed and the
/// action must not run). A condition with no declarations and no formulas
/// succeeds with one empty tuple.
///
/// `occurred` holds one evaluator per `occurred` formula of `cond`, in
/// writing order ([`Condition::compile_occurred`]): the engine passes the
/// rule's own scratchpads, kept across considerations.
pub fn evaluate_condition(
    cond: &Condition,
    occurred: &mut [PlanEval],
    schema: &Schema,
    store: &ObjectStore,
    eb: &EventBase,
    window: Window,
) -> Result<Vec<Binding>> {
    // resolve declarations
    let mut decl_class: HashMap<&str, chimera_model::ClassId> = HashMap::new();
    for d in &cond.decls {
        if decl_class.contains_key(d.name.as_str()) {
            return Err(ExecError::DuplicateVariable(d.name.clone()));
        }
        let cid = schema.class_by_name(&d.class)?;
        decl_class.insert(d.name.as_str(), cid);
    }

    let mut rows: Vec<Binding> = vec![Binding::new()];
    let mut bound: HashSet<String> = HashSet::new();
    let mut occurred = occurred.iter_mut();

    // phase 1: event formulas
    for f in &cond.formulas {
        match f {
            Formula::Occurred { var, .. } => {
                let plan = occurred.next().expect("one evaluator per `occurred` formula");
                let cid = *decl_class
                    .get(var.as_str())
                    .ok_or_else(|| ExecError::UndeclaredFormulaVariable(var.clone()))?;
                let objs: Vec<Oid> = plan
                    .active_objects(eb, window)
                    .into_iter()
                    .filter(|&oid| {
                        store
                            .get(oid)
                            .map(|o| schema.is_subclass_or_self(o.class, cid))
                            .unwrap_or(false) // deleted objects drop out
                    })
                    .collect();
                if bound.contains(var) {
                    let set: HashSet<Oid> = objs.into_iter().collect();
                    rows.retain(|row| match row.get(var) {
                        Some(Value::Ref(oid)) => set.contains(oid),
                        _ => false,
                    });
                } else {
                    rows = cross_bind(rows, var, objs.into_iter().map(Value::Ref));
                    bound.insert(var.clone());
                }
            }
            Formula::At {
                expr,
                var,
                time_var,
            } => {
                let cid = *decl_class
                    .get(var.as_str())
                    .ok_or_else(|| ExecError::UndeclaredFormulaVariable(var.clone()))?;
                if bound.contains(time_var) || decl_class.contains_key(time_var.as_str()) {
                    return Err(ExecError::DuplicateVariable(time_var.clone()));
                }
                let pairs: Vec<(Oid, Value)> = at_occurrences(expr, eb, window)?
                    .into_iter()
                    .filter(|(oid, _)| {
                        store
                            .get(*oid)
                            .map(|o| schema.is_subclass_or_self(o.class, cid))
                            .unwrap_or(false)
                    })
                    .map(|(oid, ts)| (oid, Value::Time(ts.raw())))
                    .collect();
                let mut next = Vec::new();
                for row in rows {
                    if let Some(Value::Ref(prev)) = row.get(var) {
                        // var already bound: keep matching instants only
                        for (oid, tv) in pairs.iter().filter(|(o, _)| o == prev) {
                            let mut r = row.clone();
                            r.insert(time_var.clone(), tv.clone());
                            let _ = oid;
                            next.push(r);
                        }
                    } else {
                        for (oid, tv) in &pairs {
                            let mut r = row.clone();
                            r.insert(var.clone(), Value::Ref(*oid));
                            r.insert(time_var.clone(), tv.clone());
                            next.push(r);
                        }
                    }
                }
                rows = next;
                bound.insert(var.clone());
                bound.insert(time_var.clone());
            }
            Formula::Compare { .. } => {} // phase 3
        }
        if rows.is_empty() {
            return Ok(rows);
        }
    }

    // phase 2: remaining declared variables range over the deep extent
    for d in &cond.decls {
        if !bound.contains(&d.name) {
            let cid = decl_class[d.name.as_str()];
            let objs = store.extent_deep(schema, cid);
            rows = cross_bind(rows, &d.name, objs.into_iter().map(Value::Ref));
            bound.insert(d.name.clone());
            if rows.is_empty() {
                return Ok(rows);
            }
        }
    }

    // phase 3: comparison predicates
    for f in &cond.formulas {
        if let Formula::Compare { lhs, op, rhs } = f {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if compare_holds(lhs, *op, rhs, &row, schema, store)? {
                    kept.push(row);
                }
            }
            rows = kept;
            if rows.is_empty() {
                return Ok(rows);
            }
        }
    }
    Ok(rows)
}

fn cross_bind(
    rows: Vec<Binding>,
    var: &str,
    values: impl Iterator<Item = Value> + Clone,
) -> Vec<Binding> {
    let mut out = Vec::new();
    for row in rows {
        for v in values.clone() {
            let mut r = row.clone();
            r.insert(var.to_owned(), v);
            out.push(r);
        }
    }
    out
}

/// Evaluate a term against a binding tuple.
pub fn eval_term(
    term: &Term,
    row: &Binding,
    schema: &Schema,
    store: &ObjectStore,
) -> Result<Value> {
    match term {
        Term::Const(v) => Ok(v.clone()),
        Term::Var(name) => row
            .get(name)
            .cloned()
            .ok_or_else(|| ExecError::UnboundVariable(name.clone())),
        Term::Attr { var, attr } => {
            let v = row
                .get(var)
                .ok_or_else(|| ExecError::UnboundVariable(var.clone()))?;
            let Value::Ref(oid) = v else {
                return Err(ExecError::BadTerm(format!(
                    "`{var}` is not an object reference"
                )));
            };
            let obj = store.get(*oid)?;
            let aid = schema.attr_by_name(obj.class, attr)?;
            Ok(store.read_attr(*oid, aid)?.clone())
        }
        Term::Add(a, b) => arith(term, a, b, row, schema, store, Value::add),
        Term::Sub(a, b) => arith(term, a, b, row, schema, store, Value::sub),
        Term::Mul(a, b) => arith(term, a, b, row, schema, store, Value::mul),
    }
}

fn arith(
    whole: &Term,
    a: &Term,
    b: &Term,
    row: &Binding,
    schema: &Schema,
    store: &ObjectStore,
    op: impl Fn(&Value, &Value) -> Option<Value>,
) -> Result<Value> {
    let va = eval_term(a, row, schema, store)?;
    let vb = eval_term(b, row, schema, store)?;
    op(&va, &vb).ok_or_else(|| ExecError::BadTerm(format!("cannot evaluate `{whole}`")))
}

fn compare_holds(
    lhs: &Term,
    op: CmpOp,
    rhs: &Term,
    row: &Binding,
    schema: &Schema,
    store: &ObjectStore,
) -> Result<bool> {
    let lv = eval_term(lhs, row, schema, store)?;
    let rv = eval_term(rhs, row, schema, store)?;
    Ok(match lv.compare(&rv) {
        None => false, // incomparable (Null or type mismatch): predicate fails
        Some(ord) => match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_calculus::EventExpr;
    use chimera_events::{EventType, Timestamp};
    use chimera_model::{AttrDef, AttrType, SchemaBuilder};
    use chimera_rules::condition::VarDecl;

    /// [`evaluate_condition`] with freshly compiled `occurred` plans.
    fn eval(
        cond: &Condition,
        schema: &Schema,
        store: &ObjectStore,
        eb: &EventBase,
        window: Window,
    ) -> Result<Vec<Binding>> {
        let mut occurred = cond.compile_occurred().unwrap();
        evaluate_condition(cond, &mut occurred, schema, store, eb, window)
    }

    fn setup() -> (Schema, ObjectStore, EventBase) {
        let mut b = SchemaBuilder::new();
        b.class(
            "stock",
            None,
            vec![
                AttrDef::new("quantity", AttrType::Integer),
                AttrDef::with_default("max_quantity", AttrType::Integer, Value::Int(100)),
            ],
        )
        .unwrap();
        let schema = b.build();
        let mut store = ObjectStore::new();
        store.begin().unwrap();
        (schema, store, EventBase::new())
    }

    fn create_stock(
        schema: &Schema,
        store: &mut ObjectStore,
        eb: &mut EventBase,
        qty: i64,
    ) -> Oid {
        let stock = schema.class_by_name("stock").unwrap();
        let q = schema.attr_by_name(stock, "quantity").unwrap();
        let m = store.create(schema, stock, &[(q, Value::Int(qty))]).unwrap();
        eb.append(EventType::create(stock), m.oid);
        m.oid
    }

    /// The paper's `checkStockQty` condition:
    /// `stock(S), occurred(create, S), S.quantity > S.max_quantity`.
    #[test]
    fn check_stock_qty_condition() {
        let (schema, mut store, mut eb) = setup();
        let stock = schema.class_by_name("stock").unwrap();
        let ok = create_stock(&schema, &mut store, &mut eb, 50);
        let over = create_stock(&schema, &mut store, &mut eb, 150);
        let cond = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![
                Formula::Occurred {
                    expr: EventExpr::prim(EventType::create(stock)),
                    var: "S".into(),
                },
                Formula::Compare {
                    lhs: Term::attr("S", "quantity"),
                    op: CmpOp::Gt,
                    rhs: Term::attr("S", "max_quantity"),
                },
            ],
        };
        let w = Window::from_origin(eb.now());
        let rows = eval(&cond, &schema, &store, &eb, w).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["S"], Value::Ref(over));
        let _ = ok;
    }

    #[test]
    fn empty_condition_succeeds_once() {
        let (schema, store, eb) = setup();
        let w = Window::from_origin(Timestamp(1));
        let rows = eval(&Condition::always(), &schema, &store, &eb, w).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].is_empty());
    }

    #[test]
    fn unbound_decl_ranges_over_extent() {
        let (schema, mut store, mut eb) = setup();
        let a = create_stock(&schema, &mut store, &mut eb, 1);
        let b = create_stock(&schema, &mut store, &mut eb, 2);
        let cond = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![],
        };
        let rows = eval(&cond, &schema, &store, &eb, Window::from_origin(eb.now())).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["S"], Value::Ref(a));
        assert_eq!(rows[1]["S"], Value::Ref(b));
    }

    #[test]
    fn at_binds_time_variable() {
        let (schema, mut store, mut eb) = setup();
        let stock = schema.class_by_name("stock").unwrap();
        let q = schema.attr_by_name(stock, "quantity").unwrap();
        let oid = create_stock(&schema, &mut store, &mut eb, 1);
        store.modify(&schema, oid, q, Value::Int(2)).unwrap();
        eb.append(EventType::modify(stock, q), oid);
        store.modify(&schema, oid, q, Value::Int(3)).unwrap();
        eb.append(EventType::modify(stock, q), oid);
        // at(create <= modify(quantity), S, T): two instants (§3.3)
        let cond = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::At {
                expr: EventExpr::prim(EventType::create(stock))
                    .iprec(EventExpr::prim(EventType::modify(stock, q))),
                var: "S".into(),
                time_var: "T".into(),
            }],
        };
        let rows = eval(&cond, &schema, &store, &eb, Window::from_origin(eb.now())).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["S"], Value::Ref(oid));
        assert_eq!(rows[0]["T"], Value::Time(2));
        assert_eq!(rows[1]["T"], Value::Time(3));
    }

    #[test]
    fn occurred_drops_deleted_objects() {
        let (schema, mut store, mut eb) = setup();
        let stock = schema.class_by_name("stock").unwrap();
        let oid = create_stock(&schema, &mut store, &mut eb, 1);
        store.delete(oid).unwrap();
        eb.append(EventType::delete(stock), oid);
        let cond = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::create(stock)),
                var: "S".into(),
            }],
        };
        let rows = eval(&cond, &schema, &store, &eb, Window::from_origin(eb.now())).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn repeated_occurred_intersects() {
        let (schema, mut store, mut eb) = setup();
        let stock = schema.class_by_name("stock").unwrap();
        let q = schema.attr_by_name(stock, "quantity").unwrap();
        let a = create_stock(&schema, &mut store, &mut eb, 1);
        let _b = create_stock(&schema, &mut store, &mut eb, 2);
        store.modify(&schema, a, q, Value::Int(9)).unwrap();
        eb.append(EventType::modify(stock, q), a);
        let cond = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![
                Formula::Occurred {
                    expr: EventExpr::prim(EventType::create(stock)),
                    var: "S".into(),
                },
                Formula::Occurred {
                    expr: EventExpr::prim(EventType::modify(stock, q)),
                    var: "S".into(),
                },
            ],
        };
        let rows = eval(&cond, &schema, &store, &eb, Window::from_origin(eb.now())).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["S"], Value::Ref(a));
    }

    #[test]
    fn formula_on_undeclared_variable_errors() {
        let (schema, store, eb) = setup();
        let stock = schema.class_by_name("stock").unwrap();
        let cond = Condition {
            decls: vec![],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::create(stock)),
                var: "S".into(),
            }],
        };
        assert!(matches!(
            eval(&cond, &schema, &store, &eb, Window::from_origin(Timestamp(1))),
            Err(ExecError::UndeclaredFormulaVariable(_))
        ));
    }

    #[test]
    fn duplicate_declaration_errors() {
        let (schema, store, eb) = setup();
        let cond = Condition {
            decls: vec![
                VarDecl {
                    name: "S".into(),
                    class: "stock".into(),
                },
                VarDecl {
                    name: "S".into(),
                    class: "stock".into(),
                },
            ],
            formulas: vec![],
        };
        assert!(matches!(
            eval(&cond, &schema, &store, &eb, Window::from_origin(Timestamp(1))),
            Err(ExecError::DuplicateVariable(_))
        ));
    }

    #[test]
    fn term_arithmetic_and_errors() {
        let (schema, mut store, mut eb) = setup();
        let oid = create_stock(&schema, &mut store, &mut eb, 7);
        let mut row = Binding::new();
        row.insert("S".into(), Value::Ref(oid));
        let t = Term::Add(Box::new(Term::attr("S", "quantity")), Box::new(Term::int(3)));
        assert_eq!(eval_term(&t, &row, &schema, &store).unwrap(), Value::Int(10));
        let bad = Term::Add(
            Box::new(Term::Const(Value::Str("x".into()))),
            Box::new(Term::int(1)),
        );
        assert!(matches!(
            eval_term(&bad, &row, &schema, &store),
            Err(ExecError::BadTerm(_))
        ));
        assert!(matches!(
            eval_term(&Term::var("Z"), &row, &schema, &store),
            Err(ExecError::UnboundVariable(_))
        ));
        // Attr on a non-reference
        let mut row2 = Binding::new();
        row2.insert("S".into(), Value::Int(1));
        assert!(matches!(
            eval_term(&Term::attr("S", "quantity"), &row2, &schema, &store),
            Err(ExecError::BadTerm(_))
        ));
    }

    #[test]
    fn null_comparisons_fail_predicate() {
        let (schema, mut store, eb) = setup();
        let stock = schema.class_by_name("stock").unwrap();
        // object with Null quantity (no default)
        store.create(&schema, stock, &[]).unwrap();
        let cond = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Compare {
                lhs: Term::attr("S", "quantity"),
                op: CmpOp::Eq,
                rhs: Term::attr("S", "quantity"),
            }],
        };
        let rows = eval(&cond, &schema, &store, &eb, Window::from_origin(Timestamp(1))).unwrap();
        assert!(rows.is_empty(), "Null = Null must not hold");
    }
}
