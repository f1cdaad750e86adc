//! §5.1 static optimization, demonstrated: derive the variation set `V(E)`
//! for the paper's worked expression and show the Trigger Support skipping
//! irrelevant arrivals.
//!
//! ```sh
//! cargo run --example optimizer_demo
//! ```

use chimera::calculus::{EventExpr, RelevanceFilter, VariationSet};
use chimera::events::{EventBase, EventType, Timestamp};
use chimera::model::{AttrDef, AttrType, ClassId, Oid, SchemaBuilder};
use chimera::rules::{RuleTable, TriggerDef, TriggerSupport};

fn main() {
    // Name three primitive event types A, B, C over a small schema so the
    // variation sets print readably.
    let mut b = SchemaBuilder::new();
    b.class("a_class", None, vec![AttrDef::new("x", AttrType::Integer)])
        .unwrap();
    b.class("b_class", None, vec![]).unwrap();
    b.class("c_class", None, vec![]).unwrap();
    let schema = b.build();
    let a = EventExpr::prim(EventType::create(ClassId(0)));
    let bb = EventExpr::prim(EventType::create(ClassId(1)));
    let c = EventExpr::prim(EventType::create(ClassId(2)));

    // the §5.1 worked expression:
    // E = ((A , B) < (C + (-A))) , ((A += C) ,= (-=(B <= A)))
    let part1 = a.clone().or(bb.clone()).prec(c.clone().and(a.clone().not()));
    let part2 = a
        .clone()
        .iand(c.clone())
        .ior(bb.clone().iprec(a.clone()).inot());
    let e = part1.or(part2);
    e.validate().unwrap();

    println!("E = {}", e.render(&schema));
    let vs = VariationSet::for_expr(&e);
    println!("V(E) = {}", vs.render(&schema));
    println!("        (the paper's §5.1 example: {{ΔA, ΔB, Δ+C}})\n");

    // show the filter at work inside the trigger support
    let filter = RelevanceFilter::new(&e);
    for (name, ty) in [
        ("A", EventType::create(ClassId(0))),
        ("B", EventType::create(ClassId(1))),
        ("C", EventType::create(ClassId(2))),
        ("D (unrelated)", EventType::delete(ClassId(0))),
    ] {
        println!(
            "arrival of {name:<14} -> recompute ts? {}",
            filter.needs_recheck(&[ty], false)
        );
    }

    // measure skips over a synthetic run: a rule on A + C (conjunction),
    // fed a stream that is 99% irrelevant D arrivals. Triggered rules are
    // considered right away so the support keeps checking.
    let rule_expr = a.clone().and(c.clone());
    println!(
        "\nskip measurement: rule on {} over a 99%-irrelevant stream",
        rule_expr.render(&schema)
    );
    let mut table = RuleTable::new();
    table
        .define(TriggerDef::new("r", rule_expr), Timestamp::ZERO)
        .unwrap();
    let mut support = TriggerSupport::optimized();
    let mut eb = EventBase::new();
    let mut firings = 0u32;
    for i in 0..1000u64 {
        let ty = match i % 200 {
            0 => EventType::create(ClassId(0)),   // A — relevant
            100 => EventType::create(ClassId(2)), // C — relevant
            _ => EventType::delete(ClassId(0)),   // D — irrelevant
        };
        eb.append(ty, Oid(1 + i % 10));
        support.check(&mut table, &eb, eb.now());
        if table.state("r").unwrap().triggered {
            firings += 1;
            table.mark_considered(table.index_of("r").unwrap(), eb.now());
        }
    }
    let s = support.stats;
    println!("after 1000 arrivals (1% relevant):");
    println!("  rules checked          {}", s.rules_checked);
    println!("  skipped by V(E) filter {}", s.skipped_by_filter);
    println!("  ts probes evaluated    {}", s.ts_probes);
    println!("  rule firings           {firings}");
    let skip_ratio = s.skipped_by_filter as f64 / s.rules_checked as f64;
    println!("  skip ratio             {:.1}%", skip_ratio * 100.0);
    assert!(skip_ratio > 0.9, "the filter should skip almost everything");
}
