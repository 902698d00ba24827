//! Reduce-then-verify agreement: on orders small enough to check both ways,
//! the Krylov-reduced verdict must match the exact dense verdict for every
//! tractable method.  This is the overlap regime (orders ≤ 200) where the
//! golden suite also pins reduced cells; beyond it only the reduced path is
//! tractable and this agreement is the evidence it can be trusted there.

use ds_passivity_suite::circuits::generators::reduced_ladder_netlist;
use ds_passivity_suite::harness::Method;
use ds_passivity_suite::pipeline::PassivityCheck;
use ds_passivity_suite::shh::krylov::ReduceSpec;

/// Sections covering the passthrough regime (order ≤ 48 → no truncation),
/// the first truncating order, and comfortably-compressed orders, each in
/// plain and coupled variants.  Orders are 2·sections + 1.
const SECTIONS: [usize; 4] = [10, 24, 50, 99];

#[test]
fn reduced_verdicts_agree_with_dense_on_overlap_orders() {
    for &sections in &SECTIONS {
        for coupled in [false, true] {
            let netlist = reduced_ladder_netlist(sections, coupled).unwrap();
            for method in [Method::Proposed, Method::Weierstrass] {
                let name = format!("ladder-{sections}-{coupled}-{method:?}");
                let dense = PassivityCheck::netlist(name.clone(), netlist.clone())
                    .method(method)
                    .run()
                    .unwrap();
                let reduced = PassivityCheck::netlist(name.clone(), netlist.clone())
                    .method(method)
                    .reduce(ReduceSpec::default())
                    .run()
                    .unwrap();
                assert_eq!(
                    dense.passive, reduced.passive,
                    "{name}: dense and reduced verdicts diverged"
                );
                assert_eq!(
                    dense.order, reduced.order,
                    "{name}: reduced outcome must report the original order"
                );
                let reduced_order = reduced.reduced_order.unwrap();
                if dense.order <= 48 {
                    // Passthrough: nothing truncated, residual exactly zero.
                    assert_eq!(reduced_order, dense.order, "{name}: passthrough order");
                    assert_eq!(reduced.residual, Some(0.0), "{name}: passthrough residual");
                } else {
                    assert_eq!(reduced_order, 48, "{name}: truncated to target order");
                }
                assert!(
                    reduced.record.reduction_ns.is_some(),
                    "{name}: reduction timing must be recorded"
                );
            }
        }
    }
}

#[test]
fn reduced_ladders_are_passive_at_every_overlap_order() {
    // The family is passive by construction; the reduced path must say so at
    // every overlap order (congruence projection preserves passivity).
    for &sections in &SECTIONS {
        let netlist = reduced_ladder_netlist(sections, true).unwrap();
        let outcome = PassivityCheck::netlist(format!("ladder-{sections}"), netlist)
            .reduce(ReduceSpec::default())
            .run()
            .unwrap();
        assert_eq!(
            outcome.passive,
            Some(true),
            "sections={sections} must verify passive"
        );
        assert_eq!(
            outcome.record.agrees,
            Some(true),
            "sections={sections} expectation"
        );
    }
}
