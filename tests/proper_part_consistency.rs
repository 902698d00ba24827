//! The "sidetrack" deliverable: the stable proper part extracted by the SHH
//! flow must match the proper part of the Weierstrass additive decomposition
//! (up to the skew-symmetric constant that the Φ-based route cannot observe).

use ds_circuits::generators;
use ds_descriptor::transfer;
use ds_descriptor::weierstrass::{decompose, WeierstrassOptions};
use ds_passivity::fast::{check_passivity, FastTestOptions};

fn check_model(system: &ds_descriptor::DescriptorSystem) {
    let report = check_passivity(system, &FastTestOptions::default()).unwrap();
    assert!(report.verdict.is_passive());
    let shh_proper = report.proper_part.expect("proper part");
    let weier = decompose(system, &WeierstrassOptions::default()).unwrap();

    // Same dynamic order.
    assert_eq!(shh_proper.order(), weier.finite_dim);

    // The Hermitian part of both proper parts on the imaginary axis must match
    // the Hermitian part of G itself (the polynomial term s·M1 is skew there).
    for &w in &[0.0, 0.2, 1.0, 5.0, 50.0] {
        let g = transfer::evaluate_jomega(system, w).unwrap();
        let shh = transfer::evaluate_jomega(&shh_proper.to_descriptor(), w).unwrap();
        let weier_value = transfer::evaluate_jomega(&weier.proper.to_descriptor(), w).unwrap();
        let herm_g = &g.re + &g.re.transpose();
        let herm_shh = &shh.re + &shh.re.transpose();
        let herm_weier = &weier_value.re + &weier_value.re.transpose();
        let scale = 1.0 + herm_g.norm_max();
        assert!(
            herm_g.approx_eq(&herm_shh, 1e-6 * scale),
            "SHH proper part deviates at ω = {w}"
        );
        assert!(
            herm_g.approx_eq(&herm_weier, 1e-6 * scale),
            "Weierstrass proper part deviates at ω = {w}"
        );
    }

    // Both proper parts are stable.
    assert!(shh_proper.is_stable(1e-10).unwrap());
    assert!(weier.proper.order() == 0 || weier.proper.is_stable(1e-10).unwrap());
}

#[test]
fn proper_part_consistency_impulsive_ladder() {
    let model = generators::rlc_ladder_with_impulsive(12).unwrap();
    check_model(&model.system);
}

#[test]
fn proper_part_consistency_proper_ladder() {
    let model = generators::rc_ladder(6, 2.0, 0.5).unwrap();
    check_model(&model.system);
}

#[test]
fn proper_part_consistency_two_port() {
    let model = generators::rc_grid(2, 3).unwrap();
    check_model(&model.system);
}

#[test]
fn m1_matches_high_frequency_sampling() {
    let model = generators::rlc_ladder_with_impulsive(14).unwrap();
    let report = check_passivity(&model.system, &FastTestOptions::default()).unwrap();
    let m1 = report.m1.unwrap();
    let sampled = transfer::sample_m1(&model.system, 1e5).unwrap();
    assert!(
        (m1[(0, 0)] - sampled[(0, 0)]).abs() < 1e-4 * sampled[(0, 0)].abs().max(1.0),
        "chain-based M1 {} vs sampled {}",
        m1[(0, 0)],
        sampled[(0, 0)]
    );
}

#[test]
fn scaled_negative_resistance_deck_is_rejected() {
    // A ladder behind a negative series R (Re Z(0) < 0, so not passive),
    // scaled to on-chip values (α = 1e6, order 58).  Its proper part fits G
    // at the Markov probes only to roundoff: at σ = 3·10⁴ the symmetric
    // mismatch reads 2.03e-4 against the probe's 1.91e-4 limit with `B_p`
    // from `HamiltonianSplit::decouple`, and 1.70e-4 with `B_p` from an
    // explicitly formed `Y`, which accepted the deck as passive.  A change
    // that moves `B_p`'s last bits must not flip the verdict back unseen.
    let deck = include_str!("fixtures/negative_r_o58_a1e6.cir");
    let outcome = ds_passivity_suite::PassivityCheck::deck_text(deck)
        .run()
        .unwrap();
    assert_eq!(outcome.passive, Some(false), "{}", outcome.reason);
    assert_eq!(outcome.reason, "higher_order_markov");
}
