//! Parse a SPICE deck and check it through the unified pipeline — the whole
//! "any circuit you can write down" flow in one page, with verdicts from the
//! proposed test cross-checked against the Weierstrass baseline exactly the
//! way the `ds-serve` daemon would answer them.
//!
//! ```console
//! $ cargo run --example deck_check
//! ```

use ds_passivity_suite::netlist::parse_deck;
use ds_passivity_suite::prelude::*;

const DECK: &str = include_str!("decks/coupled_pair.cir");

fn main() -> Result<(), SuiteError> {
    let deck = parse_deck(DECK)?;
    println!(
        "parsed deck: {} nodes ({}), {} elements, {} coupling(s), {} port(s)",
        deck.netlist.num_nodes,
        deck.node_names.join(", "),
        deck.netlist.elements.len(),
        deck.netlist.couplings.len(),
        deck.netlist.ports.len(),
    );
    println!("canonical content hash: {:016x}", deck.content_hash());

    let proposed = PassivityCheck::deck("coupled_pair", deck.clone())
        .method(Method::Proposed)
        .run()?;
    println!(
        "stamped MNA descriptor system: order {}, {} port(s)",
        proposed.order, proposed.record.ports
    );

    let weierstrass = PassivityCheck::deck("coupled_pair", deck.clone())
        .method(Method::Weierstrass)
        .run()?;
    println!(
        "proposed (SHH) verdict:    passive = {:?}",
        proposed.passive
    );
    println!(
        "weierstrass verdict:       passive = {:?}",
        weierstrass.passive
    );
    println!(
        "ground truth (by construction): {}",
        if deck.expected_passive() {
            "passive"
        } else {
            "not passive"
        }
    );
    println!("served report body: {}", proposed.report_json());
    Ok(())
}
