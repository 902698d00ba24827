//! Scenario families, the scenario matrix, and the preset sweeps.
//!
//! A [`Scenario`] is a fully deterministic recipe for one circuit model:
//! family + size knob + ports + seed + violation margin.  The sweep engine
//! fans the cross product of scenarios × methods (the *scenario matrix*)
//! across its worker pool.

use crate::check::BuildError;
use crate::method::{Method, LMI_MAX_ORDER};
use ds_circuits::generators::{self, CircuitModel};
use ds_circuits::multiport;
use ds_circuits::random::{
    random_nonpassive_descriptor, random_passive_descriptor, RandomPassiveOptions,
};
use ds_circuits::{CircuitError, Netlist};
use std::sync::Arc;

/// The circuit families the harness can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FamilyKind {
    /// Single-port RC ladder (`size` = sections).
    RcLadder,
    /// Single-port RLC ladder (`size` = sections).
    RlcLadder,
    /// The Table-1 workload: impulsive RLC ladder (`size` = exact order).
    ImpulsiveLadder,
    /// Two-port RC grid (`size` × `size` nodes).
    RcGrid,
    /// Multiport RLC ladder, `ports` chains of `size` sections.
    MultiportLadder,
    /// Multiport RLC ladder with series port inductors (impulsive modes).
    MultiportLadderImpulsive,
    /// Coupled-inductor mesh (`size` × `size`, mutual inductance in `E`).
    CoupledMesh,
    /// Lossy transmission-line π-segment chain (`size` = segments).
    TlineChain,
    /// Near-passivity-boundary model (`size` = dynamic states, `margin`).
    PerturbedBoundary,
    /// Band-limited near-boundary model: the violation sits at a *finite*
    /// witness frequency `ω₀` derived from the seed (`margin`, `ports`;
    /// `size` is unused — the order is `2·ports + 2`).
    BoundaryBand,
    /// A parsed SPICE deck (payload in [`Scenario::deck`]; `size` = stamped
    /// order, `seed` = canonical-deck content hash).
    Deck,
    /// Non-passive ladder with a negative series resistance (`size` = order).
    NonpassiveLadder,
    /// Non-passive model with an indefinite `M₁` (`size` = order).
    NegativeM1,
    /// Randomized passive descriptor (`size` = dynamic states, `seed`).
    RandomPassive,
    /// Randomized non-passive descriptor (`size` = dynamic states, `seed`).
    RandomNonpassive,
    /// Reduce-then-verify RLC ladder (`size` = sections, original order
    /// `2·size + 1`): stamped sparsely and Krylov-projected to a dense model
    /// of order ≤ 48 before verification.  Odd seeds couple disjoint inductor
    /// pairs.
    Reduced,
}

impl FamilyKind {
    /// Every family, in declaration order.
    pub const ALL: [FamilyKind; 16] = [
        FamilyKind::RcLadder,
        FamilyKind::RlcLadder,
        FamilyKind::ImpulsiveLadder,
        FamilyKind::RcGrid,
        FamilyKind::MultiportLadder,
        FamilyKind::MultiportLadderImpulsive,
        FamilyKind::CoupledMesh,
        FamilyKind::TlineChain,
        FamilyKind::PerturbedBoundary,
        FamilyKind::BoundaryBand,
        FamilyKind::Deck,
        FamilyKind::NonpassiveLadder,
        FamilyKind::NegativeM1,
        FamilyKind::RandomPassive,
        FamilyKind::RandomNonpassive,
        FamilyKind::Reduced,
    ];

    /// Parses a stable family identifier back to the family (the inverse of
    /// [`FamilyKind::name`], used when loading persisted artifacts).
    pub fn parse(name: &str) -> Option<FamilyKind> {
        FamilyKind::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// Stable family identifier used in artifacts and golden fixtures.
    pub fn name(self) -> &'static str {
        match self {
            FamilyKind::RcLadder => "rc_ladder",
            FamilyKind::RlcLadder => "rlc_ladder",
            FamilyKind::ImpulsiveLadder => "impulsive_ladder",
            FamilyKind::RcGrid => "rc_grid",
            FamilyKind::MultiportLadder => "multiport_ladder",
            FamilyKind::MultiportLadderImpulsive => "multiport_ladder_impulsive",
            FamilyKind::CoupledMesh => "coupled_mesh",
            FamilyKind::TlineChain => "tline_chain",
            FamilyKind::PerturbedBoundary => "perturbed_boundary",
            FamilyKind::BoundaryBand => "boundary_band",
            FamilyKind::Deck => "deck",
            FamilyKind::NonpassiveLadder => "nonpassive_ladder",
            FamilyKind::NegativeM1 => "negative_m1",
            FamilyKind::RandomPassive => "random_passive",
            FamilyKind::RandomNonpassive => "random_nonpassive",
            FamilyKind::Reduced => "reduced",
        }
    }
}

/// The payload of a [`FamilyKind::Deck`] scenario: a parsed, validated
/// netlist together with the identity the store fingerprints it under.
///
/// The content hash rides in the scenario's `seed` field, so deck records
/// persist and resume through the result store with the standard
/// `family|order|ports|seed|margin|method` fingerprint — no schema change.
#[derive(Debug, Clone, PartialEq)]
pub struct DeckSpec {
    /// Deck name (by convention the `.cir` file stem).
    pub name: String,
    /// The parsed netlist.
    pub netlist: Netlist,
    /// FNV-1a hash of the canonicalized deck text.
    pub hash: u64,
    /// Ground truth: the deck's `.expect` annotation, or
    /// passivity-by-construction when absent.
    pub expected_passive: bool,
}

impl DeckSpec {
    /// Builds the spec from a parsed deck.
    pub fn from_deck(name: impl Into<String>, deck: &ds_netlist::Deck) -> Self {
        DeckSpec {
            name: name.into(),
            netlist: deck.netlist.clone(),
            hash: deck.content_hash(),
            expected_passive: deck.expected_passive(),
        }
    }
}

/// A deterministic recipe for one circuit model.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which generator family to draw from.
    pub family: FamilyKind,
    /// Family-specific size knob (sections / order / grid edge / states).
    pub size: usize,
    /// Number of ports, where the family supports it.
    pub ports: usize,
    /// Seed for the randomized families (ignored by deterministic ones;
    /// carries the canonical content hash for [`FamilyKind::Deck`]).
    pub seed: u64,
    /// Violation margin for the near-boundary families.
    pub margin: f64,
    /// The deck payload — `Some` exactly for [`FamilyKind::Deck`].
    pub deck: Option<Arc<DeckSpec>>,
}

/// Hashable identity of a [`Scenario`]: every field that feeds the generator,
/// with the margin keyed by its exact bit pattern (`f64` is not `Hash`/`Eq`).
/// Two scenarios with equal keys build identical models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioKey {
    /// Generator family.
    pub family: FamilyKind,
    /// Size knob.
    pub size: usize,
    /// Port count.
    pub ports: usize,
    /// Random seed.
    pub seed: u64,
    /// Bit pattern of the violation margin.
    pub margin_bits: u64,
}

impl Scenario {
    /// A scenario with default `ports = 1`, `seed = 0`, `margin = 0`.
    pub fn new(family: FamilyKind, size: usize) -> Self {
        Scenario {
            family,
            size,
            ports: 1,
            seed: 0,
            margin: 0.0,
            deck: None,
        }
    }

    /// A [`FamilyKind::Deck`] scenario for a parsed deck: `size` is the
    /// stamped MNA order, `ports` the deck's port count, and `seed` the
    /// canonical content hash (giving deck tasks stable store fingerprints).
    pub fn from_deck(name: impl Into<String>, deck: &ds_netlist::Deck) -> Self {
        let spec = DeckSpec::from_deck(name, deck);
        Scenario {
            family: FamilyKind::Deck,
            size: spec.netlist.state_dimension(),
            ports: spec.netlist.ports.len(),
            seed: deck_seed(spec.hash),
            margin: 0.0,
            deck: Some(Arc::new(spec)),
        }
    }

    /// Sets the port count.
    #[must_use]
    pub fn with_ports(mut self, ports: usize) -> Self {
        self.ports = ports;
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the violation margin.
    #[must_use]
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// The hashable identity of this scenario (used for fingerprint-keyed
    /// dedup in the sweep engine and the persistent result store).
    pub fn key(&self) -> ScenarioKey {
        ScenarioKey {
            family: self.family,
            size: self.size,
            ports: self.ports,
            seed: self.seed,
            margin_bits: self.margin.to_bits(),
        }
    }

    /// The exact MNA state dimension this scenario will produce, from the
    /// generators' documented order formulas (used to gate the LMI baseline
    /// without building the model).
    pub fn order(&self) -> usize {
        let s = self.size;
        match self.family {
            FamilyKind::RcLadder => s + 1,
            FamilyKind::RlcLadder => 2 * s + 1,
            FamilyKind::ImpulsiveLadder | FamilyKind::NonpassiveLadder => s,
            FamilyKind::NegativeM1 => {
                let o = s.max(6);
                o + (o % 2)
            }
            FamilyKind::RcGrid => s * s,
            FamilyKind::MultiportLadder => self.ports * (2 * s + 1),
            FamilyKind::MultiportLadderImpulsive => self.ports * (2 * s + 3),
            FamilyKind::CoupledMesh => s * s + s * (s - 1),
            FamilyKind::TlineChain => 3 * s + 1,
            FamilyKind::PerturbedBoundary => s + 2,
            FamilyKind::BoundaryBand => 2 * self.ports + 2,
            FamilyKind::Deck => s,
            FamilyKind::RandomPassive => {
                s + 2
                    + if self.seed.is_multiple_of(2) {
                        2 * self.ports
                    } else {
                        0
                    }
            }
            FamilyKind::RandomNonpassive => s + 1,
            FamilyKind::Reduced => 2 * s + 1,
        }
    }

    /// Builds the circuit model.
    ///
    /// # Errors
    ///
    /// Propagates generator failures (unrealizable parameters), deck
    /// stamping failures, and failed Krylov projections of the `reduced`
    /// family.
    pub fn build(&self) -> Result<CircuitModel, BuildError> {
        let model = match self.family {
            FamilyKind::RcLadder => generators::rc_ladder(self.size, 1.0, 1.0),
            FamilyKind::RlcLadder => generators::rlc_ladder(self.size, 1.0, 0.5, 1.0),
            FamilyKind::ImpulsiveLadder => generators::rlc_ladder_with_impulsive(self.size),
            FamilyKind::RcGrid => generators::rc_grid(self.size, self.size),
            FamilyKind::MultiportLadder => {
                multiport::multiport_rlc_ladder(self.ports, self.size, false)
            }
            FamilyKind::MultiportLadderImpulsive => {
                multiport::multiport_rlc_ladder(self.ports, self.size, true)
            }
            FamilyKind::CoupledMesh => multiport::coupled_inductor_mesh(self.size, self.size, 0.4),
            FamilyKind::TlineChain => multiport::lossy_tline_chain(self.size),
            FamilyKind::PerturbedBoundary => {
                multiport::perturbed_boundary_model(self.size, self.ports, self.margin, self.seed)
            }
            FamilyKind::BoundaryBand => multiport::banded_boundary_model(
                self.ports,
                self.margin,
                banded_omega0(self.seed),
                self.seed,
            ),
            FamilyKind::Deck => {
                let spec = self
                    .deck
                    .as_ref()
                    .ok_or_else(|| CircuitError::BadElementValue {
                        details: "deck scenario carries no deck payload".into(),
                    })?;
                let name = format!("deck({})", spec.name);
                let expect = Some(spec.expected_passive);
                return Ok(crate::check::netlist_model(name, &spec.netlist, expect, None)?.0);
            }
            FamilyKind::NonpassiveLadder => generators::nonpassive_ladder(self.size),
            FamilyKind::NegativeM1 => generators::negative_m1_model(self.size),
            FamilyKind::RandomPassive => {
                let options = RandomPassiveOptions {
                    dynamic_states: self.size,
                    nondynamic_states: 2,
                    ports: self.ports,
                    with_impulsive_part: self.seed.is_multiple_of(2),
                    feedthrough: 0.5,
                };
                let system = random_passive_descriptor(&options, self.seed)?;
                Ok(CircuitModel {
                    name: format!(
                        "random_passive(n={},ports={},seed={})",
                        self.size, self.ports, self.seed
                    ),
                    system,
                    expected_passive: true,
                    has_impulsive_modes: options.with_impulsive_part,
                })
            }
            FamilyKind::Reduced => return Ok(crate::reduce::build_reduced(self)?.0),
            FamilyKind::RandomNonpassive => {
                let options = RandomPassiveOptions {
                    dynamic_states: self.size,
                    nondynamic_states: 1,
                    ports: self.ports,
                    with_impulsive_part: false,
                    feedthrough: 0.5,
                };
                let system = random_nonpassive_descriptor(&options, self.seed)?;
                Ok(CircuitModel {
                    name: format!(
                        "random_nonpassive(n={},ports={},seed={})",
                        self.size, self.ports, self.seed
                    ),
                    system,
                    expected_passive: false,
                    has_impulsive_modes: false,
                })
            }
        };
        Ok(model?)
    }
}

/// The content hash as it rides in a deck scenario's `seed`: persisted
/// records serialize the seed through the JSON number representation, which
/// is exact only up to 2⁵³, so the 64-bit canonical hash is truncated to its
/// low 53 bits (collisions need ~10⁸ distinct decks; the full hash stays
/// available on [`DeckSpec::hash`]).
pub fn deck_seed(hash: u64) -> u64 {
    hash & ((1u64 << 53) - 1)
}

/// Recursively collects every `*.cir` file under `dir` (sorted by path, so
/// the scenario order — and therefore task ids and artifacts — is
/// deterministic) and parses each into a [`FamilyKind::Deck`] scenario named
/// after its path relative to `dir` (without the extension).
///
/// # Errors
///
/// Reports I/O failures and the first parse failure as
/// `<path>: line L, column C: message`.
pub fn deck_scenarios_from_dir(dir: &std::path::Path) -> Result<Vec<Scenario>, String> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path
                .extension()
                .is_some_and(|ext| ext.eq_ignore_ascii_case("cir"))
            {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut paths = Vec::new();
    walk(dir, &mut paths)?;
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .cir decks found under {}", dir.display()));
    }
    let mut scenarios = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let deck = ds_netlist::parse_deck(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .strip_prefix(dir)
            .unwrap_or(&path)
            .with_extension("")
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        scenarios.push(Scenario::from_deck(name, &deck));
    }
    Ok(scenarios)
}

/// The witness frequency a [`FamilyKind::BoundaryBand`] scenario derives from
/// its seed: `ω₀ = 1 + 0.5·(seed mod 5)`, so replicated seeds spread the
/// violation band across the frequency axis while staying inside the
/// violation-sampling grid.
pub fn banded_omega0(seed: u64) -> f64 {
    1.0 + 0.5 * (seed % 5) as f64
}

/// One unit of work for the sweep engine: a scenario paired with a method.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTask {
    /// The model recipe.
    pub scenario: Scenario,
    /// The passivity test to run on it.
    pub method: Method,
}

/// Builds the scenario matrix: the cross product of scenarios × methods, with
/// the LMI baseline gated to orders ≤ [`LMI_MAX_ORDER`] (the paper's "NIL"
/// regime is skipped rather than timed out).
pub fn scenario_matrix(scenarios: &[Scenario], methods: &[Method]) -> Vec<SweepTask> {
    let mut tasks = Vec::with_capacity(scenarios.len() * methods.len());
    for scenario in scenarios {
        for &method in methods {
            if method == Method::Lmi && scenario.order() > LMI_MAX_ORDER {
                continue;
            }
            tasks.push(SweepTask {
                scenario: scenario.clone(),
                method,
            });
        }
    }
    tasks
}

/// Tiny preset used by the CI smoke job and the determinism test: every
/// family appears once at its smallest interesting size.
pub fn quick_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(FamilyKind::RcLadder, 4),
        Scenario::new(FamilyKind::RlcLadder, 3),
        Scenario::new(FamilyKind::ImpulsiveLadder, 8),
        Scenario::new(FamilyKind::RcGrid, 3),
        Scenario::new(FamilyKind::MultiportLadder, 2).with_ports(2),
        Scenario::new(FamilyKind::MultiportLadderImpulsive, 2).with_ports(2),
        Scenario::new(FamilyKind::CoupledMesh, 3),
        Scenario::new(FamilyKind::TlineChain, 3),
        Scenario::new(FamilyKind::PerturbedBoundary, 5).with_seed(1),
        Scenario::new(FamilyKind::PerturbedBoundary, 5)
            .with_ports(2)
            .with_margin(0.25)
            .with_seed(1),
        Scenario::new(FamilyKind::BoundaryBand, 0)
            .with_ports(2)
            .with_seed(2),
        Scenario::new(FamilyKind::BoundaryBand, 0)
            .with_margin(0.4)
            .with_seed(2),
        Scenario::new(FamilyKind::NonpassiveLadder, 8),
        Scenario::new(FamilyKind::NegativeM1, 8),
        Scenario::new(FamilyKind::RandomPassive, 5).with_seed(2),
        Scenario::new(FamilyKind::RandomNonpassive, 5).with_seed(0),
        Scenario::new(FamilyKind::Reduced, 30),
    ]
}

/// The standard sweep: a medium-scale scenario ensemble covering every family
/// at several sizes, port counts, margins and seeds.  `seeds` controls the
/// replication of the randomized families.
pub fn standard_scenarios(seeds: u64) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for &size in &[4usize, 8, 16] {
        scenarios.push(Scenario::new(FamilyKind::RcLadder, size));
    }
    for &size in &[3usize, 6, 10] {
        scenarios.push(Scenario::new(FamilyKind::RlcLadder, size));
    }
    for &order in &[10usize, 20, 40] {
        scenarios.push(Scenario::new(FamilyKind::ImpulsiveLadder, order));
    }
    for &edge in &[3usize, 4] {
        scenarios.push(Scenario::new(FamilyKind::RcGrid, edge));
    }
    for &ports in &[2usize, 3] {
        for &sections in &[2usize, 4] {
            scenarios.push(Scenario::new(FamilyKind::MultiportLadder, sections).with_ports(ports));
            scenarios.push(
                Scenario::new(FamilyKind::MultiportLadderImpulsive, sections).with_ports(ports),
            );
        }
    }
    for &edge in &[3usize, 4] {
        scenarios.push(Scenario::new(FamilyKind::CoupledMesh, edge));
    }
    for &segments in &[3usize, 6] {
        scenarios.push(Scenario::new(FamilyKind::TlineChain, segments));
    }
    for seed in 0..seeds {
        for &margin in &[0.0, 0.1, 0.5] {
            scenarios.push(
                Scenario::new(FamilyKind::PerturbedBoundary, 6)
                    .with_ports(1 + (seed as usize) % 3)
                    .with_margin(margin)
                    .with_seed(seed),
            );
        }
        for &margin in &[0.0, 0.25] {
            scenarios.push(
                Scenario::new(FamilyKind::BoundaryBand, 0)
                    .with_ports(1 + (seed as usize) % 2)
                    .with_margin(margin)
                    .with_seed(seed),
            );
        }
        scenarios.push(Scenario::new(FamilyKind::RandomPassive, 6).with_seed(seed));
        scenarios.push(Scenario::new(FamilyKind::RandomNonpassive, 6).with_seed(seed));
    }
    for &order in &[8usize, 14] {
        scenarios.push(Scenario::new(FamilyKind::NonpassiveLadder, order));
        scenarios.push(Scenario::new(FamilyKind::NegativeM1, order));
    }
    for &sections in &[30usize, 60] {
        scenarios.push(Scenario::new(FamilyKind::Reduced, sections));
        scenarios.push(Scenario::new(FamilyKind::Reduced, sections).with_seed(1));
    }
    scenarios
}

/// Builds a standard-preset task list of at least `target` tasks by growing
/// the randomized-seed replication until the matrix is large enough (used by
/// the throughput/speedup benchmark, e.g. a 200-task sweep).
pub fn standard_tasks(target: usize) -> Vec<SweepTask> {
    let methods = [Method::Proposed, Method::Weierstrass, Method::Lmi];
    let mut seeds = 2u64;
    loop {
        let tasks = scenario_matrix(&standard_scenarios(seeds), &methods);
        if tasks.len() >= target || seeds > 4096 {
            return tasks;
        }
        seeds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_formulas_match_built_models() {
        let scenarios = vec![
            Scenario::new(FamilyKind::RcLadder, 5),
            Scenario::new(FamilyKind::RlcLadder, 4),
            Scenario::new(FamilyKind::ImpulsiveLadder, 10),
            Scenario::new(FamilyKind::RcGrid, 3),
            Scenario::new(FamilyKind::MultiportLadder, 3).with_ports(2),
            Scenario::new(FamilyKind::MultiportLadderImpulsive, 2).with_ports(3),
            Scenario::new(FamilyKind::CoupledMesh, 3),
            Scenario::new(FamilyKind::TlineChain, 4),
            Scenario::new(FamilyKind::PerturbedBoundary, 5).with_ports(2),
            Scenario::new(FamilyKind::BoundaryBand, 0)
                .with_ports(2)
                .with_seed(3),
            Scenario::new(FamilyKind::BoundaryBand, 0).with_margin(0.25),
            Scenario::new(FamilyKind::NonpassiveLadder, 8),
            Scenario::new(FamilyKind::NegativeM1, 8),
            Scenario::new(FamilyKind::RandomPassive, 5).with_seed(2),
            Scenario::new(FamilyKind::RandomPassive, 5).with_seed(1),
            Scenario::new(FamilyKind::RandomNonpassive, 5),
            Scenario::new(FamilyKind::Reduced, 8),
        ];
        for scenario in scenarios {
            let model = scenario.build().unwrap();
            assert_eq!(
                model.system.order(),
                scenario.order(),
                "order formula wrong for {:?}",
                scenario
            );
        }
    }

    #[test]
    fn matrix_gates_lmi_by_order() {
        let scenarios = vec![
            Scenario::new(FamilyKind::ImpulsiveLadder, 20),
            Scenario::new(FamilyKind::ImpulsiveLadder, 100),
        ];
        let tasks = scenario_matrix(&scenarios, &Method::ALL);
        // 2 scenarios × {proposed, weierstrass} + LMI only for order 20.
        assert_eq!(tasks.len(), 5);
        assert!(!tasks
            .iter()
            .any(|t| t.method == Method::Lmi && t.scenario.order() > LMI_MAX_ORDER));
    }

    #[test]
    fn deck_scenarios_carry_their_payload_and_hash() {
        let deck = ds_netlist::parse_deck(
            "L1 a b 1\nL2 c 0 2\nK1 L1 L2 0.6\nR1 b 0 1\nR2 c 0 1\n.port a\n.end\n",
        )
        .unwrap();
        let scenario = Scenario::from_deck("pair", &deck);
        assert_eq!(scenario.family, FamilyKind::Deck);
        assert_eq!(scenario.ports, 1);
        assert_eq!(scenario.size, deck.netlist.state_dimension());
        assert_eq!(scenario.seed, deck_seed(deck.content_hash()));
        // The seed survives an f64 round-trip (the JSONL number path).
        assert_eq!(scenario.seed as f64 as u64, scenario.seed);
        let model = scenario.build().unwrap();
        assert_eq!(model.name, "deck(pair)");
        assert_eq!(model.system.order(), scenario.order());
        assert!(model.expected_passive);
        // A deck scenario without its payload is a build error, not a panic.
        let mut stripped = scenario.clone();
        stripped.deck = None;
        assert!(stripped.build().is_err());
        // Renaming nodes leaves the fingerprint identity unchanged.
        let renamed = ds_netlist::parse_deck(
            "L1 x y 1\nL2 z 0 2\nK1 L1 L2 0.6\nR1 y 0 1\nR2 z 0 1\n.port x\n.end\n",
        )
        .unwrap();
        assert_eq!(Scenario::from_deck("pair", &renamed).key(), scenario.key());
    }

    #[test]
    fn presets_are_nonempty_and_buildable() {
        for scenario in quick_scenarios() {
            scenario
                .build()
                .unwrap_or_else(|e| panic!("quick scenario {scenario:?} failed to build: {e}"));
        }
        assert!(standard_scenarios(2).len() >= 30);
        let tasks = standard_tasks(200);
        assert!(tasks.len() >= 200, "only {} tasks", tasks.len());
    }
}
