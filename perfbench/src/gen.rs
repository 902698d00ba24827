//! Seeded input generation: every deck, netlist and task the benchmark hands
//! to the checker is built here from the run's `--seed`, so the same seed
//! always produces byte-identical inputs.
//!
//! Ground truth is exact and comes from construction, never from the
//! checker: passive templates use only positive R, L, C, G values and
//! couplings with `|k| < 1`; the non-passive template puts a negative series
//! resistance in front of a shunt resistor larger in magnitude than it, so
//! `Re Z(0) < 0` (the tests check this proof on every generated deck).

use ds_passivity_suite::harness::sweep::TaskStatus;
use ds_passivity_suite::harness::{FamilyKind, Method, Scenario, SweepRecord, SweepTask};
use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for sub-stream `stream` of `seed`, independent of the
    /// others.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut base = Rng::new(seed);
        let salt = base.next_u64();
        Rng::new(salt ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `value` times a uniform factor in `[1 - frac, 1 + frac)`.
    pub fn jitter(&mut self, value: f64, frac: f64) -> f64 {
        value * (1.0 + frac * (2.0 * self.unit() - 1.0))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Frequency scaling `α` (L, C ÷ α) and impedance scaling `β` (R, L × β;
/// C, G ÷ β).  Both map a positive-real impedance to a positive-real one
/// (`Z'(s) = β·Z(s/α)`), so they keep every label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub alpha: f64,
    pub beta: f64,
}

impl Scale {
    pub const UNIT: Scale = Scale {
        alpha: 1.0,
        beta: 1.0,
    };
    /// The grid the `serve-ci` workload draws fresh decks from.
    pub const ALPHAS: [f64; 4] = [1.0, 1e6, 1e9, 1e12];
    pub const BETAS: [f64; 2] = [1.0, 50.0];
}

/// A deck under construction: element lines written with the deck's α/β
/// scaling applied, named by kind and a running count.
#[derive(Debug, Clone)]
struct DeckText {
    text: String,
    scale: Scale,
    count: usize,
}

impl DeckText {
    fn new(title: &str, scale: Scale) -> Self {
        DeckText {
            text: format!("* {title}\n"),
            scale,
            count: 0,
        }
    }

    /// Appends an element and returns its name.
    fn element(&mut self, kind: char, a: &str, b: &str, value: f64) -> String {
        self.count += 1;
        let s = self.scale;
        let scaled = match kind {
            'R' => value * s.beta,
            'L' => value * s.beta / s.alpha,
            'C' => value / (s.alpha * s.beta),
            'G' => value / s.beta,
            _ => value,
        };
        let name = format!("{kind}{}", self.count);
        let _ = writeln!(self.text, "{name} {a} {b} {scaled:e}");
        name
    }

    fn couple(&mut self, l1: &str, l2: &str, k: f64) {
        self.count += 1;
        let _ = writeln!(self.text, "K{} {l1} {l2} {k:e}", self.count);
    }

    fn finish(mut self, ports: &[&str], expect: Option<bool>) -> String {
        for port in ports {
            let _ = writeln!(self.text, ".port {port}");
        }
        match expect {
            Some(true) => self.text.push_str(".expect passive\n"),
            Some(false) => self.text.push_str(".expect nonpassive\n"),
            None => {}
        }
        self.text.push_str(".end\n");
        self.text
    }
}

/// One generated deck with its exact label.
#[derive(Debug, Clone, PartialEq)]
pub struct GenDeck {
    /// Stable input name (template, order, scaling, index), used when
    /// failures are listed by input.
    pub name: String,
    pub text: String,
    pub passive: bool,
    /// MNA order the deck stamps to.
    pub order: usize,
    pub scale: Scale,
}

/// The paper's Table-1 impulsive RLC ladder at an even `order ≥ 6`: a series
/// port inductor into a junction with a shunt resistor, then sections of
/// parallel R‖L series branches with shunt C and R, and a capacitive
/// termination (the topology of `generators::rlc_ladder_with_impulsive`),
/// every value jittered by up to `jitter`.
fn impulsive_ladder(order: usize, rng: &mut Rng, jitter: f64, scale: Scale) -> String {
    assert!(
        order >= 6 && order.is_multiple_of(2),
        "ladder order must be even and >= 6"
    );
    let sections = (order - 4) / 2;
    let mut deck = DeckText::new(&format!("impulsive RLC ladder, order {order}"), scale);
    deck.element('L', "p", "j", rng.jitter(0.8, jitter));
    deck.element('R', "j", "0", rng.jitter(50.0, jitter));
    let mut prev = "j".to_string();
    for k in 0..sections {
        let node = format!("n{}", k + 1);
        let kf = k as f64;
        deck.element('R', &prev, &node, rng.jitter(1.0 + 0.01 * kf, jitter));
        deck.element('L', &prev, &node, rng.jitter(0.5 + 0.005 * kf, jitter));
        deck.element('C', &node, "0", rng.jitter(1.0 + 0.02 * kf, jitter));
        deck.element('R', &node, "0", rng.jitter(200.0, jitter));
        prev = node;
    }
    deck.element('R', &prev, "t", rng.jitter(1.0, jitter));
    deck.element('C', "t", "0", rng.jitter(2.0, jitter));
    deck.element('R', "t", "0", rng.jitter(5.0, jitter));
    deck.finish(&["p"], None)
}

/// The `table1-o200` inputs: `count` jittered order-200 ladders.
pub fn table1_decks(seed: u64, count: usize) -> Vec<GenDeck> {
    let mut rng = Rng::derive(seed, 1);
    (0..count)
        .map(|i| GenDeck {
            name: format!("table1-o200-{i}"),
            text: impulsive_ladder(200, &mut rng, 0.05, Scale::UNIT),
            passive: true,
            order: 200,
            scale: Scale::UNIT,
        })
        .collect()
}

/// Rows and columns of the `reduce-o10k` power-grid mesh.
const MESH_ROWS: usize = 44;
const MESH_COLS: usize = 45;

/// MNA order of an `rows × cols` mesh: grid nodes plus one internal node and
/// one inductor per edge.
fn mesh_order(rows: usize, cols: usize) -> usize {
    let edges = rows * (cols - 1) + (rows - 1) * cols;
    rows * cols + 2 * edges
}

/// A 2-D RLC power-grid / package mesh: every grid edge is a series R–L
/// branch, every grid node has a decoupling C and a leakage R to ground,
/// neighbouring parallel edges form K-coupled inductor pairs (each inductor
/// in at most one pair, so every coupled block is 2×2 with `|k| < 1`), and
/// two ports sit at opposite corners.
fn coupled_mesh(rows: usize, cols: usize, rng: &mut Rng) -> String {
    let node = |r: usize, c: usize| format!("g{r}_{c}");
    let mut deck = DeckText::new(&format!("coupled RLC mesh {rows}x{cols}"), Scale::UNIT);
    // Horizontal edges (r, c) -> (r, c + 1), then vertical (r, c) -> (r + 1, c).
    let mut horizontal = vec![vec![String::new(); cols - 1]; rows];
    let mut vertical = vec![vec![String::new(); cols]; rows - 1];
    let branch = |deck: &mut DeckText, a: String, b: String, rng: &mut Rng| {
        let mid = format!("{a}m{b}");
        deck.element('R', &a, &mid, rng.jitter(0.05, 0.2));
        deck.element('L', &mid, &b, rng.jitter(0.5, 0.2))
    };
    for r in 0..rows {
        for c in 0..cols {
            deck.element('C', &node(r, c), "0", rng.jitter(1.0, 0.2));
            deck.element('R', &node(r, c), "0", rng.jitter(100.0, 0.2));
            if c + 1 < cols {
                horizontal[r][c] = branch(&mut deck, node(r, c), node(r, c + 1), rng);
            }
            if r + 1 < rows {
                vertical[r][c] = branch(&mut deck, node(r, c), node(r + 1, c), rng);
            }
        }
    }
    // Parallel neighbours: horizontal edges stacked in rows (2i, 2i+1),
    // vertical edges side by side in columns (2j, 2j+1).
    for pair in horizontal.chunks_exact(2) {
        for (upper, lower) in pair[0].iter().zip(&pair[1]) {
            let k = rng.jitter(0.3, 0.5);
            deck.couple(upper, lower, k);
        }
    }
    for row in &vertical {
        for pair in row.chunks_exact(2) {
            let k = rng.jitter(0.3, 0.5);
            deck.couple(&pair[0], &pair[1], k);
        }
    }
    deck.finish(&[&node(0, 0), &node(rows - 1, cols - 1)], None)
}

/// The `reduce-o10k` inputs: `count` jittered coupled meshes.
pub fn reduce_decks(seed: u64, count: usize) -> Vec<GenDeck> {
    let mut rng = Rng::derive(seed, 2);
    (0..count)
        .map(|i| GenDeck {
            name: format!("reduce-mesh-{i}"),
            text: coupled_mesh(MESH_ROWS, MESH_COLS, &mut rng),
            passive: true,
            order: mesh_order(MESH_ROWS, MESH_COLS),
            scale: Scale::UNIT,
        })
        .collect()
}

/// The four `serve-ci` templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Template {
    /// Impulsive ladder with a series port inductor (passive).
    Ladder,
    /// Two ports, two ladders whose inductors are K-coupled pairwise
    /// (passive).
    CoupledPair,
    /// Two-port lossy RLGC π-segment line with G shunts (passive).
    RlgcLine,
    /// Ladder behind a negative series resistance larger in magnitude than
    /// its first shunt resistor (non-passive).
    NegativeR,
}

impl Template {
    pub const ALL: [Template; 4] = [
        Template::Ladder,
        Template::CoupledPair,
        Template::RlgcLine,
        Template::NegativeR,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Template::Ladder => "ladder",
            Template::CoupledPair => "coupled",
            Template::RlgcLine => "rlgc",
            Template::NegativeR => "negative-r",
        }
    }
}

/// Builds one `serve-ci` deck of order ≈10–60 from `template` at `scale`;
/// `label` makes its name unique within the run.
fn serve_deck(template: Template, rng: &mut Rng, scale: Scale, label: &str) -> GenDeck {
    let (text, order) = match template {
        Template::Ladder => {
            let order = 2 * rng.range(5, 30);
            (impulsive_ladder(order, rng, 0.1, scale), order)
        }
        Template::CoupledPair => {
            let sections = rng.range(2, 9);
            let mut deck = DeckText::new("K-coupled two-port ladders", scale);
            let mut ends = ["a0".to_string(), "b0".to_string()];
            let mut inductors = [Vec::new(), Vec::new()];
            for k in 1..=sections {
                for (side, prefix) in ["a", "b"].iter().enumerate() {
                    let x = format!("{prefix}x{k}");
                    let y = format!("{prefix}{k}");
                    deck.element('R', &ends[side], &x, rng.jitter(0.5, 0.2));
                    inductors[side].push(deck.element('L', &x, &y, rng.jitter(1.0, 0.3)));
                    deck.element('C', &y, "0", rng.jitter(0.3, 0.3));
                    deck.element('R', &y, "0", rng.jitter(12.0, 0.2));
                    ends[side] = y;
                }
                let k_value = rng.jitter(0.55, 0.4);
                let (l1, l2) = (inductors[0][k - 1].clone(), inductors[1][k - 1].clone());
                deck.couple(&l1, &l2, k_value);
            }
            (deck.finish(&["a0", "b0"], None), 2 + 6 * sections)
        }
        Template::RlgcLine => {
            let segments = rng.range(3, 19);
            let mut deck = DeckText::new("lossy RLGC line", scale);
            deck.element('C', "n0", "0", rng.jitter(0.5, 0.2));
            deck.element('G', "n0", "0", rng.jitter(6.7e-3, 0.2));
            for k in 1..=segments {
                let m = format!("m{k}");
                let n = format!("n{k}");
                let prev = format!("n{}", k - 1);
                deck.element('R', &prev, &m, rng.jitter(0.4, 0.2));
                deck.element('L', &m, &n, rng.jitter(0.7, 0.2));
                deck.element('C', &n, "0", rng.jitter(1.0, 0.2));
                deck.element('G', &n, "0", rng.jitter(1.3e-2, 0.2));
            }
            let far = format!("n{segments}");
            (deck.finish(&["n0", &far], None), 1 + 3 * segments)
        }
        Template::NegativeR => {
            let sections = rng.range(3, 19);
            let mut deck = DeckText::new("ladder behind a negative series R", scale);
            let shunt = rng.jitter(1.0, 0.3);
            deck.element('R', "p", "m", -shunt * (1.2 + 0.8 * rng.unit()));
            deck.element('L', "m", "n1", rng.jitter(0.8, 0.2));
            deck.element('R', "n1", "0", shunt);
            deck.element('C', "n1", "0", rng.jitter(1.0, 0.2));
            for k in 2..=sections {
                let x = format!("x{k}");
                let n = format!("n{k}");
                let prev = format!("n{}", k - 1);
                deck.element('R', &prev, &x, rng.jitter(1.0, 0.2));
                deck.element('L', &x, &n, rng.jitter(0.5, 0.2));
                deck.element('C', &n, "0", rng.jitter(1.0, 0.2));
                deck.element('R', &n, "0", rng.jitter(20.0, 0.2));
            }
            (deck.finish(&["p"], Some(false)), 3 * sections + 1)
        }
    };
    GenDeck {
        name: format!(
            "{}-o{order}-a{:e}-b{:e}-{label}",
            template.name(),
            scale.alpha,
            scale.beta
        ),
        text,
        passive: template != Template::NegativeR,
        order,
        scale,
    }
}

/// Cycles through templates × α × β in seeded order: every 32 consecutive
/// decks cover each combination exactly once, so the mix (and with it the
/// share of decks in any one class) is the same for every seed.
#[derive(Debug, Clone, Default)]
struct ComboCycle {
    queue: Vec<(Template, Scale)>,
}

impl ComboCycle {
    fn next(&mut self, rng: &mut Rng) -> (Template, Scale) {
        if self.queue.is_empty() {
            for template in Template::ALL {
                for alpha in Scale::ALPHAS {
                    for beta in Scale::BETAS {
                        self.queue.push((template, Scale { alpha, beta }));
                    }
                }
            }
            rng.shuffle(&mut self.queue);
        }
        self.queue.pop().expect("refilled above")
    }
}

/// `count` serve decks covering templates × α × β evenly (the traced run's
/// sample), independent of the stream.
pub fn serve_sample(seed: u64, count: usize) -> Vec<GenDeck> {
    let mut rng = Rng::derive(seed, 4);
    let mut combos = ComboCycle::default();
    (0..count)
        .map(|i| {
            let (template, scale) = combos.next(&mut rng);
            serve_deck(template, &mut rng, scale, &format!("s{i}"))
        })
        .collect()
}

/// A malformed deck: a valid serve deck with one element line corrupted.
/// The parser must reject it at `line` (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Malformed {
    pub name: String,
    pub text: String,
    pub line: usize,
}

fn malformed_deck(rng: &mut Rng, index: usize) -> Malformed {
    let base = serve_deck(Template::Ladder, rng, Scale::UNIT, "malformed");
    let mut lines: Vec<String> = base.text.lines().map(str::to_string).collect();
    // Line 1 is the title; element lines follow.
    let target = rng.range(2, 6);
    let fields: Vec<String> = lines[target - 1]
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let (kind, corrupted) = match index % 3 {
        0 => (
            "bad-value",
            format!("{} {} {} 4.7q!", fields[0], fields[1], fields[2]),
        ),
        1 => (
            "bad-element",
            format!("Q{index} {} {} 1", fields[1], fields[2]),
        ),
        _ => (
            "missing-value",
            format!("{} {} {}", fields[0], fields[1], fields[2]),
        ),
    };
    lines[target - 1] = corrupted;
    Malformed {
        name: format!("malformed-{kind}-{index}"),
        text: lines.join("\n") + "\n",
        line: target,
    }
}

/// One request of the `serve-ci` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Index into the repeat population.
    Repeat(usize),
    /// A deck no earlier request sent.
    Fresh(GenDeck),
    Malformed(Malformed),
}

/// Size of the repeat population (larger than the LRU capacity the
/// workload configures, and a multiple of the daemon's 64-record store
/// flush, so warming leaves every population verdict in the store).  Its
/// decks are unscaled, 32 of each template.
const SERVE_POPULATION: usize = 128;
/// Requests per stream block, shuffled: 32 repeats, 31 fresh decks and 1
/// malformed deck.  Half the requests are repeats, the mix of the one
/// recorded daemon load measurement (see the README's sizing notes).  The
/// malformed share, the template weights and the even spread of fresh decks
/// over the α/β grid are placeholders until recorded CI traffic exists.
pub const SERVE_BLOCK: usize = 64;
const BLOCK_REPEATS: usize = 32;
const BLOCK_FRESH: usize = 31;

/// The `serve-ci` inputs: the unscaled repeat population and an endless
/// seeded request stream, generated block by block as clients draw from it;
/// only the fresh decks are scaled.
#[derive(Debug, Clone)]
pub struct ServeStream {
    rng: Rng,
    combos: ComboCycle,
    pub population: Vec<GenDeck>,
    block: Vec<Request>,
    blocks: usize,
    decks: usize,
}

impl ServeStream {
    pub fn new(seed: u64) -> Self {
        let mut stream = ServeStream {
            rng: Rng::derive(seed, 3),
            combos: ComboCycle::default(),
            population: Vec::new(),
            block: Vec::new(),
            blocks: 0,
            decks: 0,
        };
        stream.population = (0..SERVE_POPULATION)
            .map(|i| {
                let template = Template::ALL[i % Template::ALL.len()];
                serve_deck(template, &mut stream.rng, Scale::UNIT, &format!("p{i}"))
            })
            .collect();
        stream
    }

    fn next_fresh_deck(&mut self, label: &str) -> GenDeck {
        let (template, scale) = self.combos.next(&mut self.rng);
        serve_deck(template, &mut self.rng, scale, label)
    }

    fn refill(&mut self) {
        let mut block = Vec::with_capacity(SERVE_BLOCK);
        for _ in 0..BLOCK_REPEATS {
            block.push(Request::Repeat(self.rng.range(0, SERVE_POPULATION - 1)));
        }
        for _ in 0..BLOCK_FRESH {
            self.decks += 1;
            let deck = self.next_fresh_deck(&format!("f{}", self.decks));
            block.push(Request::Fresh(deck));
        }
        while block.len() < SERVE_BLOCK {
            block.push(Request::Malformed(malformed_deck(
                &mut self.rng,
                self.blocks,
            )));
        }
        self.rng.shuffle(&mut block);
        block.reverse();
        self.block = block;
        self.blocks += 1;
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop().expect("refilled above")
    }
}

/// The families and order ranges of the `sweep-resume` matrix (orders
/// ≈10–100; sizes are each family's own size knob).
const SWEEP_FAMILIES: [(FamilyKind, usize, usize, usize); 10] = [
    // (family, min size, max size, ports)
    (FamilyKind::ImpulsiveLadder, 5, 50, 1), // order = 2·size
    (FamilyKind::RlcLadder, 5, 45, 1),
    (FamilyKind::MultiportLadder, 2, 16, 2),
    (FamilyKind::CoupledMesh, 3, 7, 1),
    (FamilyKind::TlineChain, 3, 30, 1),
    (FamilyKind::RcGrid, 3, 9, 1),
    (FamilyKind::NonpassiveLadder, 5, 50, 1), // order = 2·size
    (FamilyKind::NegativeM1, 5, 50, 1),       // order = 2·size
    (FamilyKind::RandomPassive, 8, 90, 2),
    (FamilyKind::RandomNonpassive, 8, 90, 1),
];

/// Scenarios per family in one sweep batch: one with an even and one with
/// an odd scenario seed (the seed's parity decides, for example, whether a
/// `random_passive` model has an impulsive part).
const SWEEP_PER_FAMILY: usize = 2;
/// Sizes per family: batch after batch, each family steps through this many
/// evenly spaced sizes of its range, both scenarios of a batch at the same
/// size.  A whole cycle of batches therefore holds every size once with
/// each seed parity, whatever the run seed (which picks where the cycle
/// starts and every scenario seed).
const SWEEP_SIZES: usize = 10;

fn sweep_scenario(family: FamilyKind, size: usize, ports: usize, seed: u64) -> Scenario {
    let size = match family {
        FamilyKind::ImpulsiveLadder | FamilyKind::NonpassiveLadder | FamilyKind::NegativeM1 => {
            2 * size
        }
        _ => size,
    };
    Scenario::new(family, size)
        .with_ports(ports)
        .with_seed(seed)
}

/// Batch `batch` of the sweep matrix: every family twice, each scenario
/// under the proposed test and the Weierstrass baseline.  Scenario seeds
/// encode `(run seed, batch, slot)`, so no two batches share a fingerprint.
fn sweep_batch(seed: u64, batch: usize) -> Vec<SweepTask> {
    let offset = Rng::derive(seed, 5).range(0, SWEEP_SIZES - 1);
    let base = (seed % 1_000) * 100_000_000 + batch as u64 * 100;
    let mut tasks = Vec::new();
    for (f, &(family, lo, hi, ports)) in SWEEP_FAMILIES.iter().enumerate() {
        for slot in 0..SWEEP_PER_FAMILY {
            let step = (offset + batch) % SWEEP_SIZES;
            let size = lo + (hi - lo) * step / (SWEEP_SIZES - 1);
            let scenario_seed = base + (f * SWEEP_PER_FAMILY + slot) as u64;
            let scenario = sweep_scenario(family, size, ports, scenario_seed);
            for method in [Method::Proposed, Method::Weierstrass] {
                tasks.push(SweepTask {
                    scenario: scenario.clone(),
                    method,
                });
            }
        }
    }
    tasks
}

/// Tasks per batch.
pub fn sweep_batch_len() -> usize {
    SWEEP_FAMILIES.len() * SWEEP_PER_FAMILY * 2
}

/// Tasks per size cycle: `SWEEP_SIZES` consecutive batches.
pub fn sweep_cycle_len() -> usize {
    SWEEP_SIZES * sweep_batch_len()
}

/// The whole `sweep-resume` matrix: `done` batches an earlier run finished
/// (their records pre-fill the store) followed by `pending` batches.
pub fn sweep_matrix(seed: u64, done: usize, pending: usize) -> Vec<SweepTask> {
    (0..done + pending)
        .flat_map(|b| sweep_batch(seed, b))
        .collect()
}

/// The record an earlier run left for `task` (global id `task_id`): a
/// finished check whose verdict matches the scenario's label.
pub fn prefill_record(task_id: usize, task: &SweepTask) -> SweepRecord {
    let s = &task.scenario;
    let passive = !matches!(
        s.family,
        FamilyKind::NonpassiveLadder | FamilyKind::NegativeM1 | FamilyKind::RandomNonpassive
    );
    SweepRecord {
        task_id,
        family: s.family.name(),
        scenario: format!("{}(size={},seed={})", s.family.name(), s.size, s.seed),
        order: s.order(),
        ports: s.ports,
        seed: s.seed,
        margin: s.margin,
        method: task.method.name(),
        status: TaskStatus::Ok,
        passive: Some(passive),
        strict: false,
        reason: if passive {
            String::new()
        } else {
            "proper_part_not_positive_real".to_string()
        },
        expected_passive: Some(passive),
        agrees: Some(true),
        violation_count: Some(if passive { 0 } else { 3 }),
        witness_frequency: None,
        reduced_order: None,
        residual: None,
        reduction_ns: None,
        stage_ns: None,
        elapsed: Duration::ZERO,
        worker: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_passivity_suite::circuits::mna;
    use ds_passivity_suite::harness::render_segment_jsonl;
    use ds_passivity_suite::harness::{record_fingerprint, task_fingerprint};
    use ds_passivity_suite::netlist::parse_deck;
    use std::collections::HashSet;

    /// The exact reason a [`Template::NegativeR`] deck is not passive: the
    /// port's DC network is `R_neg` in series with a resistive network whose
    /// input resistance is at most the first shunt resistor `R_shunt` (any
    /// parallel path only lowers it), so `Z(0) ≤ R_neg + R_shunt < 0`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NonpassiveProof {
        pub series: f64,
        pub shunt: f64,
    }

    impl NonpassiveProof {
        /// Reads the two resistors back from a negative-R deck's text.
        pub fn from_text(text: &str) -> Option<Self> {
            let value = |line: &str| line.split_whitespace().nth(3)?.parse::<f64>().ok();
            let mut series = None;
            let mut shunt = None;
            for line in text.lines() {
                let f: Vec<&str> = line.split_whitespace().collect();
                if f.len() == 4 && f[0].starts_with('R') && f[1] == "p" && f[2] == "m" {
                    series = value(line);
                }
                if f.len() == 4 && f[0].starts_with('R') && f[1] == "n1" && f[2] == "0" {
                    shunt = value(line);
                }
            }
            Some(NonpassiveProof {
                series: series?,
                shunt: shunt?,
            })
        }

        /// Upper bound on `Re Z(0)`; negative means provably non-passive.
        pub fn dc_bound(&self) -> f64 {
            self.series + self.shunt
        }
    }

    fn stream_prefix(seed: u64, n: usize) -> Vec<Request> {
        let mut stream = ServeStream::new(seed);
        (0..n).map(|_| stream.next_request()).collect()
    }

    /// Element values by kind, read from deck text.
    fn values(text: &str) -> Vec<(char, f64)> {
        text.lines()
            .filter_map(|line| {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let kind = fields.first()?.chars().next()?;
                if fields.len() != 4 || !"RLCGK".contains(kind) {
                    return None;
                }
                Some((kind, fields[3].parse().ok()?))
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(table1_decks(11, 2), table1_decks(11, 2));
        assert_eq!(reduce_decks(11, 1), reduce_decks(11, 1));
        assert_eq!(stream_prefix(11, 300), stream_prefix(11, 300));
        assert_eq!(
            ServeStream::new(11).population,
            ServeStream::new(11).population
        );
        assert_eq!(serve_sample(11, 40), serve_sample(11, 40));
        let tasks = sweep_matrix(11, 3, 2);
        assert_eq!(tasks, sweep_matrix(11, 3, 2));
        let records = |tasks: &[SweepTask]| {
            let records: Vec<SweepRecord> = tasks
                .iter()
                .enumerate()
                .map(|(id, task)| prefill_record(id, task))
                .collect();
            render_segment_jsonl(&records)
        };
        assert_eq!(records(&tasks), records(&sweep_matrix(11, 3, 2)));
        // ... and another seed gives other inputs.
        assert_ne!(table1_decks(12, 1), table1_decks(11, 1));
        assert_ne!(stream_prefix(12, 64), stream_prefix(11, 64));
        assert_ne!(sweep_matrix(12, 1, 0), sweep_matrix(11, 1, 0));
    }

    #[test]
    fn generated_decks_stamp_to_their_recorded_order() {
        let mut decks = table1_decks(3, 1);
        decks.extend(serve_sample(3, 64));
        for deck in &decks {
            let parsed = parse_deck(&deck.text).unwrap();
            let system = mna::stamp(&parsed.netlist).unwrap();
            assert_eq!(system.order(), deck.order, "{}", deck.name);
        }
        let mesh = &reduce_decks(3, 1)[0];
        let parsed = parse_deck(&mesh.text).unwrap();
        let sparse = mna::stamp_sparse(&parsed.netlist).unwrap();
        assert_eq!(sparse.order(), mesh.order);
        assert!(mesh.order > 9_000 && mesh.order < 11_000);
        assert!(
            parsed.netlist.couplings.len() > 1_000,
            "the mesh must carry K pairs"
        );
    }

    #[test]
    fn every_nonpassive_template_is_provably_nonpassive() {
        let mut rng = Rng::new(5);
        for i in 0..200 {
            let alpha = Scale::ALPHAS[i % 4];
            let beta = Scale::BETAS[(i / 4) % 2];
            let deck = serve_deck(Template::NegativeR, &mut rng, Scale { alpha, beta }, "t");
            assert!(!deck.passive);
            let proof = NonpassiveProof::from_text(&deck.text).unwrap();
            assert!(proof.shunt > 0.0 && proof.series < 0.0);
            assert!(proof.dc_bound() < 0.0, "{}: {proof:?}", deck.name);
            assert_eq!(parse_deck(&deck.text).unwrap().expect, Some(false));
        }
    }

    #[test]
    fn passive_templates_are_passive_by_construction() {
        for deck in serve_sample(9, 256).iter().filter(|d| d.passive) {
            for (kind, value) in values(&deck.text) {
                match kind {
                    'K' => assert!(value.abs() < 1.0, "{}: k = {value}", deck.name),
                    _ => assert!(value > 0.0, "{}: {kind} = {value}", deck.name),
                }
            }
        }
        for deck in table1_decks(9, 1).iter().chain(&reduce_decks(9, 1)) {
            assert!(values(&deck.text)
                .iter()
                .all(|&(k, v)| v > 0.0 && (k != 'K' || v < 1.0)));
        }
    }

    #[test]
    fn alpha_beta_scaling_keeps_the_label() {
        for template in Template::ALL {
            for alpha in Scale::ALPHAS {
                for beta in Scale::BETAS {
                    let scale = Scale { alpha, beta };
                    let unit = serve_deck(template, &mut Rng::new(21), Scale::UNIT, "u");
                    let scaled = serve_deck(template, &mut Rng::new(21), scale, "s");
                    assert_eq!(unit.passive, scaled.passive);
                    assert_eq!(unit.order, scaled.order);
                    let (a, b) = (values(&unit.text), values(&scaled.text));
                    assert_eq!(a.len(), b.len());
                    for (&(kind, u), &(_, s)) in a.iter().zip(&b) {
                        let expected = match kind {
                            'R' => u * beta,
                            'L' => u * beta / alpha,
                            'C' => u / (alpha * beta),
                            'G' => u / beta,
                            _ => u,
                        };
                        assert!(
                            (s - expected).abs() <= 1e-12 * expected.abs(),
                            "{kind}: {s} vs {expected}"
                        );
                        assert_eq!(s.signum(), u.signum());
                    }
                    if template == Template::NegativeR {
                        let proof = NonpassiveProof::from_text(&scaled.text).unwrap();
                        assert!(proof.dc_bound() < 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn prefilled_records_never_share_a_fingerprint_with_pending_tasks() {
        let done = 50;
        let tasks = sweep_matrix(17, done, 10);
        let split = done * sweep_batch_len();
        let prefilled: HashSet<String> = tasks[..split]
            .iter()
            .enumerate()
            .map(|(id, task)| record_fingerprint(&prefill_record(id, task)))
            .collect();
        assert_eq!(
            prefilled.len(),
            split,
            "pre-filled fingerprints must be distinct"
        );
        for task in &tasks[split..] {
            assert!(!prefilled.contains(&task_fingerprint(task)));
        }
        for (id, task) in tasks[..split].iter().enumerate() {
            assert_eq!(
                record_fingerprint(&prefill_record(id, task)),
                task_fingerprint(task)
            );
        }
    }

    #[test]
    fn malformed_decks_fail_to_parse_at_the_corrupted_line() {
        let mut rng = Rng::new(4);
        for i in 0..30 {
            let bad = malformed_deck(&mut rng, i);
            let error = parse_deck(&bad.text).unwrap_err();
            assert_eq!(error.line, bad.line, "{}: {error}", bad.name);
        }
    }

    #[test]
    fn the_stream_mixes_repeats_fresh_and_malformed_decks_per_block() {
        let requests = stream_prefix(2, 4 * SERVE_BLOCK);
        let count = |f: fn(&Request) -> bool| requests.iter().filter(|r| f(r)).count();
        assert_eq!(
            count(|r| matches!(r, Request::Repeat(_))),
            requests.len() / 2
        );
        assert_eq!(count(|r| matches!(r, Request::Fresh(_))), 4 * BLOCK_FRESH);
        assert_eq!(count(|r| matches!(r, Request::Malformed(_))), 4);
    }

    #[test]
    fn only_fresh_decks_are_scaled_and_they_cover_the_grid_evenly() {
        let stream = ServeStream::new(6);
        assert!(stream.population.iter().all(|d| d.scale == Scale::UNIT));
        for template in Template::ALL {
            let prefix = format!("{}-o", template.name());
            let n = stream
                .population
                .iter()
                .filter(|d| d.name.starts_with(&prefix))
                .count();
            assert_eq!(n, SERVE_POPULATION / Template::ALL.len());
        }
        let fresh: Vec<GenDeck> = stream_prefix(6, 32 * SERVE_BLOCK)
            .into_iter()
            .filter_map(|r| match r {
                Request::Fresh(deck) => Some(deck),
                _ => None,
            })
            .collect();
        let cells = Template::ALL.len() * Scale::ALPHAS.len() * Scale::BETAS.len();
        assert_eq!(fresh.len(), 31 * cells);
        for alpha in Scale::ALPHAS {
            for beta in Scale::BETAS {
                let n = fresh
                    .iter()
                    .filter(|d| d.scale == Scale { alpha, beta })
                    .count();
                assert_eq!(n, fresh.len() / (Scale::ALPHAS.len() * Scale::BETAS.len()));
            }
        }
    }
}
