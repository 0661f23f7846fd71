//! The four named decks. Every deck loads the same model file and uses the
//! default execution knobs (f32, `refresh_threads` 1, `batch_systems` 0,
//! memo 4096) unless its table row says otherwise.

use std::path::Path;
use tensorkmc::input::{InputDeck, ModelSource};

/// Which entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `driver::build_engine` plus the CLI's sampling/output loop.
    Serial,
    /// `parallel::sublattice::run_sublattice_full` with in-process ranks.
    Ranks,
    /// An in-process `serve::JobServer` driven over HTTP.
    Served,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    deck: fn() -> InputDeck,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "dilute_2v",
        kind: Kind::Serial,
        deck: dilute,
    },
    Workload {
        name: "sunway_128v",
        kind: Kind::Serial,
        deck: sunway,
    },
    Workload {
        name: "ranks2_128v",
        kind: Kind::Ranks,
        deck: ranks2,
    },
    Workload {
        name: "served_2v",
        kind: Kind::Served,
        deck: served,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// `input.json.example` (16³ cells, Cu 1.34 %, 2 vacancies, 573 K) cut to
/// 2,000 steps. The hop rate of a 2-vacancy box varies several-fold from
/// one trajectory to the next and stays that way over 80k steps, so a run
/// measures many short trajectories rather than a few long ones.
fn dilute() -> InputDeck {
    InputDeck {
        cells: 16,
        cu_fraction: 0.0134,
        vacancy_fraction: 2e-4,
        temperature: 573.0,
        refresh_threads: 1,
        batch_systems: 0,
        max_steps: 2_000,
        max_time: 1.0,
        sample_every: 200,
        ..InputDeck::default()
    }
}

/// The 128-vacancy box `sunway_128v` and `ranks2_128v` share: 32³ cells,
/// 12,000 steps. It is not a workload of its own; see README.md.
fn crowded() -> InputDeck {
    InputDeck {
        cells: 32,
        vacancy_fraction: 1.95e-3,
        max_steps: 12_000,
        sample_every: 1_200,
        ..dilute()
    }
}

/// The 128-vacancy box on the core-group simulator, cut to 1,500 steps.
fn sunway() -> InputDeck {
    InputDeck {
        sunway: true,
        max_steps: 1_500,
        sample_every: 150,
        ..crowded()
    }
}

/// The 128-vacancy box over 2 in-process ranks, run to a fixed
/// simulated time in sectors of the paper's `t_stop` = 2e-8 s.
fn ranks2() -> InputDeck {
    InputDeck {
        ranks: 2,
        t_stop: 2e-8,
        max_time: 2e-7,
        ..crowded()
    }
}

/// `dilute_2v` with a 100-step sampling stride (20 persisted chunks per
/// job), submitted as a job.
fn served() -> InputDeck {
    InputDeck {
        sample_every: 100,
        ..dilute()
    }
}

impl Workload {
    /// The deck for one run: `seed` picks the lattice and the trajectory,
    /// `model` is the shared model file, outputs land in `dir`.
    pub fn deck(&self, seed: u64, model: &Path, dir: &Path) -> InputDeck {
        let out = |f: &str| dir.join(f).to_string_lossy().into_owned();
        let mut deck = (self.deck)();
        deck.seed = seed;
        deck.model = ModelSource::File {
            path: model.to_string_lossy().into_owned(),
        };
        deck.xyz_output = out("final.xyz");
        deck.csv_output = out("observables.csv");
        deck.checkpoint_output = out("checkpoint.json");
        if self.kind == Kind::Ranks {
            // The parallel driver writes no observables.
            deck.csv_output.clear();
        }
        deck
    }
}
