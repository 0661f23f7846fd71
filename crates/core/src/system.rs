//! Per-vacancy state: the VET and the cached rates.
//!
//! The VET (vacancy encoding tabulation, paper §3.1) is the only per-vacancy
//! state TensorKMC keeps: the species of the `N_all` sites of the vacancy
//! system, gathered from the `lattice` array by translating the shared CET
//! to the vacancy's position. Together with the cached transition rates this
//! is the "vacancy cache" of paper §3.2.

use crate::rates::RateLaw;
use tensorkmc_lattice::{HalfVec, RegionGeometry, SiteArray, Species};
use tensorkmc_operators::StateEnergies;

/// One cached vacancy system.
#[derive(Debug, Clone)]
pub struct VacancySystem {
    /// Wrapped half-grid position of the vacancy.
    pub center: HalfVec,
    /// Species of the `N_all` sites (VET); empty until first refresh.
    pub vet: Vec<Species>,
    /// Transition rate per 1NN jump direction, 1/s.
    pub rates: [f64; 8],
    /// Sum of `rates`.
    pub total_rate: f64,
    /// Whether the cached state matches the lattice.
    pub valid: bool,
}

impl VacancySystem {
    /// A new, not-yet-evaluated system at `center`.
    pub fn new(center: HalfVec) -> Self {
        VacancySystem {
            center,
            vet: Vec::new(),
            rates: [0.0; 8],
            total_rate: 0.0,
            valid: false,
        }
    }

    /// Gathers the VET from the lattice: species of `center + CET[i]` for
    /// every site of the vacancy system (the "initialisation of a VET" that
    /// is the only access to the large lattice array, paper §3.1).
    pub fn gather_vet(&mut self, lattice: &SiteArray, geom: &RegionGeometry) {
        self.gather_vet_with(|p| lattice.at(p), geom);
    }

    /// Gathers the VET through an arbitrary site accessor — the parallel
    /// driver uses this to read from a rank's local (interior + ghost)
    /// storage instead of a global lattice.
    pub fn gather_vet_with(
        &mut self,
        species_at: impl Fn(HalfVec) -> Species,
        geom: &RegionGeometry,
    ) {
        self.vet.clear();
        self.vet
            .extend(geom.sites.iter().map(|&rel| species_at(self.center + rel)));
        debug_assert_eq!(
            self.vet[0],
            Species::Vacancy,
            "centre must hold the vacancy"
        );
    }

    /// Converts state energies into the 8 transition rates and marks the
    /// system valid — the tail of the refresh pipeline
    /// ([`crate::refresh`]), which feeds it energies from the memo or from a
    /// batched evaluator call. Requires a freshly gathered VET (the rates
    /// depend on which species sits at each 1NN site). The float-op order
    /// is fixed (ascending direction), so rates are bit-identical however
    /// the energies were produced, as long as the energies are.
    pub fn apply_energies(&mut self, geom: &RegionGeometry, law: &RateLaw, e: &StateEnergies) {
        let mut total = 0.0;
        for k in 0..8 {
            let migrating = self.vet[geom.first_nn_id(k) as usize];
            let rate = if migrating.is_atom() {
                law.rate(migrating, e.delta(k))
            } else {
                0.0 // vacancy-vacancy exchange is a non-event
            };
            self.rates[k] = rate;
            total += rate;
        }
        self.total_rate = total;
        self.valid = true;
    }

    /// Picks a jump direction from a residual weight `x ∈ [0, total_rate)`
    /// (the residual returned by the propensity tree, so no extra random
    /// number is needed).
    pub fn pick_direction(&self, mut x: f64) -> usize {
        debug_assert!(self.total_rate > 0.0);
        for (k, &r) in self.rates.iter().enumerate() {
            if x < r {
                return k;
            }
            x -= r;
        }
        // Float drift: return the last direction with positive rate.
        self.rates
            .iter()
            .rposition(|&r| r > 0.0)
            .expect("positive total implies a positive rate")
    }

    /// Bytes this cached system occupies (VET + site bookkeeping + rates) —
    /// the "VAC Cache" row of paper Table 1.
    pub fn cache_bytes(&self, geom: &RegionGeometry) -> usize {
        // VET byte per site + a u32 global site id per site (what a
        // production implementation caches to avoid re-deriving indices),
        // plus the fixed-rate block.
        geom.n_all() * (1 + 4) + std::mem::size_of::<[f64; 8]>() + std::mem::size_of::<HalfVec>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tensorkmc_compat::rng::StdRng;
    use tensorkmc_lattice::PeriodicBox;
    use tensorkmc_nnp::{ModelConfig, NnpModel};
    use tensorkmc_operators::{NnpDirectEvaluator, VacancyEnergyEvaluator};
    use tensorkmc_potential::FeatureSet;

    /// Gathers, evaluates and applies one system's energies.
    fn refresh(
        sys: &mut VacancySystem,
        lattice: &SiteArray,
        geom: &RegionGeometry,
        eval: &NnpDirectEvaluator,
        law: &RateLaw,
    ) {
        sys.gather_vet(lattice, geom);
        let e = eval.state_energies(&sys.vet).unwrap();
        sys.apply_energies(geom, law, &e);
    }

    fn setup() -> (SiteArray, Arc<RegionGeometry>, NnpDirectEvaluator) {
        let geom = Arc::new(RegionGeometry::new(2.87, 3.0).unwrap());
        let fs = FeatureSet::small(4);
        let cfg = ModelConfig {
            channels: vec![fs.n_features(), 16, 1],
            rcut: 3.0,
        };
        let mut model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(1));
        model.norm.mean = vec![7.0, 7.0, 7.0, 7.0, 0.5, 0.5, 0.5, 0.5];
        model.norm.std = vec![2.0; 8];
        let eval = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let pbox = PeriodicBox::new(8, 8, 8, 2.87).unwrap();
        let mut lattice = SiteArray::pure_iron(pbox);
        lattice.set_at(HalfVec::new(4, 4, 4), Species::Vacancy);
        lattice.set_at(HalfVec::new(5, 5, 5), Species::Cu);
        (lattice, geom, eval)
    }

    #[test]
    fn gather_vet_reads_translated_cet() {
        let (lattice, geom, _) = setup();
        let mut sys = VacancySystem::new(HalfVec::new(4, 4, 4));
        sys.gather_vet(&lattice, &geom);
        assert_eq!(sys.vet.len(), geom.n_all());
        assert_eq!(sys.vet[0], Species::Vacancy);
        // The Cu at (5,5,5) is 1NN direction (+1,+1,+1) = FIRST_NN[7].
        assert_eq!(sys.vet[geom.first_nn_id(7) as usize], Species::Cu);
    }

    #[test]
    fn refresh_produces_positive_rates_for_atoms() {
        let (lattice, geom, eval) = setup();
        let law = RateLaw::at_temperature(573.0);
        let mut sys = VacancySystem::new(HalfVec::new(4, 4, 4));
        refresh(&mut sys, &lattice, &geom, &eval, &law);
        assert!(sys.valid);
        assert!(sys.total_rate > 0.0);
        for k in 0..8 {
            assert!(sys.rates[k] > 0.0, "direction {k}");
        }
        let sum: f64 = sys.rates.iter().sum();
        assert!((sum - sys.total_rate).abs() < 1e-9 * sum);
    }

    #[test]
    fn neighbouring_vacancy_direction_has_zero_rate() {
        let (mut lattice, geom, eval) = setup();
        // Put a second vacancy at 1NN direction 0 = (-1,-1,-1).
        lattice.set_at(HalfVec::new(3, 3, 3), Species::Vacancy);
        let law = RateLaw::at_temperature(573.0);
        let mut sys = VacancySystem::new(HalfVec::new(4, 4, 4));
        refresh(&mut sys, &lattice, &geom, &eval, &law);
        assert_eq!(sys.rates[0], 0.0);
        assert!(sys.rates[1..].iter().all(|&r| r > 0.0));
    }

    #[test]
    fn pick_direction_respects_weights() {
        let mut sys = VacancySystem::new(HalfVec::ZERO);
        sys.rates = [0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0, 5.0];
        sys.total_rate = 10.0;
        assert_eq!(sys.pick_direction(0.0), 1);
        assert_eq!(sys.pick_direction(1.999), 1);
        assert_eq!(sys.pick_direction(2.0), 4);
        assert_eq!(sys.pick_direction(4.999), 4);
        assert_eq!(sys.pick_direction(5.0), 7);
        assert_eq!(sys.pick_direction(9.9999), 7);
    }

    #[test]
    fn cache_bytes_match_paper_scale() {
        // With the paper's geometry the cache is ~5.9 KB per vacancy, which
        // reproduces Table 1's VAC-cache column (e.g. 1024 vacancies for
        // 128 M atoms -> ~6.0 MB).
        let geom = RegionGeometry::new(2.87, 6.5).unwrap();
        let sys = VacancySystem::new(HalfVec::ZERO);
        let per_vac = sys.cache_bytes(&geom);
        assert!((5800..6100).contains(&per_vac), "per-vacancy {per_vac} B");
        let mb_128m = 1024.0 * per_vac as f64 / 1e6;
        assert!((5.8..6.3).contains(&mb_128m), "{mb_128m} MB vs paper 6.00");
    }
}
