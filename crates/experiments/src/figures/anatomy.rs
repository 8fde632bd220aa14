//! Race-window anatomy scorecard: window widths, strike offsets and
//! near-miss distributions over the DSL taxonomy library.
//!
//! The other exhibits score attacks by their *outcome*; this one dissects
//! the *mechanism*. For every library scenario the kernel's window
//! forensics (see `tocttou_os::forensics`) measure each realized
//! check-to-use window — the exact virtual-time interval between the
//! victim's check commit and its use commit per `(pid, path)` — and
//! classify every attacker strike against it: a hit lands inside the
//! window, an early miss lands before the (re-)check, a late miss lands
//! after the use. The signed miss distance is Formula (1)'s laxity term
//! made empirical: how much earlier or later the strike would have had to
//! land to flip the round. Rows also carry the DSL trace's *declared*
//! window (the `check_step → use_step` annotation from
//! `CompiledVictim::window_annotation`) so measured anatomy can be read
//! against ground truth.

use crate::monte_carlo::{run_mc, McConfig};
use serde::Serialize;
use tocttou_sim::metrics::LatencyHistogram;
use tocttou_workloads::dsl::library::taxonomy_library;
use tocttou_workloads::scenario::Scenario;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rounds per scenario.
    pub rounds: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for each Monte-Carlo batch (`1` = serial,
    /// `0` = auto); the anatomy is bit-identical for every value.
    pub jobs: usize,
    /// Run every round from a cold boot instead of the warm checkpoint.
    pub cold: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            rounds: 80,
            seed: 0x0A7A_707A, // "anatomy"
            jobs: 1,
            cold: false,
        }
    }
}

/// Quantile summary of one latency histogram, in microseconds.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Samples recorded.
    pub count: u64,
    /// Median upper bound (µs).
    pub p50_us: f64,
    /// 95th-percentile upper bound (µs).
    pub p95_us: f64,
    /// Largest sample (µs).
    pub max_us: f64,
}

fn summarize(h: &LatencyHistogram) -> Summary {
    let us = |ns: u64| ns as f64 / 1_000.0;
    Summary {
        count: h.count(),
        p50_us: us(h.quantile_ns(0.5).unwrap_or(0)),
        p95_us: us(h.quantile_ns(0.95).unwrap_or(0)),
        max_us: us(h.max_ns().unwrap_or(0)),
    }
}

/// The DSL trace's declared window — ground truth the measured windows
/// are read against.
#[derive(Debug, Clone, Serialize)]
pub struct Declared {
    /// Path whose check→use interval the trace races.
    pub path: String,
    /// Trace step of the (last refreshing) check call.
    pub check_step: usize,
    /// Trace step of the first matching use call.
    pub use_step: usize,
}

/// One scenario's anatomy row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// The `<check, use>` pair the scenario exercises.
    pub pair: String,
    /// Scenario name.
    pub scenario: String,
    /// Ground-truth attack success rate.
    pub rate: f64,
    /// The trace's declared window, when the victim's trace realizes the
    /// row's pair (`None` for a row labelled with another pair).
    pub declared: Option<Declared>,
    /// Check commits observed.
    pub checks: u64,
    /// Use commits that closed a window.
    pub uses: u64,
    /// Realized check→use window widths.
    pub width: Summary,
    /// Strikes that landed inside a window.
    pub strikes_hit: u64,
    /// Early-miss distances (strike before the window opened).
    pub early: Summary,
    /// Late-miss distances (strike after the window closed).
    pub late: Summary,
    /// Strikes that never paired with any window of their path.
    pub strikes_unpaired: u64,
    /// The closest miss of the whole batch (µs), `None` when every strike
    /// hit or none was thrown.
    pub closest_miss_us: Option<f64>,
}

/// The anatomy scorecard.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Rounds per scenario.
    pub rounds: u64,
    /// Per-scenario rows, in library order.
    pub rows: Vec<Row>,
}

/// Dissects one scenario: runs the Monte-Carlo batch and condenses its
/// folded [`ForensicsSnapshot`] into a [`Row`]. Exposed so the golden
/// test can pin a single scenario.
///
/// [`ForensicsSnapshot`]: tocttou_os::forensics::ForensicsSnapshot
pub fn anatomy_row(pair: &str, scenario: &Scenario, cfg: &Config) -> Row {
    let out = run_mc(
        scenario,
        &McConfig {
            rounds: cfg.rounds,
            base_seed: cfg.seed,
            collect_ld: false,
            jobs: cfg.jobs,
            cold: cfg.cold,
        },
    );
    // The trace's window, when it realizes the pair the row is labelled
    // with.
    let declared = scenario
        .victim
        .window_annotation()
        .filter(|a| a.pair.to_string() == pair)
        .map(|a| Declared {
            path: a.path.to_string(),
            check_step: a.check_step,
            use_step: a.use_step,
        });
    let f = &out.forensics;
    Row {
        pair: pair.to_string(),
        scenario: out.scenario,
        rate: out.rate,
        declared,
        checks: f.checks,
        uses: f.uses,
        width: summarize(&f.window_width),
        strikes_hit: f.strikes_hit,
        early: summarize(&f.miss_early),
        late: summarize(&f.miss_late),
        strikes_unpaired: f.strikes_unpaired,
        closest_miss_us: f.min_miss_ns().map(|ns| ns as f64 / 1_000.0),
    }
}

/// Runs the scorecard over the whole DSL library.
pub fn run(cfg: &Config) -> Output {
    Output {
        rounds: cfg.rounds,
        rows: taxonomy_library(None)
            .into_iter()
            .map(|(pair, scenario)| anatomy_row(&format!("{pair}"), &scenario, cfg))
            .collect(),
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<18} {:<22} rate {:>5.1}%",
            self.pair,
            self.scenario,
            self.rate * 100.0
        )?;
        match &self.declared {
            Some(d) => writeln!(
                f,
                "  declared {} (step {} → {})",
                d.path, d.check_step, d.use_step
            )?,
            None => writeln!(f, "  declared —")?,
        }
        writeln!(
            f,
            "    windows {:>6} (width p50 {:.1}µs p95 {:.1}µs max {:.1}µs)  checks {} uses {}",
            self.width.count,
            self.width.p50_us,
            self.width.p95_us,
            self.width.max_us,
            self.checks,
            self.uses
        )?;
        let miss = match self.closest_miss_us {
            Some(us) => format!("{us:.1}µs"),
            None => "—".to_string(),
        };
        writeln!(
            f,
            "    strikes: {} hit, {} early (p50 {:.1}µs), {} late (p50 {:.1}µs), {} unpaired; closest miss {}",
            self.strikes_hit,
            self.early.count,
            self.early.p50_us,
            self.late.count,
            self.late.p50_us,
            self.strikes_unpaired,
            miss
        )
    }
}

impl std::fmt::Display for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Race-window anatomy — widths, strike offsets and near misses \
             ({} rounds per scenario)",
            self.rounds
        )?;
        for row in &self.rows {
            write!(f, "{row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dissects_the_whole_library_with_live_forensics() {
        let out = run(&Config {
            rounds: 12,
            seed: 11,
            jobs: 1,
            cold: false,
        });
        assert_eq!(out.rows.len(), 10);
        for r in &out.rows {
            assert!(r.checks > 0, "{}: checks must be observed", r.scenario);
            assert!(
                r.declared.is_some(),
                "{}: every library victim declares its window",
                r.scenario
            );
            let d = r.declared.as_ref().unwrap();
            assert!(
                d.check_step < d.use_step,
                "{}: check before use",
                r.scenario
            );
        }
        assert!(
            out.rows.iter().any(|r| r.width.count > 0),
            "windows must be realized somewhere in the library"
        );
        assert!(
            out.rows
                .iter()
                .any(|r| r.strikes_hit + r.early.count + r.late.count > 0),
            "strikes must be classified somewhere in the library"
        );
        let text = out.to_string();
        assert!(text.contains("Race-window anatomy"), "{text}");
        assert!(text.contains("closest miss"), "{text}");
    }

    #[test]
    fn anatomy_is_independent_of_jobs() {
        let (pair, scenario) = taxonomy_library(None).remove(0);
        let cfg1 = Config {
            rounds: 16,
            seed: 77,
            jobs: 1,
            cold: false,
        };
        let a = anatomy_row(&format!("{pair}"), &scenario, &cfg1);
        let b = anatomy_row(&format!("{pair}"), &scenario, &Config { jobs: 4, ..cfg1 });
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn rows_labelled_with_another_pair_render_without_annotation() {
        let row = anatomy_row(
            "<stat, open>",
            &Scenario::vi_smp(100 * 1024),
            &Config {
                rounds: 8,
                seed: 3,
                jobs: 1,
                cold: false,
            },
        );
        assert!(row.declared.is_none());
        assert!(row.checks > 0 && row.uses > 0);
        assert!(row.to_string().contains("declared —"), "{row}");
        // Labelled with vi's own pair, the row declares vi's window.
        let own = anatomy_row(
            "<creat, chown>",
            &Scenario::vi_smp(100 * 1024),
            &Config {
                rounds: 1,
                seed: 3,
                jobs: 1,
                cold: false,
            },
        );
        let d = own.declared.expect("vi realizes <creat, chown>");
        assert_eq!(d.path, "/home/user/doc.txt");
        assert!(d.check_step < d.use_step);
    }
}
