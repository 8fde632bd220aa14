//! Machine profiles.
//!
//! A [`MachineSpec`] bundles everything that distinguishes the paper's three
//! testbeds: CPU count, relative speed, scheduler time slice and background
//! kernel activity. Three named profiles correspond to the machines used in
//! the paper's evaluation.

use crate::costs::CostModel;
use tocttou_sim::dist::DurationDist;
use tocttou_sim::time::SimDuration;

/// Background kernel activity: Poisson-arrival, per-CPU kernel work (soft
/// IRQs, timers, tasklets) that preempts the user process on that CPU for
/// the sampled duration.
///
/// This is the paper's residual environmental interference: it is what kept
/// the 1-byte vi SMP attacks at ~96 % instead of 100 % ("some other
/// processes prevent the attacker from being scheduled on another CPU during
/// the vi vulnerability window").
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundSpec {
    /// Mean inter-arrival time of kernel work per CPU (exponential), µs.
    pub mean_interarrival_us: f64,
    /// Duration distribution of each burst of kernel work.
    pub duration: DurationDist,
}

impl BackgroundSpec {
    /// No background activity at all (idealized machine).
    pub fn quiet() -> Self {
        BackgroundSpec {
            mean_interarrival_us: f64::INFINITY,
            duration: DurationDist::const_us(0.0),
        }
    }

    /// The calibrated default: a burst roughly every 5 ms per CPU lasting
    /// ~150 µs on average — chosen so that a ~60 µs critical window is
    /// covered with probability ≈ 4 %, matching the vi 1-byte shortfall.
    pub fn calibrated() -> Self {
        BackgroundSpec {
            mean_interarrival_us: 5_000.0,
            duration: DurationDist::exp_us(150.0),
        }
    }

    /// Whether any background activity can occur.
    pub fn is_active(&self) -> bool {
        self.mean_interarrival_us.is_finite() && self.mean_interarrival_us > 0.0
    }
}

/// A complete machine profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable profile name (used in reports).
    pub name: &'static str,
    /// Number of logical CPUs.
    pub cpus: usize,
    /// Cost multiplier relative to the reference machine (Pentium D
    /// 3.2 GHz = 1.0; the 1.7 GHz Xeon SMP ≈ 2.0).
    pub speed_factor: f64,
    /// Scheduler time slice (Linux 2.6 default ≈ 100 ms).
    pub timeslice: SimDuration,
    /// Background kernel activity.
    pub background: BackgroundSpec,
    /// Syscall cost model (reference-speed values; `speed_factor` is applied
    /// by the kernel at phase-compilation time).
    pub costs: CostModel,
    /// Whether the passive TOCTTOU race detector ([`crate::detect`]) is
    /// armed. On by default for every profile — detection is free of
    /// simulated-time side effects — and disabled only to measure the
    /// detector's host-time overhead (see [`MachineSpec::without_detector`]).
    pub detect: bool,
    /// Whether the kernel observability layer ([`crate::metrics`]) is
    /// recording. On by default — like the detector, metrics never perturb
    /// simulated time — and disabled only to measure the layer's host-time
    /// overhead (see [`MachineSpec::without_metrics`]).
    pub metrics: bool,
    /// Whether window forensics ([`crate::forensics`]) are recording:
    /// exact check-to-use window intervals and per-strike miss distances.
    /// On by default — forensics never perturb simulated time — and
    /// disabled only to measure the layer's host-time overhead (see
    /// [`MachineSpec::without_forensics`]).
    pub forensics: bool,
    /// Whether the forensics event log ([`crate::forensics`]) is armed: a
    /// record of every closed window and classified strike, with its
    /// pathname, from which exporters also derive the window spans
    /// ([`crate::spans`]). **Off by default**: the log allocates per
    /// record, which exhibits want and Monte-Carlo rounds must not pay for
    /// (see [`MachineSpec::with_event_log`]).
    pub event_log: bool,
}

impl MachineSpec {
    /// The paper's uniprocessor baseline (Section 4): one CPU of the same
    /// generation as the SMP testbed.
    pub fn uniprocessor() -> Self {
        MachineSpec {
            name: "uniprocessor",
            cpus: 1,
            speed_factor: 2.0,
            timeslice: SimDuration::from_millis(100),
            background: BackgroundSpec::calibrated(),
            costs: CostModel::default(),
            detect: true,
            metrics: true,
            forensics: true,
            event_log: false,
        }
    }

    /// The Section 5/6.1 SMP testbed: 2 × Intel Xeon 1.7 GHz.
    ///
    /// No `stat` contention inflation was observed on this machine
    /// (Table 2's D = 32.7 µs is consistent with uninflated stats).
    pub fn smp_xeon() -> Self {
        MachineSpec {
            name: "smp-xeon-2x1.7GHz",
            cpus: 2,
            speed_factor: 2.0,
            timeslice: SimDuration::from_millis(100),
            background: BackgroundSpec::calibrated(),
            costs: CostModel::default(),
            detect: true,
            metrics: true,
            forensics: true,
            event_log: false,
        }
    }

    /// The Section 6.2 multi-core testbed: Dell Precision 380 with 2 ×
    /// Pentium D 3.2 GHz dual-core + Hyper-Threading (8 logical CPUs).
    ///
    /// This machine exhibits the `stat` inflation under directory contention
    /// that Section 6.2.2 reports (4 µs → 26 µs), modeled by
    /// `stat_contention_factor = 6.5`.
    pub fn multicore_pentium_d() -> Self {
        let costs = CostModel {
            stat_contention_factor: 6.5,
            ..CostModel::default()
        };
        MachineSpec {
            name: "multicore-pentium-d",
            cpus: 8,
            speed_factor: 1.0,
            timeslice: SimDuration::from_millis(100),
            background: BackgroundSpec::calibrated(),
            costs,
            detect: true,
            metrics: true,
            forensics: true,
            event_log: false,
        }
    }

    /// Returns the profile with background activity silenced (for
    /// deterministic single-trace event analyses like Figures 8 and 10).
    pub fn quiet(mut self) -> Self {
        self.background = BackgroundSpec::quiet();
        self
    }

    /// Returns the profile with the passive race detector disarmed. Only
    /// useful for measuring detector overhead in the bench harness;
    /// detection never perturbs simulated time, so experiment results are
    /// identical either way.
    pub fn without_detector(mut self) -> Self {
        self.detect = false;
        self
    }

    /// Returns the profile with the observability layer stripped. Only
    /// useful for measuring metrics overhead in the bench harness; metrics
    /// never perturb simulated time, so experiment results are identical
    /// either way.
    pub fn without_metrics(mut self) -> Self {
        self.metrics = false;
        self
    }

    /// Returns the profile with window forensics stripped. Only useful for
    /// measuring forensics overhead in the bench harness; forensics never
    /// perturb simulated time, so experiment results are identical either
    /// way.
    pub fn without_forensics(mut self) -> Self {
        self.forensics = false;
        self.event_log = false;
        self
    }

    /// Returns the profile with the forensics event log armed — exhibit
    /// runs only. The log is kept by forensics, so this re-arms them if a
    /// previous builder stripped them.
    pub fn with_event_log(mut self) -> Self {
        self.event_log = true;
        self.forensics = true;
        self
    }

    /// Scales a reference-speed duration to this machine.
    pub fn scale(&self, d: SimDuration) -> SimDuration {
        d.mul_f64(self.speed_factor)
    }

    /// Scales a reference-speed microsecond cost to this machine.
    pub fn scale_us(&self, us: f64) -> SimDuration {
        SimDuration::from_micros_f64(us * self.speed_factor)
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpus == 0 {
            return Err("machine must have at least one CPU".into());
        }
        if !(self.speed_factor.is_finite() && self.speed_factor > 0.0) {
            return Err(format!(
                "speed_factor must be positive, got {}",
                self.speed_factor
            ));
        }
        if self.timeslice.is_zero() {
            return Err("timeslice must be positive".into());
        }
        self.costs.validate()
    }

    /// Whether this is a multiprocessor.
    pub fn is_multiprocessor(&self) -> bool {
        self.cpus > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_validate() {
        for m in [
            MachineSpec::uniprocessor(),
            MachineSpec::smp_xeon(),
            MachineSpec::multicore_pentium_d(),
        ] {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn profile_shapes_match_paper() {
        assert_eq!(MachineSpec::uniprocessor().cpus, 1);
        assert!(!MachineSpec::uniprocessor().is_multiprocessor());
        assert_eq!(MachineSpec::smp_xeon().cpus, 2);
        assert_eq!(MachineSpec::multicore_pentium_d().cpus, 8);
        assert!(MachineSpec::multicore_pentium_d().is_multiprocessor());
        // Only the multi-core machine inflates contended stats.
        assert_eq!(MachineSpec::smp_xeon().costs.stat_contention_factor, 1.0);
        assert!(
            MachineSpec::multicore_pentium_d()
                .costs
                .stat_contention_factor
                > 1.0
        );
    }

    #[test]
    fn speed_scaling() {
        let smp = MachineSpec::smp_xeon();
        assert_eq!(
            smp.scale(SimDuration::from_micros(10)),
            SimDuration::from_micros(20)
        );
        assert_eq!(smp.scale_us(4.0), SimDuration::from_micros(8));
        let mc = MachineSpec::multicore_pentium_d();
        assert_eq!(mc.scale_us(4.0), SimDuration::from_micros(4));
    }

    #[test]
    fn quiet_disables_background() {
        let q = MachineSpec::smp_xeon().quiet();
        assert!(!q.background.is_active());
        assert!(MachineSpec::smp_xeon().background.is_active());
    }

    #[test]
    fn detector_is_on_by_default_and_removable() {
        for m in [
            MachineSpec::uniprocessor(),
            MachineSpec::smp_xeon(),
            MachineSpec::multicore_pentium_d(),
        ] {
            assert!(m.detect, "{}: detector must default on", m.name);
            let off = m.without_detector();
            assert!(!off.detect);
            off.validate().expect("detector-off profile stays valid");
        }
    }

    #[test]
    fn metrics_are_on_by_default_and_removable() {
        for m in [
            MachineSpec::uniprocessor(),
            MachineSpec::smp_xeon(),
            MachineSpec::multicore_pentium_d(),
        ] {
            assert!(m.metrics, "{}: metrics must default on", m.name);
            let off = m.without_metrics();
            assert!(!off.metrics);
            off.validate().expect("metrics-off profile stays valid");
        }
    }

    #[test]
    fn forensics_default_on_event_log_default_off() {
        for m in [
            MachineSpec::uniprocessor(),
            MachineSpec::smp_xeon(),
            MachineSpec::multicore_pentium_d(),
        ] {
            assert!(m.forensics, "{}: forensics must default on", m.name);
            assert!(!m.event_log, "{}: the event log must default off", m.name);
            let off = m.clone().without_forensics();
            assert!(!off.forensics && !off.event_log);
            off.validate().expect("forensics-off profile stays valid");
            let armed = off.with_event_log();
            assert!(
                armed.event_log && armed.forensics,
                "the log re-arms forensics"
            );
        }
    }

    #[test]
    fn validation_rejects_zero_cpus() {
        let mut m = MachineSpec::smp_xeon();
        m.cpus = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_speed() {
        let mut m = MachineSpec::smp_xeon();
        m.speed_factor = 0.0;
        assert!(m.validate().is_err());
        m.speed_factor = f64::NAN;
        assert!(m.validate().is_err());
    }
}
