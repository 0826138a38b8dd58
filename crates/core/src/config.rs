//! Model configuration — the paper's input parameters.
//!
//! [`ModelConfig`] carries every §2 input parameter plus the §3 sweep
//! dimensions. [`ModelConfig::table1`] reproduces the paper's Table 1
//! baseline (reconstructed from the running text of §2–§3: `dbsize =
//! 5000`, `ntrans = 10`, `maxtransize = 500`, `cputime = 0.05`, `iotime =
//! 0.2`, `lcputime = 0.01`, `liotime = 0.2`; `tmax = 10 000` time units,
//! long enough for the closed system to reach steady state).

use lockgran_sim::{json_struct, named_enum, QueueDiscipline, Time, TICKS_PER_UNIT};
use lockgran_workload::{
    FailureSpec, HotSpot, Partitioning, Placement, SizeDistribution, WorkloadParams,
};

named_enum! {
    /// Which lock-conflict computation drives blocking decisions.
    pub enum ConflictMode {
        /// The paper's probabilistic Ries–Stonebraker partition draw.
        Probabilistic => "probabilistic" | "prob",
        /// A real lock table with explicit granule sets (validation mode).
        Explicit => "explicit" | "table",
        /// Multigranularity locking over a database → area → granule
        /// hierarchy: IS/IX intention locks above S/X leaf locks, with
        /// optional lock escalation (see [`HierarchySpec`]).
        Hierarchical => "hierarchical" | "hier",
        /// Incremental two-phase locking: locks are claimed one at a time as
        /// the lock phase progresses, conflicting requests queue in a real
        /// lock table, and a waits-for graph detects deadlock cycles — the
        /// youngest transaction on each cycle aborts and replays its lock
        /// phase. The non-conservative counterpart of the paper's predeclared
        /// protocol (extension).
        Twophase => "twophase" | "2pl",
    }
}

json_struct! {
    /// Parameters of the [`ConflictMode::Hierarchical`] protocol.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct HierarchySpec {
        /// Number of areas the granule space is partitioned into (the middle
        /// level of the database → area → granule tree). Clamped to `ltot`
        /// when larger — every area must hold at least one granule.
        pub areas: u64,
        /// Per-transaction escalation threshold: once a transaction declares
        /// at least this many granules under one area, it locks the whole
        /// area instead (cascading up to the database when the area locks
        /// themselves cluster). `None` never escalates — pure
        /// multigranularity locking; `Some(1)` degenerates to whole-database
        /// locking.
        pub escalation_threshold: Option<u64> = None,
    }
}

impl Default for HierarchySpec {
    fn default() -> Self {
        HierarchySpec {
            areas: 16,
            escalation_threshold: None,
        }
    }
}

impl HierarchySpec {
    /// Set the area count.
    #[must_use]
    pub fn with_areas(mut self, areas: u64) -> Self {
        self.areas = areas;
        self
    }

    /// Set (or clear) the escalation threshold.
    #[must_use]
    pub fn with_escalation_threshold(mut self, threshold: Option<u64>) -> Self {
        self.escalation_threshold = threshold;
        self
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.areas == 0 {
            return Err("hierarchy areas must be positive".into());
        }
        if self.escalation_threshold == Some(0) {
            return Err(
                "escalation threshold of 0 is meaningless (use 1 for immediate escalation, \
                 None for never)"
                    .into(),
            );
        }
        Ok(())
    }
}

named_enum! {
    /// How the `LU_i` lock operations of one request are distributed over the
    /// processors ("we assume that processors share the work for locking
    /// mechanism … because relations are equally distributed among the system
    /// resources", paper §2).
    #[derive(Default)]
    pub enum LockDistribution {
        /// Each of the `LU_i` lock operations is indivisible and lands on one
        /// processor; operations are spread round-robin (granules are
        /// declustered with the data). The default — it reproduces the
        /// paper's observation that per-processor useful time *decreases*
        /// with `npros` (lock operations create stragglers that the fork/join
        /// barrier amplifies).
        #[default]
        PerOperation => "per-op" | "perop" | "per-operation",
        /// The total lock time is split into `npros` exactly equal shares —
        /// an idealized infinitely divisible lock manager (ablation).
        EvenSplit => "even-split" | "even",
        /// The entire request is processed by a single (rotating) processor —
        /// a centralized lock manager (ablation).
        SingleProcessor => "single" | "single-processor",
    }
}

named_enum! {
    /// Distribution of sub-transaction stage service times around their
    /// mean (`entities × per-entity cost`).
    #[derive(Default)]
    pub enum ServiceVariability {
        /// Exactly the mean — the paper's deterministic per-entity costs.
        #[default]
        Deterministic => "deterministic" | "det",
        /// Exponentially distributed with the same mean (disk-seek/CPU-burst
        /// variance). Extension: with random stage times the fork/join
        /// barrier waits for the slowest of `PU_i` sub-transactions, which
        /// reproduces the sublinear speedup (and the Fig 3 useful-time
        /// ordering) that deterministic symmetric service hides.
        Exponential => "exponential" | "exp",
    }
}

json_struct! {
    /// Complete description of one simulation run.
    ///
    /// In JSON the fields from `lock_distribution` on were added after the
    /// first release; each carries its default, so configs written for
    /// earlier versions keep parsing (the old serde semantics).
    #[derive(Clone, Debug, PartialEq)]
    pub struct ModelConfig {
        /// `dbsize`: accessible entities in the database.
        pub dbsize: u64,
        /// `ltot`: number of granule locks (1 = whole-database lock,
        /// `dbsize` = entity-level locks).
        pub ltot: u64,
        /// `ntrans`: multiprogramming level (simulated terminals).
        pub ntrans: u32,
        /// Distribution of transaction sizes (`NU_i`); the paper's default is
        /// `U(1, maxtransize)`.
        pub size: SizeDistribution,
        /// `cputime`: CPU time units per entity processed.
        pub cputime: f64,
        /// `iotime`: I/O time units per entity processed (read + write).
        pub iotime: f64,
        /// `lcputime`: CPU time units per lock (request + set + release).
        pub lcputime: f64,
        /// `liotime`: I/O time units per lock (0 = lock table in memory).
        pub liotime: f64,
        /// `npros`: number of processors (each with private CPU + disk).
        pub npros: u32,
        /// `tmax`: simulated time units to run.
        pub tmax: f64,
        /// Granule placement model (determines `LU_i`).
        pub placement: Placement,
        /// Declustering strategy (determines `PU_i`).
        pub partitioning: Partitioning,
        /// Conflict computation.
        pub conflict: ConflictMode,
        /// How lock operations are spread over processors.
        pub lock_distribution: LockDistribution = LockDistribution::PerOperation,
        /// Sub-transaction stage service-time variability.
        pub service: ServiceVariability = ServiceVariability::Deterministic,
        /// Service order for queued sub-transaction work.
        pub discipline: QueueDiscipline = QueueDiscipline::Fcfs,
        /// Optional hot-spot access skew. Only the explicit conflict model
        /// can honour it (the probabilistic draw assumes uniform access);
        /// validation rejects the combination with `Probabilistic`.
        pub hot_spot: Option<HotSpot> = None,
        /// Whether lock work preempts transaction work at the resources
        /// (the paper gives the locking mechanism "preemptive power"); false
        /// demotes it to non-preemptive head-of-line priority (ablation).
        pub lock_preemption: bool = true,
        /// Transaction-level admission control: at most this many
        /// transactions may compete for locks at once; the rest wait in the
        /// pending queue. `None` (the paper's model) admits everyone
        /// immediately. The paper's §3.7 points to exactly this mechanism
        /// ("transaction level scheduling can be used to effectively handle
        /// this problem") as the remedy for heavy-load lock thrashing.
        pub mpl_limit: Option<u32> = None,
        /// Measurement warm-up, in time units: statistics collected before
        /// this instant are discarded. The paper uses none (0.0).
        pub warmup: f64 = 0.0,
        /// Optional processor failure/repair process (exponential MTBF/MTTR
        /// per processor). `None` — the paper's model — is bit-identical to
        /// the pre-extension behavior.
        pub failure: Option<FailureSpec> = None,
        /// Parameters for the hierarchical conflict mode. `None` with
        /// [`ConflictMode::Hierarchical`] uses [`HierarchySpec::default`];
        /// setting it with any other mode fails validation.
        pub hierarchy: Option<HierarchySpec> = None,
    }
}

impl ModelConfig {
    /// The paper's Table 1 baseline configuration (horizontal
    /// partitioning, best placement, probabilistic conflicts — §3.1–3.4
    /// defaults).
    pub fn table1() -> Self {
        ModelConfig {
            dbsize: 5000,
            ltot: 100,
            ntrans: 10,
            size: SizeDistribution::Uniform { max: 500 },
            cputime: 0.05,
            iotime: 0.2,
            lcputime: 0.01,
            liotime: 0.2,
            npros: 10,
            tmax: 10_000.0,
            placement: Placement::Best,
            partitioning: Partitioning::Horizontal,
            conflict: ConflictMode::Probabilistic,
            lock_distribution: LockDistribution::PerOperation,
            service: ServiceVariability::Deterministic,
            discipline: QueueDiscipline::Fcfs,
            hot_spot: None,
            lock_preemption: true,
            mpl_limit: None,
            warmup: 0.0,
            failure: None,
            hierarchy: None,
        }
    }

    /// Builder-style setters for the common sweep dimensions.
    #[must_use]
    pub fn with_ltot(mut self, ltot: u64) -> Self {
        self.ltot = ltot;
        self
    }
    /// Set the processor count.
    #[must_use]
    pub fn with_npros(mut self, npros: u32) -> Self {
        self.npros = npros;
        self
    }
    /// Set the multiprogramming level.
    #[must_use]
    pub fn with_ntrans(mut self, ntrans: u32) -> Self {
        self.ntrans = ntrans;
        self
    }
    /// Set a uniform transaction-size distribution with this maximum.
    #[must_use]
    pub fn with_maxtransize(mut self, max: u64) -> Self {
        self.size = SizeDistribution::Uniform { max };
        self
    }
    /// Set an arbitrary size distribution.
    #[must_use]
    pub fn with_size(mut self, size: SizeDistribution) -> Self {
        self.size = size;
        self
    }
    /// Set the per-lock I/O cost.
    #[must_use]
    pub fn with_liotime(mut self, liotime: f64) -> Self {
        self.liotime = liotime;
        self
    }
    /// Set the placement model.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }
    /// Set the partitioning strategy.
    #[must_use]
    pub fn with_partitioning(mut self, partitioning: Partitioning) -> Self {
        self.partitioning = partitioning;
        self
    }
    /// Set the conflict computation.
    #[must_use]
    pub fn with_conflict(mut self, conflict: ConflictMode) -> Self {
        self.conflict = conflict;
        self
    }
    /// Set the lock-work distribution policy.
    #[must_use]
    pub fn with_lock_distribution(mut self, d: LockDistribution) -> Self {
        self.lock_distribution = d;
        self
    }
    /// Set the service-time variability.
    #[must_use]
    pub fn with_service(mut self, service: ServiceVariability) -> Self {
        self.service = service;
        self
    }
    /// Set a hot-spot access skew (explicit conflict mode only).
    #[must_use]
    pub fn with_hot_spot(mut self, hot_spot: Option<HotSpot>) -> Self {
        self.hot_spot = hot_spot;
        self
    }
    /// Set the sub-transaction queue discipline.
    #[must_use]
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }
    /// Enable or disable preemptive lock priority.
    #[must_use]
    pub fn with_lock_preemption(mut self, preemptive: bool) -> Self {
        self.lock_preemption = preemptive;
        self
    }
    /// Cap the number of transactions concurrently competing for locks.
    #[must_use]
    pub fn with_mpl_limit(mut self, limit: Option<u32>) -> Self {
        self.mpl_limit = limit;
        self
    }
    /// Set the simulation horizon (time units).
    #[must_use]
    pub fn with_tmax(mut self, tmax: f64) -> Self {
        self.tmax = tmax;
        self
    }
    /// Set the measurement warm-up (time units).
    #[must_use]
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
    }
    /// Enable (or disable with `None`) the processor failure process.
    #[must_use]
    pub fn with_failure(mut self, failure: Option<FailureSpec>) -> Self {
        self.failure = failure;
        self
    }
    /// Set the hierarchical-mode parameters (hierarchical conflict mode
    /// only).
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: Option<HierarchySpec>) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// The hierarchical-mode parameters in effect: the configured spec, or
    /// the defaults when the configuration leaves them unset.
    pub fn hierarchy_spec(&self) -> HierarchySpec {
        self.hierarchy.unwrap_or_default()
    }

    /// The workload-generation view of this configuration.
    pub fn workload_params(&self) -> WorkloadParams {
        WorkloadParams {
            dbsize: self.dbsize,
            ltot: self.ltot,
            size: self.size.clone(),
            placement: self.placement,
            partitioning: self.partitioning,
            npros: self.npros,
        }
    }

    /// Validate the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.workload_params().validate()?;
        if self.npros > crate::system::MAX_NPROS {
            return Err(format!(
                "npros ({}) exceeds the {} processors the simulator can address",
                self.npros,
                crate::system::MAX_NPROS
            ));
        }
        if self.ntrans == 0 {
            return Err("ntrans must be positive (closed model)".into());
        }
        for (name, v) in [
            ("cputime", self.cputime),
            ("iotime", self.iotime),
            ("lcputime", self.lcputime),
            ("liotime", self.liotime),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be a finite non-negative number"));
            }
        }
        // Exact-zero test on user-supplied parameters — both operands were
        // validated finite and non-negative above.
        if self.cputime + self.iotime == 0.0 {
            return Err(
                "cputime and iotime cannot both be zero: transactions would be instantaneous"
                    .into(),
            );
        }
        if !(self.tmax.is_finite() && self.tmax > 0.0) {
            return Err("tmax must be a positive, finite number of time units".into());
        }
        if !(self.warmup.is_finite() && self.warmup >= 0.0) {
            return Err("warmup must be a finite non-negative number".into());
        }
        if let Some(h) = &self.hot_spot {
            h.validate()?;
            if self.conflict == ConflictMode::Probabilistic {
                return Err(
                    "hot-spot skew requires a lock-table conflict model (explicit, \
                     hierarchical, or twophase): the probabilistic partition draw assumes \
                     uniform access"
                        .into(),
                );
            }
        }
        if let Some(h) = &self.hierarchy {
            h.validate()?;
            if self.conflict != ConflictMode::Hierarchical {
                return Err("hierarchy parameters require the hierarchical conflict mode".into());
            }
        }
        if self.mpl_limit == Some(0) {
            return Err("mpl_limit of 0 would admit no transactions".into());
        }
        if self.warmup >= self.tmax {
            return Err(format!(
                "warmup ({}) must be smaller than tmax ({})",
                self.warmup, self.tmax
            ));
        }
        if let Some(f) = &self.failure {
            f.validate()?;
        }
        // The largest transaction's entity and lock counts.
        let nu = self.size.max();
        let (nu, lu) = (nu as f64, nu.min(self.ltot) as f64);
        let (mtbf, mttr) = self.failure.map_or((0.0, 0.0), |f| (f.mtbf, f.mttr));
        let spans = [
            ("tmax", self.tmax),
            ("largest CPU demand", nu * self.cputime),
            ("largest I/O demand", nu * self.iotime),
            ("largest lock CPU work", lu * self.lcputime),
            ("largest lock I/O work", lu * self.liotime),
            ("mtbf", mtbf),
            ("mttr", mttr),
        ];
        if let Some((what, units)) = spans.iter().find(|(_, units)| *units > MAX_SPAN_UNITS) {
            return Err(format!(
                "{what} ({units:e} time units) exceeds the simulation clock's range \
                 ({MAX_SPAN_UNITS:e} units)"
            ));
        }
        // The clock counts whole ticks: a horizon that rounds to tick 0
        // runs nothing, and a warm-up that rounds to the horizon's tick
        // leaves no measured window.
        let tmax = Time::from_units(self.tmax);
        if tmax == Time::ZERO {
            return Err(format!(
                "tmax ({}) is under one clock tick ({} time units)",
                self.tmax,
                1.0 / TICKS_PER_UNIT as f64
            ));
        }
        if Time::from_units(self.warmup) >= tmax {
            return Err(format!(
                "warmup ({}) must end at least one clock tick before tmax ({})",
                self.warmup, self.tmax
            ));
        }
        Ok(())
    }
}

/// Longest span, in model time units, that a valid configuration may
/// imply: its horizon, one stage's or one lock request's demand, or a
/// failure mean. The clock counts `u64` ticks (about 1.8·10¹⁶ units);
/// the margin leaves room for exponential draws far above their mean and
/// for spans added to the current time.
const MAX_SPAN_UNITS: f64 = 1e12;

#[cfg(test)]
mod tests {
    use super::*;
    use lockgran_sim::{FromJson, ToJson};

    #[test]
    fn table1_matches_paper_text() {
        let c = ModelConfig::table1();
        assert_eq!(c.dbsize, 5000);
        assert_eq!(c.ntrans, 10);
        assert_eq!(c.size, SizeDistribution::Uniform { max: 500 });
        assert_eq!(c.cputime, 0.05);
        assert_eq!(c.iotime, 0.2);
        assert_eq!(c.lcputime, 0.01);
        assert_eq!(c.liotime, 0.2);
        assert_eq!(c.placement, Placement::Best);
        assert_eq!(c.partitioning, Partitioning::Horizontal);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = ModelConfig::table1()
            .with_npros(30)
            .with_ltot(200)
            .with_maxtransize(50)
            .with_liotime(0.0)
            .with_placement(Placement::Worst)
            .with_partitioning(Partitioning::Random)
            .with_conflict(ConflictMode::Explicit)
            .with_ntrans(200)
            .with_tmax(500.0)
            .with_warmup(100.0);
        assert_eq!(c.npros, 30);
        assert_eq!(c.ltot, 200);
        assert_eq!(c.size, SizeDistribution::Uniform { max: 50 });
        assert_eq!(c.liotime, 0.0);
        assert_eq!(c.placement, Placement::Worst);
        assert_eq!(c.partitioning, Partitioning::Random);
        assert_eq!(c.conflict, ConflictMode::Explicit);
        assert_eq!(c.ntrans, 200);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(ModelConfig::table1().with_ltot(0).validate().is_err());
        assert!(ModelConfig::table1().with_ltot(10_000).validate().is_err());
        assert!(ModelConfig::table1().with_ntrans(0).validate().is_err());
        assert!(ModelConfig::table1().with_tmax(0.0).validate().is_err());
        assert!(ModelConfig::table1()
            .with_tmax(f64::NAN)
            .validate()
            .is_err());
        assert!(ModelConfig::table1()
            .with_warmup(10_000.0)
            .validate()
            .is_err());
        let mut c = ModelConfig::table1();
        c.lcputime = -1.0;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::table1();
        c.cputime = 0.0;
        c.iotime = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn json_round_trip() {
        let c = ModelConfig::table1().with_npros(20);
        let text = c.to_json().to_string_compact();
        let back = ModelConfig::from_json(&lockgran_sim::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);

        // With the optional extras populated.
        let c = ModelConfig::table1()
            .with_conflict(ConflictMode::Explicit)
            .with_hot_spot(Some(HotSpot::eighty_twenty()))
            .with_mpl_limit(Some(5))
            .with_lock_preemption(false)
            .with_failure(Some(FailureSpec::new(2000.0, 50.0)))
            .with_warmup(100.0);
        let text = c.to_json().pretty();
        let back = ModelConfig::from_json(&lockgran_sim::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn json_optional_fields_default_like_serde() {
        // A config written before the extension fields existed must still
        // parse, with the documented defaults filled in.
        let text = r#"{
            "dbsize": 5000, "ltot": 100, "ntrans": 10,
            "size": {"Uniform": {"max": 500}},
            "cputime": 0.05, "iotime": 0.2, "lcputime": 0.01, "liotime": 0.2,
            "npros": 10, "tmax": 10000.0,
            "placement": "Best", "partitioning": "Horizontal",
            "conflict": "Probabilistic"
        }"#;
        let c = ModelConfig::from_json(&lockgran_sim::json::parse(text).unwrap()).unwrap();
        assert_eq!(c, ModelConfig::table1());
        assert_eq!(c.lock_distribution, LockDistribution::PerOperation);
        assert_eq!(c.service, ServiceVariability::Deterministic);
        assert_eq!(c.discipline, QueueDiscipline::Fcfs);
        assert_eq!(c.hot_spot, None);
        assert!(c.lock_preemption);
        assert_eq!(c.mpl_limit, None);
        assert_eq!(c.warmup, 0.0);
        assert_eq!(c.failure, None);
    }

    #[test]
    fn validation_rejects_spans_beyond_the_clock() {
        let mut c = ModelConfig::table1();
        c.iotime = 1e18;
        assert!(c.validate().unwrap_err().contains("I/O demand"));
        let mut c = ModelConfig::table1();
        c.lcputime = 1e11; // × up to 100 locks
        assert!(c.validate().unwrap_err().contains("lock CPU work"));
        assert!(ModelConfig::table1().with_tmax(1e13).validate().is_err());
        assert!(ModelConfig::table1()
            .with_failure(Some(FailureSpec::new(2000.0, 1e18)))
            .validate()
            .is_err());
        // Huge counts alone are fine: a lock request needs at most
        // min(maxtransize, ltot) locks.
        let big = 1_000_000_000_000_000_000;
        let mut c = ModelConfig::table1().with_tmax(1e12);
        c.dbsize = big;
        assert_eq!(c.with_ltot(big).validate(), Ok(()));
    }

    /// The horizon and the warm-up are checked in clock ticks, not just as
    /// numbers: under one tick of run, or of measured window, is an error.
    #[test]
    fn validation_rejects_runs_shorter_than_a_tick() {
        let tick = 1.0 / TICKS_PER_UNIT as f64;
        let err = ModelConfig::table1()
            .with_tmax(1e-9)
            .validate()
            .unwrap_err();
        assert!(err.contains("under one clock tick"), "{err}");
        assert!(ModelConfig::table1()
            .with_tmax(0.4 * tick)
            .validate()
            .is_err());
        assert_eq!(ModelConfig::table1().with_tmax(tick).validate(), Ok(()));
        // Warm-up below tmax as a number but on the same tick.
        let err = ModelConfig::table1()
            .with_tmax(1.0)
            .with_warmup(1.0 - 0.2 * tick)
            .validate()
            .unwrap_err();
        assert!(err.contains("clock tick before tmax"), "{err}");
        assert_eq!(
            ModelConfig::table1()
                .with_tmax(1.0)
                .with_warmup(1.0 - tick)
                .validate(),
            Ok(())
        );
    }

    /// The job-id encoding addresses at most `MAX_NPROS` processors;
    /// validation rejects more instead of letting stage ids wrap.
    #[test]
    fn validation_bounds_npros_by_the_job_id_encoding() {
        let max = crate::system::MAX_NPROS;
        let err = ModelConfig::table1()
            .with_npros(max + 1)
            .validate()
            .unwrap_err();
        assert!(
            err.contains("processors the simulator can address"),
            "{err}"
        );
        assert!(ModelConfig::table1()
            .with_npros(u32::MAX)
            .validate()
            .is_err());
        assert_eq!(ModelConfig::table1().with_npros(max).validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_failure_spec() {
        assert!(ModelConfig::table1()
            .with_failure(Some(FailureSpec::new(0.0, 50.0)))
            .validate()
            .is_err());
        assert!(ModelConfig::table1()
            .with_failure(Some(FailureSpec::new(2000.0, 50.0)))
            .validate()
            .is_ok());
    }

    #[test]
    fn conflict_mode_parsing() {
        assert_eq!(
            "prob".parse::<ConflictMode>().unwrap(),
            ConflictMode::Probabilistic
        );
        assert_eq!(
            "explicit".parse::<ConflictMode>().unwrap(),
            ConflictMode::Explicit
        );
        assert_eq!(
            "hier".parse::<ConflictMode>().unwrap(),
            ConflictMode::Hierarchical
        );
        assert_eq!(
            "hierarchical".parse::<ConflictMode>().unwrap(),
            ConflictMode::Hierarchical
        );
        assert_eq!(
            "twophase".parse::<ConflictMode>().unwrap(),
            ConflictMode::Twophase
        );
        assert_eq!(
            "2pl".parse::<ConflictMode>().unwrap(),
            ConflictMode::Twophase
        );
        assert!("fuzzy".parse::<ConflictMode>().is_err());
    }

    #[test]
    fn twophase_json_round_trip_and_hot_spot() {
        let c = ModelConfig::table1()
            .with_conflict(ConflictMode::Twophase)
            .with_hot_spot(Some(HotSpot::eighty_twenty()));
        assert!(c.validate().is_ok());
        let text = c.to_json().to_string_compact();
        let back = ModelConfig::from_json(&lockgran_sim::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
        // Hierarchy parameters still belong to the hierarchical mode only.
        assert!(ModelConfig::table1()
            .with_conflict(ConflictMode::Twophase)
            .with_hierarchy(Some(HierarchySpec::default()))
            .validate()
            .is_err());
    }

    #[test]
    fn hierarchy_json_round_trip() {
        let c = ModelConfig::table1()
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(HierarchySpec {
                areas: 8,
                escalation_threshold: Some(4),
            }));
        let text = c.to_json().to_string_compact();
        let back = ModelConfig::from_json(&lockgran_sim::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);

        // Threshold None (never escalate) survives the round trip too.
        let c = c.with_hierarchy(Some(HierarchySpec::default()));
        let text = c.to_json().pretty();
        let back = ModelConfig::from_json(&lockgran_sim::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);

        // An absent threshold means None; `areas` is required.
        let spec = |text| HierarchySpec::from_json(&lockgran_sim::json::parse(text).unwrap());
        assert_eq!(
            spec(r#"{"areas": 8}"#),
            Ok(HierarchySpec::default().with_areas(8))
        );
        assert!(spec(r#"{"escalation_threshold": 2}"#).is_err());
    }

    #[test]
    fn hierarchy_validation() {
        // Defaults apply when the spec is unset.
        let c = ModelConfig::table1().with_conflict(ConflictMode::Hierarchical);
        assert!(c.validate().is_ok());
        assert_eq!(c.hierarchy_spec(), HierarchySpec::default());

        // Explicit spec must accompany the hierarchical mode.
        assert!(ModelConfig::table1()
            .with_hierarchy(Some(HierarchySpec::default()))
            .validate()
            .is_err());
        // Degenerate parameters are rejected.
        let bad_areas = HierarchySpec::default().with_areas(0);
        assert!(ModelConfig::table1()
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(bad_areas))
            .validate()
            .is_err());
        let bad_threshold = HierarchySpec::default().with_escalation_threshold(Some(0));
        assert!(ModelConfig::table1()
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(bad_threshold))
            .validate()
            .is_err());
        // Hot-spot skew is allowed with the hierarchical table.
        assert!(ModelConfig::table1()
            .with_conflict(ConflictMode::Hierarchical)
            .with_hot_spot(Some(HotSpot::eighty_twenty()))
            .validate()
            .is_ok());
    }
}
