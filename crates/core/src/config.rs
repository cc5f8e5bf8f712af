//! Protocol node configuration.

use enviromic_types::SimDuration;
use serde::{Deserialize, Serialize};

/// How much of the EnviroMic protocol a node runs — the three settings the
/// paper's evaluation compares (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Baseline: every node independently records for one task period upon
    /// detecting an acoustic event. No coordination, no balancing.
    Uncoordinated,
    /// Cooperative recording (groups, leaders, task assignment) but no
    /// storage balancing.
    CooperativeOnly,
    /// The full system: cooperative recording plus distributed storage
    /// balancing.
    Full,
}

impl Mode {
    /// True when the mode runs group management and task assignment.
    #[must_use]
    pub fn cooperative(self) -> bool {
        !matches!(self, Mode::Uncoordinated)
    }

    /// True when the mode runs the storage balancer.
    #[must_use]
    pub fn balancing(self) -> bool {
        matches!(self, Mode::Full)
    }
}

/// Which [`BalancePolicy`](crate::BalancePolicy) implementation a node
/// runs. The default is the paper's §II-B β/TTL heuristic; the others are
/// the competing storage-management strategies from the literature that
/// the policy ablation (`crates/bench`) compares head-to-head.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's migration heuristic: migrate to a neighbour whose
    /// storage TTL exceeds this node's by the TTL-dependent factor `β_i`.
    #[default]
    BetaTtl,
    /// Store-local baseline: never migrate, never accept migrations.
    NoMigration,
    /// Coordinated storage (after "Collaborative Storage Management in
    /// Sensor Networks"): migrate only under local storage pressure, to
    /// the neighbour with the most free space, chosen deterministically.
    Coordinated,
    /// Flooding-style redundant dispersal (after "Distributed
    /// Flooding-based Storage Algorithms"): copy each batch to
    /// `dispersal_k` distinct neighbours before releasing it locally.
    Flooding,
}

impl PolicyKind {
    /// Every selectable policy, in ablation-table order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::BetaTtl,
        PolicyKind::NoMigration,
        PolicyKind::Coordinated,
        PolicyKind::Flooding,
    ];

    /// The policy's stable name, used for CLI selection, sweep labels,
    /// and the `balance.policy.<name>.*` telemetry prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::BetaTtl => "beta-ttl",
            PolicyKind::NoMigration => "no-migration",
            PolicyKind::Coordinated => "coordinated",
            PolicyKind::Flooding => "flooding",
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown balance policy {s:?} (known: {})", known.join(", "))
            })
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Storage-balancing policy selection and its per-policy parameters.
///
/// Lives inside [`NodeConfig`] (`cfg.balance`); the β/TTL knobs the paper
/// itself tunes (`beta_max`, `migrate_batch`, ...) stay as top-level
/// `NodeConfig` fields because every policy shares the session mechanics
/// they govern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalanceConfig {
    /// Which migration-decision policy the node runs.
    pub policy: PolicyKind,
    /// [`PolicyKind::Flooding`]: number of distinct neighbours each chunk
    /// batch is copied to before the local copy is released. 1 degenerates
    /// to plain (non-redundant) migration.
    pub dispersal_k: u8,
    /// [`PolicyKind::Coordinated`]: a node is "under storage pressure" —
    /// and starts shedding data — when its free fraction falls below this
    /// low-water mark, in `[0, 1]`.
    pub coord_low_water: f64,
    /// [`PolicyKind::Coordinated`]: the chosen neighbour must have at
    /// least `own_free_chunks * coord_headroom` free slots, so data flows
    /// strictly down the pressure gradient and cannot ping-pong.
    pub coord_headroom: f64,
}

/// Largest accepted flooding fan-out: each extra copy multiplies bulk
/// radio traffic, and past 8 the batch cannot finish dispersing within
/// realistic neighbourhood sizes.
pub const MAX_DISPERSAL_K: u8 = 8;

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            policy: PolicyKind::BetaTtl,
            dispersal_k: 2,
            coord_low_water: 0.25,
            coord_headroom: 1.5,
        }
    }
}

impl BalanceConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.dispersal_k == 0 {
            return Err("dispersal fan-out must be at least 1".into());
        }
        if self.dispersal_k > MAX_DISPERSAL_K {
            return Err(format!(
                "dispersal fan-out {} exceeds the maximum of {MAX_DISPERSAL_K}",
                self.dispersal_k
            ));
        }
        if !(0.0..=1.0).contains(&self.coord_low_water) {
            return Err("coordination low-water mark must lie in [0, 1]".into());
        }
        if self.coord_headroom < 1.0 || !self.coord_headroom.is_finite() {
            return Err("coordination headroom must be a finite factor >= 1".into());
        }
        Ok(())
    }
}

/// Configuration of one EnviroMic node.
///
/// Defaults follow the values the paper determined empirically:
/// `Trc = 1.0 s`, `Dta = 70 ms`, 2.730 kHz sampling, 0.5 MB flash.
///
/// Construct via [`NodeConfig::default`] plus struct update syntax, or the
/// chainable setters:
///
/// ```
/// use enviromic_core::{Mode, NodeConfig};
///
/// let cfg = NodeConfig::default()
///     .with_mode(Mode::Full)
///     .with_beta_max(2.0)
///     .with_flash_chunks(1200);
/// assert_eq!(cfg.beta_max, 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Protocol mode.
    pub mode: Mode,

    // --- sound-activated detection -------------------------------------
    /// A level must exceed the background estimate by this margin to count
    /// as an acoustic event (ADC units).
    pub detect_margin: f64,
    /// Hysteresis: the event ends when the level falls below background +
    /// `detect_margin * detect_off_fraction`.
    pub detect_off_fraction: f64,
    /// EWMA weight for the long-term background noise average.
    pub background_alpha: f64,

    // --- cooperative recording ------------------------------------------
    /// Recording task period `Trc`.
    pub trc: SimDuration,
    /// Expected task assignment delay `Dta`: the leader starts the next
    /// assignment this early (§III-B.2).
    pub dta: SimDuration,
    /// Maximum random back-off before announcing leadership (§II-A.1).
    pub election_backoff_max: SimDuration,
    /// Maximum random back-off for post-RESIGN handoff elections.
    pub handoff_backoff_max: SimDuration,
    /// Period of the `SENSING` beacon while hearing an event.
    pub sensing_period: SimDuration,
    /// A member's `SENSING` report older than this no longer counts for
    /// task assignment.
    pub member_freshness: SimDuration,
    /// How long the leader waits for `TASK_CONFIRM`/`TASK_REJECT` before
    /// picking another member.
    pub confirm_timeout: SimDuration,
    /// Maximum recorder candidates tried per assignment round.
    pub max_assign_attempts: u32,
    /// Prelude length: record this much at event onset without
    /// coordination (§II-A.1); `None` disables the optimization (the
    /// paper's testbed experiments ran without it).
    pub prelude: Option<SimDuration>,

    // --- storage ----------------------------------------------------------
    /// Chunk slots in local flash (2048 × 256 B = the MicaZ 0.5 MB).
    pub flash_chunks: u32,
    /// Chunk-store operations between EEPROM pointer checkpoints.
    pub checkpoint_interval: u32,

    // --- storage balancing ------------------------------------------------
    /// Which storage-balancing policy runs and its per-policy parameters.
    pub balance: BalanceConfig,
    /// Upper bound `β_max` of the imbalance threshold (§II-B).
    pub beta_max: f64,
    /// `β_i` reaches `β_max` when the node's TTL is at or above this many
    /// seconds, and falls linearly to 1 as TTL approaches zero.
    pub beta_ttl_ref_secs: f64,
    /// Period of `STATE_UPDATE` beacons and balance checks.
    pub state_period: SimDuration,
    /// Chunks moved per migration session.
    pub migrate_batch: u16,
    /// Bulk-transfer retransmissions before giving up.
    pub bulk_retries: u32,
    /// Bulk-transfer retransmission timeout.
    pub bulk_timeout: SimDuration,
    /// Initial data acquisition rate estimate `R0`, bytes/second.
    pub initial_rate: f64,
    /// EWMA weight `α` for the acquisition-rate estimate (§II-B).
    pub rate_alpha: f64,
    /// Period of acquisition-rate updates.
    pub rate_period: SimDuration,

    // --- supporting services ----------------------------------------------
    /// Soft-state neighbor expiry.
    pub neighbor_expiry: SimDuration,
    /// Fastest time-sync beacon period (during activity).
    pub sync_min_period: SimDuration,
    /// Slowest time-sync beacon period (quiet network).
    pub sync_max_period: SimDuration,
    /// Packet budget for piggybacked envelopes, bytes.
    pub packet_budget: usize,
    /// Longest a delay-tolerant message waits for a piggyback ride.
    pub piggyback_max_wait: SimDuration,

    // --- extensions beyond the paper ---------------------------------------
    /// Controlled-redundancy switch (the paper's future-work "controlled
    /// redundancy"); 1 means plain migration. Any value above 1 makes a
    /// migrating donor keep its acked chunks while more than 30 % of its
    /// store is free. The value itself is not a replica count: 2 and 3
    /// behave the same, and because a kept chunk stays at the head of the
    /// donor's queue, every later session sends it again, so copies grow
    /// without bound (pinned by the ignored test
    /// `replication_factor_two_stores_about_two_copies` in
    /// `tests/end_to_end.rs`).
    pub replication_factor: u8,
    /// Global load-balancing hints (the paper's future-work "global (as
    /// opposed to local greedy) load-balancing"): nodes gossip a diffusive
    /// estimate of the network-wide average free fraction and stop
    /// accepting migrations once they are markedly fuller than the
    /// network average, damping the boundary hot-loading of Fig. 13(c).
    pub global_balance_hints: bool,
    /// Piggybacking of delay-tolerant messages (§III-A). Disable for the
    /// overhead ablation: every message then pays for its own packet.
    pub piggybacking: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            mode: Mode::Full,
            detect_margin: 25.0,
            detect_off_fraction: 0.6,
            background_alpha: 0.02,
            trc: SimDuration::from_secs_f64(1.0),
            dta: SimDuration::from_millis(70),
            election_backoff_max: SimDuration::from_millis(500),
            handoff_backoff_max: SimDuration::from_millis(100),
            sensing_period: SimDuration::from_millis(400),
            member_freshness: SimDuration::from_millis(2500),
            confirm_timeout: SimDuration::from_millis(150),
            max_assign_attempts: 4,
            prelude: None,
            flash_chunks: 2048,
            checkpoint_interval: 64,
            balance: BalanceConfig::default(),
            beta_max: 2.0,
            beta_ttl_ref_secs: 600.0,
            state_period: SimDuration::from_secs_f64(5.0),
            migrate_batch: 16,
            bulk_retries: 3,
            bulk_timeout: SimDuration::from_millis(80),
            initial_rate: 0.0,
            rate_alpha: 0.3,
            rate_period: SimDuration::from_secs_f64(10.0),
            neighbor_expiry: SimDuration::from_secs_f64(15.0),
            sync_min_period: SimDuration::from_secs_f64(10.0),
            sync_max_period: SimDuration::from_secs_f64(160.0),
            packet_budget: 100,
            piggyback_max_wait: SimDuration::from_secs_f64(2.0),
            replication_factor: 1,
            global_balance_hints: false,
            piggybacking: true,
        }
    }
}

impl NodeConfig {
    /// Sets the protocol [`Mode`].
    #[must_use]
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the recording task period `Trc`.
    #[must_use]
    pub fn with_trc(mut self, trc: SimDuration) -> Self {
        self.trc = trc;
        self
    }

    /// Sets the expected task assignment delay `Dta`.
    #[must_use]
    pub fn with_dta(mut self, dta: SimDuration) -> Self {
        self.dta = dta;
        self
    }

    /// Sets the balancing sensitivity bound `β_max`.
    #[must_use]
    pub fn with_beta_max(mut self, beta_max: f64) -> Self {
        self.beta_max = beta_max;
        self
    }

    /// Selects the storage-balancing [`PolicyKind`].
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.balance.policy = policy;
        self
    }

    /// Sets the flooding dispersal fan-out (copies per chunk batch).
    #[must_use]
    pub fn with_dispersal_k(mut self, k: u8) -> Self {
        self.balance.dispersal_k = k;
        self
    }

    /// Sets the local flash capacity in chunks.
    #[must_use]
    pub fn with_flash_chunks(mut self, chunks: u32) -> Self {
        self.flash_chunks = chunks;
        self
    }

    /// Enables the prelude optimization with the given length.
    #[must_use]
    pub fn with_prelude(mut self, prelude: SimDuration) -> Self {
        self.prelude = Some(prelude);
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.trc.is_zero() {
            return Err("task period Trc must be positive".into());
        }
        if self.dta >= self.trc {
            return Err("Dta must be smaller than Trc".into());
        }
        if self.flash_chunks == 0 {
            return Err("flash capacity must be positive".into());
        }
        if self.beta_max < 1.0 {
            return Err("beta_max must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.rate_alpha) {
            return Err("rate_alpha must lie in [0, 1]".into());
        }
        if self.replication_factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        if self.migrate_batch == 0 {
            return Err("migrate batch must be at least 1".into());
        }
        self.balance.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = NodeConfig::default();
        assert!((c.trc.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(c.dta.as_millis(), 70);
        assert_eq!(c.flash_chunks, 2048);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn mode_capabilities() {
        assert!(!Mode::Uncoordinated.cooperative());
        assert!(Mode::CooperativeOnly.cooperative());
        assert!(!Mode::CooperativeOnly.balancing());
        assert!(Mode::Full.balancing());
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = NodeConfig::default();
        assert!(base.clone().with_trc(SimDuration::ZERO).validate().is_err());
        assert!(base
            .clone()
            .with_dta(SimDuration::from_secs_f64(2.0))
            .validate()
            .is_err());
        assert!(base.clone().with_flash_chunks(0).validate().is_err());
        assert!(base.clone().with_beta_max(0.5).validate().is_err());
        let mut c = base.clone();
        c.rate_alpha = 1.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.replication_factor = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.migrate_batch = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn policy_names_round_trip_and_unknowns_are_rejected() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.name().parse::<PolicyKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "fountain".parse::<PolicyKind>().unwrap_err();
        assert!(err.contains("unknown balance policy"), "{err}");
        assert!(err.contains("beta-ttl"), "error lists known names: {err}");
        // Case and spelling must match exactly: near-misses are errors,
        // not silent fallbacks to the default policy.
        assert!("BetaTtl".parse::<PolicyKind>().is_err());
        assert!("".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn balance_config_validation_pins_the_parameter_ranges() {
        let base = BalanceConfig::default();
        assert_eq!(base.policy, PolicyKind::BetaTtl);
        assert!(base.validate().is_ok());

        let mut c = base;
        c.dispersal_k = 0;
        assert_eq!(
            c.validate().unwrap_err(),
            "dispersal fan-out must be at least 1"
        );
        c.dispersal_k = MAX_DISPERSAL_K;
        assert!(c.validate().is_ok(), "the cap itself is accepted");
        c.dispersal_k = MAX_DISPERSAL_K + 1;
        assert!(c.validate().unwrap_err().contains("exceeds the maximum"));

        let mut c = base;
        c.coord_low_water = -0.01;
        assert!(c.validate().is_err());
        c.coord_low_water = 1.01;
        assert!(c.validate().is_err());
        c.coord_low_water = 1.0;
        assert!(c.validate().is_ok(), "the boundary itself is accepted");

        let mut c = base;
        c.coord_headroom = 0.99;
        assert!(c.validate().is_err());
        c.coord_headroom = f64::NAN;
        assert!(c.validate().is_err());
        c.coord_headroom = f64::INFINITY;
        assert!(c.validate().is_err());
        c.coord_headroom = 1.0;
        assert!(c.validate().is_ok(), "headroom 1.0 (any gradient) is legal");
    }

    #[test]
    fn node_config_validation_covers_policy_selection() {
        // An invalid BalanceConfig must fail NodeConfig::validate too —
        // nodes are constructed from NodeConfig alone.
        let mut c = NodeConfig::default().with_policy(PolicyKind::Flooding);
        assert!(c.validate().is_ok());
        c.balance.dispersal_k = 0;
        assert!(c.validate().is_err());
        let c = NodeConfig::default().with_dispersal_k(MAX_DISPERSAL_K + 1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_style_setters_chain() {
        let c = NodeConfig::default()
            .with_mode(Mode::Uncoordinated)
            .with_prelude(SimDuration::from_secs_f64(1.0))
            .with_beta_max(3.0);
        assert_eq!(c.mode, Mode::Uncoordinated);
        assert!(c.prelude.is_some());
        assert_eq!(c.beta_max, 3.0);
    }
}
