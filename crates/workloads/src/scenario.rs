//! Scenario materialization: universe building + per-kind tick streams.

use std::collections::VecDeque;
use std::ops::Range;

use arb_amm::fee::FeeRate;
use arb_amm::pool::{Pool, PoolId};
use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_dexsim::units::to_raw;
use arb_snapshot::{Generator, SnapshotConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{WorkloadKind, WorkloadSpec};
use crate::error::WorkloadError;

/// Sizing and seeding for one scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// RNG seed; the scenario is a pure function of this config.
    pub seed: u64,
    /// Independent execution domains (disconnected islands). Cycles never
    /// cross domains until a bridge pool joins two.
    pub domains: usize,
    /// Token universe size, split across domains.
    pub num_tokens: usize,
    /// Pool count, split across domains.
    pub num_pools: usize,
    /// Number of tick batches to generate.
    pub ticks: usize,
    /// Scales per-tick event counts (1.0 = the workload's native rate).
    pub intensity: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 7,
            domains: 4,
            num_tokens: 24,
            num_pools: 48,
            ticks: 32,
            intensity: 1.0,
        }
    }
}

impl ScenarioConfig {
    /// Sizing preset keyed on the pool count alone — the one knob tests,
    /// benches, and soaks share. Keeps the default 4 execution domains
    /// and the default config's 5:2 pool:token shape, scaling from the
    /// 48-pool default through the 600-pool bench universes up to the
    /// 10k–100k-pool soak range. Seed, tick count, and intensity stay at
    /// their defaults; override them with struct-update syntax:
    ///
    /// ```
    /// use arb_workloads::ScenarioConfig;
    ///
    /// let config = ScenarioConfig {
    ///     seed: 9_001,
    ///     ticks: 48,
    ///     ..ScenarioConfig::sized(10_000)
    /// };
    /// assert!(config.validate().is_ok());
    /// assert_eq!(config.num_pools, 10_000);
    /// ```
    pub fn sized(num_pools: usize) -> Self {
        let defaults = ScenarioConfig::default();
        let num_tokens = (num_pools * 2 / 5).max(3 * defaults.domains);
        ScenarioConfig {
            num_tokens,
            num_pools: num_pools.max(num_tokens),
            ..defaults
        }
    }

    /// Checks the sizing for contradictions.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] when any dimension is too
    /// small to build a multi-domain universe with cycles.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.domains == 0 {
            return Err(WorkloadError::InvalidConfig("domains must be at least 1"));
        }
        if self.num_tokens < 3 * self.domains {
            return Err(WorkloadError::InvalidConfig(
                "need at least 3 tokens per domain",
            ));
        }
        if self.num_pools < self.num_tokens {
            return Err(WorkloadError::InvalidConfig(
                "need at least as many pools as tokens for cycles to exist",
            ));
        }
        if self.ticks == 0 {
            return Err(WorkloadError::InvalidConfig("ticks must be at least 1"));
        }
        if !self.intensity.is_finite() || self.intensity <= 0.0 {
            return Err(WorkloadError::InvalidConfig(
                "intensity must be finite and positive",
            ));
        }
        Ok(())
    }
}

/// One tick's worth of market change: CEX price moves (applied before the
/// chain events, mirroring a feed that updates between blocks) plus the
/// chain event batch.
#[derive(Debug, Clone, PartialEq)]
pub struct TickBatch {
    /// Absolute USD price updates to apply to the feed.
    pub feed_moves: Vec<(TokenId, f64)>,
    /// The chain events of this tick, in order.
    pub events: Vec<Event>,
}

impl TickBatch {
    /// Applies this tick's price moves to `feed` (call before handing
    /// [`TickBatch::events`] to an engine).
    pub fn apply_feed(&self, feed: &mut PriceTable) {
        for (token, price) in &self.feed_moves {
            feed.set(*token, *price);
        }
    }
}

/// A fully materialized workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The catalog name this scenario was built from.
    pub name: &'static str,
    /// The initial pool universe (slot order = `PoolId` order).
    pub pools: Vec<Pool>,
    /// Initial CEX prices for every token.
    pub feed: PriceTable,
    /// The tick stream.
    pub ticks: Vec<TickBatch>,
}

impl Scenario {
    /// Total chain events across all ticks.
    pub fn total_events(&self) -> usize {
        self.ticks.iter().map(|t| t.events.len()).sum()
    }

    /// Appends `ticks` empty tick batches — a quiet tail during which
    /// degraded subsystems (delayed sources, a backed-off journal)
    /// drain their backlogs so a faulted run can reconverge with an
    /// unfaulted oracle before final state is compared.
    #[must_use]
    pub fn with_quiet_tail(mut self, ticks: usize) -> Self {
        for _ in 0..ticks {
            self.ticks.push(TickBatch {
                feed_moves: Vec::new(),
                events: Vec::new(),
            });
        }
        self
    }

    /// Pool slots that exist after every tick is applied (initial pools
    /// plus `PoolCreated` events).
    pub fn final_pool_slots(&self) -> usize {
        self.pools.len()
            + self
                .ticks
                .iter()
                .flat_map(|t| &t.events)
                .filter(|e| matches!(e, Event::PoolCreated { .. }))
                .count()
    }
}

/// Shadow pool state tracked while generating, so every emitted `Sync`
/// carries absolute reserves consistent with the stream so far.
struct PoolShadow {
    reserve_a: f64,
    reserve_b: f64,
    live: bool,
}

/// The generation workspace.
struct Builder {
    rng: StdRng,
    shadows: Vec<PoolShadow>,
    /// USD price per token index (kept current with feed moves).
    prices: Vec<f64>,
    /// Initial token id range of each domain.
    domain_tokens: Vec<Range<u32>>,
    intensity: f64,
}

impl Builder {
    fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.intensity).round() as usize).max(1)
    }

    fn live_count(&self) -> usize {
        self.shadows.iter().filter(|s| s.live).count()
    }

    /// Picks a live pool slot, or `None` after a bounded number of tries
    /// (keeps generation total even when most of the universe is drained).
    fn pick_live(&mut self) -> Option<usize> {
        for _ in 0..8 {
            let index = self.rng.gen_range(0usize..self.shadows.len());
            if self.shadows[index].live {
                return Some(index);
            }
        }
        None
    }

    /// Emits an absolute `Sync` and updates the shadow.
    fn sync(&mut self, events: &mut Vec<Event>, index: usize, reserve_a: f64, reserve_b: f64) {
        let shadow = &mut self.shadows[index];
        shadow.reserve_a = reserve_a;
        shadow.reserve_b = reserve_b;
        shadow.live = reserve_a > 0.0 && reserve_b > 0.0;
        events.push(Event::Sync {
            pool: PoolId::new(index as u32),
            reserve_a: to_raw(reserve_a),
            reserve_b: to_raw(reserve_b),
        });
    }

    /// Multiplies one side of a live pool by `1 ± magnitude` (and divides
    /// the other), modelling a swap's reserve shift.
    fn wobble(&mut self, events: &mut Vec<Event>, magnitude: f64) {
        let Some(index) = self.pick_live() else {
            return;
        };
        let factor = 1.0 + magnitude * self.rng.gen_range(-1.0f64..1.0);
        let (ra, rb) = {
            let s = &self.shadows[index];
            (s.reserve_a * factor, s.reserve_b / factor)
        };
        self.sync(events, index, ra, rb);
    }

    /// Emits a `PoolCreated` for a value-balanced pool between `a` and
    /// `b` at `fee`, with a small random mispricing.
    fn create_pool(&mut self, events: &mut Vec<Event>, a: TokenId, b: TokenId, fee: FeeRate) {
        let tvl = self.rng.gen_range(40_000.0f64..120_000.0);
        let mispricing = 1.0 + self.rng.gen_range(-0.02f64..0.02);
        let reserve_a = tvl / (2.0 * self.prices[a.index()]);
        let reserve_b = tvl / (2.0 * self.prices[b.index()]) * mispricing;
        let pool = PoolId::new(self.shadows.len() as u32);
        events.push(Event::PoolCreated {
            pool,
            token_a: a,
            token_b: b,
            reserve_a: to_raw(reserve_a),
            reserve_b: to_raw(reserve_b),
            fee,
        });
        self.shadows.push(PoolShadow {
            reserve_a,
            reserve_b,
            live: true,
        });
    }

    /// Registers a brand-new token with a random price, returning it and
    /// queueing its price onto this tick's feed moves.
    fn new_token(&mut self, feed_moves: &mut Vec<(TokenId, f64)>) -> TokenId {
        let token = TokenId::new(self.prices.len() as u32);
        let price = self.rng.gen_range(0.5f64..50.0);
        self.prices.push(price);
        feed_moves.push((token, price));
        token
    }

    /// A uniformly random token from one domain's initial range.
    fn domain_token(&mut self, domain: usize) -> TokenId {
        let range = self.domain_tokens[domain].clone();
        TokenId::new(self.rng.gen_range(range))
    }

    /// Two distinct tokens from the same (random) domain.
    fn same_domain_pair(&mut self) -> (TokenId, TokenId) {
        let domain = self.rng.gen_range(0usize..self.domain_tokens.len());
        let a = self.domain_token(domain);
        loop {
            let b = self.domain_token(domain);
            if b != a {
                return (a, b);
            }
        }
    }

    /// Nudges one random token's USD price by `± magnitude`.
    fn feed_move(&mut self, feed_moves: &mut Vec<(TokenId, f64)>, magnitude: f64) {
        let index = self.rng.gen_range(0usize..self.prices.len());
        let price = self.prices[index] * (1.0 + magnitude * self.rng.gen_range(-1.0f64..1.0));
        self.prices[index] = price;
        feed_moves.push((TokenId::new(index as u32), price));
    }
}

/// The multi-domain base universe before any tick is generated.
struct Universe {
    pools: Vec<Pool>,
    feed: PriceTable,
    prices: Vec<f64>,
    domain_tokens: Vec<Range<u32>>,
}

/// Builds the multi-domain base universe: `domains` independent filtered
/// snapshots with token ids offset so the islands never touch.
fn build_universe(spec: &WorkloadSpec, config: &ScenarioConfig) -> Result<Universe, WorkloadError> {
    let mispricing_std = spec.sim_profile().mispricing_std;
    let mut pools = Vec::with_capacity(config.num_pools);
    let mut feed = PriceTable::new();
    let mut prices = Vec::with_capacity(config.num_tokens);
    let mut domain_tokens = Vec::with_capacity(config.domains);

    let base_tokens = config.num_tokens / config.domains;
    let extra_tokens = config.num_tokens % config.domains;
    let base_pools = config.num_pools / config.domains;
    let extra_pools = config.num_pools % config.domains;

    for domain in 0..config.domains {
        let num_tokens = base_tokens + usize::from(domain < extra_tokens);
        let num_pools = base_pools + usize::from(domain < extra_pools);
        let snapshot_cfg = SnapshotConfig {
            seed: config.seed ^ (0x0517_0000 + domain as u64),
            num_tokens,
            num_pools,
            mispricing_std,
            ..SnapshotConfig::default()
        };
        let snapshot = Generator::new(snapshot_cfg)
            .generate()?
            .filtered(&snapshot_cfg);
        let offset = prices.len() as u32;
        domain_tokens.push(offset..offset + num_tokens as u32);
        for index in 0..num_tokens as u32 {
            let price = snapshot
                .usd_price(TokenId::new(index))
                .expect("snapshot prices every token");
            let token = TokenId::new(offset + index);
            feed.set(token, price);
            prices.push(price);
        }
        for pool in snapshot.pools() {
            pools.push(
                Pool::new(
                    TokenId::new(offset + pool.token_a().index() as u32),
                    TokenId::new(offset + pool.token_b().index() as u32),
                    pool.reserve_a(),
                    pool.reserve_b(),
                    pool.fee(),
                )
                .expect("remapped pool stays valid"),
            );
        }
    }
    Ok(Universe {
        pools,
        feed,
        prices,
        domain_tokens,
    })
}

/// Materializes `spec` under `config`. See [`WorkloadSpec::scenario`].
pub(crate) fn generate(
    spec: &WorkloadSpec,
    config: &ScenarioConfig,
) -> Result<Scenario, WorkloadError> {
    config.validate()?;
    let universe = build_universe(spec, config)?;
    let mut builder = Builder {
        rng: StdRng::seed_from_u64(config.seed ^ 0x00ab_10ff),
        shadows: universe
            .pools
            .iter()
            .map(|p| PoolShadow {
                reserve_a: p.reserve_a(),
                reserve_b: p.reserve_b(),
                live: true,
            })
            .collect(),
        prices: universe.prices,
        domain_tokens: universe.domain_tokens,
        intensity: config.intensity,
    };

    let ticks = match spec.kind {
        WorkloadKind::SteadySparse => steady_sparse(&mut builder, config.ticks),
        WorkloadKind::WhaleBursts => whale_bursts(&mut builder, config.ticks),
        WorkloadKind::FeeRegimeShift => fee_regime_shift(&mut builder, config.ticks),
        WorkloadKind::PoolChurn => pool_churn(&mut builder, config.ticks),
        WorkloadKind::DegenerateFlood => degenerate_flood(&mut builder, config.ticks),
    };

    Ok(Scenario {
        name: spec.name,
        pools: universe.pools,
        feed: universe.feed,
        ticks,
    })
}

fn steady_sparse(builder: &mut Builder, ticks: usize) -> Vec<TickBatch> {
    let per_tick = builder.scaled(builder.shadows.len() / 64);
    (0..ticks)
        .map(|tick| {
            let mut batch = TickBatch {
                feed_moves: Vec::new(),
                events: Vec::new(),
            };
            for _ in 0..per_tick {
                builder.wobble(&mut batch.events, 0.015);
            }
            if tick % 4 == 3 {
                builder.feed_move(&mut batch.feed_moves, 0.002);
            }
            batch
        })
        .collect()
}

fn whale_bursts(builder: &mut Builder, ticks: usize) -> Vec<TickBatch> {
    let burst_size = builder.scaled(builder.shadows.len() / 8).max(4);
    (0..ticks)
        .map(|tick| {
            let mut batch = TickBatch {
                feed_moves: Vec::new(),
                events: Vec::new(),
            };
            builder.wobble(&mut batch.events, 0.01);
            if tick % 8 == 7 {
                for _ in 0..burst_size {
                    let magnitude = builder.rng.gen_range(0.15f64..0.35);
                    builder.wobble(&mut batch.events, magnitude);
                }
                builder.feed_move(&mut batch.feed_moves, 0.02);
                builder.feed_move(&mut batch.feed_moves, 0.02);
            }
            batch
        })
        .collect()
}

/// The Milionis et al. regimes: (fee tier, reserve move size, arrivals per
/// tick divisor). Low fees clear under small frequent moves; high fees
/// need large rare ones.
const FEE_REGIMES: [(u32, f64, usize); 3] =
    [(500, 0.004, 16), (3_000, 0.012, 32), (10_000, 0.035, 64)];

fn fee_regime_shift(builder: &mut Builder, ticks: usize) -> Vec<TickBatch> {
    let phase_len = ticks.div_ceil(FEE_REGIMES.len());
    (0..ticks)
        .map(|tick| {
            let regime = (tick / phase_len).min(FEE_REGIMES.len() - 1);
            let (fee_ppm, sigma, divisor) = FEE_REGIMES[regime];
            let mut batch = TickBatch {
                feed_moves: Vec::new(),
                events: Vec::new(),
            };
            // Regime boundary: deploy pools at the incoming fee tier.
            if regime > 0 && tick == regime * phase_len {
                let fee = FeeRate::from_ppm(fee_ppm).expect("catalog tiers are valid");
                for _ in 0..2 {
                    let (a, b) = builder.same_domain_pair();
                    builder.create_pool(&mut batch.events, a, b, fee);
                }
            }
            let arrivals = builder.scaled(builder.shadows.len() / divisor);
            for _ in 0..arrivals {
                builder.wobble(&mut batch.events, sigma);
            }
            if tick % 2 == 1 {
                builder.feed_move(&mut batch.feed_moves, sigma / 2.0);
            }
            batch
        })
        .collect()
}

fn pool_churn(builder: &mut Builder, ticks: usize) -> Vec<TickBatch> {
    let mut drained: VecDeque<(usize, f64, f64)> = VecDeque::new();
    (0..ticks)
        .map(|tick| {
            let mut batch = TickBatch {
                feed_moves: Vec::new(),
                events: Vec::new(),
            };
            builder.wobble(&mut batch.events, 0.01);
            builder.wobble(&mut batch.events, 0.01);
            if tick % 3 == 1 {
                // Deploy: mostly intra-domain, sometimes onto a brand-new
                // token, rarely a cross-domain bridge that joins two
                // islands.
                let roll: f64 = builder.rng.gen_range(0.0f64..1.0);
                let fee = FeeRate::UNISWAP_V2;
                if roll < 0.7 {
                    let (a, b) = builder.same_domain_pair();
                    builder.create_pool(&mut batch.events, a, b, fee);
                } else if roll < 0.85 {
                    let domain = builder.rng.gen_range(0usize..builder.domain_tokens.len());
                    let a = builder.domain_token(domain);
                    let b = builder.new_token(&mut batch.feed_moves);
                    builder.create_pool(&mut batch.events, a, b, fee);
                } else {
                    let domains = builder.domain_tokens.len();
                    if domains < 2 {
                        let (a, b) = builder.same_domain_pair();
                        builder.create_pool(&mut batch.events, a, b, fee);
                    } else {
                        let first = builder.rng.gen_range(0usize..domains);
                        let offset = builder.rng.gen_range(1usize..domains);
                        let a = builder.domain_token(first);
                        let b = builder.domain_token((first + offset) % domains);
                        builder.create_pool(&mut batch.events, a, b, fee);
                    }
                }
            }
            if tick % 4 == 2 {
                if let Some(index) = builder.pick_live() {
                    let (ra, rb) = {
                        let s = &builder.shadows[index];
                        (s.reserve_a, s.reserve_b)
                    };
                    drained.push_back((index, ra, rb));
                    builder.sync(&mut batch.events, index, 0.0, 0.0);
                }
            }
            if tick % 5 == 4 {
                if let Some((index, ra, rb)) = drained.pop_front() {
                    builder.sync(&mut batch.events, index, ra, rb);
                }
            }
            batch
        })
        .collect()
}

fn degenerate_flood(builder: &mut Builder, ticks: usize) -> Vec<TickBatch> {
    let wave = builder.scaled(builder.shadows.len() / 16).max(2);
    let mut parked: VecDeque<(usize, usize, f64, f64)> = VecDeque::new();
    (0..ticks)
        .map(|tick| {
            let mut batch = TickBatch {
                feed_moves: Vec::new(),
                events: Vec::new(),
            };
            builder.wobble(&mut batch.events, 0.01);
            // Revive everything parked two or more ticks ago.
            while let Some(&(parked_tick, index, ra, rb)) = parked.front() {
                if tick < parked_tick + 2 {
                    break;
                }
                parked.pop_front();
                builder.sync(&mut batch.events, index, ra, rb);
            }
            // Drain a wave, but never more than half the universe.
            if builder.live_count() > builder.shadows.len() / 2 {
                for _ in 0..wave {
                    let Some(index) = builder.pick_live() else {
                        break;
                    };
                    let (ra, rb) = {
                        let s = &builder.shadows[index];
                        (s.reserve_a, s.reserve_b)
                    };
                    parked.push_back((tick, index, ra, rb));
                    builder.sync(&mut batch.events, index, 0.0, 0.0);
                }
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{catalog, find};

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            seed: 11,
            domains: 3,
            num_tokens: 15,
            num_pools: 30,
            ticks: 20,
            intensity: 1.0,
        }
    }

    #[test]
    fn sized_presets_validate_across_the_soak_range() {
        for pools in [48, 600, 10_000, 100_000] {
            let config = ScenarioConfig::sized(pools);
            config.validate().expect("sized preset validates");
            assert_eq!(config.num_pools, pools);
        }
        // The 600-pool preset reproduces the bench universes' shape.
        let bench = ScenarioConfig::sized(600);
        assert_eq!((bench.domains, bench.num_tokens), (4, 240));
        // Tiny requests are rounded up to a universe that can hold cycles.
        let tiny = ScenarioConfig::sized(1);
        tiny.validate().expect("rounded-up preset validates");
        assert_eq!(tiny.num_pools, tiny.num_tokens);
    }

    #[test]
    fn every_catalog_entry_generates_deterministically() {
        for spec in catalog() {
            let a = spec.scenario(&small()).expect(spec.name);
            let b = spec.scenario(&small()).expect(spec.name);
            assert_eq!(a, b, "{} must be a pure function of the config", spec.name);
            assert_eq!(a.ticks.len(), 20);
            assert_eq!(a.pools.len(), 30);
            assert!(a.total_events() > 0, "{} generated no events", spec.name);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = find("steady-sparse").unwrap();
        let a = spec.scenario(&small()).unwrap();
        let b = spec
            .scenario(&ScenarioConfig {
                seed: 12,
                ..small()
            })
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn domains_are_disconnected_islands() {
        let scenario = find("steady-sparse").unwrap().scenario(&small()).unwrap();
        // Union-find over initial pools must leave ≥ `domains` components.
        let tokens = 15usize;
        let mut parent: Vec<usize> = (0..tokens).collect();
        fn findp(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for pool in &scenario.pools {
            let a = findp(&mut parent, pool.token_a().index());
            let b = findp(&mut parent, pool.token_b().index());
            parent[a.max(b)] = a.min(b);
        }
        let mut roots: Vec<usize> = (0..tokens).map(|i| findp(&mut parent, i)).collect();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots.len(), 3, "one component per domain");
    }

    #[test]
    fn every_token_is_priced_and_every_sync_targets_a_slot() {
        for spec in catalog() {
            let scenario = spec.scenario(&small()).unwrap();
            for pool in &scenario.pools {
                assert!(scenario.feed.iter().any(|(t, _)| t == pool.token_a()));
                assert!(scenario.feed.iter().any(|(t, _)| t == pool.token_b()));
            }
            let mut slots = scenario.pools.len();
            for batch in &scenario.ticks {
                for event in &batch.events {
                    match event {
                        Event::Sync { pool, .. } => {
                            assert!(pool.index() < slots, "{}", spec.name);
                        }
                        Event::PoolCreated { pool, .. } => {
                            assert_eq!(pool.index(), slots, "{} slot order", spec.name);
                            slots += 1;
                        }
                        _ => {}
                    }
                }
            }
            assert_eq!(slots, scenario.final_pool_slots());
        }
    }

    #[test]
    fn churn_and_flood_retire_and_revive() {
        for name in ["pool-churn", "degenerate-flood"] {
            let scenario = find(name).unwrap().scenario(&small()).unwrap();
            let mut drains = 0usize;
            let mut revives = 0usize;
            let mut dead: Vec<bool> = vec![false; scenario.final_pool_slots()];
            for batch in &scenario.ticks {
                for event in &batch.events {
                    if let Event::Sync {
                        pool,
                        reserve_a,
                        reserve_b,
                    } = event
                    {
                        if *reserve_a == 0 || *reserve_b == 0 {
                            drains += 1;
                            dead[pool.index()] = true;
                        } else if dead[pool.index()] {
                            revives += 1;
                            dead[pool.index()] = false;
                        }
                    }
                }
            }
            assert!(drains > 0, "{name} should drain pools");
            assert!(revives > 0, "{name} should revive pools");
        }
    }

    #[test]
    fn fee_regime_shift_deploys_multiple_tiers() {
        let scenario = find("fee-regime-shift")
            .unwrap()
            .scenario(&small())
            .unwrap();
        let mut tiers: Vec<u32> = scenario
            .ticks
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|e| match e {
                Event::PoolCreated { fee, .. } => Some(fee.ppm()),
                _ => None,
            })
            .collect();
        tiers.sort_unstable();
        tiers.dedup();
        assert!(tiers.len() >= 2, "expected multiple fee tiers: {tiers:?}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let spec = find("steady-sparse").unwrap();
        for config in [
            ScenarioConfig {
                domains: 0,
                ..small()
            },
            ScenarioConfig {
                num_tokens: 5,
                ..small()
            },
            ScenarioConfig {
                num_pools: 10,
                ..small()
            },
            ScenarioConfig {
                ticks: 0,
                ..small()
            },
            ScenarioConfig {
                intensity: 0.0,
                ..small()
            },
        ] {
            assert!(
                matches!(spec.scenario(&config), Err(WorkloadError::InvalidConfig(_))),
                "{config:?}"
            );
        }
    }

    #[test]
    fn intensity_scales_event_volume() {
        let spec = find("fee-regime-shift").unwrap();
        let calm = spec.scenario(&small()).unwrap();
        let busy = spec
            .scenario(&ScenarioConfig {
                intensity: 4.0,
                ..small()
            })
            .unwrap();
        assert!(busy.total_events() > calm.total_events());
    }
}
