//! The incremental tick: event deltas → dirty cycles → re-evaluate.
//!
//! [`crate::OpportunityPipeline`] is a pure function of a full market
//! snapshot: every run rebuilds the graph and re-enumerates every cycle.
//! That is the right shape for cold starts and offline studies, but a live
//! market tick touches a handful of pools while the universe holds
//! hundreds — rescanning the world each block does O(universe) work for
//! O(delta) change.
//!
//! [`crate::ShardedRuntime`] owns the state the batch pipeline
//! recomputes, and this module is how one tick advances it:
//!
//! ```text
//! events ──▶ delta apply (TokenGraph::apply_sync / add_pool)
//!    │              │
//!    │        CycleIndex: PoolId → affected CycleIds  ──▶ dirty set
//!    │                                                      │
//!    └── price feed ──▶ re-evaluate ONLY dirty cycles (parallel)
//!                                   │
//!                    merge into standing ranked opportunity set
//! ```
//!
//! The work per batch is proportional to the cycles the events touched,
//! not to the universe; [`crate::RuntimeStats::evaluations_saved`] counts the
//! difference. Evaluation, floor filtering, and ranking reuse the exact
//! pipeline code, so after any event sequence the standing set is
//! *identical* to a fresh batch run on the resulting state under the same
//! feed (`tests/streaming_equivalence.rs` enforces this).
//!
//! Feed moves are handled symmetrically to reserve moves: every refresh
//! compares the feed against the per-token prices used last time and
//! dirties the cycles touching any token whose USD price changed, so the
//! standing set stays batch-identical even under a drifting CEX feed —
//! while a universe whose prices *didn't* move pays nothing.
//!
//! # The profitability screen and the zero-allocation hot path
//!
//! Re-evaluation itself is screened: before a dirty cycle pays for curve
//! assembly, price resolution, and the strategy fan-out (the convex
//! solver dominates), the engine consults the [`CycleIndex`]'s
//! incrementally maintained log-sum. A cycle whose running `Σ log p` sits
//! at or below `-`[`CycleIndex::SCREEN_DRIFT_MARGIN`] is provably not an
//! arbitrage loop — the full path would classify it `NotArbitrage` and
//! drop it — so the engine drops it directly and counts it in
//! [`crate::RuntimeStats::cycles_screened_out`]. When the effective gross floor
//! (`execution_cost_usd + min_net_profit_usd`) is positive, a second
//! sound screen applies: no trading plan can extract more USD from a
//! cycle's pools than `Σ_pools (√(Pa·x) − √(Pb·y))²` (each pool's value
//! at feed prices never drops below its `2√(k·Pa·Pb)` alignment minimum,
//! and with fees `k` never decreases), so cycles whose bound cannot clear
//! the floor skip strategy evaluation too
//! ([`crate::RuntimeStats::cycles_floor_screened`]). Both screens are
//! conservative — borderline cycles fall through to the exact path — so
//! output stays bit-identical with the screen on or off
//! (`tests/screen_equivalence.rs`).
//!
//! Survivors are prepared into a reusable scratch arena (flat
//! structure-of-arrays buffers for curves/tokens/prices, span-indexed
//! evaluation slots with per-slot reusable `ArbLoop`s) and evaluated by
//! an in-place `for_each` fan-out: in the steady state the refresh
//! performs **zero heap allocation** in this scratch path
//! ([`crate::RuntimeStats::scratch_grow_events`] stays flat once warm).

use arb_amm::pool::{Pool, PoolId};
use arb_amm::token::TokenId;
use arb_cex::feed::PriceFeed;
use arb_dexsim::events::Event;
use arb_dexsim::units::to_display;
use arb_graph::{CycleIndex, SyncOutcome};
use arb_obs::SpanTimer;
use rayon::prelude::*;

use crate::bounds::{floor_verdict, FloorVerdict};
use crate::error::EngineError;
use crate::runtime::ShardedRuntime;
use crate::scratch::EvalSlot;

impl ShardedRuntime {
    /// Re-evaluates the dirty set against `feed` and updates the standing
    /// map. Tokens whose USD price moved since the last refresh dirty
    /// their cycles first, so standing valuations never go stale under a
    /// drifting feed.
    ///
    /// The pass is screen-first and allocation-free in the steady state:
    /// dirty cycles whose incremental log-sum (or feed-priced profit
    /// bound) proves the full evaluation would drop them are dropped
    /// directly; survivors are prepared into the reusable scratch arena
    /// and evaluated by an in-place fan-out. See the module docs for the
    /// soundness argument.
    ///
    /// # Errors
    ///
    /// Forwards evaluation failures. A failed refresh leaves the standing
    /// set and evaluation counters untouched and keeps every pending
    /// cycle dirty (including cycles dirtied by this call's feed diff),
    /// so the runtime stays consistent and the refresh can simply be
    /// retried.
    pub(crate) fn refresh_standing<F: PriceFeed>(&mut self, feed: &F) -> Result<(), EngineError> {
        // Clone the timer out so the guard doesn't borrow `self` across
        // the field destructure below; SpanTimer clones are Arc-cheap.
        let refresh_timer = self.obs.as_ref().map(|o| o.refresh.clone());
        let _refresh_span = refresh_timer.as_ref().map(SpanTimer::start);
        self.dirty_feed_moves(feed);

        let ShardedRuntime {
            pipeline,
            graph,
            index,
            dirty,
            scratch,
            standing,
            standing_moved,
            stats,
            ..
        } = self;
        let config = pipeline.config();
        let screen = config.screen;
        // A standing entry needs `gross > 0` and `gross − cost ≥ floor`;
        // when the combined requirement is positive, a sound gross upper
        // bound can discharge cycles without evaluating them.
        let required_gross = config.execution_cost_usd + config.min_net_profit_usd;
        let floor_screen = screen && required_gross > 0.0;

        // Phase 1 — screen + prepare. Nothing engine-visible mutates
        // here (counter deltas are committed only after evaluation
        // succeeds), so any `?` leaves the runtime retryable.
        scratch.begin_refresh();
        let mut screened_out = 0usize;
        let mut floor_screened = 0usize;
        let mut hop_screened = 0usize;
        let mut degenerate_skipped = 0usize;
        for id in dirty.iter() {
            let cycle = index.get(id).expect("dirty set only holds live cycles");
            if screen {
                let log_sum = index.screen_log_sum(id).expect("live cycles are screened");
                if log_sum <= -CycleIndex::SCREEN_DRIFT_MARGIN {
                    // Sound: the exact Σ log p is certainly ≤ 0, so the
                    // full path would classify this NotArbitrage (or
                    // Degenerate) and drop it — identical outcome,
                    // without curves, prices, or strategies.
                    scratch.dropped.push(id);
                    screened_out += 1;
                    continue;
                }
            }
            // Exact classification, mirroring the batch pipeline's
            // `prepare_candidate` step for step (the equivalence tests
            // hold the two paths together).
            let log_rate = graph.cycle_log_rate(cycle)?;
            if log_rate == f64::NEG_INFINITY {
                scratch.dropped.push(id);
                degenerate_skipped += 1;
                continue;
            }
            if log_rate.is_nan() || log_rate <= 0.0 {
                scratch.dropped.push(id);
                continue;
            }
            if floor_screen {
                // Either sound gross bound (pool-potential, or the
                // per-hop fee-aware bound for whale-displaced loops)
                // may discharge the cycle; both carry a relative safety
                // margin so strategy-side rounding can never flip a
                // borderline keep into a screened drop.
                match floor_verdict(graph, cycle, feed, required_gross) {
                    FloorVerdict::Keep => {}
                    verdict => {
                        scratch.dropped.push(id);
                        floor_screened += 1;
                        if verdict == FloorVerdict::HopBound {
                            hop_screened += 1;
                        }
                        continue;
                    }
                }
            }
            // Prepare into the flat buffers: the same validation, curve
            // construction, and price resolution as
            // `prepare_candidate`, minus its allocations.
            cycle.validate(graph)?;
            let offset = scratch.hops.len();
            for (&pool, &token_in) in cycle.pools().iter().zip(cycle.tokens()) {
                scratch.hops.push(graph.curve(pool, token_in)?);
            }
            scratch.tokens.extend_from_slice(cycle.tokens());
            let mut unpriced = false;
            for &token in cycle.tokens() {
                match feed.usd_price(token) {
                    Some(price) => scratch.prices.push(price),
                    None => {
                        unpriced = true;
                        break;
                    }
                }
            }
            if unpriced {
                scratch.hops.truncate(offset);
                scratch.tokens.truncate(offset);
                scratch.prices.truncate(offset);
                scratch.dropped.push(id);
                continue;
            }
            scratch.push_candidate(id, offset, cycle.len());
        }
        scratch.end_prepare();

        // Phase 2 — the strategy fan-out, in place over the scratch
        // slots: every worker writes into its own slot, nothing is
        // collected, nothing allocates.
        {
            let (hops, tokens, prices, slots) = scratch.split_for_eval();
            let evaluate = |slot: &mut EvalSlot| {
                let span = slot.offset..slot.offset + slot.len;
                let cycle = index.get(slot.id).expect("slots hold live cycles");
                let outcome = slot
                    .loop_
                    .rebuild(&hops[span.clone()], &tokens[span.clone()])
                    .map_err(EngineError::from)
                    .and_then(|()| pipeline.evaluate_cycle(cycle, &slot.loop_, &prices[span]));
                slot.outcome = Some(outcome);
            };
            if config.parallel && slots.len() > 1 {
                slots.par_iter_mut().for_each(evaluate);
            } else {
                slots.iter_mut().for_each(evaluate);
            }
        }
        if scratch
            .slots()
            .iter()
            .any(|slot| matches!(slot.outcome, Some(Err(_))))
        {
            for slot in scratch.slots_mut() {
                if let Some(Err(error)) = slot.outcome.take() {
                    return Err(error);
                }
            }
        }

        // Phase 3 — commit. Infallible from here on.
        let dirty_count = dirty.len();
        dirty.clear();
        stats.refreshes += 1;
        stats.cycles_evaluated += dirty_count;
        stats.evaluations_saved += index.live_cycles() - dirty_count;
        stats.cycles_screened_out += screened_out;
        stats.cycles_floor_screened += floor_screened;
        stats.cycles_hop_screened += hop_screened;
        stats.cycles_degenerate_skipped += degenerate_skipped;
        stats.scratch_grow_events = scratch.grow_events();
        stats.dirty_bitset_capacity = dirty.capacity();
        let mut changed = false;
        for &id in &scratch.dropped {
            changed |= standing.remove(&id).is_some();
        }
        let floor = config.min_net_profit_usd;
        for slot in scratch.slots_mut() {
            let (opportunity, attempts, _benign) = slot
                .outcome
                .take()
                .expect("fan-out filled every slot")
                .expect("errors were drained above");
            stats.strategy_evaluations += attempts;
            match opportunity {
                Some(opp) if opp.net_profit.value() >= floor => {
                    standing.insert(slot.id, opp);
                    changed = true;
                }
                _ => {
                    changed |= standing.remove(&slot.id).is_some();
                }
            }
        }
        *standing_moved |= changed;
        Ok(())
    }

    /// Applies one chain event to the owned graph and marks the cycles it
    /// touches dirty via the index.
    ///
    /// # Errors
    ///
    /// See [`ShardedRuntime::apply_events`].
    pub(crate) fn apply_event(&mut self, event: &Event) -> Result<(), EngineError> {
        self.stats.events_applied += 1;
        match *event {
            Event::Sync {
                pool,
                reserve_a,
                reserve_b,
            } => {
                if pool.index() >= self.graph.pool_count() {
                    return Err(EngineError::Desync("Sync for a pool never seen"));
                }
                self.stats.syncs_applied += 1;
                let was_live = self.graph.is_live(pool);
                // Capture the pre-sync cached log rates: a live→live
                // update feeds the screen an O(1) delta per containing
                // cycle instead of a recompute.
                let old_log_rates = self.graph.pool_log_rates(pool);
                match self
                    .graph
                    .apply_sync(pool, to_display(reserve_a), to_display(reserve_b))?
                {
                    SyncOutcome::Updated => {
                        let update = self.index.on_pool_synced(&self.graph, pool, old_log_rates);
                        self.stats.screen_delta_updates += update.deltas;
                        self.stats.screen_resummations += update.resummations;
                        self.mark_pool_dirty(pool);
                    }
                    // `Retired` is idempotent at the graph layer; only a
                    // live → retired transition has cycles to drop (and
                    // counts as a retirement).
                    SyncOutcome::Retired if was_live => self.retire_pool_cycles(pool),
                    SyncOutcome::Retired => {}
                    SyncOutcome::Revived => {
                        self.stats.pools_revived += 1;
                        self.extend_index(pool)?;
                    }
                }
            }
            Event::PoolCreated {
                pool,
                token_a,
                token_b,
                reserve_a,
                reserve_b,
                fee,
            } => {
                if pool.index() != self.graph.pool_count() {
                    return Err(EngineError::Desync("PoolCreated out of slot order"));
                }
                let analysis = Pool::new(
                    token_a,
                    token_b,
                    to_display(reserve_a),
                    to_display(reserve_b),
                    fee,
                )
                .map_err(arb_graph::GraphError::from)?;
                let assigned = self.graph.add_pool(analysis);
                debug_assert_eq!(assigned, pool);
                self.stats.pools_added += 1;
                self.extend_index(pool)?;
            }
            Event::Swap { pool, .. } | Event::Mint { pool, .. } | Event::Burn { pool, .. } => {
                // Reserve changes arrive via the paired `Sync`; these only
                // pre-mark the pool's cycles (cheap and idempotent).
                if pool.index() >= self.graph.pool_count() {
                    return Err(EngineError::Desync("event for a pool never seen"));
                }
                self.mark_pool_dirty(pool);
            }
            // `Event` is non-exhaustive; unknown variants carry no reserve
            // deltas this engine understands, so they are counted and
            // skipped rather than desyncing the stream.
            _ => {}
        }
        Ok(())
    }

    /// Diffs `feed` against the prices used at the last refresh and marks
    /// the cycles of every token whose price changed (a cycle visiting a
    /// token always enters it through one of the token's adjacent pools,
    /// so the pool posting lists cover it). Bit-level comparison: any
    /// representable move, however small, re-values its cycles.
    fn dirty_feed_moves<F: PriceFeed>(&mut self, feed: &F) {
        let tokens = self.graph.token_count();
        if self.feed_prices.len() < tokens {
            self.feed_prices.resize(tokens, None);
        }
        self.scratch.moved_pools.clear();
        for index in 0..tokens {
            let token = TokenId::new(index as u32);
            let now = feed.usd_price(token);
            if self.feed_prices[index].map(f64::to_bits) != now.map(f64::to_bits) {
                self.feed_prices[index] = now;
                self.scratch
                    .moved_pools
                    .extend(self.graph.neighbors(token).iter().map(|e| e.pool));
            }
        }
        // Indexed loop: `mark_pool_dirty` needs `&mut self`, so the
        // reused buffer cannot stay borrowed across it.
        for position in 0..self.scratch.moved_pools.len() {
            let pool = self.scratch.moved_pools[position];
            self.mark_pool_dirty(pool);
        }
    }

    fn mark_pool_dirty(&mut self, pool: PoolId) {
        for entry in self.index.cycles_for_pool(pool) {
            if self.dirty.insert(entry.cycle) {
                self.stats.cycles_dirtied += 1;
            }
        }
    }

    fn retire_pool_cycles(&mut self, pool: PoolId) {
        self.stats.pools_retired += 1;
        for id in self.index.on_pool_removed(pool) {
            self.dirty.remove(id);
            self.standing_moved |= self.standing.remove(&id).is_some();
            self.stats.cycles_retired += 1;
        }
    }

    fn extend_index(&mut self, pool: PoolId) -> Result<(), EngineError> {
        for id in self.index.on_pool_added(&self.graph, pool)? {
            self.stats.cycles_added += 1;
            if self.dirty.insert(id) {
                self.stats.cycles_dirtied += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{OpportunityPipeline, PipelineConfig};
    use crate::runtime::tests::{assert_matches_batch, assert_same_ranking, p, sync, t};
    use arb_amm::fee::FeeRate;
    use arb_cex::feed::PriceTable;
    use arb_dexsim::units::to_raw;

    fn paper_pools() -> Vec<Pool> {
        let fee = FeeRate::UNISWAP_V2;
        vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
        ]
    }

    fn paper_feed() -> PriceTable {
        [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
            .into_iter()
            .collect()
    }

    fn runtime(config: PipelineConfig, pools: Vec<Pool>) -> ShardedRuntime {
        ShardedRuntime::new(OpportunityPipeline::new(config), pools, 1).unwrap()
    }

    fn drain(pool: u32) -> Event {
        Event::Sync {
            pool: p(pool),
            reserve_a: 0,
            reserve_b: 0,
        }
    }

    /// Two disjoint triangles: 0-1-2 (paper) and 3-4-5, whose first pool
    /// holds `reserve_b` of token 4, with a feed pricing all six tokens.
    fn two_triangles(reserve_b: f64) -> (Vec<Pool>, PriceTable) {
        let fee = FeeRate::UNISWAP_V2;
        let mut pools = paper_pools();
        pools.push(Pool::new(t(3), t(4), 1_000.0, reserve_b, fee).unwrap());
        pools.push(Pool::new(t(4), t(5), 1_000.0, 1_000.0, fee).unwrap());
        pools.push(Pool::new(t(5), t(3), 1_000.0, 1_000.0, fee).unwrap());
        let mut feed = paper_feed();
        feed.extend([(t(3), 1.0), (t(4), 1.0), (t(5), 1.0)]);
        (pools, feed)
    }

    #[test]
    fn cold_start_equals_batch_run() {
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        let report = engine.refresh(&paper_feed()).unwrap();
        assert_eq!(report.opportunities.len(), 1);
        assert_eq!(report.best().unwrap().strategy, "convex");
        assert_matches_batch(&engine, &report.opportunities, &paper_feed());
    }

    #[test]
    fn ranked_caches_per_revision() {
        let feed = paper_feed();
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        let first = engine.refresh(&feed).unwrap().opportunities;
        let sorts_after_refresh = engine.rank_sorts;
        let revision = engine.standing_revision();
        // Repeat ticks at an unchanged revision must not re-sort.
        for _ in 0..5 {
            let again = engine.refresh(&feed).unwrap().opportunities;
            assert_same_ranking(&again, &first);
        }
        assert_eq!(engine.standing_revision(), revision);
        assert_eq!(
            engine.rank_sorts, sorts_after_refresh,
            "repeat ticks at an unchanged revision re-sorted"
        );
        // Moving the standing set bumps the revision once and invalidates
        // the cache exactly once.
        let report = engine
            .apply_events(&[sync(0, 120.0, 180.0)], &feed)
            .unwrap();
        assert_eq!(engine.standing_revision(), revision + 1);
        engine.refresh(&feed).unwrap();
        assert_eq!(engine.rank_sorts, sorts_after_refresh + 1);
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn sync_dirties_only_affected_cycles() {
        let (pools, feed) = two_triangles(1_050.0);
        let mut engine = runtime(PipelineConfig::default(), pools);
        engine.refresh(&feed).unwrap();
        let evaluated_cold = engine.stats().cycles_evaluated;

        // Perturb one pool of the second triangle: only its two directed
        // cycles are dirtied, the paper triangle is untouched.
        let report = engine
            .apply_events(&[sync(3, 1_000.0, 1_060.0)], &feed)
            .unwrap();
        assert_eq!(report.stats.cycles_evaluated - evaluated_cold, 2);
        assert!(report.stats.evaluations_saved > 0);
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn degenerate_sync_retires_then_revives() {
        let feed = paper_feed();
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        assert_eq!(engine.refresh(&feed).unwrap().opportunities.len(), 1);

        // Draining pool 0 breaks the triangle: no cycles, no standing set.
        let report = engine.apply_events(&[drain(0)], &feed).unwrap();
        assert!(report.opportunities.is_empty());
        assert_eq!(report.stats.pools_retired, 1);
        assert_eq!(report.stats.cycles_retired, 2);
        assert_eq!(engine.live_cycles(), 0);

        // A second degenerate sync is idempotent: no double retirement.
        let report = engine.apply_events(&[drain(0)], &feed).unwrap();
        assert_eq!(report.stats.pools_retired, 1, "{}", report.stats);
        assert_eq!(report.stats.cycles_retired, 2);

        // Reviving it restores the standing set exactly.
        let report = engine
            .apply_events(&[sync(0, 100.0, 200.0)], &feed)
            .unwrap();
        assert_eq!(report.opportunities.len(), 1);
        assert_eq!(report.stats.pools_revived, 1);
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn pool_created_extends_the_universe() {
        let mut feed = paper_feed();
        feed.set(t(3), 1.0);
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        engine.refresh(&feed).unwrap();

        // A parallel pool on (0,1) at a different price opens 2-cycles and
        // new triangles.
        let created = Event::PoolCreated {
            pool: p(3),
            token_a: t(0),
            token_b: t(1),
            reserve_a: to_raw(150.0),
            reserve_b: to_raw(250.0),
            fee: FeeRate::UNISWAP_V2,
        };
        let report = engine.apply_events(&[created], &feed).unwrap();
        assert_eq!(report.stats.pools_added, 1);
        assert!(report.stats.cycles_added > 0);
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn out_of_order_events_desync() {
        let feed = paper_feed();
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        let err = engine
            .apply_events(&[sync(9, 1.0, 1.0)], &feed)
            .unwrap_err();
        assert!(matches!(err, EngineError::Desync(_)), "{err:?}");

        let gap = Event::PoolCreated {
            pool: p(7),
            token_a: t(0),
            token_b: t(3),
            reserve_a: to_raw(1.0),
            reserve_b: to_raw(1.0),
            fee: FeeRate::UNISWAP_V2,
        };
        let err = engine.apply_events(&[gap], &feed).unwrap_err();
        assert!(matches!(err, EngineError::Desync(_)), "{err:?}");
    }

    #[test]
    fn floor_and_top_k_match_pipeline_semantics() {
        let feed = paper_feed();
        let config = PipelineConfig {
            min_net_profit_usd: 1_000.0,
            ..PipelineConfig::default()
        };
        let mut engine = runtime(config, paper_pools());
        let report = engine.refresh(&feed).unwrap();
        assert!(report.opportunities.is_empty(), "floored out");
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn feed_moves_dirty_affected_cycles_automatically() {
        // Two disjoint triangles so a price move on one leaves the other
        // untouched.
        let (pools, mut feed) = two_triangles(1_080.0);
        let mut engine = runtime(PipelineConfig::default(), pools);
        engine.refresh(&feed).unwrap();
        let evaluated_cold = engine.stats().cycles_evaluated;

        // No chain events, just a CEX move on token 4: only the second
        // triangle's two directed cycles re-evaluate, and the standing
        // set still equals a fresh batch run under the new feed.
        feed.set(t(4), 1.3);
        let report = engine.refresh(&feed).unwrap();
        assert_eq!(report.stats.cycles_evaluated - evaluated_cold, 2);
        assert_matches_batch(&engine, &report.opportunities, &feed);

        // A refresh with an unchanged feed re-evaluates nothing.
        let before = engine.stats().cycles_evaluated;
        engine.refresh(&feed).unwrap();
        assert_eq!(engine.stats().cycles_evaluated, before);
    }

    #[test]
    fn screen_drops_non_arb_cycles_without_preparing_them() {
        let feed = paper_feed();
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        engine.refresh(&feed).unwrap();
        // The cold start re-examined both directed triangle cycles; the
        // unprofitable direction (exact Σ log p < −fee drag) was screened
        // out by the incremental sum without curve/price preparation.
        assert_eq!(engine.stats().cycles_screened_out, 1, "{}", engine.stats());

        // A sync keeps the screen maintained by O(1) deltas and screens
        // the losing direction again on the next refresh.
        let report = engine
            .apply_events(&[sync(0, 101.0, 199.0)], &feed)
            .unwrap();
        assert!(engine.stats().screen_delta_updates > 0);
        assert_eq!(engine.stats().cycles_screened_out, 2);
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn unscreened_config_matches_screened_bit_for_bit() {
        let feed = paper_feed();
        let unscreened = PipelineConfig {
            screen: false,
            ..PipelineConfig::default()
        };
        let mut engines = [
            runtime(PipelineConfig::default(), paper_pools()),
            runtime(unscreened, paper_pools()),
        ];
        for engine in &mut engines {
            engine.refresh(&feed).unwrap();
        }
        for batch in [vec![sync(0, 101.0, 199.0)], vec![sync(1, 290.0, 210.0)]] {
            let [a, b] = &mut engines;
            let ra = a.apply_events(&batch, &feed).unwrap();
            let rb = b.apply_events(&batch, &feed).unwrap();
            assert_same_ranking(&ra.opportunities, &rb.opportunities);
        }
        assert_eq!(engines[1].stats().cycles_screened_out, 0);
        assert!(engines[0].stats().cycles_screened_out > 0);
    }

    #[test]
    fn floor_screen_skips_strategy_work_only_below_the_bound() {
        let feed = paper_feed();
        // The paper triangle's pool-potential bound is ≈ $2247; a floor
        // far above it screens the profitable direction without ever
        // running a strategy, a floor below it does not.
        let screened_out = |floor: f64| {
            let config = PipelineConfig {
                min_net_profit_usd: floor,
                ..PipelineConfig::default()
            };
            let mut engine = runtime(config, paper_pools());
            let report = engine.refresh(&feed).unwrap();
            assert_matches_batch(&engine, &report.opportunities, &feed);
            (
                engine.stats().cycles_floor_screened,
                engine.stats().strategy_evaluations,
            )
        };
        let (floored_high, evals_high) = screened_out(10_000.0);
        assert_eq!(floored_high, 1, "profitable direction provably < floor");
        assert_eq!(evals_high, 0, "no strategy ran at all");
        let (floored_low, evals_low) = screened_out(100.0);
        assert_eq!(floored_low, 0, "bound cannot discharge a reachable floor");
        assert!(evals_low > 0);
    }

    #[test]
    fn hop_bound_discharges_marginal_loops_the_pool_bound_cannot() {
        // A high-fee triangle whose loop edge is barely positive: every
        // pool sits ~4% off mid (inside what the 3.5% fee band leaves as
        // a ~1% loop edge), so the realizable profit is cents — but the
        // fee-blind pool-potential bound still sees ~$4 of book
        // displacement per pool and cannot discharge a $5 gross floor.
        // The per-hop fee-aware bound can.
        let fee = FeeRate::from_ppm(35_000).unwrap();
        let pools = vec![
            Pool::new(t(0), t(1), 10_000.0, 10_400.0, fee).unwrap(),
            Pool::new(t(1), t(2), 10_000.0, 10_400.0, fee).unwrap(),
            Pool::new(t(2), t(0), 10_000.0, 10_400.0, fee).unwrap(),
        ];
        let feed: PriceTable = [(t(0), 1.0), (t(1), 1.0), (t(2), 1.0)]
            .into_iter()
            .collect();
        let config = PipelineConfig {
            execution_cost_usd: 4.0,
            min_net_profit_usd: 1.0,
            ..PipelineConfig::default()
        };
        let mut engine = runtime(config, pools.clone());
        let report = engine.refresh(&feed).unwrap();
        assert_eq!(
            engine.stats().cycles_hop_screened,
            1,
            "the marginal direction must fall to the hop bound: {}",
            engine.stats()
        );
        assert_eq!(
            engine.stats().strategy_evaluations,
            0,
            "no strategy work on a fully screened universe: {}",
            engine.stats()
        );
        assert_matches_batch(&engine, &report.opportunities, &feed);

        // Control: without the hop bound's reach (no gross floor), the
        // same universe evaluates normally and ranks nothing above $1.
        let mut unfloored = runtime(PipelineConfig::default(), pools);
        let report = unfloored.refresh(&feed).unwrap();
        assert_eq!(unfloored.stats().cycles_hop_screened, 0);
        for opp in &report.opportunities {
            assert!(
                opp.gross_profit.value() < 5.0,
                "loop was genuinely marginal"
            );
        }
    }

    #[test]
    fn steady_state_refreshes_stop_growing_the_scratch_arena() {
        let feed = paper_feed();
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        engine.refresh(&feed).unwrap();
        // Alternate between two reserve states so every refresh does
        // real re-evaluation work of identical shape.
        let mut flip = false;
        let mut step = |engine: &mut ShardedRuntime| {
            flip = !flip;
            let (a, b) = if flip { (101.0, 199.0) } else { (100.0, 200.0) };
            engine.apply_events(&[sync(0, a, b)], &feed).unwrap()
        };
        for _ in 0..3 {
            step(&mut engine);
        }
        let warm = engine.stats().scratch_grow_events;
        let mut report = step(&mut engine);
        for _ in 1..16 {
            report = step(&mut engine);
        }
        assert_eq!(
            engine.stats().scratch_grow_events,
            warm,
            "warm refreshes must not allocate in the scratch path: {}",
            engine.stats()
        );
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn degenerate_rates_are_counted_alike_in_batch_and_streaming() {
        let fee = FeeRate::UNISWAP_V2;
        // A live pool whose 1→2 rate underflows to zero: reserves are
        // valid so nothing retires, but every cycle through it is
        // untradeable and must be skipped — and *counted* — identically
        // by the batch pipeline and the streaming runtime.
        let pools = vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 1e300, 1e-300, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
        ];
        let feed = paper_feed();

        let batch = OpportunityPipeline::default()
            .run(pools.clone(), &feed)
            .unwrap();
        // One direction sums to -inf (degenerate); the reverse sums to
        // +inf and evaluates like any other loop candidate.
        assert_eq!(batch.stats.cycles_degenerate, 1, "{}", batch.stats);

        // Screened streaming: the -inf sum is caught by the log-sum
        // screen, so the dedicated degenerate counter only moves when
        // the screen is off — but the *output* is identical either way.
        let unscreened_config = PipelineConfig {
            screen: false,
            ..PipelineConfig::default()
        };
        let mut unscreened = runtime(unscreened_config, pools.clone());
        let unscreened_ranked = unscreened.refresh(&feed).unwrap().opportunities;
        assert_eq!(
            unscreened.stats().cycles_degenerate_skipped,
            1,
            "{}",
            unscreened.stats()
        );
        let mut screened = runtime(PipelineConfig::default(), pools.clone());
        let screened_ranked = screened.refresh(&feed).unwrap().opportunities;
        assert_eq!(
            screened.stats().cycles_screened_out + screened.stats().cycles_degenerate_skipped,
            1,
            "{}",
            screened.stats()
        );
        assert_matches_batch(&screened, &screened_ranked, &feed);
        assert_matches_batch(&unscreened, &unscreened_ranked, &feed);

        // A zero-reserve sync retires the pool in streaming; the batch
        // run over the remaining live pools must agree.
        let mut engine = runtime(PipelineConfig::default(), pools);
        engine.refresh(&feed).unwrap();
        let report = engine.apply_events(&[drain(1)], &feed).unwrap();
        assert_eq!(engine.stats().pools_retired, 1);
        assert_matches_batch(&engine, &report.opportunities, &feed);
    }

    #[test]
    fn checkpoint_restore_reproduces_ranking_bit_for_bit() {
        let feed = paper_feed();
        let mut engine = runtime(PipelineConfig::default(), paper_pools());
        engine.refresh(&feed).unwrap();
        // Mutate past the cold start: a sync, a retire (tombstones +
        // free-list entries), and a new pool.
        let live = engine
            .apply_events(
                &[
                    sync(0, 101.0, 199.0),
                    Event::PoolCreated {
                        pool: p(3),
                        token_a: t(0),
                        token_b: t(1),
                        reserve_a: to_raw(150.0),
                        reserve_b: to_raw(250.0),
                        fee: FeeRate::UNISWAP_V2,
                    },
                    drain(1),
                    sync(1, 300.0, 200.0),
                ],
                &feed,
            )
            .unwrap()
            .opportunities;

        let checkpoint = engine.checkpoint();
        let mut restored =
            ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint).unwrap();
        assert_eq!(
            restored.dirty.len(),
            restored.live_cycles(),
            "restore starts with everything dirty"
        );
        let back = restored.refresh(&feed).unwrap().opportunities;
        assert!(!live.is_empty(), "non-vacuous");
        assert_same_ranking(&back, &live);

        // Both copies keep agreeing on subsequent events (same CycleIds,
        // same slot recycling, same revive behavior).
        for batch in [vec![sync(3, 160.0, 240.0)], vec![sync(1, 290.0, 210.0)]] {
            let a = engine.apply_events(&batch, &feed).unwrap();
            let b = restored.apply_events(&batch, &feed).unwrap();
            assert_same_ranking(&a.opportunities, &b.opportunities);
        }
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let config = PipelineConfig {
            min_cycle_len: 5,
            max_cycle_len: 3,
            ..PipelineConfig::default()
        };
        let err =
            ShardedRuntime::new(OpportunityPipeline::new(config), paper_pools(), 1).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err:?}");
    }
}
