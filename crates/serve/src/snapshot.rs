//! Immutable ranked snapshots: the unit of publication.
//!
//! A [`RankedSnapshot`] freezes one merged ranking (the exact
//! `Vec<ArbitrageOpportunity>` the runtime produced at a
//! `standing_revision`) together with every secondary index a reader
//! might want — by token, by pool, and by net-profit floor — all built
//! **once** at publish time. Entries are shared immutable handles, so
//! freezing a ranking copies pointers, not evaluations. The indexes are
//! flat arrays: the token and pool indexes are compressed sparse rows
//! addressed by `TokenId::index()` / `PoolId::index()`, and the profit
//! index is a sorted array of `(net_profit, rank)` pairs. Readers then
//! answer point queries with slice walks over immutable data: no
//! sorting, no hashing, no allocation beyond the caller's own
//! collection.

use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;
use arb_engine::ArbitrageOpportunity;

/// Rank lists keyed by a dense id, in compressed-sparse-row form: the
/// ranks of id `i` are `ranks[offsets[i]..offsets[i + 1]]`, ascending
/// (i.e. best-first). `offsets` covers ids up to the largest one any
/// entry references; ids past it have no ranks.
#[derive(Debug, Default)]
struct RankIndex {
    offsets: Vec<u32>,
    ranks: Vec<u32>,
}

impl RankIndex {
    /// Indexes every entry under each distinct id `keys` yields for it,
    /// in two counting passes over `entries` (after one pass for the
    /// largest id): two allocations in total, none per key.
    fn build<K: Copy + PartialEq>(
        entries: &[ArbitrageOpportunity],
        keys: impl Fn(&ArbitrageOpportunity) -> &[K],
        index: impl Fn(K) -> usize,
    ) -> Self {
        // A cycle visits each token and pool once, but stay safe if that
        // invariant ever relaxes: each rank is listed once per id, or
        // the lists would not be strictly ascending.
        let distinct = |opp| {
            let keys: &[K] = keys(opp);
            keys.iter()
                .enumerate()
                .filter(move |&(j, key)| !keys[..j].contains(key))
                .map(|(_, &key)| index(key))
        };
        let Some(max_id) = entries.iter().flat_map(&distinct).max() else {
            return Self::default();
        };
        // Count pass: `offsets[id + 1]` holds id's list length, then the
        // prefix sum turns `offsets[id]` into the list's start.
        let mut offsets = vec![0u32; max_id + 2];
        for opp in entries {
            for id in distinct(opp) {
                offsets[id + 1] += 1;
            }
        }
        for id in 1..offsets.len() {
            offsets[id] += offsets[id - 1];
        }
        // Fill pass: `offsets[id]` is id's write cursor, ending at the
        // start of id + 1; shifting right by one restores the starts.
        let mut ranks = vec![0u32; offsets[max_id + 1] as usize];
        for (rank, opp) in entries.iter().enumerate() {
            for id in distinct(opp) {
                ranks[offsets[id] as usize] = rank as u32;
                offsets[id] += 1;
            }
        }
        offsets.copy_within(..=max_id, 1);
        offsets[0] = 0;
        Self { offsets, ranks }
    }

    /// The ranks listed under `id`; empty past the largest indexed id.
    fn get(&self, id: usize) -> &[u32] {
        match (self.offsets.get(id), self.offsets.get(id + 1)) {
            (Some(&start), Some(&end)) => &self.ranks[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Panics unless the index lists, under each id, exactly the ranks
    /// of the entries whose keys include that id, strictly ascending.
    fn assert_coherent<K: Copy>(
        &self,
        name: &str,
        entries: &[ArbitrageOpportunity],
        keys: impl Fn(&ArbitrageOpportunity) -> &[K],
        index: impl Fn(K) -> usize,
    ) {
        assert!(
            self.offsets.windows(2).all(|w| w[0] <= w[1]),
            "{name} offsets not monotone"
        );
        assert_eq!(
            self.offsets.last().copied().unwrap_or(0) as usize,
            self.ranks.len(),
            "{name} offsets do not cover the ranks"
        );
        for id in 0..self.offsets.len().saturating_sub(1) {
            let ranks = self.get(id);
            assert!(
                ranks.windows(2).all(|w| w[0] < w[1]),
                "{name} ranks not strictly ascending"
            );
            for &rank in ranks {
                assert!(
                    keys(&entries[rank as usize])
                        .iter()
                        .any(|&key| index(key) == id),
                    "{name} index points at a cycle missing the key"
                );
            }
        }
        for (rank, opp) in entries.iter().enumerate() {
            for &key in keys(opp) {
                assert!(
                    self.get(index(key)).binary_search(&(rank as u32)).is_ok(),
                    "{name} index misses a cycle referencing the key"
                );
            }
        }
    }
}

/// An immutable ranking at a single serve revision, plus query indexes.
///
/// `entries` is stored in execution-priority order — bit-identical to
/// what [`arb_engine::ShardedRuntime::apply_events`] returned — so every
/// query is a view over the oracle ranking, never a recomputation.
#[derive(Debug)]
pub struct RankedSnapshot {
    revision: u64,
    entries: Vec<ArbitrageOpportunity>,
    /// Rank lists of every entry whose cycle touches each token.
    by_token: RankIndex,
    /// Rank lists of every entry whose cycle crosses each pool.
    by_pool: RankIndex,
    /// `(net_profit, rank)` for every entry, ordered by descending net
    /// profit (rank breaks ties), so any profit floor selects a prefix.
    net_desc: Vec<(f64, u32)>,
}

fn tokens(opp: &ArbitrageOpportunity) -> &[TokenId] {
    opp.cycle.tokens()
}

fn pools(opp: &ArbitrageOpportunity) -> &[PoolId] {
    opp.cycle.pools()
}

impl RankedSnapshot {
    /// Freezes a ranking and builds its indexes. `entries` must already
    /// be in execution-priority order; the snapshot never reorders it.
    #[must_use]
    pub fn build(revision: u64, entries: Vec<ArbitrageOpportunity>) -> Self {
        let by_token = RankIndex::build(&entries, tokens, TokenId::index);
        let by_pool = RankIndex::build(&entries, pools, PoolId::index);
        let mut net_desc: Vec<(f64, u32)> = entries
            .iter()
            .enumerate()
            .map(|(rank, opp)| (opp.net_profit.value(), rank as u32))
            .collect();
        // Ranks are distinct, so the order is total and an unstable sort
        // gives the one answer a stable sort would.
        net_desc.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        Self {
            revision,
            entries,
            by_token,
            by_pool,
            net_desc,
        }
    }

    /// The zero-entry snapshot published before the first refresh.
    #[must_use]
    pub fn empty() -> Self {
        Self::build(0, Vec::new())
    }

    /// The serve-side revision this ranking was published at (monotone
    /// across the publisher's lifetime, including checkpoint/restore).
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of ranked opportunities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ranking is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The full ranking in execution-priority order.
    #[must_use]
    pub fn entries(&self) -> &[ArbitrageOpportunity] {
        &self.entries
    }

    /// The best `k` opportunities (the whole ranking when `k` exceeds
    /// it) — a prefix slice, zero copies.
    #[must_use]
    pub fn top_k(&self, k: usize) -> &[ArbitrageOpportunity] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// Every ranked opportunity whose cycle trades through `token`,
    /// best-first.
    pub fn by_token(&self, token: TokenId) -> impl Iterator<Item = &ArbitrageOpportunity> + '_ {
        self.by_token
            .get(token.index())
            .iter()
            .map(|&rank| &self.entries[rank as usize])
    }

    /// Every ranked opportunity whose cycle crosses `pool`, best-first.
    pub fn by_pool(&self, pool: PoolId) -> impl Iterator<Item = &ArbitrageOpportunity> + '_ {
        self.by_pool
            .get(pool.index())
            .iter()
            .map(|&rank| &self.entries[rank as usize])
    }

    /// Every ranked opportunity clearing the net-profit floor (inclusive),
    /// in descending net profit. A prefix walk of the prebuilt profit
    /// index: `O(log n)` to locate the cut over one contiguous array,
    /// `O(matches)` to yield.
    pub fn min_net_profit(
        &self,
        floor_usd: f64,
    ) -> impl Iterator<Item = &ArbitrageOpportunity> + '_ {
        let cut = self.net_desc.partition_point(|&(net, _)| net >= floor_usd);
        self.net_desc[..cut]
            .iter()
            .map(|&(_, rank)| &self.entries[rank as usize])
    }

    /// Panics unless every index is coherent with `entries` (ascending
    /// rank lists covering exactly the cycles that reference each key;
    /// `net_desc` a permutation in descending net order whose inline net
    /// values bit-equal their entries'). Test support — the serving path
    /// never needs it.
    pub fn assert_coherent(&self) {
        self.by_token
            .assert_coherent("by_token", &self.entries, tokens, TokenId::index);
        self.by_pool
            .assert_coherent("by_pool", &self.entries, pools, PoolId::index);
        assert_eq!(self.net_desc.len(), self.entries.len());
        let mut seen = vec![false; self.entries.len()];
        for w in self.net_desc.windows(2) {
            let ((a, ra), (b, rb)) = (w[0], w[1]);
            assert!(
                a > b || (a.total_cmp(&b).is_eq() && ra < rb),
                "net_desc out of order"
            );
        }
        for &(net, rank) in &self.net_desc {
            assert!(!seen[rank as usize], "net_desc repeats a rank");
            seen[rank as usize] = true;
            assert_eq!(
                net.to_bits(),
                self.entries[rank as usize].net_profit.value().to_bits(),
                "net_desc inline net value differs from its entry's"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::curve::SwapCurve;
    use arb_amm::fee::FeeRate;
    use arb_core::loop_def::ArbLoop;
    use arb_core::monetize::Usd;
    use arb_engine::EvaluatedOpportunity;
    use arb_graph::Cycle;

    /// A ranked entry over the given token and pool ids with `net` USD.
    fn entry(tokens: &[u32], pools: &[u32], net: f64) -> ArbitrageOpportunity {
        let tokens: Vec<TokenId> = tokens.iter().map(|&t| TokenId::new(t)).collect();
        let pools = pools.iter().map(|&p| PoolId::new(p)).collect();
        let hops = tokens
            .iter()
            .map(|_| SwapCurve::new(100.0, 100.0, FeeRate::UNISWAP_V2).unwrap())
            .collect();
        ArbitrageOpportunity::new(EvaluatedOpportunity {
            cycle: Cycle::new(tokens.clone(), pools).unwrap(),
            loop_: ArbLoop::new(hops, tokens.clone()).unwrap(),
            prices: vec![1.0; tokens.len()],
            strategy: "maxmax",
            optimal_inputs: vec![0.0; tokens.len()],
            token_profits: vec![0.0; tokens.len()],
            gross_profit: Usd::new(net + 1.0),
            net_profit: Usd::new(net),
        })
    }

    /// Ranks yielded by a query, as positions in `snapshot.entries()`.
    fn ranks<'a>(
        snapshot: &RankedSnapshot,
        hits: impl Iterator<Item = &'a ArbitrageOpportunity>,
    ) -> Vec<usize> {
        hits.map(|hit| {
            snapshot
                .entries()
                .iter()
                .position(|opp| ArbitrageOpportunity::ptr_eq(opp, hit))
                .expect("a query yields snapshot entries")
        })
        .collect()
    }

    fn sample() -> RankedSnapshot {
        RankedSnapshot::build(
            7,
            vec![
                entry(&[0, 3], &[2, 5], 30.0),
                entry(&[3, 4, 5], &[5, 6, 7], 50.0),
                entry(&[0, 1, 4], &[0, 1, 6], 30.0),
                entry(&[1, 2], &[3, 4], 10.0),
            ],
        )
    }

    #[test]
    fn empty_snapshot_answers_every_query_empty() {
        let snapshot = RankedSnapshot::empty();
        snapshot.assert_coherent();
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.revision(), 0);
        assert!(snapshot.top_k(3).is_empty());
        assert_eq!(snapshot.by_token(TokenId::new(0)).count(), 0);
        assert_eq!(snapshot.by_pool(PoolId::new(0)).count(), 0);
        assert_eq!(snapshot.min_net_profit(f64::NEG_INFINITY).count(), 0);
    }

    #[test]
    fn id_zero_is_indexed() {
        let snapshot = sample();
        snapshot.assert_coherent();
        assert_eq!(ranks(&snapshot, snapshot.by_token(TokenId::new(0))), [0, 2]);
        assert_eq!(ranks(&snapshot, snapshot.by_pool(PoolId::new(0))), [2]);
        assert_eq!(ranks(&snapshot, snapshot.by_token(TokenId::new(4))), [1, 2]);
        assert_eq!(ranks(&snapshot, snapshot.by_pool(PoolId::new(5))), [0, 1]);
    }

    #[test]
    fn ids_past_the_largest_ranked_id_are_empty() {
        let snapshot = sample();
        assert_eq!(snapshot.by_token(TokenId::new(6)).count(), 0);
        assert_eq!(snapshot.by_token(TokenId::new(u32::MAX)).count(), 0);
        assert_eq!(snapshot.by_pool(PoolId::new(8)).count(), 0);
        assert_eq!(snapshot.by_pool(PoolId::new(u32::MAX)).count(), 0);
    }

    #[test]
    fn repeated_ids_within_a_cycle_are_listed_once() {
        let snapshot = RankedSnapshot::build(1, vec![entry(&[1, 2, 1, 3], &[4, 5, 6, 7], 5.0)]);
        snapshot.assert_coherent();
        assert_eq!(ranks(&snapshot, snapshot.by_token(TokenId::new(1))), [0]);
    }

    #[test]
    fn profit_floor_is_inclusive() {
        let snapshot = sample();
        // Ties on net profit keep rank order.
        assert_eq!(ranks(&snapshot, snapshot.min_net_profit(30.0)), [1, 0, 2]);
        assert_eq!(ranks(&snapshot, snapshot.min_net_profit(30.5)), [1]);
        assert_eq!(
            ranks(&snapshot, snapshot.min_net_profit(10.0)),
            [1, 0, 2, 3]
        );
        assert_eq!(snapshot.min_net_profit(50.5).count(), 0);
    }
}
