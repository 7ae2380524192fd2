//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use decent::chain::block::{Block, BlockId, ChainView};
use decent::chain::feemarket::{simulate_congestion, FeeMarketConfig};
use decent::chain::ledger::{Address, Ledger, OutPoint, Transaction, TxOut};
use decent::chain::pos;
use decent::chain::selfish;
use decent::overlay::can::Zone;
use decent::overlay::id::{Key, KEY_BITS};
use decent::overlay::pastry::{digit, shared_prefix, DIGITS};
use decent::sim::metrics::{gini, top_k_share, Histogram};
use decent::sim::payload::Interned;
use decent::sim::rng::rng_from_seed;
use decent::sim::topology::Graph;

fn arb_key() -> impl Strategy<Value = Key> {
    proptest::array::uniform20(any::<u8>()).prop_map(Key::from_bytes)
}

proptest! {
    #[test]
    fn xor_distance_is_a_metric(a in arb_key(), b in arb_key(), c in arb_key()) {
        // Identity of indiscernibles.
        prop_assert_eq!(a.xor_distance(&a), Key::ZERO.xor_distance(&Key::ZERO));
        // Symmetry.
        prop_assert_eq!(a.xor_distance(&b), b.xor_distance(&a));
        // XOR relation: d(a,c) = d(a,b) ^ d(b,c).
        let ab = a.xor_distance(&b);
        let bc = b.xor_distance(&c);
        let ac = a.xor_distance(&c);
        prop_assert_eq!(*ab.as_key().xor_distance(bc.as_key()).as_key(), *ac.as_key());
        // Unidirectionality: distance determines the pair's offset
        // uniquely, so d(a,b) = 0 iff a = b.
        prop_assert_eq!(a.xor_distance(&b) == Key::ZERO.xor_distance(&Key::ZERO), a == b);
    }

    #[test]
    fn bucket_index_matches_prefix_length(a in arb_key(), b in arb_key()) {
        prop_assume!(a != b);
        let d = a.xor_distance(&b);
        let bucket = d.bucket().expect("distinct keys");
        prop_assert_eq!(bucket, KEY_BITS - 1 - d.leading_zeros());
        prop_assert!(bucket < KEY_BITS);
    }

    #[test]
    fn add_pow2_doubles_compose(a in arb_key(), i in 0usize..159) {
        // a + 2^i + 2^i == a + 2^(i+1) (mod 2^160).
        let twice = a.add_pow2(i).add_pow2(i);
        let once = a.add_pow2(i + 1);
        prop_assert_eq!(twice, once);
    }

    #[test]
    fn arcs_partition_the_ring(a in arb_key(), b in arb_key(), x in arb_key()) {
        prop_assume!(a != b && x != a && x != b);
        // Every point other than the endpoints lies on exactly one of
        // the two arcs (a,b] and (b,a].
        let on_ab = x.in_arc(&a, &b);
        let on_ba = x.in_arc(&b, &a);
        prop_assert!(on_ab ^ on_ba, "x must be on exactly one arc");
    }

    #[test]
    fn histogram_percentiles_are_monotone(mut xs in proptest::collection::vec(-1e12f64..1e12, 1..200)) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let p10 = h.percentile(0.10);
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        prop_assert!(p10 <= p50 && p50 <= p90);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(h.percentile(0.0), xs[0]);
        prop_assert_eq!(h.percentile(1.0), *xs.last().unwrap());
        prop_assert!(h.min() <= h.mean() && h.mean() <= h.max());
    }

    #[test]
    fn gini_and_topk_are_well_behaved(xs in proptest::collection::vec(0.0f64..1e9, 1..100)) {
        let g = gini(&xs);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
        // top_k share is monotone in k and reaches 1.
        let mut prev = 0.0;
        for k in 1..=xs.len() {
            let s = top_k_share(&xs, k);
            prop_assert!(s >= prev - 1e-12);
            prev = s;
        }
        if xs.iter().sum::<f64>() > 0.0 {
            prop_assert!((top_k_share(&xs, xs.len()) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_outbound_graphs_are_connected(n in 10usize..300, k in 2usize..8, seed in any::<u64>()) {
        prop_assume!(k < n);
        let mut rng = rng_from_seed(seed);
        let g = Graph::random_outbound(n, k, &mut rng);
        prop_assert!(g.is_connected());
        // Handshake lemma.
        let degree_sum: usize = (0..n).map(|i| g.degree(i)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn chain_tip_is_always_max_height_first_seen(
        choices in proptest::collection::vec(0usize..4, 1..60)
    ) {
        // Randomly extend one of up to four competing branch heads.
        let genesis = Block::genesis(1.0);
        let mut view = ChainView::new(genesis.clone());
        let mut heads: Vec<Interned<Block>> = vec![genesis; 4];
        let mut max_height = 0u64;
        for (step, &c) in choices.iter().enumerate() {
            let parent = heads[c].clone();
            let block = Interned::new(Block {
                id: BlockId(step as u64 + 1),
                parent: Some(parent.id),
                height: parent.height + 1,
                miner: 0,
                mined_at: decent::sim::time::SimTime::from_secs(step as f64),
                txs: vec![],
                size_bytes: 100,
                difficulty: 1.0,
            });
            let moved = view.accept(block.clone());
            heads[c] = block.clone();
            // The tip moves exactly when the new block is strictly higher.
            prop_assert_eq!(moved, block.height > max_height);
            max_height = max_height.max(block.height);
            prop_assert_eq!(view.height(), max_height);
        }
        // Main chain + stale = all blocks (minus genesis counted once).
        prop_assert_eq!(view.best_chain().len() + view.stale_blocks().len(), view.len());
    }

    #[test]
    fn ledger_conserves_value(splits in proptest::collection::vec(1u64..100, 1..20)) {
        // Mint one coinbase, then repeatedly split the first UTXO.
        const COIN: u64 = 1_000_000;
        let mut ledger = Ledger::new(COIN);
        ledger
            .apply_block(
                &[Transaction {
                    id: 1,
                    inputs: vec![],
                    outputs: vec![TxOut { to: Address(0), amount: COIN }],
                }],
                0,
            )
            .unwrap();
        let mut spendable = OutPoint { tx: 1, index: 0 };
        let mut amount = COIN;
        let mut next = 2u64;
        for (i, &cut) in splits.iter().enumerate() {
            let part = amount * cut.min(99) / 100;
            if part == 0 || part == amount {
                continue;
            }
            let tx = Transaction {
                id: next,
                inputs: vec![spendable],
                outputs: vec![
                    TxOut { to: Address(next), amount: part },
                    TxOut { to: Address(0), amount: amount - part },
                ],
            };
            ledger.apply_block(&[tx], i as u64 + 1).unwrap();
            spendable = OutPoint { tx: next, index: 1 };
            amount -= part;
            next += 1;
            // Invariant: total supply never changes after minting.
            prop_assert_eq!(ledger.total_supply(), COIN);
        }
        // And the original outpoint is long gone.
        let replay = Transaction {
            id: 999_999,
            inputs: vec![OutPoint { tx: 1, index: 0 }],
            outputs: vec![],
        };
        let rejected = ledger.validate(&replay).is_err();
        prop_assert!(rejected);
    }

    #[test]
    fn selfish_shares_are_probabilities(alpha in 0.01f64..0.49, gamma in 0.0f64..1.0) {
        let out = selfish::simulate(alpha, gamma, 20_000, 5);
        let share = out.attacker_share();
        prop_assert!((0.0..=1.0).contains(&share));
        prop_assert!((0.0..=1.0).contains(&out.orphan_rate()));
        // Closed form is monotone in gamma.
        let lo = selfish::closed_form(alpha, 0.0);
        let hi = selfish::closed_form(alpha, 1.0);
        prop_assert!(hi >= lo - 1e-12);
    }

    #[test]
    fn pastry_digits_and_prefixes_are_consistent(a in arb_key(), b in arb_key()) {
        let p = shared_prefix(&a, &b);
        prop_assert!(p <= DIGITS);
        for i in 0..p {
            prop_assert_eq!(digit(&a, i), digit(&b, i));
        }
        if p < DIGITS {
            prop_assert_ne!(digit(&a, p), digit(&b, p));
        }
        prop_assert_eq!(shared_prefix(&a, &b), shared_prefix(&b, &a));
        prop_assert_eq!(shared_prefix(&a, &a), DIGITS);
    }

    #[test]
    fn can_zone_splits_tile_and_neighbor(depth in 1usize..12, path in any::<u64>()) {
        // Walk a random split path; at every step the halves tile the
        // parent and abut each other.
        let mut zone = Zone::UNIT;
        for i in 0..depth {
            let (a, b) = zone.split();
            prop_assert!((a.area() + b.area() - zone.area()).abs() < 1e-12);
            prop_assert!(a.is_neighbor(&b));
            zone = if (path >> i) & 1 == 0 { a } else { b };
        }
        prop_assert!(zone.area() > 0.0);
        // The zone contains its own center.
        let center = [
            (zone.lo[0] + zone.hi[0]) / 2.0,
            (zone.lo[1] + zone.hi[1]) / 2.0,
        ];
        prop_assert!(zone.contains(&center));
        prop_assert_eq!(zone.distance(&center), 0.0);
    }

    #[test]
    fn fee_market_conserves_transactions(mult in 1.0f64..8.0, seed in any::<u64>()) {
        let cfg = FeeMarketConfig {
            viral_multiplier: mult,
            warmup_blocks: 20,
            viral_blocks: 40,
            cooldown_blocks: 20,
            ..FeeMarketConfig::default()
        };
        let r = simulate_congestion(&cfg, seed);
        for phase in [&r.before, &r.during, &r.after] {
            prop_assert_eq!(phase.mined + phase.failed, phase.submitted);
        }
        // Higher multipliers never *reduce* viral-phase failures
        // relative to a 1x run with the same seed.
        let calm = simulate_congestion(
            &FeeMarketConfig {
                viral_multiplier: 1.0,
                warmup_blocks: 20,
                viral_blocks: 40,
                cooldown_blocks: 20,
                ..FeeMarketConfig::default()
            },
            seed,
        );
        prop_assert!(r.during.failure_rate() >= calm.during.failure_rate() - 0.01);
    }

    #[test]
    fn pos_reversal_probability_is_valid(
        alpha in 0.05f64..0.45,
        rational in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let out = pos::simulate_pos_attack(
            &pos::PosAttack {
                attacker_stake: alpha,
                rational_fraction: rational,
                ..pos::PosAttack::default()
            },
            300,
            seed,
        );
        let p = out.reversal_probability();
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(out.reversals <= out.attempts);
    }

    #[test]
    fn zipf_pmf_sums_to_one(n in 1usize..2000, s in 0.0f64..3.0) {
        let z = decent::sim::dist::Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Monotone non-increasing mass.
        for i in 1..n {
            prop_assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Engine replay and scheduler equivalence: arbitrary interleavings of
// schedule / cancel / advance, through a whole simulation and at queue level.
// ---------------------------------------------------------------------------

mod engine_replay {
    use decent::sim::engine::NetStats;
    use decent::sim::prelude::*;

    /// Each `u64` word encodes one operation, so plain
    /// `vec(any::<u64>())` drives rich op sequences with heavy
    /// duplicate-timestamp pressure.
    pub fn word_to_delay(word: u64) -> SimDuration {
        // Low byte selects the scale; the rest selects the offset. Small
        // moduli make exact collisions (same nanosecond) common.
        let payload = word >> 8;
        let nanos = match word & 0x7 {
            0 => 0,                             // immediate: same-time ties
            1 => payload % 4,                   // sub-tick jitter
            2 => payload % 2_000_000,           // < 2 ms
            3 => payload % 80_000_000,          // < 80 ms
            4 => payload % 10_000_000_000,      // < 10 s
            5 => payload % 1_000_000_000_000,   // < ~17 min (wheel horizon)
            _ => payload % 100_000_000_000_000, // ~28 h: overflow territory
        };
        SimDuration::from_nanos(nanos)
    }

    /// A node whose behavior depends on exact delivery order: it chains
    /// the history of everything it saw, so any reordering changes the
    /// digest.
    #[derive(Default)]
    pub struct Probe {
        pub digest: u64,
        pub timer_count: u64,
    }

    impl Node for Probe {
        type Msg = u64;

        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            self.digest = self
                .digest
                .wrapping_mul(0x100000001b3)
                .wrapping_add(msg ^ from as u64 ^ ctx.now().as_nanos());
            // Re-arm a timer keyed off the message to deepen the trace.
            if msg & 0x3 == 0 {
                ctx.set_timer(word_to_delay(msg), msg);
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, u64>) {
            self.timer_count += 1;
            self.digest = self
                .digest
                .wrapping_mul(0x100000001b3)
                .wrapping_add(tag.wrapping_add(ctx.now().as_nanos()));
        }
    }

    /// Replays `words` as engine operations over network model `net` and
    /// returns the full observable outcome — the lever for proving two
    /// models observationally identical (delivery times, drop
    /// accounting, *and* RNG stream, since any extra draw shifts every
    /// later delay and therefore the digests).
    pub fn replay(
        seed: u64,
        words: &[u64],
        net: impl NetworkModel + 'static,
    ) -> (u64, Vec<u64>, NetStats) {
        let mut sim = Simulation::new(seed, net);
        let ids: Vec<NodeId> = (0..8).map(|_| sim.add_node(Probe::default())).collect();
        for &word in words {
            let node = ids[(word >> 3) as usize % ids.len()];
            match word & 0x7 {
                // Inject a message (duplicate timestamps are common).
                0..=2 => sim.inject(node, word, word_to_delay(word >> 3)),
                // Set a timer through a live handler.
                3..=4 => sim.invoke(node, |_n, ctx| {
                    ctx.set_timer(word_to_delay(word >> 3), word)
                }),
                // Cancel pending timers by bouncing the node offline
                // (epoch bump drops them), then bring it back.
                5 => {
                    sim.schedule_stop(node, sim.now() + word_to_delay(word >> 3));
                    sim.schedule_start(
                        node,
                        sim.now() + word_to_delay(word >> 3) + SimDuration::from_secs(1.0),
                    );
                }
                // Advance simulated time.
                _ => {
                    let deadline = sim.now() + word_to_delay(word >> 3);
                    sim.run_until(deadline);
                }
            }
        }
        sim.run_until(sim.now() + SimDuration::from_secs(300.0));
        let digests = ids.iter().map(|&id| sim.node(id).digest).collect();
        (sim.events_processed(), digests, sim.stats().clone())
    }
}

proptest! {
    // The timing wheel must dequeue exactly the heap's sequence under
    // arbitrary schedule / pop interleavings, then on a full drain.
    #[test]
    fn wheel_and_heap_dequeue_identical_sequences(
        times in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        use decent::sim::prelude::*;
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
        let mut now = 0u64;
        for (seq, &word) in times.iter().enumerate() {
            let seq = seq as u64;
            if word & 0xF == 0xF && !wheel.is_empty() {
                prop_assert_eq!(wheel.next_time(), heap.next_time());
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(&a, &b);
                now = a.expect("non-empty").0.as_nanos();
            } else {
                let t = SimTime::from_nanos(now + engine_replay::word_to_delay(word).as_nanos());
                wheel.schedule(t, seq, seq);
                heap.schedule(t, seq, seq);
            }
        }
        loop {
            prop_assert_eq!(wheel.next_time(), heap.next_time());
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }
}

proptest! {
    // `Faulty<M>` with an empty `FaultPlan` must be observationally
    // identical to bare `M`: same delivery times, same drop accounting,
    // and — critically — the same RNG stream. A single stray draw in
    // the no-fault fast path would shift every subsequent uniform
    // delay and change the digests, so equality here pins the
    // "zero-overhead when inactive" contract.
    #[test]
    fn empty_fault_plan_is_observationally_inert(
        seed in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        use decent::sim::prelude::*;
        use engine_replay::replay;
        let bare = || UniformLatency::from_millis(5.0, 50.0);
        let faulty = || Faulty::new(bare(), FaultPlan::new());
        prop_assert_eq!(replay(seed, &words, bare()), replay(seed, &words, faulty()));
    }
}

proptest! {
    // Each case runs a full (cheap) experiment twice, so keep the case
    // count far below the default 256.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // A one-point sweep must be the identity harness: build the
    // scenario, "set" the swept parameter to a grid holding only its
    // current value, derive point seed 0 (== the base seed), run. If
    // any of those steps perturbed the config or an RNG stream, the
    // rendered report would differ from a plain `run_report` call.
    // Cheap experiments only (the same trio the run-report tests
    // use); the property is about the harness, not the workload.
    #[test]
    fn one_point_sweep_reproduces_a_plain_run(
        which in 0usize..3,
        pick in any::<usize>(),
        seed in proptest::option::of(any::<u64>()),
    ) {
        use decent::core::sensitivity::{run_sweep, SweepSpec};
        use decent::core::scenario::{self, ExecPolicy};
        use decent::core::experiments::run_report;
        const CHEAP: [&str; 3] = ["E10", "E16", "E18"];
        let id = CHEAP[which];
        let probe = scenario::build(id, true).expect("registered id");
        let params = probe.params();
        let param = &params[pick % params.len()];
        let v = probe.get_param(param.name).expect("declared param");
        let spec = SweepSpec {
            exp: id.to_string(),
            param: param.name.to_string(),
            lo: v,
            hi: v,
            steps: 1,
        };
        let sweep = run_sweep(&spec, true, seed, 1, ExecPolicy::serial()).expect("valid sweep");
        let direct = &run_report(&[id], true, seed, 1).runs[0].report;
        prop_assert_eq!(sweep.points.len(), 1);
        prop_assert_eq!(sweep.points[0].applied, v);
        prop_assert_eq!(
            sweep.points[0].report.to_string(),
            direct.to_string(),
            "one-point sweep of {}:{} diverged from the plain run",
            id,
            param.name
        );
    }
}
