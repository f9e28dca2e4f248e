//! Round-trip property tests for the sampler wire format.
//!
//! The distributed tier's correctness rests on one guarantee: a sampler
//! that crossed the wire is *the same sampler* — not just equal-looking,
//! but continuing the identical random stream and merging identically.
//! These properties drive samplers through arbitrary fill/shrink/merge
//! histories and check `decode(encode(x))` against `x` in all three
//! senses: structural equality, future draws, and merge results.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_sampling::{OasrsSampler, Reservoir, SizingPolicy};
use sa_types::{StratumId, WireDecode, WireEncode};

/// Builds a reservoir by replaying a history of observe/shrink/grow ops.
fn build_reservoir(history: &[(u8, u32)], cap: usize, rng: &mut SmallRng) -> Reservoir<f64> {
    let mut res = Reservoir::new(cap);
    for &(op, arg) in history {
        match op % 4 {
            // Observe a run of items (op 0 and 1: twice as likely).
            0 | 1 => {
                for x in 0..(arg % 64) {
                    res.observe(f64::from(x) + f64::from(arg), rng);
                }
            }
            2 => res.shrink_to((arg as usize % cap).max(1), rng),
            _ => res.grow_to(arg as usize % (2 * cap) + 1),
        }
    }
    res
}

/// Picks a sizing policy from two random knobs.
fn pick_policy(kind: u8, n: usize) -> SizingPolicy {
    match kind % 3 {
        0 => SizingPolicy::PerStratum(n),
        1 => SizingPolicy::SharedTotal(n * 4),
        _ => SizingPolicy::FractionOfPrevious {
            fraction: 0.05 + f64::from(kind) / 512.0,
            initial: n,
        },
    }
}

/// Builds an OASRS sampler by replaying observe/finish-interval ops.
fn build_oasrs(history: &[(u8, u32)], policy: SizingPolicy, seed: u64) -> OasrsSampler<f64> {
    let mut s = OasrsSampler::new(policy, seed);
    for &(op, arg) in history {
        if op % 8 == 7 {
            // Interval boundary: exercises the FractionOfPrevious plan.
            let _ = s.finish_interval();
        } else {
            for x in 0..(arg % 48) {
                s.observe(StratumId(x % 5), f64::from(x ^ arg));
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A reservoir with an arbitrary fill/shrink/grow history round-trips
    /// exactly, and the decoded copy draws the same future stream.
    #[test]
    fn reservoir_roundtrip_preserves_future_draws(
        history in proptest::collection::vec((0u8..4, 0u32..1_000), 0..12),
        cap in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let res = build_reservoir(&history, cap, &mut rng);
        let mut back = Reservoir::<f64>::from_wire_bytes(&res.to_wire_bytes()).unwrap();
        let mut orig = res;
        prop_assert_eq!(&back, &orig);
        // Continue both with identical input and a shared RNG stream: the
        // *states* being equal must make the futures equal too.
        let mut ra = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let mut rb = SmallRng::seed_from_u64(seed ^ 0xABCD);
        for x in 0..200u32 {
            orig.observe(f64::from(x), &mut ra);
            back.observe(f64::from(x), &mut rb);
        }
        prop_assert_eq!(&back, &orig);
        prop_assert_eq!(ra, rb, "rng draw counts diverged");
    }

    /// encode→decode→merge is bit-identical to merging the originals, for
    /// reservoirs with arbitrary histories on both sides.
    #[test]
    fn reservoir_decode_then_merge_equals_merging_originals(
        ha in proptest::collection::vec((0u8..4, 0u32..1_000), 0..10),
        hb in proptest::collection::vec((0u8..4, 0u32..1_000), 0..10),
        cap in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = build_reservoir(&ha, cap, &mut rng);
        let b = build_reservoir(&hb, cap, &mut rng);
        let a2 = Reservoir::<f64>::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        let b2 = Reservoir::<f64>::from_wire_bytes(&b.to_wire_bytes()).unwrap();
        let mut m1 = SmallRng::seed_from_u64(seed ^ 1);
        let mut m2 = SmallRng::seed_from_u64(seed ^ 1);
        let merged_orig = a.merge_with(b, cap, &mut m1);
        let merged_wire = a2.merge_with(b2, cap, &mut m2);
        prop_assert_eq!(merged_wire, merged_orig);
    }

    /// An OASRS sampler with an arbitrary multi-interval history under any
    /// sizing policy round-trips exactly — including RNG and capacity
    /// plans — so decode-then-merge equals merging the originals.
    #[test]
    fn oasrs_decode_then_merge_equals_merging_originals(
        ha in proptest::collection::vec((0u8..8, 0u32..1_000), 0..10),
        hb in proptest::collection::vec((0u8..8, 0u32..1_000), 0..10),
        kind in any::<u8>(),
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let policy = pick_policy(kind, n);
        let a = build_oasrs(&ha, policy, seed);
        let b = build_oasrs(&hb, policy, seed ^ 0x5555);
        let a2 = OasrsSampler::<f64>::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        let b2 = OasrsSampler::<f64>::from_wire_bytes(&b.to_wire_bytes()).unwrap();
        prop_assert_eq!(&a2, &a);
        prop_assert_eq!(&b2, &b);
        let mut merged_orig = a;
        merged_orig.merge_with(b);
        let mut merged_wire = a2;
        merged_wire.merge_with(b2);
        prop_assert_eq!(&merged_wire, &merged_orig);
        // And the merged samplers still agree after finishing the interval.
        prop_assert_eq!(merged_wire.finish_interval(), merged_orig.finish_interval());
    }
}
