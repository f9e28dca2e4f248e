//! Wire-format impls for the mergeable sampler state.
//!
//! A serialized [`OasrsSampler`] carries *everything* that determines its
//! future behaviour: per-stratum reservoirs with their skip-ahead jump
//! state, the adaptive capacity plan, and the full RNG state. That is what
//! makes the distributed tier's bit-identity guarantee possible —
//! `decode(encode(sampler))` is indistinguishable from the original, so
//! merging shipped digests equals merging the in-process samplers they
//! came from, draw for draw.
//!
//! Decoders enforce the same invariants the constructors do
//! ([`Reservoir::new`] and [`OasrsSampler::new`] panic on violations;
//! the wire layer reports [`SaError::Wire`] instead) plus the
//! representation invariants a hostile payload could otherwise smuggle
//! past them: an over-full reservoir, a seen-counter below the held count,
//! out-of-order strata, or the all-zero xoshiro state the generator can
//! never reach.

use crate::oasrs::{OasrsSampler, SizingPolicy, MAX_STRATUM_ID};
use crate::reservoir::{Jump, Reservoir};
use rand::rngs::SmallRng;
use sa_types::wire::{put_u64_le, put_varint};
use sa_types::{wire_enum, wire_struct, SaError, StratumId, WireDecode, WireEncode, WireReader};

wire_struct!(Jump { skip });

// Hand-written: the item codec is chosen at run time (`encode_state_with`).
impl<T> Reservoir<T> {
    /// Encodes the reservoir's full state — capacity, seen counter, jump
    /// state, and held items — serializing each item through the caller's
    /// `item` codec. This is the state-extraction hook checkpointing uses
    /// for record types that carry their codec out-of-band; the
    /// [`WireEncode`] impl is this with `item = WireEncode::encode`.
    pub fn encode_state_with(&self, out: &mut Vec<u8>, item: &mut dyn FnMut(&T, &mut Vec<u8>)) {
        self.capacity.encode(out);
        put_varint(out, self.seen);
        self.jump.encode(out);
        put_varint(out, self.items.len() as u64);
        for v in &self.items {
            item(v, out);
        }
    }

    /// Decodes a reservoir serialized by
    /// [`encode_state_with`](Reservoir::encode_state_with), reading each
    /// item through the caller's `item` codec and enforcing the same
    /// representation invariants as the [`WireDecode`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] on malformed input, an over-full
    /// reservoir, or a seen counter below the held count.
    pub fn decode_state_with(
        r: &mut WireReader<'_>,
        item: &mut dyn FnMut(&mut WireReader<'_>) -> Result<T, SaError>,
    ) -> Result<Self, SaError> {
        let capacity = usize::decode(r)?;
        let seen = r.read_varint()?;
        let jump = Option::<Jump>::decode(r)?;
        let len = r.read_len()?;
        let mut items = Vec::with_capacity(len.min(capacity.max(1)));
        for _ in 0..len {
            items.push(item(r)?);
        }
        if capacity == 0 {
            return Err(SaError::Wire("reservoir capacity zero".to_string()));
        }
        if items.len() > capacity {
            return Err(SaError::Wire(format!(
                "reservoir holds {} items over capacity {capacity}",
                items.len()
            )));
        }
        if seen < items.len() as u64 {
            return Err(SaError::Wire(format!(
                "reservoir seen counter {seen} below held count {}",
                items.len()
            )));
        }
        Ok(Reservoir {
            items,
            capacity,
            seen,
            jump,
        })
    }
}

// Hand-written: the `*_state_with` pair above, given the item's own codec.
impl<T: WireEncode> WireEncode for Reservoir<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_state_with(out, &mut |v, out| v.encode(out));
    }
}

impl<T: WireDecode> WireDecode for Reservoir<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Reservoir::decode_state_with(r, &mut T::decode)
    }
}

wire_enum!(SizingPolicy {
    0 => PerStratum(n),
    1 => SharedTotal(n),
    2 => FractionOfPrevious { fraction, initial },
} check SizingPolicy::is_valid);

// Hand-written: the item codec is chosen at run time (`encode_state_with`).
impl<V> OasrsSampler<V> {
    /// Encodes the sampler's full state — sizing policy, every stratum
    /// reservoir with its jump state, the adaptive capacity plan, and the
    /// RNG words — serializing each held item through the caller's `item`
    /// codec. This is the state-extraction hook checkpointing uses for
    /// record types that carry their codec out-of-band; the [`WireEncode`]
    /// impl is this with `item = WireEncode::encode`.
    pub fn encode_state_with(&self, out: &mut Vec<u8>, item: &mut dyn FnMut(&V, &mut Vec<u8>)) {
        self.sizing.encode(out);
        // The sparse stratum table ships as (index, reservoir) pairs in
        // ascending index order; the flat table rebuilds on decode.
        put_varint(out, self.active as u64);
        for (idx, res) in self.live() {
            idx.encode(out);
            res.encode_state_with(out, item);
        }
        // The flat plan ships as its nonzero (stratum, capacity) entries.
        put_varint(out, self.plan().count() as u64);
        for (idx, cap) in self.plan() {
            StratumId(idx as u32).encode(out);
            cap.encode(out);
        }
        for word in self.rng.state() {
            put_u64_le(out, word);
        }
    }

    /// Decodes a sampler serialized by
    /// [`encode_state_with`](OasrsSampler::encode_state_with), reading
    /// each held item through the caller's `item` codec. The decoded
    /// sampler continues the original's random stream draw for draw.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] on malformed input or any smuggled
    /// invariant violation (out-of-order strata, zero planned capacity,
    /// the all-zero RNG state).
    pub fn decode_state_with(
        r: &mut WireReader<'_>,
        item: &mut dyn FnMut(&mut WireReader<'_>) -> Result<V, SaError>,
    ) -> Result<Self, SaError> {
        let sizing = SizingPolicy::decode(r)?;
        let present = r.read_len()?;
        let mut strata: Vec<Option<Reservoir<V>>> = Vec::new();
        let mut last_idx: Option<usize> = None;
        for _ in 0..present {
            let idx = usize::decode(r)?;
            if idx >= MAX_STRATUM_ID {
                return Err(SaError::Wire(format!("stratum index {idx} too sparse")));
            }
            if last_idx.is_some_and(|prev| idx <= prev) {
                return Err(SaError::Wire(format!(
                    "stratum indices out of order at {idx}"
                )));
            }
            last_idx = Some(idx);
            let res = Reservoir::<V>::decode_state_with(r, item)?;
            if idx >= strata.len() {
                strata.resize_with(idx + 1, || None);
            }
            strata[idx] = Some(res);
        }
        let plans = r.read_len()?;
        let mut next_capacity = Vec::new();
        let mut last_id: Option<StratumId> = None;
        for _ in 0..plans {
            let id = StratumId::decode(r)?;
            let cap = usize::decode(r)?;
            if id.index() >= MAX_STRATUM_ID {
                return Err(SaError::Wire(format!("planned stratum {id} too sparse")));
            }
            if last_id.is_some_and(|prev| id <= prev) {
                return Err(SaError::Wire(format!(
                    "capacity plan strata out of order at {id}"
                )));
            }
            if cap == 0 {
                return Err(SaError::Wire(format!("zero planned capacity for {id}")));
            }
            last_id = Some(id);
            next_capacity.resize(id.index() + 1, 0);
            next_capacity[id.index()] = cap;
        }
        let state = [
            r.read_u64_le()?,
            r.read_u64_le()?,
            r.read_u64_le()?,
            r.read_u64_le()?,
        ];
        if state == [0; 4] {
            return Err(SaError::Wire("all-zero rng state".to_string()));
        }
        Ok(OasrsSampler {
            sizing,
            strata,
            active: present,
            next_capacity,
            parked: Vec::new(),
            rng: SmallRng::from_state(state),
        })
    }
}

// Hand-written: the `*_state_with` pair above, given the item's own codec.
impl<V: WireEncode> WireEncode for OasrsSampler<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_state_with(out, &mut |v, out| v.encode(out));
    }
}

impl<V: WireDecode> WireDecode for OasrsSampler<V> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        OasrsSampler::decode_state_with(r, &mut V::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn reservoir_roundtrips_with_jump_state() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut res = Reservoir::new(4);
        for x in 0..100u32 {
            res.observe(x as f64, &mut rng);
        }
        let back = Reservoir::<f64>::from_wire_bytes(&res.to_wire_bytes()).unwrap();
        assert_eq!(back, res);
    }

    #[test]
    fn sampler_roundtrip_continues_the_same_stream() {
        // The decoded sampler must not just *look* equal: observed further,
        // it must draw the exact same random decisions.
        let mut a = OasrsSampler::new(SizingPolicy::SharedTotal(16), 9);
        for i in 0..500u32 {
            a.observe(StratumId(i % 3), f64::from(i));
        }
        let mut b = OasrsSampler::<f64>::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        assert_eq!(a, b);
        for i in 0..500u32 {
            a.observe(StratumId(i % 5), f64::from(i) * 0.5);
            b.observe(StratumId(i % 5), f64::from(i) * 0.5);
        }
        assert_eq!(a.finish_interval(), b.finish_interval());
        // Capacity plans survived too.
        assert_eq!(a, b);
    }

    #[test]
    fn hostile_sampler_payloads_rejected() {
        let mut good = OasrsSampler::new(SizingPolicy::PerStratum(2), 1);
        good.observe(StratumId(0), 1.0f64);
        let bytes = good.to_wire_bytes();
        // Every truncation errors instead of panicking.
        for cut in 0..bytes.len() {
            assert!(OasrsSampler::<f64>::from_wire_bytes(&bytes[..cut]).is_err());
        }
        // All-zero RNG state.
        let mut zeroed = bytes.clone();
        let n = zeroed.len();
        zeroed[n - 32..].fill(0);
        assert!(matches!(
            OasrsSampler::<f64>::from_wire_bytes(&zeroed),
            Err(SaError::Wire(_))
        ));
        // A planned stratum past the table bound: the flat plan would
        // allocate one slot per id below it.
        for id in [MAX_STRATUM_ID as u32, u32::MAX] {
            let mut sparse = Vec::new();
            SizingPolicy::FractionOfPrevious {
                fraction: 0.5,
                initial: 1,
            }
            .encode(&mut sparse);
            put_varint(&mut sparse, 0); // no live strata
            put_varint(&mut sparse, 1); // one planned stratum
            StratumId(id).encode(&mut sparse);
            1usize.encode(&mut sparse);
            for word in [1u64, 2, 3, 4] {
                put_u64_le(&mut sparse, word);
            }
            assert!(matches!(
                OasrsSampler::<f64>::from_wire_bytes(&sparse),
                Err(SaError::Wire(_))
            ));
        }
    }

    #[test]
    fn overfull_reservoir_rejected() {
        let mut bytes = Vec::new();
        1usize.encode(&mut bytes); // capacity 1
        put_varint(&mut bytes, 2); // seen 2
        Option::<Jump>::None.encode(&mut bytes);
        vec![1.0f64, 2.0].encode(&mut bytes); // 2 items > capacity
        assert!(matches!(
            Reservoir::<f64>::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn undercounted_reservoir_rejected() {
        let mut bytes = Vec::new();
        4usize.encode(&mut bytes); // capacity
        put_varint(&mut bytes, 1); // seen 1 < 2 held
        Option::<Jump>::None.encode(&mut bytes);
        vec![1.0f64, 2.0].encode(&mut bytes);
        assert!(matches!(
            Reservoir::<f64>::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn state_hooks_roundtrip_codec_less_records() {
        // A record type with no WireEncode/WireDecode impls: the state
        // hooks carry its codec as closures instead.
        #[derive(Debug, Clone, PartialEq)]
        struct Rec {
            t: i64,
            v: f64,
        }
        let mut a = OasrsSampler::new(SizingPolicy::SharedTotal(8), 42);
        for i in 0..300i64 {
            a.observe(
                StratumId((i % 4) as u32),
                Rec {
                    t: i,
                    v: i as f64 * 0.25,
                },
            );
        }
        let mut bytes = Vec::new();
        a.encode_state_with(&mut bytes, &mut |rec, out| {
            rec.t.encode(out);
            rec.v.encode(out);
        });
        let mut r = WireReader::new(&bytes);
        let mut b = OasrsSampler::<Rec>::decode_state_with(&mut r, &mut |r| {
            Ok(Rec {
                t: i64::decode(r)?,
                v: r.read_f64()?,
            })
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(a, b);
        // Observed further, both draw the same random decisions.
        for i in 0..300i64 {
            let rec = Rec {
                t: i,
                v: i as f64 * 0.5,
            };
            a.observe(StratumId((i % 6) as u32), rec.clone());
            b.observe(StratumId((i % 6) as u32), rec);
        }
        assert_eq!(a, b);
    }
}
