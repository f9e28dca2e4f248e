//! Synthetic sub-stream mixes — the microbenchmark inputs of §5.1.

use crate::dist::Distribution;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_aggregator::merge_by_time;
use sa_types::{EventTime, StratumId, StreamItem};

/// One synthetic sub-stream: a stratum emitting values from a distribution
/// at a given arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubStream {
    /// The stratum identity items will carry.
    pub stratum: StratumId,
    /// Arrival rate in items per second.
    pub rate_per_sec: f64,
    /// The value distribution.
    pub dist: Distribution,
}

impl SubStream {
    /// Creates a sub-stream spec.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not positive.
    pub fn new(stratum: StratumId, rate_per_sec: f64, dist: Distribution) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        SubStream {
            stratum,
            rate_per_sec,
            dist,
        }
    }

    /// Generates this sub-stream's items for `[start, start + duration)`,
    /// evenly spaced at the arrival rate with a stratum-specific phase so
    /// different sub-streams do not collide on identical timestamps.
    pub fn generate(&self, start: EventTime, duration_ms: i64, seed: u64) -> Vec<StreamItem<f64>> {
        assert!(duration_ms > 0, "duration must be positive");
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (u64::from(self.stratum.0)).wrapping_mul(0xC0FFEE));
        let n = (self.rate_per_sec * duration_ms as f64 / 1_000.0).round() as usize;
        let spacing = duration_ms as f64 / n.max(1) as f64;
        let phase = spacing * (self.stratum.0 % 7 + 1) as f64 / 8.0;
        (0..n)
            .map(|i| {
                let t = start + (phase + i as f64 * spacing) as i64;
                StreamItem::new(self.stratum, t, self.dist.sample(&mut rng))
            })
            .collect()
    }
}

/// A fully deserialized microbenchmark record (see
/// [`Mix::generate_lines`] for the wire format).
#[derive(Debug, Clone, PartialEq)]
pub struct MixRecord {
    /// Source (stratum) id.
    pub source: u32,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Event timestamp in milliseconds.
    pub timestamp: u64,
    /// The measured value.
    pub value: f64,
    /// Units attribute.
    pub units: String,
    /// Quality attribute.
    pub quality: String,
    /// Site attribute.
    pub site: String,
}

/// A mix of sub-streams forming one input stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    substreams: Vec<SubStream>,
}

impl Mix {
    /// Builds a mix from sub-stream specs.
    ///
    /// # Panics
    ///
    /// Panics if `substreams` is empty.
    pub fn new(substreams: Vec<SubStream>) -> Self {
        assert!(!substreams.is_empty(), "mix needs at least one sub-stream");
        Mix { substreams }
    }

    /// The paper's Gaussian microbenchmark (§5.1): sub-streams A, B, C with
    /// parameters `(µ=10, σ=5)`, `(µ=1000, σ=50)`, `(µ=10000, σ=500)`, at
    /// the given arrival rates (items/second).
    pub fn gaussian(rates: [f64; 3]) -> Self {
        let params = [(10.0, 5.0), (1_000.0, 50.0), (10_000.0, 500.0)];
        Mix::new(
            params
                .iter()
                .zip(rates)
                .enumerate()
                .map(|(i, (&(mean, std_dev), rate))| {
                    SubStream::new(
                        StratumId(i as u32),
                        rate,
                        Distribution::Gaussian { mean, std_dev },
                    )
                })
                .collect(),
        )
    }

    /// The paper's Poisson microbenchmark (§5.1): sub-streams with
    /// `λ = 10`, `λ = 1000`, `λ = 10⁸`.
    pub fn poisson(rates: [f64; 3]) -> Self {
        let lambdas = [10.0, 1_000.0, 100_000_000.0];
        Mix::new(
            lambdas
                .iter()
                .zip(rates)
                .enumerate()
                .map(|(i, (&lambda, rate))| {
                    SubStream::new(StratumId(i as u32), rate, Distribution::Poisson { lambda })
                })
                .collect(),
        )
    }

    /// The skewed Gaussian stream of §5.7-I: sub-stream A dominates with
    /// 80% of items (`µ=100, σ=10`), B has 19% (`µ=1000, σ=100`), C has 1%
    /// (`µ=10000, σ=1000`). `total_rate` is the combined items/second.
    pub fn gaussian_skewed(total_rate: f64) -> Self {
        Mix::new(vec![
            SubStream::new(
                StratumId(0),
                total_rate * 0.80,
                Distribution::Gaussian {
                    mean: 100.0,
                    std_dev: 10.0,
                },
            ),
            SubStream::new(
                StratumId(1),
                total_rate * 0.19,
                Distribution::Gaussian {
                    mean: 1_000.0,
                    std_dev: 100.0,
                },
            ),
            SubStream::new(
                StratumId(2),
                total_rate * 0.01,
                Distribution::Gaussian {
                    mean: 10_000.0,
                    std_dev: 1_000.0,
                },
            ),
        ])
    }

    /// The skewed Poisson stream of §5.7-II: 80% / 19.99% / 0.01% with the
    /// §5.1 lambdas (the 0.01% sub-stream carries `λ = 10⁸` — the long
    /// tail SRS overlooks).
    pub fn poisson_skewed(total_rate: f64) -> Self {
        Mix::new(vec![
            SubStream::new(
                StratumId(0),
                total_rate * 0.80,
                Distribution::Poisson { lambda: 10.0 },
            ),
            SubStream::new(
                StratumId(1),
                total_rate * 0.1999,
                Distribution::Poisson { lambda: 1_000.0 },
            ),
            SubStream::new(
                StratumId(2),
                (total_rate * 0.0001).max(0.2),
                Distribution::Poisson {
                    lambda: 100_000_000.0,
                },
            ),
        ])
    }

    /// The sub-stream specs.
    pub fn substreams(&self) -> &[SubStream] {
        &self.substreams
    }

    /// Generates the merged, time-ordered stream for `[0, duration)`.
    pub fn generate(&self, duration_ms: i64, seed: u64) -> Vec<StreamItem<f64>> {
        let parts = self
            .substreams
            .iter()
            .map(|s| s.generate(EventTime::from_millis(0), duration_ms, seed))
            .collect();
        merge_by_time(parts)
    }

    /// Generates the merged stream in the aggregator's wire format: each
    /// item serialized as a CSV record
    /// (`source,sequence,timestamp_ms,value,checksum`), the way items
    /// arrive from Kafka before deserialization. Queries over this form pay
    /// a full record parse per aggregated item — which is exactly the work
    /// StreamApprox's pre-dataset sampling avoids for unsampled items.
    pub fn generate_lines(&self, duration_ms: i64, seed: u64) -> Vec<StreamItem<String>> {
        self.generate(duration_ms, seed)
            .into_iter()
            .enumerate()
            .map(|(seq, item)| {
                let checksum =
                    (item.stratum.0 as u64 ^ seq as u64 ^ item.time.as_millis() as u64) & 0xFFFF;
                let line = format!(
                    "sensor-{src:04},{seq},{ts},{v:.6},units=items;quality=good;site=edge-{src},{sum:04x}",
                    src = item.stratum.0,
                    seq = seq,
                    ts = item.time.as_millis(),
                    v = item.value,
                    sum = checksum,
                );
                StreamItem::new(item.stratum, item.time, line)
            })
            .collect()
    }

    /// Deserializes a record produced by [`Mix::generate_lines`] into a
    /// [`MixRecord`], validating every field including the checksum — the
    /// per-record work a consumer of the aggregator performs before it can
    /// aggregate anything (the Rust stand-in for the JVM/Kafka
    /// deserialization the paper's systems pay per item).
    ///
    /// # Panics
    ///
    /// Panics on a malformed or corrupted record (the generator never
    /// produces one).
    pub fn parse_record(line: &str) -> MixRecord {
        let mut fields = line.split(',');
        let source_field = fields.next().expect("record source field");
        let source: u32 = source_field
            .strip_prefix("sensor-")
            .and_then(|f| f.parse().ok())
            .expect("record source id");
        let seq: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("record sequence field");
        let timestamp: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("record timestamp field");
        let value: f64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("record value field");
        let attributes_field = fields.next().expect("record attributes field");
        let mut units = None;
        let mut quality = None;
        let mut site = None;
        for pair in attributes_field.split(';') {
            match pair.split_once('=') {
                Some(("units", v)) => units = Some(v.to_string()),
                Some(("quality", v)) => quality = Some(v.to_string()),
                Some(("site", v)) => site = Some(v.to_string()),
                _ => panic!("unknown record attribute {pair:?}"),
            }
        }
        let checksum = fields
            .next()
            .and_then(|f| u64::from_str_radix(f, 16).ok())
            .expect("record checksum field");
        assert_eq!(
            checksum,
            (u64::from(source) ^ seq ^ timestamp) & 0xFFFF,
            "corrupted record"
        );
        MixRecord {
            source,
            seq,
            timestamp,
            value,
            units: units.expect("units attribute"),
            quality: quality.expect("quality attribute"),
            site: site.expect("site attribute"),
        }
    }

    /// Deserializes a record and projects its value (the common case for
    /// sum/mean queries).
    ///
    /// # Panics
    ///
    /// Panics on a malformed record; see [`Mix::parse_record`].
    pub fn parse_line(line: &str) -> f64 {
        Self::parse_record(line).value
    }

    /// Generates the stream with per-sub-stream rates overridden — used by
    /// the varying-arrival-rate experiment (Figure 5a's `A:B:C` settings).
    ///
    /// # Panics
    ///
    /// Panics if `rates` does not match the number of sub-streams.
    pub fn generate_with_rates(
        &self,
        rates: &[f64],
        duration_ms: i64,
        seed: u64,
    ) -> Vec<StreamItem<f64>> {
        assert_eq!(
            rates.len(),
            self.substreams.len(),
            "one rate per sub-stream required"
        );
        let parts = self
            .substreams
            .iter()
            .zip(rates)
            .map(|(s, &rate)| {
                SubStream::new(s.stratum, rate, s.dist).generate(
                    EventTime::from_millis(0),
                    duration_ms,
                    seed,
                )
            })
            .collect();
        merge_by_time(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substream_respects_rate() {
        let s = SubStream::new(
            StratumId(0),
            500.0,
            Distribution::Uniform {
                low: 0.0,
                high: 1.0,
            },
        );
        let items = s.generate(EventTime::from_millis(0), 4_000, 1);
        assert_eq!(items.len(), 2_000);
        for it in &items {
            assert!(it.time >= EventTime::from_millis(0));
            assert!(it.time < EventTime::from_millis(4_000));
        }
    }

    #[test]
    fn substream_items_are_time_ordered() {
        let s = SubStream::new(
            StratumId(3),
            1_234.0,
            Distribution::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            },
        );
        let items = s.generate(EventTime::from_secs(10), 2_000, 2);
        for w in items.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(items[0].time >= EventTime::from_secs(10));
    }

    #[test]
    fn gaussian_mix_matches_paper_setup() {
        let mix = Mix::gaussian([8_000.0, 2_000.0, 100.0]);
        let stream = mix.generate(1_000, 3);
        assert_eq!(stream.len(), 8_000 + 2_000 + 100);
        let count = |k: u32| stream.iter().filter(|i| i.stratum == StratumId(k)).count();
        assert_eq!(count(0), 8_000);
        assert_eq!(count(1), 2_000);
        assert_eq!(count(2), 100);
        // Merged stream is time-ordered.
        for w in stream.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn gaussian_substream_values_center_on_means() {
        let mix = Mix::gaussian([1_000.0, 1_000.0, 1_000.0]);
        let stream = mix.generate(10_000, 4);
        for (k, expected) in [(0u32, 10.0), (1, 1_000.0), (2, 10_000.0)] {
            let vals: Vec<f64> = stream
                .iter()
                .filter(|i| i.stratum == StratumId(k))
                .map(|i| i.value)
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            assert!(
                (mean - expected).abs() / expected < 0.05,
                "stratum {k}: mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn skewed_mix_has_dominant_substream() {
        let mix = Mix::gaussian_skewed(10_000.0);
        let stream = mix.generate(1_000, 5);
        let a = stream.iter().filter(|i| i.stratum == StratumId(0)).count() as f64;
        let c = stream.iter().filter(|i| i.stratum == StratumId(2)).count() as f64;
        let total = stream.len() as f64;
        assert!((a / total - 0.80).abs() < 0.01);
        assert!((c / total - 0.01).abs() < 0.005);
    }

    #[test]
    fn poisson_skewed_keeps_rare_substream_alive() {
        let mix = Mix::poisson_skewed(10_000.0);
        // Even at 0.01%, sub-stream C must appear over a long enough window.
        let stream = mix.generate(10_000, 6);
        let c = stream.iter().filter(|i| i.stratum == StratumId(2)).count();
        assert!(c >= 2, "rare sub-stream produced {c} items");
    }

    #[test]
    fn rate_override_changes_counts() {
        let mix = Mix::gaussian([1.0, 1.0, 1.0]);
        let stream = mix.generate_with_rates(&[100.0, 2_000.0, 8_000.0], 1_000, 7);
        let count = |k: u32| stream.iter().filter(|i| i.stratum == StratumId(k)).count();
        assert_eq!(count(0), 100);
        assert_eq!(count(1), 2_000);
        assert_eq!(count(2), 8_000);
    }

    #[test]
    fn lines_roundtrip_values() {
        let mix = Mix::gaussian([300.0, 300.0, 300.0]);
        let records = mix.generate(1_000, 9);
        let lines = mix.generate_lines(1_000, 9);
        assert_eq!(records.len(), lines.len());
        for (r, l) in records.iter().zip(&lines) {
            assert!((Mix::parse_line(&l.value) - r.value).abs() < 1e-5);
            assert_eq!(r.stratum, l.stratum);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mix = Mix::gaussian([500.0, 500.0, 500.0]);
        assert_eq!(mix.generate(1_000, 42), mix.generate(1_000, 42));
        assert_ne!(mix.generate(1_000, 42), mix.generate(1_000, 43));
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_rejected() {
        let _ = SubStream::new(
            StratumId(0),
            0.0,
            Distribution::Uniform {
                low: 0.0,
                high: 1.0,
            },
        );
    }
}
