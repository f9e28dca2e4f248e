//! Synthetic New York taxi rides — the DEBS-2015 substitute for the taxi
//! analytics case study (§6.3).
//!
//! The paper replays the DEBS 2015 Grand Challenge dataset (itineraries of
//! 10,000 NYC taxis in 2013), maps each trip's start coordinates to one of
//! the six boroughs, and asks for the average trip distance per borough per
//! sliding window. This module generates rides with that structure: borough
//! shares dominated by Manhattan, and per-borough log-normal trip-distance
//! distributions (outer-borough trips run longer).

use crate::dist::Distribution;
use crate::netflow::ParseRecordError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_aggregator::merge_by_time;
use sa_types::{EventTime, StratumId, StreamItem};
use std::fmt;
use std::str::FromStr;

/// A New York borough (plus Newark/EWR trips, which the DEBS mapping folds
/// into a sixth zone) — the stratification criterion of the case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Borough {
    /// Manhattan.
    Manhattan,
    /// Brooklyn.
    Brooklyn,
    /// Queens.
    Queens,
    /// The Bronx.
    Bronx,
    /// Staten Island.
    StatenIsland,
    /// Newark airport zone.
    Newark,
}

impl Borough {
    /// All boroughs, in stratum order.
    pub const ALL: [Borough; 6] = [
        Borough::Manhattan,
        Borough::Brooklyn,
        Borough::Queens,
        Borough::Bronx,
        Borough::StatenIsland,
        Borough::Newark,
    ];

    /// The stratum id this borough maps to.
    pub fn stratum(self) -> StratumId {
        StratumId(self as u32)
    }

    /// Share of trips starting in this borough (Manhattan dominates yellow
    /// cab pickups overwhelmingly in the 2013 data).
    pub fn trip_share(self) -> f64 {
        match self {
            Borough::Manhattan => 0.770,
            Borough::Brooklyn => 0.110,
            Borough::Queens => 0.080,
            Borough::Bronx => 0.025,
            Borough::StatenIsland => 0.010,
            Borough::Newark => 0.005,
        }
    }

    /// The log-normal parameters of this borough's trip distances (miles):
    /// Manhattan hops are short; airport/outer-borough trips run long.
    fn distance_distribution(self) -> Distribution {
        match self {
            Borough::Manhattan => Distribution::LogNormal {
                mu: 0.75,
                sigma: 0.55,
            },
            Borough::Brooklyn => Distribution::LogNormal {
                mu: 1.20,
                sigma: 0.60,
            },
            Borough::Queens => Distribution::LogNormal {
                mu: 2.10,
                sigma: 0.45,
            },
            Borough::Bronx => Distribution::LogNormal {
                mu: 1.60,
                sigma: 0.55,
            },
            Borough::StatenIsland => Distribution::LogNormal {
                mu: 2.30,
                sigma: 0.40,
            },
            Borough::Newark => Distribution::LogNormal {
                mu: 2.80,
                sigma: 0.30,
            },
        }
    }
}

impl fmt::Display for Borough {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Borough::Manhattan => "Manhattan",
            Borough::Brooklyn => "Brooklyn",
            Borough::Queens => "Queens",
            Borough::Bronx => "Bronx",
            Borough::StatenIsland => "StatenIsland",
            Borough::Newark => "Newark",
        };
        write!(f, "{name}")
    }
}

impl FromStr for Borough {
    type Err = ParseRecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Manhattan" => Ok(Borough::Manhattan),
            "Brooklyn" => Ok(Borough::Brooklyn),
            "Queens" => Ok(Borough::Queens),
            "Bronx" => Ok(Borough::Bronx),
            "StatenIsland" => Ok(Borough::StatenIsland),
            "Newark" => Ok(Borough::Newark),
            _ => Err(ParseRecordError),
        }
    }
}

/// One taxi ride record, trimmed to the fields the query touches.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxiRide {
    /// Borough the trip started in (the stratum).
    pub borough: Borough,
    /// Taxi medallion number.
    pub medallion: u32,
    /// Trip distance in miles — the value the query averages.
    pub distance_miles: f64,
    /// Fare in cents.
    pub fare_cents: u32,
}

impl TaxiRide {
    /// Serializes to the replayed line format
    /// (`borough,medallion,distance,fare`).
    pub fn to_line(&self) -> String {
        format!(
            "{},{},{:.3},{}",
            self.borough, self.medallion, self.distance_miles, self.fare_cents
        )
    }

    /// Parses a line produced by [`TaxiRide::to_line`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseRecordError`] on a malformed line.
    pub fn parse_line(line: &str) -> Result<TaxiRide, ParseRecordError> {
        let mut parts = line.split(',');
        let mut next = || parts.next().ok_or(ParseRecordError);
        let borough: Borough = next()?.parse()?;
        let medallion = next()?.parse().map_err(|_| ParseRecordError)?;
        let distance_miles = next()?.parse().map_err(|_| ParseRecordError)?;
        let fare_cents = next()?.parse().map_err(|_| ParseRecordError)?;
        if parts.next().is_some() {
            return Err(ParseRecordError);
        }
        Ok(TaxiRide {
            borough,
            medallion,
            distance_miles,
            fare_cents,
        })
    }
}

/// Generates the synthetic taxi-ride stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxiGenerator {
    /// Combined arrival rate over all boroughs, rides per second.
    pub total_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TaxiGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `total_rate` is not positive.
    pub fn new(total_rate: f64, seed: u64) -> Self {
        assert!(total_rate > 0.0, "arrival rate must be positive");
        TaxiGenerator { total_rate, seed }
    }

    /// Generates the merged, time-ordered ride stream for
    /// `[0, duration_ms)`.
    pub fn generate(&self, duration_ms: i64) -> Vec<StreamItem<TaxiRide>> {
        assert!(duration_ms > 0, "duration must be positive");
        let parts = Borough::ALL
            .iter()
            .map(|&borough| {
                let rate = self.total_rate * borough.trip_share();
                let n = (rate * duration_ms as f64 / 1_000.0).round().max(1.0) as usize;
                let spacing = duration_ms as f64 / n as f64;
                let phase = spacing * (borough.stratum().0 % 7 + 1) as f64 / 8.0;
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ u64::from(borough.stratum().0).wrapping_mul(0x7AC51),
                );
                let dist = borough.distance_distribution();
                (0..n)
                    .map(|i| {
                        let t = EventTime::from_millis((phase + i as f64 * spacing) as i64);
                        let distance_miles = dist.sample(&mut rng).min(100.0);
                        let fare_cents = (250.0 + distance_miles * 250.0) as u32;
                        let ride = TaxiRide {
                            borough,
                            medallion: rng.gen_range(0..10_000),
                            distance_miles,
                            fare_cents,
                        };
                        StreamItem::new(borough.stratum(), t, ride)
                    })
                    .collect()
            })
            .collect();
        merge_by_time(parts)
    }

    /// Generates the stream as serialized lines (the replayed wire format).
    pub fn generate_lines(&self, duration_ms: i64) -> Vec<StreamItem<String>> {
        self.generate(duration_ms)
            .into_iter()
            .map(|item| {
                let line = item.value.to_line();
                StreamItem::new(item.stratum, item.time, line)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ride_line_roundtrip() {
        let ride = TaxiRide {
            borough: Borough::Queens,
            medallion: 4_217,
            distance_miles: 8.125,
            fare_cents: 2_281,
        };
        let parsed = TaxiRide::parse_line(&ride.to_line()).unwrap();
        assert_eq!(parsed.borough, ride.borough);
        assert_eq!(parsed.medallion, ride.medallion);
        assert!((parsed.distance_miles - ride.distance_miles).abs() < 1e-3);
        assert_eq!(parsed.fare_cents, ride.fare_cents);
    }

    #[test]
    fn malformed_ride_lines_rejected() {
        for bad in ["", "Gotham,1,2.0,3", "Queens,1,2.0", "Queens,1,2.0,3,4"] {
            assert!(TaxiRide::parse_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shares_sum_to_one_and_manhattan_dominates() {
        let total: f64 = Borough::ALL.iter().map(|b| b.trip_share()).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(Borough::Manhattan.trip_share() > 0.5);
    }

    #[test]
    fn six_strata_all_present() {
        let stream = TaxiGenerator::new(20_000.0, 1).generate(1_000);
        for b in Borough::ALL {
            let count = stream.iter().filter(|i| i.stratum == b.stratum()).count();
            assert!(count > 0, "{b} missing");
        }
        let strata: std::collections::BTreeSet<u32> = stream.iter().map(|i| i.stratum.0).collect();
        assert_eq!(strata.len(), 6);
    }

    #[test]
    fn manhattan_trips_are_shortest_on_average() {
        let stream = TaxiGenerator::new(50_000.0, 2).generate(1_000);
        let avg = |b: Borough| {
            let d: Vec<f64> = stream
                .iter()
                .filter(|i| i.stratum == b.stratum())
                .map(|i| i.value.distance_miles)
                .collect();
            d.iter().sum::<f64>() / d.len() as f64
        };
        let manhattan = avg(Borough::Manhattan);
        for b in [Borough::Queens, Borough::StatenIsland, Borough::Newark] {
            assert!(manhattan < avg(b), "{b} shorter than Manhattan");
        }
    }

    #[test]
    fn stream_is_time_ordered() {
        let stream = TaxiGenerator::new(5_000.0, 3).generate(2_000);
        for w in stream.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn rare_boroughs_still_appear_per_window() {
        // Newark is 0.5% of trips; at 10k rides/s a 1-second window should
        // still contain dozens — the "minority stratum" the paper's
        // stratified samplers must not overlook.
        let stream = TaxiGenerator::new(10_000.0, 4).generate(1_000);
        let newark = stream
            .iter()
            .filter(|i| i.stratum == Borough::Newark.stratum())
            .count();
        assert!(newark >= 10, "only {newark} Newark rides");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TaxiGenerator::new(1_000.0, 9).generate(500);
        let b = TaxiGenerator::new(1_000.0, 9).generate(500);
        assert_eq!(a, b);
    }
}
