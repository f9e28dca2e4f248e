//! Synthetic NetFlow traces — the CAIDA substitute for the network-traffic
//! case study (§6.2).
//!
//! The paper replays 670 GB of CAIDA 2015 backbone traces converted to
//! NetFlow records, containing 115,472,322 TCP, 67,098,852 UDP and
//! 2,801,002 ICMP flows, and asks for the total traffic size per protocol
//! per sliding window. The traces are not redistributable, so this module
//! generates records with the same stratum structure: per-protocol arrival
//! shares matching the trace's flow-count proportions, and heavy-tailed
//! (log-normal) flow sizes. The query's difficulty — a rare ICMP stratum
//! (~1.5% of flows) that SRS tends to under-sample — is preserved.

use crate::dist::Distribution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_aggregator::merge_by_time;
use sa_types::{EventTime, StratumId, StreamItem};
use std::fmt;
use std::str::FromStr;

/// Transport protocol of a flow — the stratification criterion of the case
/// study ("measure the TCP, UDP, and ICMP network traffic over time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
    /// Internet Control Message Protocol.
    Icmp,
}

impl Protocol {
    /// All protocols, in stratum order.
    pub const ALL: [Protocol; 3] = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp];

    /// The stratum id this protocol maps to.
    pub fn stratum(self) -> StratumId {
        match self {
            Protocol::Tcp => StratumId(0),
            Protocol::Udp => StratumId(1),
            Protocol::Icmp => StratumId(2),
        }
    }

    /// Share of flows in the CAIDA-derived dataset
    /// (115,472,322 : 67,098,852 : 2,801,002).
    pub fn flow_share(self) -> f64 {
        const TCP: f64 = 115_472_322.0;
        const UDP: f64 = 67_098_852.0;
        const ICMP: f64 = 2_801_002.0;
        const TOTAL: f64 = TCP + UDP + ICMP;
        match self {
            Protocol::Tcp => TCP / TOTAL,
            Protocol::Udp => UDP / TOTAL,
            Protocol::Icmp => ICMP / TOTAL,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Icmp => write!(f, "ICMP"),
        }
    }
}

impl FromStr for Protocol {
    type Err = ParseRecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "TCP" => Ok(Protocol::Tcp),
            "UDP" => Ok(Protocol::Udp),
            "ICMP" => Ok(Protocol::Icmp),
            _ => Err(ParseRecordError),
        }
    }
}

/// Failed to parse a serialized record line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseRecordError;

impl fmt::Display for ParseRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed record line")
    }
}

impl std::error::Error for ParseRecordError {}

/// One NetFlow record, trimmed to the fields the case study keeps (§6.2:
/// "removed unused fields (such as source and destination ports, duration,
/// etc.)").
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Transport protocol (the stratum).
    pub protocol: Protocol,
    /// Source IPv4 address.
    pub src_addr: u32,
    /// Destination IPv4 address.
    pub dst_addr: u32,
    /// Packet count of the flow.
    pub packets: u32,
    /// Total bytes of the flow — the value the query sums.
    pub bytes: u64,
}

impl FlowRecord {
    /// Serializes to the on-wire line format the replay tool ships
    /// (`proto,src,dst,packets,bytes`). Parsing this back is the per-item
    /// work a real deployment pays per record, which the runners include.
    pub fn to_line(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.protocol, self.src_addr, self.dst_addr, self.packets, self.bytes
        )
    }

    /// Parses a line produced by [`FlowRecord::to_line`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseRecordError`] if the line has the wrong number of
    /// fields or a field fails to parse.
    pub fn parse_line(line: &str) -> Result<FlowRecord, ParseRecordError> {
        let mut parts = line.split(',');
        let mut next = || parts.next().ok_or(ParseRecordError);
        let protocol: Protocol = next()?.parse()?;
        let src_addr = next()?.parse().map_err(|_| ParseRecordError)?;
        let dst_addr = next()?.parse().map_err(|_| ParseRecordError)?;
        let packets = next()?.parse().map_err(|_| ParseRecordError)?;
        let bytes = next()?.parse().map_err(|_| ParseRecordError)?;
        if parts.next().is_some() {
            return Err(ParseRecordError);
        }
        Ok(FlowRecord {
            protocol,
            src_addr,
            dst_addr,
            packets,
            bytes,
        })
    }
}

/// Generates the synthetic NetFlow stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFlowGenerator {
    /// Combined arrival rate over all protocols, flows per second.
    pub total_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl NetFlowGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `total_rate` is not positive.
    pub fn new(total_rate: f64, seed: u64) -> Self {
        assert!(total_rate > 0.0, "arrival rate must be positive");
        NetFlowGenerator { total_rate, seed }
    }

    fn size_distribution(protocol: Protocol) -> Distribution {
        // Heavy-tailed flow sizes; TCP flows are largest, ICMP smallest.
        match protocol {
            Protocol::Tcp => Distribution::LogNormal {
                mu: 8.0,
                sigma: 1.6,
            },
            Protocol::Udp => Distribution::LogNormal {
                mu: 6.0,
                sigma: 1.2,
            },
            Protocol::Icmp => Distribution::LogNormal {
                mu: 4.5,
                sigma: 0.5,
            },
        }
    }

    /// Generates the merged, time-ordered stream of serialized flow lines
    /// for `[0, duration_ms)`. Records are shipped as lines, mirroring how
    /// they arrive from the aggregator; runners parse them per item.
    pub fn generate_lines(&self, duration_ms: i64) -> Vec<StreamItem<String>> {
        self.generate(duration_ms)
            .into_iter()
            .map(|item| {
                let line = item.value.to_line();
                StreamItem::new(item.stratum, item.time, line)
            })
            .collect()
    }

    /// Generates the merged, time-ordered stream of parsed records for
    /// `[0, duration_ms)`.
    pub fn generate(&self, duration_ms: i64) -> Vec<StreamItem<FlowRecord>> {
        assert!(duration_ms > 0, "duration must be positive");
        let parts = Protocol::ALL
            .iter()
            .map(|&protocol| {
                let rate = self.total_rate * protocol.flow_share();
                let n = (rate * duration_ms as f64 / 1_000.0).round().max(1.0) as usize;
                let spacing = duration_ms as f64 / n as f64;
                let phase = spacing * (protocol.stratum().0 % 7 + 1) as f64 / 8.0;
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ u64::from(protocol.stratum().0).wrapping_mul(0xF10E5),
                );
                let size_dist = Self::size_distribution(protocol);
                (0..n)
                    .map(|i| {
                        let t = EventTime::from_millis((phase + i as f64 * spacing) as i64);
                        let bytes = size_dist.sample(&mut rng).max(40.0) as u64;
                        let packets = ((bytes / 800) + 1) as u32;
                        let record = FlowRecord {
                            protocol,
                            src_addr: rng.gen(),
                            dst_addr: rng.gen(),
                            packets,
                            bytes,
                        };
                        StreamItem::new(protocol.stratum(), t, record)
                    })
                    .collect()
            })
            .collect();
        merge_by_time(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_roundtrip() {
        let record = FlowRecord {
            protocol: Protocol::Udp,
            src_addr: 0xC0A8_0001,
            dst_addr: 0x0A00_0001,
            packets: 17,
            bytes: 13_337,
        };
        let parsed = FlowRecord::parse_line(&record.to_line()).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "TCP,1,2,3",
            "TCP,1,2,3,4,5",
            "GRE,1,2,3,4",
            "TCP,x,2,3,4",
        ] {
            assert!(FlowRecord::parse_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shares_match_caida_proportions() {
        let total: f64 = Protocol::ALL.iter().map(|p| p.flow_share()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((Protocol::Tcp.flow_share() - 0.623).abs() < 0.01);
        assert!((Protocol::Icmp.flow_share() - 0.0151).abs() < 0.002);
    }

    #[test]
    fn generator_respects_proportions() {
        let stream = NetFlowGenerator::new(50_000.0, 1).generate(1_000);
        let total = stream.len() as f64;
        for p in Protocol::ALL {
            let share = stream.iter().filter(|i| i.stratum == p.stratum()).count() as f64 / total;
            assert!(
                (share - p.flow_share()).abs() < 0.01,
                "{p}: {share} vs {}",
                p.flow_share()
            );
        }
    }

    #[test]
    fn stream_is_time_ordered_and_in_range() {
        let stream = NetFlowGenerator::new(10_000.0, 2).generate(2_000);
        for w in stream.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for i in &stream {
            assert!(i.time >= EventTime::from_millis(0));
            assert!(i.time < EventTime::from_millis(2_000));
        }
    }

    #[test]
    fn tcp_flows_dwarf_icmp_flows() {
        let stream = NetFlowGenerator::new(30_000.0, 3).generate(1_000);
        let avg = |p: Protocol| {
            let flows: Vec<u64> = stream
                .iter()
                .filter(|i| i.stratum == p.stratum())
                .map(|i| i.value.bytes)
                .collect();
            flows.iter().sum::<u64>() as f64 / flows.len() as f64
        };
        assert!(avg(Protocol::Tcp) > 5.0 * avg(Protocol::Icmp));
    }

    #[test]
    fn lines_parse_back_to_records() {
        let generator = NetFlowGenerator::new(1_000.0, 4);
        let records = generator.generate(500);
        let lines = generator.generate_lines(500);
        assert_eq!(records.len(), lines.len());
        for (r, l) in records.iter().zip(&lines) {
            assert_eq!(FlowRecord::parse_line(&l.value).unwrap(), r.value);
            assert_eq!(r.stratum, l.stratum);
            assert_eq!(r.time, l.time);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = NetFlowGenerator::new(5_000.0, 7).generate(1_000);
        let b = NetFlowGenerator::new(5_000.0, 7).generate(1_000);
        assert_eq!(a, b);
    }
}
