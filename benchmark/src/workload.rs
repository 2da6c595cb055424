//! Inputs: the four operation streams, the values they carry, and the
//! shadow model every reply is checked against. Everything here is a pure
//! function of `--seed` and `--seconds`; HDNH sees only the generated
//! operations.

use hdnh_common::rng::{mix64, XorShift64Star};
use hdnh_ycsb::{KeyDist, ScrambledZipfian, Uniform};

/// Preloaded ids are `0..POPULATION`; `POPULATION..` up to
/// `POPULATION + ABSENT_IDS` are never inserted.
pub const POPULATION: u32 = 1_000_000;
const ABSENT_IDS: u32 = POPULATION / 10;
/// `kv-write-grow` starts from a table sized for 50 000 records holding
/// this many, so upserts, gets and removes have something to aim at.
pub const GROW_CAPACITY: usize = 50_000;
pub const GROW_PRELOAD: u32 = 40_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Insert,
    Upsert,
    Remove,
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub id: u32,
}

/// How long a value is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueModel {
    /// 200 B (spills to the value log) when `id % 8 == 0`, else 8 B inline.
    ById,
    /// 256 B for a quarter of the (id, version) pairs, else 8 B inline.
    ByVersion,
}

impl ValueModel {
    pub fn len(self, id: u32, version: u32) -> usize {
        match self {
            ValueModel::ById if id.is_multiple_of(8) => 200,
            ValueModel::ByVersion if word(id, version).is_multiple_of(4) => 256,
            _ => 8,
        }
    }
}

/// The 8 bytes every value of `(id, version)` starts with; longer values
/// continue with `word + 1`, `word + 2`, ….
#[inline]
pub fn word(id: u32, version: u32) -> u64 {
    mix64(((version as u64) << 32) | id as u64)
}

/// Longest value any workload writes.
pub const MAX_VALUE: usize = 256;

/// Writes the value of `(id, version)` into the front of `buf` and
/// returns it.
#[inline]
pub fn fill_value(buf: &mut [u8; MAX_VALUE], len: usize, id: u32, version: u32) -> &[u8] {
    let w = word(id, version);
    for (i, chunk) in buf[..len].chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&w.wrapping_add(i as u64).to_le_bytes());
    }
    &buf[..len]
}

/// Whether `got` is exactly the value of `(id, version)`.
#[inline]
pub fn value_matches(got: &[u8], len: usize, id: u32, version: u32) -> bool {
    let w = word(id, version);
    got.len() == len
        && got
            .chunks_exact(8)
            .enumerate()
            .all(|(i, c)| c == w.wrapping_add(i as u64).to_le_bytes())
}

/// What the table must hold: a version per id. Every write takes the
/// id's next version, so a stale or resurrected value never matches.
pub struct Shadow {
    /// 0 = never written; `REMOVED` set = written, then removed.
    versions: Vec<u32>,
    pub model: ValueModel,
}

const REMOVED: u32 = 1 << 31;

impl Shadow {
    pub fn new(ids: usize, model: ValueModel) -> Shadow {
        Shadow {
            versions: vec![0; ids],
            model,
        }
    }

    /// The model of a table preloaded with ids `0..preloaded` at version 1.
    pub fn preloaded(ids: usize, preloaded: u32, model: ValueModel) -> Shadow {
        let mut shadow = Shadow::new(ids, model);
        shadow.versions[..preloaded as usize].fill(1);
        shadow
    }

    /// Ids the model covers.
    pub fn ids(&self) -> u32 {
        self.versions.len() as u32
    }

    /// The live version of `id`, if the table must hold it.
    #[inline]
    pub fn live(&self, id: u32) -> Option<u32> {
        match self.versions[id as usize] {
            0 => None,
            v if v & REMOVED != 0 => None,
            v => Some(v),
        }
    }

    /// Records a write of `id` and returns the version written.
    #[inline]
    pub fn write(&mut self, id: u32) -> u32 {
        let v = (self.versions[id as usize] & !REMOVED) + 1;
        self.versions[id as usize] = v;
        v
    }

    /// Records a remove; returns whether `id` was live.
    #[inline]
    pub fn remove(&mut self, id: u32) -> bool {
        let was_live = self.live(id).is_some();
        if was_live {
            self.versions[id as usize] |= REMOVED;
        }
        was_live
    }

    /// `(live ids, bytes of their keys and values)`.
    pub fn live_bytes(&self) -> (u64, u64) {
        let mut ids = 0;
        let mut bytes = 0;
        for id in 0..self.versions.len() as u32 {
            if let Some(v) = self.live(id) {
                ids += 1;
                bytes += (hdnh_common::KEY_LEN + self.model.len(id, v)) as u64;
            }
        }
        (ids, bytes)
    }
}

/// One stretch of a workload run with one timing unit.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Operations at the 30-second design length; scaled by `--seconds`.
    pub ops_at_30s: u64,
    /// Operations per window (one HDNH pass, then one reference pass).
    pub window: usize,
    /// Operations per timing unit: 64 in-process, the pipeline depth over
    /// the network.
    pub unit: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Which {
    ReadSkew,
    ReadUniform,
    WriteGrow,
    NetMixed,
}

impl Which {
    pub const ALL: [Which; 4] = [
        Which::ReadSkew,
        Which::ReadUniform,
        Which::WriteGrow,
        Which::NetMixed,
    ];

    /// The name `spec::WORKLOADS` gives this workload.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Which> {
        Which::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Op counts are sized so the HDNH side of each workload takes about
    /// 30 s on the 2-vCPU reference host; `--seconds` scales all four by
    /// the same factor. A window is about 5 ms of HDNH work: the host's
    /// speed wanders on a scale of tens of milliseconds, and a reference
    /// pass only cancels what it runs close enough in time to share.
    /// (Measured on `kv-read-uniform`, 5 s samples: `rel_speed` ranged over
    /// 10 % with 70 ms windows, 5 % with 7 ms, 3 % with 3.5 ms, and 19 %
    /// with 1.7 ms, where a reference pass is mostly cache warm-up.)
    pub fn phases(self) -> &'static [Phase] {
        match self {
            Which::ReadSkew => &[Phase {
                ops_at_30s: 74_000_000,
                window: 12_288,
                unit: 64,
            }],
            Which::ReadUniform => &[Phase {
                ops_at_30s: 31_000_000,
                window: 6_144,
                unit: 64,
            }],
            Which::WriteGrow => &[Phase {
                ops_at_30s: 8_000_000,
                window: 3_072,
                unit: 64,
            }],
            Which::NetMixed => &[
                Phase {
                    ops_at_30s: 12_000_000,
                    window: 4_096,
                    unit: 16,
                },
                Phase {
                    ops_at_30s: 1_000_000,
                    window: 512,
                    unit: 1,
                },
            ],
        }
    }

    pub fn model(self) -> ValueModel {
        match self {
            Which::WriteGrow => ValueModel::ByVersion,
            _ => ValueModel::ById,
        }
    }

    pub fn preload(self) -> u32 {
        match self {
            Which::WriteGrow => GROW_PRELOAD,
            _ => POPULATION,
        }
    }

    pub fn capacity(self) -> usize {
        match self {
            Which::WriteGrow => GROW_CAPACITY,
            _ => POPULATION as usize,
        }
    }

    /// `kv-write-grow` compacts the value log this many times, evenly
    /// spaced (every 2 M operations at the design length).
    pub fn compactions(self) -> u64 {
        match self {
            Which::WriteGrow => 4,
            _ => 0,
        }
    }

    /// Ids the shadow model must cover for a run of `total_ops`.
    pub fn id_space(self, total_ops: u64) -> usize {
        match self {
            // 40 % of operations insert a fresh id; half leaves room for
            // any seed, and the constant covers runs of a few operations.
            Which::WriteGrow => GROW_PRELOAD as usize + total_ops as usize / 2 + 4096,
            _ => (POPULATION + ABSENT_IDS) as usize,
        }
    }
}

/// Operations of `phase` for a run sized for `seconds`.
pub fn scaled_ops(phase: &Phase, seconds: f64) -> u64 {
    let ops = (phase.ops_at_30s as f64 * seconds / 30.0) as u64;
    // Whole timing units, at least one.
    (ops / phase.unit as u64).max(1) * phase.unit as u64
}

/// The seeded operation stream of one workload.
pub struct OpGen {
    which: Which,
    rng: XorShift64Star,
    zipf: ScrambledZipfian,
    uniform: Uniform,
    /// `kv-write-grow`: the next id never inserted before.
    next_new: u32,
}

impl OpGen {
    pub fn new(which: Which, seed: u64) -> OpGen {
        OpGen {
            which,
            // Distinct streams per workload for one seed.
            rng: XorShift64Star::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(which as u64)),
            zipf: ScrambledZipfian::new(POPULATION as u64, 0.99),
            uniform: Uniform::new(POPULATION as u64),
            next_new: which.preload(),
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        match self.which {
            Which::ReadSkew => Op {
                kind: Kind::Get,
                id: self.zipf.next_id(&mut self.rng) as u32,
            },
            Which::ReadUniform => {
                let id = if self.rng.next_below(10) == 0 {
                    POPULATION + self.rng.next_below(ABSENT_IDS)
                } else {
                    self.uniform.next_id(&mut self.rng) as u32
                };
                Op {
                    kind: Kind::Get,
                    id,
                }
            }
            Which::WriteGrow => {
                let roll = self.rng.next_below(100);
                if roll < 40 {
                    self.next_new += 1;
                    return Op {
                        kind: Kind::Insert,
                        id: self.next_new - 1,
                    };
                }
                // Any id inserted so far, removed ones included: a get of
                // a removed id must miss, an upsert brings it back.
                let id = self.rng.next_below(self.next_new);
                let kind = match roll {
                    40..=69 => Kind::Upsert,
                    70..=94 => Kind::Get,
                    _ => Kind::Remove,
                };
                Op { kind, id }
            }
            Which::NetMixed => {
                let kind = if self.rng.next_below(10) == 0 {
                    Kind::Upsert
                } else {
                    Kind::Get
                };
                Op {
                    kind,
                    id: self.zipf.next_id(&mut self.rng) as u32,
                }
            }
        }
    }

    pub fn fill(&mut self, ops: &mut Vec<Op>, n: usize) {
        ops.clear();
        ops.extend((0..n).map(|_| self.next_op()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for which in Which::ALL {
            let draw = |seed| {
                let mut g = OpGen::new(which, seed);
                (0..1000)
                    .map(|_| g.next_op())
                    .map(|o| (o.kind as u8, o.id))
                    .collect::<Vec<_>>()
            };
            assert_eq!(draw(7), draw(7), "{}", which.name());
            assert_ne!(draw(7), draw(8), "{}", which.name());
        }
    }

    #[test]
    fn values_verify_only_against_their_own_id_and_version() {
        let mut buf = [0u8; MAX_VALUE];
        for (len, id, ver) in [(8, 3, 1), (200, 8, 2), (256, 5, 9)] {
            let v = fill_value(&mut buf, len, id, ver).to_vec();
            assert!(value_matches(&v, len, id, ver));
            assert!(!value_matches(&v, len, id, ver + 1));
            assert!(!value_matches(&v, len, id + 1, ver));
            assert!(!value_matches(&v[..len - 8], len, id, ver));
        }
    }

    #[test]
    fn shadow_versions_never_repeat_across_remove() {
        let mut s = Shadow::new(4, ValueModel::ById);
        assert_eq!(s.live(1), None);
        assert_eq!(s.write(1), 1);
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert_eq!(s.live(1), None);
        assert_eq!(s.write(1), 2);
        assert_eq!(s.live(1), Some(2));
        assert_eq!(s.live_bytes(), (1, 16 + 8));
    }
}
