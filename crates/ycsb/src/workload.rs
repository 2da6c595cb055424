//! Operation mixes and pre-generated op streams.
//!
//! The paper's methodology (§4.1): preload the table, then run a fixed
//! number of operations whose keys were "pre-generated by the benchmark
//! before our testing". [`generate_ops`] reproduces that: given a mix, a
//! preloaded id range and a seed, it emits a deterministic operation vector
//! the harness replays under timing.

use hdnh_common::rng::XorShift64Star;
use hdnh_common::{HashIndex, Value};

use crate::dist::{KeyDist, Latest, ScrambledZipfian, Uniform, Zipfian};
use crate::keys::KeySpace;

/// One benchmark operation over abstract record ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point lookup of an existing id.
    Read(u64),

    /// Point lookup of an id that was never inserted (negative search).
    ReadAbsent(u64),
    /// Insert of a brand-new id.
    Insert(u64),
    /// Value replacement of an existing id; payload is the update sequence
    /// number the harness uses to derive the new value.
    Update(u64, u32),
    /// Read-modify-write of an existing id.
    ReadModifyWrite(u64, u32),
    /// Delete of an existing id.
    Delete(u64),
}

impl Op {
    /// Stable lowercase name of the operation kind, for reports and
    /// machine-readable benchmark output.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Read(_) => "read",
            Op::ReadAbsent(_) => "read_absent",
            Op::Insert(_) => "insert",
            Op::Update(..) => "update",
            Op::ReadModifyWrite(..) => "rmw",
            Op::Delete(_) => "delete",
        }
    }
}

/// Applies one op to `index`, the one way every scheme runs a stream:
/// version 0 for an insert, the op's version for an update, and a
/// read-modify-write reads, then upserts. Returns what a read saw (a
/// read-modify-write's read included), so a validating caller checks the
/// result and a timed caller ignores it; write outcomes are not reported.
#[inline]
pub fn execute(index: &dyn HashIndex, ks: &KeySpace, op: &Op) -> Option<Value> {
    match *op {
        Op::Read(id) => index.get(&ks.key(id)),
        Op::ReadAbsent(id) => index.get(&ks.negative_key(id)),
        Op::Insert(id) => {
            let _ = index.insert(&ks.key(id), &ks.value(id, 0));
            None
        }
        Op::Update(id, seq) => {
            let _ = index.upsert(&ks.key(id), &ks.value(id, seq));
            None
        }
        Op::ReadModifyWrite(id, seq) => {
            let read = index.get(&ks.key(id));
            let _ = index.upsert(&ks.key(id), &ks.value(id, seq));
            read
        }
        Op::Delete(id) => {
            index.remove(&ks.key(id));
            None
        }
    }
}

/// Key-popularity distribution for choosing *existing* records.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Uniform over preloaded ids.
    Uniform,
    /// Zipfian ranks mapped directly onto ids (hot ids clustered at 0).
    Zipfian {
        /// Zipfian exponent (YCSB "theta"; the paper sweeps 0.5..1.22).
        s: f64,
    },
    /// Zipfian popularity scattered over the id space — YCSB's default and
    /// what the paper's skewness experiments mean.
    ScrambledZipfian {
        /// Zipfian exponent.
        s: f64,
    },
    /// Most recently inserted ids are hottest.
    Latest {
        /// Zipfian exponent over recency ranks.
        s: f64,
    },
}

/// A workload specification: operation proportions plus a key distribution.
///
/// Proportions must sum to ≈1 (checked at generation time).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Fraction of positive point reads.
    pub read: f64,
    /// Fraction of negative point reads (searches for absent keys).
    pub read_absent: f64,
    /// Fraction of inserts of new ids.
    pub insert: f64,
    /// Fraction of updates of existing ids.
    pub update: f64,
    /// Fraction of read-modify-writes of existing ids.
    pub rmw: f64,
    /// Fraction of deletes of existing ids.
    pub delete: f64,
    /// Distribution over existing ids.
    pub mix: Mix,
}

impl WorkloadSpec {
    /// 100 % insert (paper figures 13/14a).
    pub fn insert_only() -> Self {
        WorkloadSpec {
            read: 0.0,
            read_absent: 0.0,
            insert: 1.0,
            update: 0.0,
            rmw: 0.0,
            delete: 0.0,
            mix: Mix::Uniform,
        }
    }

    /// 100 % positive search (figures 13/14b).
    pub fn search_only(mix: Mix) -> Self {
        WorkloadSpec {
            read: 1.0,
            read_absent: 0.0,
            insert: 0.0,
            update: 0.0,
            rmw: 0.0,
            delete: 0.0,
            mix,
        }
    }

    /// 100 % negative search (figure 13).
    pub fn negative_search_only() -> Self {
        WorkloadSpec {
            read: 0.0,
            read_absent: 1.0,
            insert: 0.0,
            update: 0.0,
            rmw: 0.0,
            delete: 0.0,
            mix: Mix::Uniform,
        }
    }

    /// 100 % delete (figure 13).
    pub fn delete_only() -> Self {
        WorkloadSpec {
            read: 0.0,
            read_absent: 0.0,
            insert: 0.0,
            update: 0.0,
            rmw: 0.0,
            delete: 1.0,
            mix: Mix::Uniform,
        }
    }

    /// 50 % insert / 50 % positive search (figure 14c).
    pub fn mixed_insert_search() -> Self {
        WorkloadSpec {
            read: 0.5,
            read_absent: 0.0,
            insert: 0.5,
            update: 0.0,
            rmw: 0.0,
            delete: 0.0,
            mix: Mix::Uniform,
        }
    }

    /// YCSB-A: 50 % read / 50 % update, scrambled zipfian 0.99 (figure 15).
    pub fn ycsb_a() -> Self {
        WorkloadSpec {
            read: 0.5,
            read_absent: 0.0,
            insert: 0.0,
            update: 0.5,
            rmw: 0.0,
            delete: 0.0,
            mix: Mix::ScrambledZipfian { s: 0.99 },
        }
    }

    /// YCSB-B: 95 % read / 5 % update.
    pub fn ycsb_b() -> Self {
        WorkloadSpec {
            read: 0.95,
            read_absent: 0.0,
            insert: 0.0,
            update: 0.05,
            rmw: 0.0,
            delete: 0.0,
            mix: Mix::ScrambledZipfian { s: 0.99 },
        }
    }

    /// YCSB-C: 100 % read.
    pub fn ycsb_c() -> Self {
        WorkloadSpec::search_only(Mix::ScrambledZipfian { s: 0.99 })
    }

    /// YCSB-F: 50 % read / 50 % read-modify-write.
    pub fn ycsb_f() -> Self {
        WorkloadSpec {
            read: 0.5,
            read_absent: 0.0,
            insert: 0.0,
            update: 0.0,
            rmw: 0.5,
            delete: 0.0,
            mix: Mix::ScrambledZipfian { s: 0.99 },
        }
    }

    fn total(&self) -> f64 {
        self.read + self.read_absent + self.insert + self.update + self.rmw + self.delete
    }
}

fn make_dist(mix: Mix, n: u64) -> Box<dyn KeyDist> {
    match mix {
        Mix::Uniform => Box::new(Uniform::new(n)),
        Mix::Zipfian { s } => Box::new(Zipfian::new(n, s)),
        Mix::ScrambledZipfian { s } => Box::new(ScrambledZipfian::new(n, s)),
        Mix::Latest { s } => Box::new(Latest::new(n, s)),
    }
}

/// Generates a deterministic operation stream.
///
/// * `spec` — the mix.
/// * `preloaded` — ids `0..preloaded` are assumed present before the run.
/// * `insert_base` — new inserts take ids `insert_base, insert_base+1, …`
///   (callers give each thread a disjoint range).
/// * `n_ops` — stream length.
/// * `seed` — determinism handle.
///
/// Deletes draw without replacement from the preloaded range (so a generated
/// delete always targets a live id if the stream is replayed once); updates
/// and rmw carry a per-id sequence number so the harness can derive
/// validatable values.
pub fn generate_ops(
    spec: &WorkloadSpec,
    preloaded: u64,
    insert_base: u64,
    n_ops: usize,
    seed: u64,
) -> Vec<Op> {
    assert!(
        (spec.total() - 1.0).abs() < 1e-6,
        "workload proportions must sum to 1, got {}",
        spec.total()
    );
    assert!(preloaded > 0 || spec.insert == 1.0, "non-insert ops need preloaded records");

    let mut rng = XorShift64Star::new(seed);
    let mut dist = make_dist(spec.mix, preloaded.max(1));
    let mut ops = Vec::with_capacity(n_ops);
    let mut next_insert = insert_base;
    let mut next_negative = 0u64;
    let mut update_seq: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();

    // Without-replacement delete order over the preloaded range.
    let mut delete_pool: Vec<u64> = if spec.delete > 0.0 {
        let mut pool: Vec<u64> = (0..preloaded).collect();
        // Fisher-Yates with our deterministic rng.
        for i in (1..pool.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            pool.swap(i, j);
        }
        pool
    } else {
        Vec::new()
    };

    let thresholds = {
        let mut t = [0f64; 6];
        let probs = [
            spec.read,
            spec.read_absent,
            spec.insert,
            spec.update,
            spec.rmw,
            spec.delete,
        ];
        let mut acc = 0.0;
        for (slot, p) in t.iter_mut().zip(probs) {
            acc += p;
            *slot = acc;
        }
        t
    };

    for _ in 0..n_ops {
        let u = rng.next_f64();
        let op = if u < thresholds[0] {
            Op::Read(dist.next_id(&mut rng))
        } else if u < thresholds[1] {
            next_negative += 1;
            Op::ReadAbsent(next_negative - 1)
        } else if u < thresholds[2] {
            next_insert += 1;
            Op::Insert(next_insert - 1)
        } else if u < thresholds[3] {
            let id = dist.next_id(&mut rng);
            let seq = update_seq.entry(id).or_insert(0);
            *seq += 1;
            Op::Update(id, *seq)
        } else if u < thresholds[4] {
            let id = dist.next_id(&mut rng);
            let seq = update_seq.entry(id).or_insert(0);
            *seq += 1;
            Op::ReadModifyWrite(id, *seq)
        } else {
            match delete_pool.pop() {
                Some(id) => Op::Delete(id),
                // Pool exhausted: fall back to a read so the stream length
                // holds (only reachable when n_ops > preloaded).
                None => Op::Read(dist.next_id(&mut rng)),
            }
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_only_assigns_fresh_ids() {
        let ops = generate_ops(&WorkloadSpec::insert_only(), 0, 100, 50, 1);
        let ids: Vec<u64> = ops
            .iter()
            .map(|op| match op {
                Op::Insert(id) => *id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, (100..150).collect::<Vec<_>>());
    }

    #[test]
    fn streams_are_deterministic() {
        let spec = WorkloadSpec::ycsb_a();
        let a = generate_ops(&spec, 1000, 1000, 500, 7);
        let b = generate_ops(&spec, 1000, 1000, 500, 7);
        assert_eq!(a, b);
        let c = generate_ops(&spec, 1000, 1000, 500, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn mixed_ratio_roughly_holds() {
        let ops = generate_ops(&WorkloadSpec::mixed_insert_search(), 10_000, 10_000, 20_000, 3);
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        assert_eq!(inserts + reads, 20_000);
        assert!((0.45..0.55).contains(&(inserts as f64 / 20_000.0)), "{inserts}");
    }

    #[test]
    fn deletes_are_without_replacement() {
        let ops = generate_ops(&WorkloadSpec::delete_only(), 5_000, 5_000, 5_000, 9);
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            match op {
                Op::Delete(id) => assert!(seen.insert(*id), "duplicate delete {id}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), 5_000);
    }

    #[test]
    fn updates_carry_monotonic_sequence_numbers() {
        let spec = WorkloadSpec {
            read: 0.0,
            read_absent: 0.0,
            insert: 0.0,
            update: 1.0,
            rmw: 0.0,
            delete: 0.0,
            mix: Mix::Zipfian { s: 1.2 }, // heavy repeats
        };
        let ops = generate_ops(&spec, 100, 100, 5_000, 2);
        let mut last: std::collections::HashMap<u64, u32> = Default::default();
        for op in &ops {
            if let Op::Update(id, seq) = op {
                let prev = last.insert(*id, *seq).unwrap_or(0);
                assert_eq!(*seq, prev + 1, "id {id}");
            }
        }
    }

    #[test]
    fn ycsb_a_is_half_updates() {
        let ops = generate_ops(&WorkloadSpec::ycsb_a(), 10_000, 10_000, 40_000, 5);
        let updates = ops.iter().filter(|o| matches!(o, Op::Update(..))).count();
        assert!((0.47..0.53).contains(&(updates as f64 / 40_000.0)));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_proportions_panic() {
        let spec = WorkloadSpec {
            read: 0.5,
            read_absent: 0.0,
            insert: 0.0,
            update: 0.0,
            rmw: 0.0,
            delete: 0.0,
            mix: Mix::Uniform,
        };
        generate_ops(&spec, 10, 10, 10, 1);
    }

    #[test]
    fn op_kinds_are_stable_names() {
        assert_eq!(Op::Read(0).kind(), "read");
        assert_eq!(Op::ReadAbsent(0).kind(), "read_absent");
        assert_eq!(Op::Insert(0).kind(), "insert");
        assert_eq!(Op::Update(0, 1).kind(), "update");
        assert_eq!(Op::ReadModifyWrite(0, 1).kind(), "rmw");
        assert_eq!(Op::Delete(0).kind(), "delete");
    }

    #[test]
    fn negative_reads_use_disjoint_counter() {
        let ops = generate_ops(&WorkloadSpec::negative_search_only(), 100, 100, 1_000, 4);
        let mut seen = std::collections::HashSet::new();
        for op in ops {
            match op {
                Op::ReadAbsent(id) => {
                    seen.insert(id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), 1_000);
    }
}
