//! The in-process workloads: `get_bytes` / `insert_bytes` / `upsert_bytes`
//! / `remove` on the table, checked against the shadow model, and the
//! reference kernel they are paired with.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use hdnh::Hdnh;
use hdnh_common::Key;

use crate::harness::System;
use crate::workload::{fill_value, value_matches, word, Kind, Op, Shadow, ValueModel, MAX_VALUE};

/// The reference kernel: what the same operations cost on a plain DRAM
/// hash map. It shares no code with the repository, allocates nothing
/// after construction (the map is pre-sized and pre-faulted), and copies a
/// spill-sized value's 256 bytes into a fixed slab so that big values cost
/// it something too.
pub struct Reference {
    map: HashMap<u64, [u8; 8]>,
    model: ValueModel,
    slab: Box<[u8]>,
    cursor: usize,
    /// Operations applied so far; stands in for the version when the
    /// value model sizes values by version.
    seq: u32,
}

const SLAB_BYTES: usize = 1 << 20;
const BIG: [u8; MAX_VALUE] = [0xA5; MAX_VALUE];

impl Reference {
    /// A map with room for `id_space` ids, holding ids `0..preloaded`.
    pub fn new(id_space: usize, preloaded: u32, model: ValueModel) -> Reference {
        let mut map = HashMap::with_capacity(id_space);
        // Touch every bucket the run can reach, then keep the allocation.
        for id in 0..id_space as u64 {
            map.insert(id, [0; 8]);
        }
        map.clear();
        for id in 0..preloaded {
            map.insert(id as u64, word(id, 1).to_le_bytes());
        }
        Reference {
            map,
            model,
            slab: vec![1u8; SLAB_BYTES].into_boxed_slice(),
            cursor: 0,
            seq: 0,
        }
    }

    #[inline]
    fn copy_big(&mut self) {
        self.cursor = (self.cursor + MAX_VALUE) % SLAB_BYTES;
        self.slab[self.cursor..self.cursor + MAX_VALUE].copy_from_slice(black_box(&BIG));
    }

    #[inline]
    pub fn apply(&mut self, op: Op) {
        self.seq = self.seq.wrapping_add(1);
        let big = self.model.len(op.id, self.seq) > 8;
        match op.kind {
            Kind::Get => {
                if black_box(self.map.get(&(op.id as u64))).is_some() && big {
                    self.copy_big();
                }
            }
            Kind::Insert | Kind::Upsert => {
                self.map
                    .insert(op.id as u64, word(op.id, self.seq).to_le_bytes());
                if big {
                    self.copy_big();
                }
            }
            Kind::Remove => {
                black_box(self.map.remove(&(op.id as u64)));
            }
        }
    }
}

pub struct Kv {
    pub table: Arc<Hdnh>,
    pub shadow: Shadow,
    pub reference: Reference,
    buf: [u8; MAX_VALUE],
}

impl Kv {
    pub fn new(table: Arc<Hdnh>, shadow: Shadow, reference: Reference) -> Kv {
        Kv {
            table,
            shadow,
            reference,
            buf: [0; MAX_VALUE],
        }
    }

    /// Runs one operation on the table; `false` when it errored or
    /// answered anything but what the shadow model holds.
    #[inline]
    pub fn exec(&mut self, op: Op) -> bool {
        let key = Key::from_u64(op.id as u64);
        match op.kind {
            Kind::Get => match (self.table.get_bytes(&key), self.shadow.live(op.id)) {
                (Ok(Some(got)), Some(v)) => {
                    value_matches(&got, self.shadow.model.len(op.id, v), op.id, v)
                }
                (Ok(None), None) => true,
                _ => false,
            },
            Kind::Insert | Kind::Upsert => {
                let v = self.shadow.write(op.id);
                let value = fill_value(&mut self.buf, self.shadow.model.len(op.id, v), op.id, v);
                if op.kind == Kind::Insert {
                    self.table.insert_bytes(&key, value).is_ok()
                } else {
                    self.table.upsert_bytes(&key, value).is_ok()
                }
            }
            Kind::Remove => self.table.remove(&key) == Ok(self.shadow.remove(op.id)),
        }
    }
}

impl System for Kv {
    fn hdnh_unit(&mut self, ops: &[Op], at: usize, len: usize) -> u64 {
        ops[at..at + len]
            .iter()
            .map(|&op| !self.exec(op) as u64)
            .sum()
    }

    fn ref_unit(&mut self, ops: &[Op], at: usize, len: usize) {
        for &op in &ops[at..at + len] {
            self.reference.apply(op);
        }
    }

    fn table(&self) -> &Arc<Hdnh> {
        &self.table
    }
}
