//! `run <workload> --trace`: the per-layer metrics.
//!
//! One process, one table. First the workload itself is replayed at a
//! tenth of its length, untraced but with obs on, for the counters and
//! the harness's own numbers. Then one stream of the workload's
//! operations climbs the ladder, rung by rung, with a span around every
//! call (or every batch of 64 calls, for calls that take tens of
//! nanoseconds) into the layer under test:
//!
//! `common.hash` → `ocf` → `hot` → `nvtable` → `vlog` (stand-alone
//! instances with the table's geometry) → `table` (the real table,
//! in-process) → `resp` (codec alone) → `reactor` (`Conn` driven in
//! memory through a bench-owned `Engine`) → `net` at depth 1 → `net` at
//! depth 16 (the shipped server over loopback).
//!
//! Every rung that touches the table checks its replies against the
//! shadow model, like the untraced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hdnh::nvtable::{slot_meta, Level};
use hdnh::ocf::{self, Ocf};
use hdnh::params::{BUCKET_BYTES, SLOTS_PER_BUCKET};
use hdnh::{Hdnh, HotPolicy, HotTable, Vlog};
use hdnh_common::hash::KeyHashes;
use hdnh_common::rng::XorShift64Star;
use hdnh_common::{Key, Record, Value};
use hdnh_nvm::NvmOptions;
use hdnh_obs::{self as obs, Counter};
use hdnh_server::resp::{enc_bulk, enc_error, enc_int, enc_nil, enc_simple, parse_u64};
use hdnh_server::{Conn, Decoder, Engine, EngineAction, Frame, ServerConfig};

use crate::harness::{percentile, Measured};
use crate::json::Json;
use crate::kv::{Kv, Reference};
use crate::net::{start_server, Client, Echo, Wire};
use crate::run::{details, get_ready, harness_metrics, sweep, total_ops, Args, Outcome, Sys};
use crate::spec;
use crate::trace;
use crate::workload::{fill_value, Kind, Op, OpGen, MAX_VALUE};

/// Calls per span on the rungs whose calls take tens of nanoseconds.
const BATCH: usize = 64;
/// Operations the stand-alone rungs and the codec/reactor rungs replay.
const RUNG_OPS: usize = 500_000;
/// Values the value-log rung appends (200 B each).
const VLOG_OPS: usize = 100_000;
/// Round trips timed at depth 1, against the server and against the echo.
const RTT_SAMPLES: usize = 20_000;
/// Fixed probes that give every workload a number for absent gets,
/// upserts and removes, whatever its own mix.
const PROBES: usize = 20_000;
/// Pipeline depth of the in-memory reactor rung and the deep network rung.
const DEPTH: usize = 16;
/// Operations per turn when the table rung alternates its two passes.
const CHUNK: usize = 4_096;

fn key_of(id: u32) -> Key {
    Key::from_u64(id as u64)
}

/// The second and later times a stream is replayed, its inserts find
/// their ids present: they become upserts.
fn replayable(ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .map(|&op| Op {
            kind: if op.kind == Kind::Insert {
                Kind::Upsert
            } else {
                op.kind
            },
            ..op
        })
        .collect()
}

/// Times `f` over `items` in batches of [`BATCH`], one span per batch,
/// and returns the mean ns per item. `prepare` runs untimed before each
/// batch and yields one input per item (hashes, slots, values), so that
/// only the call under test is inside the span.
fn batched<T, P>(
    name: &'static str,
    items: &[T],
    mut prepare: impl FnMut(&[T]) -> Vec<P>,
    mut f: impl FnMut(&T, &P),
) -> f64 {
    for (i, chunk) in items.chunks(BATCH).enumerate() {
        let prepared = prepare(chunk);
        trace::enter(name, i as u64);
        for (item, input) in chunk.iter().zip(&prepared) {
            f(item, input);
        }
        trace::exit();
    }
    trace::total(name).ns as f64 / items.len() as f64
}

fn nothing<T>(chunk: &[T]) -> Vec<()> {
    vec![(); chunk.len()]
}

/// Engine for the in-memory reactor rung. The shipped `RespEngine` is
/// private to `hdnh-server`, so this answers GET/SET/DEL from the same
/// table with the server's own encoders, inside a span of its own.
struct BenchEngine {
    table: Arc<Hdnh>,
}

impl Engine for BenchEngine {
    fn execute(&self, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> EngineAction {
        trace::enter("reactor.engine", 0);
        let key = (frame.len() >= 2)
            .then(|| parse_u64(dec.arg(frame, 1)))
            .flatten()
            .map(Key::from_u64);
        match (dec.arg(frame, 0), key) {
            (b"GET", Some(key)) => match self.table.get_bytes(&key) {
                Ok(Some(v)) => enc_bulk(out, &v),
                Ok(None) => enc_nil(out),
                Err(e) => enc_error(out, "ERR", &e.to_string()),
            },
            (b"SET", Some(key)) if frame.len() == 3 => {
                match self.table.upsert_bytes(&key, dec.arg(frame, 2)) {
                    Ok(()) => enc_simple(out, "OK"),
                    Err(e) => enc_error(out, "ERR", &e.to_string()),
                }
            }
            (b"DEL", Some(key)) => match self.table.remove(&key) {
                Ok(removed) => enc_int(out, removed as i64),
                Err(e) => enc_error(out, "ERR", &e.to_string()),
            },
            _ => enc_error(out, "ERR", "the bench engine speaks GET, SET and DEL"),
        }
        trace::exit();
        EngineAction::Continue
    }
}

struct Ladder {
    kv: Kv,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Ladder {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics[name]
    }

    /// Counters and harness numbers of the untraced workload replay.
    fn replay_metrics(&mut self, m: &Measured, counters: &obs::MetricsSnapshot) {
        let c = |c: Counter| counters.counter(c) as f64;
        let ops = m.ops as f64;
        let examined = c(Counter::OcfTrueMatch)
            + c(Counter::OcfFalsePositive)
            + c(Counter::OcfNegativeShortCircuit);
        self.set(
            "ocf.false_positive_rate",
            counters.ocf_false_positive_rate(),
        );
        self.set(
            "ocf.negative_short_circuit_rate",
            c(Counter::OcfNegativeShortCircuit) / examined.max(1.0),
        );
        self.set("hot.hit_rate", counters.hot_hit_rate());
        self.set(
            "hot.evictions_per_op",
            (c(Counter::HotEvictCold) + c(Counter::HotEvictRandom)) / ops,
        );
        let per_counted_op = 1.0 / m.nvm_ops.max(1) as f64;
        self.set("nvm.reads_per_op", m.nvm.reads as f64 * per_counted_op);
        self.set(
            "nvm.read_bytes_per_op",
            m.nvm.read_bytes as f64 * per_counted_op,
        );
        self.set("nvm.writes_per_op", m.nvm.writes as f64 * per_counted_op);
        self.set(
            "nvm.write_bytes_per_op",
            m.nvm.write_bytes as f64 * per_counted_op,
        );
        self.set("vlog.reads_per_op", c(Counter::VlogReads) / ops);
        self.set("vlog.appends_per_op", c(Counter::VlogAppends) / ops);
        self.set(
            "table.seqlock_retries_per_op",
            c(Counter::SeqlockReadRetry) / ops,
        );
        self.set("table.resize_count", m.resizes as f64);
        self.set(
            "table.resize_stall_ms_max",
            m.resize_stall_ns_max as f64 / 1e6,
        );
        self.set(
            "table.resize_stall_ms_total",
            m.resize_stall_ns_total as f64 / 1e6,
        );
        for (name, value) in harness_metrics(m) {
            self.set(name, value);
        }
    }

    /// `common.hash`, `ocf`, `hot`, `nvtable`, `vlog`: stand-alone
    /// instances shaped like the table's, fed the stream's ids.
    fn standalone_rungs(&mut self, stream: &[Op]) {
        let ids: Vec<u32> = stream.iter().take(RUNG_OPS).map(|op| op.id).collect();
        let hashes = |chunk: &[u32]| -> Vec<KeyHashes> {
            chunk.iter().map(|&id| KeyHashes::of(&key_of(id))).collect()
        };

        let hash_ns = batched("common.hash", &ids, nothing, |&id, _| {
            black_box(KeyHashes::of(black_box(&key_of(id))));
        });
        self.set("common.hash_ns", hash_ns);

        // Two levels and two filters with the table's current geometry,
        // holding the fingerprints of every live id where an insert would
        // have put them.
        let table = Arc::clone(&self.kv.table);
        let params = table.params();
        let bps = params.segment_bytes / BUCKET_BYTES;
        let bottom_segments = params.initial_bottom_segments << table.resize_count();
        let levels =
            [bottom_segments * 2, bottom_segments].map(|n| Level::new(n, bps, &NvmOptions::fast()));
        let filters = levels
            .each_ref()
            .map(|l| Ocf::new(l.n_buckets(), SLOTS_PER_BUCKET));
        for id in 0..self.kv.shadow.ids() {
            if self.kv.shadow.live(id).is_none() {
                continue;
            }
            let h = KeyHashes::of(&key_of(id));
            'placed: for (level, filter) in levels.iter().zip(&filters) {
                for bucket in level.candidates(&h) {
                    for slot in 0..SLOTS_PER_BUCKET {
                        if !ocf::is_valid(filter.load(bucket, slot)) {
                            filter.install(bucket, slot, true, h.fp);
                            break 'placed;
                        }
                    }
                }
            }
        }
        let probe_ns = batched("ocf.probe", &ids, hashes, |_, h| {
            // One probe: walk the candidates until a fingerprint matches.
            'probe: for (level, filter) in levels.iter().zip(&filters) {
                for bucket in level.candidates(h) {
                    for slot in 0..SLOTS_PER_BUCKET {
                        let e = filter.load(bucket, slot);
                        if ocf::is_valid(e) && ocf::fp(e) == h.fp {
                            black_box(e);
                            break 'probe;
                        }
                    }
                }
            }
        });
        self.set("ocf.probe_ns", probe_ns);

        let hot_capacity = table.hot_table().map_or(8, |hot| hot.capacity());
        let hot = HotTable::new(hot_capacity, params.hot_slots_per_bucket, HotPolicy::Rafl);
        let mut rng = XorShift64Star::new(0x5EED);
        let put_ns = batched("hot.put", &ids, hashes, |&id, h| {
            hot.put(
                &Record::new(key_of(id), Value::from_u64(id as u64)),
                h.h1,
                h.h2,
                h.fp,
                &mut rng,
            );
        });
        let search_ns = batched("hot.search", &ids, hashes, |&id, h| {
            black_box(hot.search(&key_of(id), h.h1, h.h2, h.fp));
        });
        self.set("hot.put_ns", put_ns);
        self.set("hot.search_ns", search_ns);

        let top = &levels[0];
        let place = |chunk: &[u32]| -> Vec<(usize, usize)> {
            chunk
                .iter()
                .map(|&id| {
                    let h = KeyHashes::of(&key_of(id));
                    (
                        top.candidates(&h)[0],
                        (h.h2 >> 16) as usize % SLOTS_PER_BUCKET,
                    )
                })
                .collect()
        };
        let write_ns = batched(
            "nvtable.write_record",
            &ids,
            place,
            |&id, &(bucket, slot)| {
                let rec = Record::new(key_of(id), Value::from_u64(id as u64));
                top.write_record(bucket, slot, &rec);
                top.commit_slot_valid(bucket, slot, slot_meta(&rec, false));
            },
        );
        let read_ns = batched("nvtable.read_record", &ids, place, |_, &(bucket, slot)| {
            black_box(top.read_record(bucket, slot));
        });
        self.set("nvtable.write_record_ns", write_ns);
        self.set("nvtable.read_record_ns", read_ns);

        let vlog = Vlog::new(NvmOptions::fast(), params.vlog_segment_bytes);
        let spilled = &ids[..ids.len().min(VLOG_OPS)];
        let mut ptrs = Vec::with_capacity(spilled.len());
        let values = |chunk: &[u32]| -> Vec<[u8; 200]> {
            let mut buf = [0u8; MAX_VALUE];
            chunk
                .iter()
                .map(|&id| {
                    fill_value(&mut buf, 200, id, 1)
                        .try_into()
                        .expect("200 bytes")
                })
                .collect()
        };
        let append_ns = batched("vlog.append", spilled, values, |&id, value| {
            ptrs.push(vlog.append(&key_of(id), value).expect("heap-backed append"));
        });
        let appended: Vec<_> = ptrs.iter().zip(spilled).collect();
        let vlog_read_ns = batched("vlog.read", &appended, nothing, |&(ptr, &id), _| {
            black_box(vlog.read(ptr, &key_of(id)).expect("record just appended"));
        });
        self.set("vlog.append_ns", append_ns);
        self.set("vlog.read_ns", vlog_read_ns);
    }

    /// One operation on the real table inside a span of its kind; returns
    /// the span's duration.
    fn traced_op(&mut self, op: Op, request: u64) -> u64 {
        let name = match op.kind {
            Kind::Get => "table.get",
            Kind::Insert => "table.insert",
            Kind::Upsert => "table.upsert",
            Kind::Remove => "table.remove",
        };
        trace::enter(name, request);
        let ok = self.kv.exec(op);
        let ns = trace::exit();
        self.attempted += 1;
        self.failed += !ok as u64;
        ns
    }

    /// The `table` rung: the ladder's stream on the real table, its
    /// chunks alternately untraced (the base cost) and one span per
    /// operation with gets split by what they cost; then the fixed
    /// probes and one compaction.
    fn table_rung(&mut self, stream: &[Op]) {
        let table = Arc::clone(&self.kv.table);
        let counters_before = obs::snapshot();
        let (mut dram, mut nvm, mut absent_gets) = ((0u64, 0u64), (0u64, 0u64), 0u64);
        // (operations, ns) of the untraced and of the traced chunks. They
        // alternate so that both meet the same host and table state, and
        // stay in stream order so that every operation finds the table
        // the generator expects.
        let (mut plain, mut spanned) = ((0u64, 0u64), (0u64, 0u64));
        for (c, chunk) in stream.chunks(CHUNK).enumerate() {
            if c % 2 == 0 {
                let t = Instant::now();
                let wrong: u64 = chunk.iter().map(|&op| !self.kv.exec(op) as u64).sum();
                plain = (
                    plain.0 + chunk.len() as u64,
                    plain.1 + t.elapsed().as_nanos() as u64,
                );
                self.attempted += chunk.len() as u64;
                self.failed += wrong;
                continue;
            }
            // A get that read no NVM was served from DRAM (the hot table,
            // or a miss the filter settled); `reads` is one per call into
            // the device, so its change around a call says which.
            let mut reads = table.nvm_stats().reads;
            for (i, &op) in chunk.iter().enumerate() {
                let absent = self.kv.shadow.live(op.id).is_none();
                let ns = self.traced_op(op, (c * CHUNK + i) as u64);
                spanned = (spanned.0 + 1, spanned.1 + ns);
                let reads_after = table.nvm_stats().reads;
                if op.kind == Kind::Get {
                    absent_gets += absent as u64;
                    let class = if reads_after == reads {
                        &mut dram
                    } else {
                        &mut nvm
                    };
                    *class = (class.0 + 1, class.1 + ns);
                }
                reads = reads_after;
            }
        }
        let counters = obs::snapshot().since(&counters_before);
        let per = |(n, ns): (u64, u64)| ns as f64 / n.max(1) as f64;
        self.set("harness.trace_overhead", per(spanned) / per(plain));

        // Probes: ids past everything the stream can have written are
        // absent; upserts and removes aim at preloaded ids.
        let ids = self.kv.shadow.ids();
        let probes = (PROBES as u32).min(ids / 4);
        let mut absent = 0;
        for i in 0..probes {
            absent += self.traced_op(
                Op {
                    kind: Kind::Get,
                    id: ids - 1 - i,
                },
                i as u64,
            );
        }
        for kind in [Kind::Upsert, Kind::Remove, Kind::Upsert] {
            for id in 0..probes {
                self.traced_op(Op { kind, id }, id as u64);
            }
        }
        let mean = |name: &str| {
            let t = trace::total(name);
            t.ns as f64 / t.spans.max(1) as f64
        };
        let gets = (dram.0 + nvm.0).max(1) as f64;
        self.set("table.get_ns", (dram.1 + nvm.1) as f64 / gets);
        self.set("table.get_dram_ns", per(dram));
        self.set("table.get_nvm_ns", per(nvm));
        self.set("table.get_absent_ns", absent as f64 / probes as f64);
        self.set("table.upsert_ns", mean("table.upsert"));
        self.set("table.remove_ns", mean("table.remove"));

        // What a get costs beyond the stand-alone cost of the layers it
        // calls: hash and hot search always; filter probe and record read
        // on a hot miss; a hot put when the record was found below the
        // hot table and is promoted into it; a log read for a spilled
        // value.
        // Shares come from the obs counters of both passes: every get
        // searches the hot table exactly once, and nothing else does.
        let c = |c: Counter| counters.counter(c) as f64;
        let searches = (c(Counter::HotHit) + c(Counter::HotMiss)).max(1.0);
        let miss_share = c(Counter::HotMiss) / searches;
        // Every hot miss on a present key ends in a promotion.
        let promotion_share = (miss_share - absent_gets as f64 / gets).max(0.0);
        let spill_share = c(Counter::VlogReads) / searches;
        let children = self.get("common.hash_ns")
            + self.get("hot.search_ns")
            + miss_share * (self.get("ocf.probe_ns") + self.get("nvtable.read_record_ns"))
            + promotion_share * self.get("hot.put_ns")
            + spill_share * self.get("vlog.read_ns");
        self.set("table.get_self_ns", self.get("table.get_ns") - children);

        let stats = table.vlog_stats();
        self.set(
            "vlog.garbage_ratio_end",
            stats.garbage_bytes as f64 / stats.used_bytes.max(1) as f64,
        );
        trace::enter("vlog.gc", 0);
        let report = table.compact().expect("heap-backed compaction cannot fail");
        let gc_ns = trace::exit();
        // The workload's own compactions, if it has any, plus this one.
        self.set("vlog.gc_ms", self.get("vlog.gc_ms") + gc_ns as f64 / 1e6);
        self.set(
            "vlog.gc_bytes_reclaimed",
            self.get("vlog.gc_bytes_reclaimed") + report.bytes_reclaimed as f64,
        );
        self.set("table.load_factor_end", table.load_factor());
    }

    /// The `resp` rung (codec alone) and the `reactor` rung (`Conn` in
    /// memory, no sockets), over the same encoded requests.
    fn codec_and_reactor_rungs(&mut self, stream: &[Op]) {
        let ops = replayable(&stream[..stream.len().min(RUNG_OPS)]);
        let mut wire = Wire::default();
        wire.encode(&ops, &mut self.kv.shadow);
        let batches: Vec<(usize, usize)> = (0..ops.len())
            .step_by(DEPTH)
            .map(|at| (at, DEPTH.min(ops.len() - at)))
            .collect();

        let mut decoder = Decoder::new(hdnh_server::resp::DEFAULT_MAX_FRAME);
        let mut frames = 0u64;
        for (i, &(at, len)) in batches.iter().enumerate() {
            trace::enter("resp.decode", i as u64);
            decoder.feed(wire.req_of(at, len));
            while let Ok(Some(frame)) = decoder.next() {
                black_box(decoder.arg(&frame, 0));
                frames += 1;
            }
            decoder.compact();
            trace::exit();
        }
        self.attempted += ops.len() as u64;
        self.failed += ops.len() as u64 - frames;
        self.set(
            "resp.decode_ns",
            trace::total("resp.decode").ns as f64 / ops.len() as f64,
        );

        let model = self.kv.shadow.model;
        let mut out = Vec::with_capacity(DEPTH * (MAX_VALUE + 16));
        let values = |chunk: &[Op]| -> Vec<Vec<u8>> {
            let mut buf = [0u8; MAX_VALUE];
            chunk
                .iter()
                .map(|op| fill_value(&mut buf, model.len(op.id, 1), op.id, 1).to_vec())
                .collect()
        };
        let encode_ns = batched("resp.encode", &ops, values, |_, value| {
            if out.len() > DEPTH * MAX_VALUE {
                out.clear();
            }
            enc_bulk(&mut out, value);
        });
        self.set("resp.encode_ns", encode_ns);

        let cfg = ServerConfig::builder()
            .threads(1)
            .build()
            .expect("valid configuration");
        let engine = BenchEngine {
            table: Arc::clone(&self.kv.table),
        };
        let mut conn = Conn::new(&cfg, Instant::now());
        for (i, &(at, len)) in batches.iter().enumerate() {
            let now = Instant::now();
            trace::enter("reactor.conn", i as u64);
            conn.on_bytes(wire.req_of(at, len), &engine, now);
            let ok = conn.output() == wire.exp_of(at, len);
            let written = conn.output().len();
            conn.on_write_progress(written, &engine, now);
            trace::exit();
            self.attempted += len as u64;
            self.failed += if ok { 0 } else { len as u64 };
        }
        let conn_total = trace::total("reactor.conn");
        let requests = ops.len() as f64;
        self.set("reactor.conn_ns", conn_total.ns as f64 / requests);
        self.set(
            "reactor.conn_self_ns",
            conn_total.self_ns() as f64 / requests,
        );
        self.set(
            "reactor.engine_ns",
            trace::total("reactor.engine").ns as f64 / requests,
        );
    }

    /// The `net` rungs: the shipped server over loopback at depth 1 and
    /// at depth 16, and the echo thread at depth 1 beside them.
    fn net_rungs(&mut self, stream: &[Op]) {
        let ops = replayable(&stream[..stream.len().min(RUNG_OPS)]);
        let table = Arc::clone(&self.kv.table);
        let server = start_server(&table);
        let mut client = Client::connect(server.local_addr());
        let mut echo = Echo::start();
        let mut wire = Wire::default();
        wire.encode(&ops, &mut self.kv.shadow);
        let counters_before = obs::snapshot();

        // Depth 1 takes the front of the stream, at most half of it.
        let shallow = RTT_SAMPLES.min(ops.len() / 2);
        let exchange = |name: &'static str, client: &mut Client, at: usize, len: usize| {
            let exp = wire.exp_of(at, len);
            trace::enter(name, (at / len) as u64);
            let ok = client
                .exchange(wire.req_of(at, len), exp.len())
                .is_some_and(|got| got == exp);
            (trace::exit(), ok)
        };
        let mut rtts = Vec::with_capacity(shallow);
        for at in 0..shallow {
            let (ns, ok) = exchange("net.rtt", &mut client, at, 1);
            rtts.push(ns);
            self.failed += !ok as u64;
        }
        let mut batch_ns = Vec::with_capacity(ops.len() / DEPTH);
        let deep_from = shallow.next_multiple_of(DEPTH);
        for at in (deep_from..ops.len()).step_by(DEPTH) {
            let len = DEPTH.min(ops.len() - at);
            let (ns, ok) = exchange("net.batch", &mut client, at, len);
            batch_ns.push(ns);
            self.failed += if ok { 0 } else { len as u64 };
        }
        self.attempted += ops.len() as u64;
        let mut echo_rtts = Vec::with_capacity(shallow);
        for at in 0..shallow {
            let req = wire.req_of(at, 1);
            trace::enter("net.echo_rtt", at as u64);
            echo.client.exchange(req, req.len());
            echo_rtts.push(trace::exit());
        }

        drop(client);
        server.shutdown_and_join();
        let counters = obs::snapshot().since(&counters_before);
        let frames = counters.counter(Counter::NetFrameDecoded).max(1) as f64;
        self.set(
            "reactor.bytes_in_per_req",
            counters.counter(Counter::NetBytesIn) as f64 / frames,
        );
        self.set(
            "reactor.bytes_out_per_req",
            counters.counter(Counter::NetBytesOut) as f64 / frames,
        );

        rtts.sort_unstable();
        echo_rtts.sort_unstable();
        let deep_ops = (ops.len() - deep_from) as f64;
        let deep_ns_per_op = batch_ns.iter().sum::<u64>() as f64 / deep_ops;
        batch_ns.sort_unstable();
        self.set("net.rtt_p50_us", percentile(&rtts, 50.0) as f64 / 1e3);
        self.set("net.rtt_p99_us", percentile(&rtts, 99.0) as f64 / 1e3);
        self.set(
            "net.echo_rtt_p50_us",
            percentile(&echo_rtts, 50.0) as f64 / 1e3,
        );
        self.set("net.batch_p50_us", percentile(&batch_ns, 50.0) as f64 / 1e3);
        self.set(
            "net.socket_ns_per_op",
            deep_ns_per_op - self.get("reactor.conn_ns"),
        );
    }
}

/// The table rung's rows of the ladder: each layer's mean span beside
/// its self time and its parent, so the rungs can be checked to add up.
fn print_ladder() {
    println!(
        "{:<24} {:<16} {:>10} {:>12} {:>12}",
        "span", "parent", "spans", "mean ns", "self ns"
    );
    for t in trace::totals() {
        let spans = t.spans as f64;
        println!(
            "{:<24} {:<16} {:>10} {:>12.1} {:>12.1}",
            t.name,
            t.parent.unwrap_or("-"),
            t.spans,
            t.ns as f64 / spans,
            t.self_ns() as f64 / spans,
        );
    }
}

pub fn run(args: &Args) -> Outcome {
    let which = args.which;
    let tenth = args.seconds / 10.0;
    let replay_ops = total_ops(which, tenth);
    // Three tenths: the workload itself, then the ladder's stream, two
    // tenths long because the table rung spans every other chunk of it.
    let ready = get_ready(which, args.seed, 3 * replay_ops, true, 1);
    let mut gen: OpGen = ready.gen;
    let mut sys = ready.sys;

    let counters_before = obs::snapshot();
    let m = sys.measure(&mut gen, which, tenth);
    let counters = obs::snapshot().since(&counters_before);

    // From here on everything runs in-process against the same table.
    let kv = match sys {
        Sys::Kv(kv) => kv,
        Sys::Net(net) => {
            let (table, shadow) = net.into_parts();
            let reference = Reference::new(0, 0, shadow.model);
            Kv::new(table, shadow, reference)
        }
    };
    let mut ladder = Ladder {
        kv,
        metrics: BTreeMap::new(),
        attempted: m.ops,
        failed: m.failed,
    };
    ladder.replay_metrics(&m, &counters);
    ladder.set("vlog.gc_ms", m.gc_ns as f64 / 1e6);
    ladder.set("vlog.gc_bytes_reclaimed", m.gc_bytes_reclaimed as f64);

    let mut stream = Vec::new();
    gen.fill(&mut stream, 2 * replay_ops as usize);
    ladder.standalone_rungs(&stream);
    ladder.table_rung(&stream);
    ladder.codec_and_reactor_rungs(&stream);
    ladder.net_rungs(&stream);

    let (swept, wrong) = sweep(&ladder.kv.table, &ladder.kv.shadow);
    ladder.attempted += swept;
    ladder.failed += wrong;

    print_ladder();
    let get = trace::total("table.get");
    println!(
        "table.get: mean {:.1} ns = stand-alone layers {:.1} ns + self {:.1} ns; \
         spans overstate the untraced cost per operation by {:.2}x",
        ladder.get("table.get_ns"),
        ladder.get("table.get_ns") - ladder.get("table.get_self_ns"),
        ladder.get("table.get_self_ns"),
        ladder.get("harness.trace_overhead"),
    );
    let file = trace::dump(which.name(), args.seed)
        .write_out(&format!("trace-{}.json", which.name()))
        .unwrap_or_else(|e| panic!("{e}"));

    let metrics: Vec<(&'static str, f64)> = spec::PER_LAYER
        .iter()
        .map(|spec| (spec.name, ladder.metrics[spec.name]))
        .collect();
    assert_eq!(
        metrics.len(),
        ladder.metrics.len(),
        "a metric outside the spec was set"
    );
    let extra = [
        ("table_get_spans", get.spans as f64),
        (
            "rtt_samples",
            RTT_SAMPLES.min(stream.len().min(RUNG_OPS) / 2) as f64,
        ),
    ];
    let mut details = details(args, &m, &extra);
    details.push("trace_file", Json::str(&file.display().to_string()));
    details.push(
        "reactor_rung",
        Json::str("Conn driven in memory through a bench-owned Engine (RespEngine is private)"),
    );
    Outcome {
        metrics,
        attempted: ladder.attempted,
        failed: ladder.failed,
        details,
    }
}
