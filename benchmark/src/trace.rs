//! Spans recorded from the benchmark's own files, around its calls into
//! each layer.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}`. Spans nest
//! by call order on the one thread that runs the ladder: `enter` pushes,
//! `exit` pops, and the span on top of the stack is the parent of the
//! next one entered — that is how the bench engine's span ends up inside
//! the `Conn::on_bytes` span that called it. Every span is added to its
//! name's totals; the first [`KEPT_PER_NAME`] of each name are also kept
//! verbatim and written out when the run ends. A name's self time is its total minus
//! the total of the spans entered while it was on top of the stack.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Json;

/// Spans of one name kept verbatim for the trace file; later ones only
/// add to the totals. Every layer gets its share of the file this way.
const KEPT_PER_NAME: u64 = 2_000;

struct Span {
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// What all spans of one name add up to.
#[derive(Clone, Copy)]
pub struct Total {
    pub name: &'static str,
    /// Name of the enclosing span, if there was one.
    pub parent: Option<&'static str>,
    pub spans: u64,
    pub ns: u64,
    /// Time covered by spans nested directly inside.
    pub child_ns: u64,
}

impl Total {
    pub fn self_ns(&self) -> u64 {
        self.ns - self.child_ns
    }
}

struct Open {
    id: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Tracer {
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: Vec<Total>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        origin: Instant::now(),
        next_id: 1,
        stack: Vec::new(),
        kept: Vec::new(),
        totals: Vec::new(),
    });
}

/// Opens a span named `name` for request number `request`.
#[inline]
pub fn enter(name: &'static str, request: u64) {
    TRACER.with(|t| {
        let t = &mut *t.borrow_mut();
        let id = t.next_id;
        t.next_id += 1;
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        t.stack.push(Open {
            id,
            request,
            name,
            start_ns,
            child_ns: 0,
        });
    })
}

/// Closes the innermost open span and returns its duration in ns.
#[inline]
pub fn exit() -> u64 {
    TRACER.with(|t| {
        let t = &mut *t.borrow_mut();
        let end_ns = t.origin.elapsed().as_nanos() as u64;
        let open = t.stack.pop().expect("exit without enter");
        let ns = end_ns - open.start_ns;
        let parent = t.stack.last_mut().map(|p| {
            p.child_ns += ns;
            (p.id, p.name)
        });
        let parent_name = parent.map(|p| p.1);
        let seen = match t
            .totals
            .iter_mut()
            .find(|x| x.name == open.name && x.parent == parent_name)
        {
            Some(total) => {
                total.spans += 1;
                total.ns += ns;
                total.child_ns += open.child_ns;
                total.spans
            }
            None => {
                t.totals.push(Total {
                    name: open.name,
                    parent: parent_name,
                    spans: 1,
                    ns,
                    child_ns: open.child_ns,
                });
                1
            }
        };
        if seen <= KEPT_PER_NAME {
            t.kept.push(Span {
                id: open.id,
                parent: parent.map_or(0, |p| p.0),
                request: open.request,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        ns
    })
}

/// Totals per `(name, parent)`, in order of first appearance.
pub fn totals() -> Vec<Total> {
    TRACER.with(|t| t.borrow().totals.clone())
}

/// The totals of `name` under any parent, summed.
pub fn total(name: &str) -> Total {
    let mut sum = Total {
        name: "",
        parent: None,
        spans: 0,
        ns: 0,
        child_ns: 0,
    };
    for t in totals().iter().filter(|t| t.name == name) {
        sum.name = t.name;
        sum.parent = t.parent;
        sum.spans += t.spans;
        sum.ns += t.ns;
        sum.child_ns += t.child_ns;
    }
    sum
}

/// The trace file's content: the kept spans and every total.
pub fn dump(workload: &str, seed: u64) -> Json {
    TRACER.with(|t| {
        let t = t.borrow();
        let spans = t
            .kept
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("request", Json::Num(s.request as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let totals = t
            .totals
            .iter()
            .map(|x| {
                Json::obj([
                    ("name", Json::str(x.name)),
                    ("parent", x.parent.map_or(Json::Null, Json::str)),
                    ("spans", Json::Num(x.spans as f64)),
                    ("total_ns", Json::Num(x.ns as f64)),
                    ("self_ns", Json::Num(x.self_ns() as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans_recorded", Json::Num((t.next_id - 1) as f64)),
            ("spans_kept", Json::Num(t.kept.len() as f64)),
            ("totals", Json::Arr(totals)),
            ("spans", Json::Arr(spans)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_parents_self_time_excludes_its_children() {
        // Runs on this test's own thread, so on its own tracer.
        enter("outer", 7);
        enter("inner", 7);
        let inner = exit();
        enter("inner", 7);
        let inner2 = exit();
        let outer = exit();
        let o = total("outer");
        let i = total("inner");
        assert_eq!((o.spans, i.spans), (1, 2));
        assert_eq!(o.ns, outer);
        assert_eq!(i.ns, inner + inner2);
        assert_eq!(o.child_ns, i.ns);
        assert_eq!(o.self_ns(), outer - inner - inner2);
        assert_eq!(i.parent, Some("outer"));
        let doc = dump("w", 1);
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        // Children close first; both name the outer span as parent.
        let outer_id = spans[2].get("id").and_then(Json::as_f64).unwrap();
        assert_eq!(
            spans[0].get("parent").and_then(Json::as_f64),
            Some(outer_id)
        );
        assert_eq!(spans[2].get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
