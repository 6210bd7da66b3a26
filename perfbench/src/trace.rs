//! Outside-in layer tracing: a timing actor that wraps each replica and
//! client, and an in-memory span table.
//!
//! Every engine `run_until` slice is a parent span; each handler call inside
//! it is a child span named after the layer it enters. Spans are aggregated
//! per name as count, total and child time, so a span's self time is its
//! total minus the handler time recorded inside it. Nothing is written until
//! the run ends.
//!
//! The table is a fixed array indexed by [`Layer`], so the bookkeeping done
//! outside the timed windows (and so charged to the engine's self time) is a
//! handful of field updates per handler call.

use orthrus_core::{ClientNode, NetMessage, ReplicaNode};
use orthrus_sim::{Actor, Context, NodeId};
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

/// Every span name the trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    RunUntil,
    CoreStart,
    CoreTimer,
    ClientRequest,
    Deliver,
    Vote,
    Recovery,
    StrayReply,
    ClientSubmit,
    ClientReply,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::RunUntil,
        Layer::CoreStart,
        Layer::CoreTimer,
        Layer::ClientRequest,
        Layer::Deliver,
        Layer::Vote,
        Layer::Recovery,
        Layer::StrayReply,
        Layer::ClientSubmit,
        Layer::ClientReply,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::RunUntil => "sim.run_until",
            Layer::CoreStart => "core.start",
            Layer::CoreTimer => "core.timer",
            Layer::ClientRequest => "core.client_request",
            Layer::Deliver => "core.deliver",
            Layer::Vote => "sb.vote",
            Layer::Recovery => "core.recovery",
            Layer::StrayReply => "core.stray_reply",
            Layer::ClientSubmit => "client.submit",
            Layer::ClientReply => "client.reply",
        }
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

#[derive(Debug, Default)]
pub struct Spans {
    spans: [Span; Layer::ALL.len()],
    /// Transactions executed inside `core.deliver` spans.
    pub deliver_execs: u64,
    /// Handler time recorded since the enclosing parent span opened.
    open_child_ns: u64,
}

impl Spans {
    pub fn get(&self, layer: Layer) -> Span {
        self.spans[layer as usize]
    }
}

thread_local! {
    // The serial engine runs every handler on the thread that calls
    // `run_until`, so a thread-local table sees every span of the run.
    static SPANS: RefCell<Spans> = RefCell::new(Spans::default());
}

fn record_child(layer: Layer, ns: u64) {
    SPANS.with(|cell| {
        let mut spans = cell.borrow_mut();
        spans.open_child_ns += ns;
        let span = &mut spans.spans[layer as usize];
        span.count += 1;
        span.total_ns += ns;
    });
}

/// Time `body` as a parent span: the handler spans recorded while it runs
/// become its children.
pub fn parent_span<T>(layer: Layer, body: impl FnOnce() -> T) -> T {
    SPANS.with(|cell| cell.borrow_mut().open_child_ns = 0);
    let start = Instant::now();
    let out = body();
    let ns = elapsed_ns(start);
    SPANS.with(|cell| {
        let mut spans = cell.borrow_mut();
        let child_ns = std::mem::take(&mut spans.open_child_ns);
        let span = &mut spans.spans[layer as usize];
        span.count += 1;
        span.total_ns += ns;
        span.child_ns += child_ns;
    });
    out
}

/// Take the table collected so far, leaving an empty one behind.
pub fn take() -> Spans {
    SPANS.with(|cell| std::mem::take(&mut *cell.borrow_mut()))
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How a wrapped node's handler calls map onto layers.
pub trait Layered: Actor<NetMessage> {
    fn start_span(&self) -> Layer;
    fn timer_span(&self) -> Layer;
    /// The layer a message enters, or `None` for a `Consensus` message,
    /// which is a deliver or a vote depending on what the handler did.
    fn message_span(&self, msg: &NetMessage) -> Option<Layer>;
    /// `(blocks delivered, transactions executed)` so far; only asked of a
    /// node whose `message_span` returned `None`.
    fn progress(&self) -> (u64, u64);
}

impl Layered for ReplicaNode {
    fn start_span(&self) -> Layer {
        Layer::CoreStart
    }

    fn timer_span(&self) -> Layer {
        Layer::CoreTimer
    }

    fn message_span(&self, msg: &NetMessage) -> Option<Layer> {
        match msg {
            NetMessage::ClientRequest { .. } => Some(Layer::ClientRequest),
            NetMessage::Consensus { .. } => None,
            NetMessage::StateRequest { .. } | NetMessage::StateTransfer { .. } => {
                Some(Layer::Recovery)
            }
            NetMessage::ClientReply { .. } => Some(Layer::StrayReply),
        }
    }

    fn progress(&self) -> (u64, u64) {
        let executor = self.executor();
        (
            self.delivered_blocks(),
            executor.committed_count() + executor.aborted_count(),
        )
    }
}

impl Layered for ClientNode {
    fn start_span(&self) -> Layer {
        Layer::ClientSubmit
    }

    fn timer_span(&self) -> Layer {
        Layer::ClientSubmit
    }

    fn message_span(&self, _msg: &NetMessage) -> Option<Layer> {
        Some(Layer::ClientReply)
    }

    fn progress(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The timing actor: forwards every call to the node it wraps and records
/// the call as a child span. `as_any` forwards too, so
/// `Simulation::actor_as::<ReplicaNode>` still finds the wrapped node.
pub struct Timed<A>(pub A);

impl<A: Layered> Actor<NetMessage> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let start = Instant::now();
        self.0.on_start(ctx);
        record_child(self.0.start_span(), elapsed_ns(start));
    }

    fn on_message(&mut self, from: NodeId, msg: NetMessage, ctx: &mut Context<'_, NetMessage>) {
        if let Some(layer) = self.0.message_span(&msg) {
            let start = Instant::now();
            self.0.on_message(from, msg, ctx);
            record_child(layer, elapsed_ns(start));
            return;
        }
        let (blocks_before, executed_before) = self.0.progress();
        let start = Instant::now();
        self.0.on_message(from, msg, ctx);
        let ns = elapsed_ns(start);
        let (blocks_after, executed_after) = self.0.progress();
        if blocks_after > blocks_before {
            record_child(Layer::Deliver, ns);
            SPANS.with(|cell| cell.borrow_mut().deliver_execs += executed_after - executed_before);
        } else {
            record_child(Layer::Vote, ns);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, NetMessage>) {
        let start = Instant::now();
        self.0.on_timer(tag, ctx);
        record_child(self.0.timer_span(), elapsed_ns(start));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let start = Instant::now();
        self.0.on_recover(ctx);
        record_child(Layer::Recovery, elapsed_ns(start));
    }

    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
}
