//! Static dispatch over every concrete mitigation in the suite.
//!
//! The engine's hot loop used to call `&mut dyn Mitigation` once per
//! activation — a vtable indirection the optimiser cannot see through.
//! [`AnyMitigation`] closes the set: one enum variant per concrete
//! technique, so the engine makes **one** dispatch per interval segment
//! — a `match` whose arms inline the techniques' [`Mitigation::on_batch`]
//! kernels — instead of one per event.  The enum also forwards
//! `on_activate`, so the scalar reference loop reaches the eager paper
//! forms that MRLoc and the TiVaPRoMi variants keep as their kernels'
//! oracles.
//!
//! The enum lives here rather than in the harness because it closes
//! over the concrete types of this crate and `tivapromi`; the harness's
//! `techniques::build` constructs it and can still hand out
//! `Box<dyn Mitigation>` for callers that want type erasure.

use mem_trace::EventBatch;
use std::ops::Range;
use tivapromi::{ActionSink, CaPromi, Mitigation, MitigationAction, TimeVarying};

use crate::{CounterTree, Cra, Graphene, MrLoc, Para, ProHit, TwiCe};

/// Every concrete mitigation of the suite behind one `match`.
///
/// Covers the nine Table III techniques (the three purely probabilistic
/// TiVaPRoMi variants share the [`TimeVarying`] engine) plus the CAT
/// and Graphene extensions.
#[derive(Debug)]
pub enum AnyMitigation {
    /// PARA (Kim et al., ISCA 2014).
    Para(Para),
    /// ProHit (Son et al., DAC 2017).
    ProHit(ProHit),
    /// MRLoc (You & Yang, DAC 2019).
    MrLoc(MrLoc),
    /// TWiCe (Lee et al., ISCA 2019).
    TwiCe(TwiCe),
    /// CRA (Kim et al., CAL 2015).
    Cra(Cra),
    /// CAT counter tree (Seyedzadeh et al.).
    CounterTree(CounterTree),
    /// Graphene (Park et al., MICRO 2020).
    Graphene(Graphene),
    /// LiPRoMi / LoPRoMi / LoLiPRoMi (shared time-varying engine).
    TimeVarying(TimeVarying),
    /// CaPRoMi (counter-assisted TiVaPRoMi).
    CaPromi(CaPromi),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyMitigation::Para($inner) => $body,
            AnyMitigation::ProHit($inner) => $body,
            AnyMitigation::MrLoc($inner) => $body,
            AnyMitigation::TwiCe($inner) => $body,
            AnyMitigation::Cra($inner) => $body,
            AnyMitigation::CounterTree($inner) => $body,
            AnyMitigation::Graphene($inner) => $body,
            AnyMitigation::TimeVarying($inner) => $body,
            AnyMitigation::CaPromi($inner) => $body,
        }
    };
}

impl Mitigation for AnyMitigation {
    fn name(&self) -> &str {
        dispatch!(self, m => m.name())
    }

    fn on_activate(
        &mut self,
        bank: dram_sim::BankId,
        row: dram_sim::RowAddr,
        actions: &mut Vec<MitigationAction>,
    ) {
        dispatch!(self, m => m.on_activate(bank, row, actions))
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        dispatch!(self, m => m.on_refresh_interval(actions))
    }

    fn storage_bits_per_bank(&self) -> u64 {
        dispatch!(self, m => m.storage_bits_per_bank())
    }

    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // One match per interval segment; each arm monomorphises the
        // technique's kernel.
        dispatch!(self, m => m.on_batch(batch, range, sink))
    }
}

impl From<Para> for AnyMitigation {
    fn from(m: Para) -> Self {
        AnyMitigation::Para(m)
    }
}

impl From<ProHit> for AnyMitigation {
    fn from(m: ProHit) -> Self {
        AnyMitigation::ProHit(m)
    }
}

impl From<MrLoc> for AnyMitigation {
    fn from(m: MrLoc) -> Self {
        AnyMitigation::MrLoc(m)
    }
}

impl From<TwiCe> for AnyMitigation {
    fn from(m: TwiCe) -> Self {
        AnyMitigation::TwiCe(m)
    }
}

impl From<Cra> for AnyMitigation {
    fn from(m: Cra) -> Self {
        AnyMitigation::Cra(m)
    }
}

impl From<CounterTree> for AnyMitigation {
    fn from(m: CounterTree) -> Self {
        AnyMitigation::CounterTree(m)
    }
}

impl From<Graphene> for AnyMitigation {
    fn from(m: Graphene) -> Self {
        AnyMitigation::Graphene(m)
    }
}

impl From<TimeVarying> for AnyMitigation {
    fn from(m: TimeVarying) -> Self {
        AnyMitigation::TimeVarying(m)
    }
}

impl From<CaPromi> for AnyMitigation {
    fn from(m: CaPromi) -> Self {
        AnyMitigation::CaPromi(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{BankId, Geometry, RowAddr};
    use mem_trace::TraceEvent;

    #[test]
    fn enum_forwards_every_trait_method() {
        let g = Geometry::scaled_down(64);
        let mut any: AnyMitigation = Para::paper(&g, 1).into();
        assert_eq!(any.name(), "PARA");
        assert_eq!(any.storage_bits_per_bank(), 0);
        let mut actions = Vec::new();
        any.on_refresh_interval(&mut actions);
        for _ in 0..10_000 {
            any.on_activate(BankId(0), RowAddr(5), &mut actions);
        }
        assert!(!actions.is_empty());
    }

    #[test]
    fn enum_batch_matches_wrapped_technique() {
        let g = Geometry::scaled_down(64);
        let mut direct = Para::paper(&g, 9);
        let mut any: AnyMitigation = Para::paper(&g, 9).into();

        let events: Vec<TraceEvent> = (0..4096)
            .map(|i| TraceEvent::benign(BankId(0), RowAddr(i % 64)))
            .collect();
        let mut batch = EventBatch::new();
        batch.push_interval(&events);

        let mut direct_sink = ActionSink::new();
        direct.on_batch(&batch, batch.segment(0), &mut direct_sink);
        let mut any_sink = ActionSink::new();
        any.on_batch(&batch, batch.segment(0), &mut any_sink);

        let drain = |sink: &mut ActionSink| {
            let mut out = Vec::new();
            for tag in 0..events.len() as u32 {
                while let Some(a) = sink.next_for(tag) {
                    out.push(a);
                }
            }
            out
        };
        assert_eq!(drain(&mut direct_sink), drain(&mut any_sink));
    }
}
