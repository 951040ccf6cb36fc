//! The tenancy core both fleet runners stand on.
//!
//! A [`crate::fleet::Fleet`] (closed roster, round-robin) and a
//! [`crate::churn::ChurnFleet`] (open membership, virtual time) differ in
//! how they step and when tenants come and go, not in what a tenant is
//! attached to. A [`Cell`] owns that shared part: one engine, one server
//! pool, the shared link with the banked handles of departed members, the
//! telemetry fan-out and its load tracker, the server policy and the
//! retirement window. It is the only code that opens a tenant
//! ([`Cell::open`]) or closes one ([`Cell::close`]), so both runners wire
//! sessions identically by construction.
//!
//! One [`FleetConfig`] describes a cell's tenancy: [`Cell::new`] is its
//! one reader and [`check_tenancy`] its one validator.
//!
//! A cell also owns what its tenants would otherwise each compute for
//! themselves: its [`CellMemo`] holds the fixed task labels, the Eq. (1)
//! partitions, the last ring table's disc areas and the entropy model's
//! layer prices, each a pure function of the display, the gaze, the
//! engine or the priced inputs rather than of the tenant.

use crate::fleet::{FleetConfig, SessionSpec};
use crate::foveation::{EntropyMemo, PartitionMemo};
use crate::sched::ServerPolicy;
use crate::schemes::{Label, Rig, ServerPool, SystemConfig};
use crate::session::Session;
use crate::telemetry::SinkSet;
use qvr_hvs::{DisplayGeometry, GazePoint, MarModel};
use qvr_net::{NetworkChannel, SharedChannel};
use qvr_scene::{ComplexityField, RingAreas, TriangleFractionCache};
use qvr_sim::SharedEngine;
use std::cell::RefCell;
use std::rc::Rc;

/// Derives a tenant's seed from the fleet seed and its arrival ordinal
/// (identity for 0, so the first tenant draws the same streams as a
/// single-user run on the fleet seed).
pub(crate) fn session_seed(seed: u64, ordinal: usize) -> u64 {
    seed ^ (ordinal as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Checks the tenancy `config` describes (every [`Cell`] and admission
/// controller runs it first).
///
/// # Panics
///
/// Panics if the server pool has no unit, the link has no stream, the
/// server policy is invalid for the pool, or a retirement window is set
/// but not positive and finite.
pub(crate) fn check_tenancy(config: &FleetConfig) {
    assert!(
        config.server_units > 0,
        "the server pool needs at least one unit"
    );
    assert!(
        config.link_streams > 0,
        "the link needs at least one stream"
    );
    config.server_policy.validate(config.server_units);
    if let Some(window) = config.retire_window_ms {
        assert!(
            window.is_finite() && window > 0.0,
            "the retirement window must be positive and finite, got {window} ms"
        );
    }
}

/// What every tenant of a cell shares because it depends on the cell, not
/// on the tenant. Every entry is a pure function of its key, so a tenant
/// reads the same bits from it as it would compute itself. Each rig holds
/// the memo through one `Rc` handle (a private [`Rig::new`] builds its
/// own), and no `RefCell` borrow of it outlives a call into another layer.
#[derive(Debug)]
pub(crate) struct CellMemo {
    /// The fixed task labels, interned once into the cell's engine and
    /// indexed by [`Label`].
    labels: [Rc<str>; 12],
    /// Eq. (1) partitions under the cell's MAR model, per display and
    /// clamped e1.
    pub(crate) partitions: PartitionMemo,
    /// The disc areas of the last ring table any tenant recorded, keyed by
    /// field of view and gaze.
    areas: RefCell<RingAreas>,
    /// Entropy-model block costs and attenuation tables, per priced input.
    pub(crate) entropy: EntropyMemo,
}

impl CellMemo {
    /// The memo of a cell running `engine` under the MAR model `mar`.
    pub(crate) fn new(engine: &SharedEngine, mar: MarModel) -> Self {
        CellMemo {
            labels: Label::intern_all(engine),
            partitions: PartitionMemo::new(mar),
            areas: RefCell::new(RingAreas::new()),
            entropy: EntropyMemo::new(),
        }
    }

    /// `label`'s handle in the cell engine's pool.
    pub(crate) fn label(&self, label: Label) -> &Rc<str> {
        &self.labels[label as usize]
    }

    /// Records `field`'s ring table at `gaze` in a tenant's `cache`
    /// ([`ComplexityField::record_rings_through`]), taking its disc areas
    /// from the cell's slot when the last table recorded there has them.
    pub(crate) fn record_rings(
        &self,
        field: &ComplexityField,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
    ) {
        // The slot leaves its cell for the call, so no borrow spans it.
        let mut slot = self.areas.take();
        field.record_rings_through(display, gaze, cache, &mut slot);
        self.areas.replace(slot);
    }
}

/// The shared substrate of one fleet: what every tenant is attached to.
#[derive(Debug)]
pub(crate) struct Cell {
    system: SystemConfig,
    seed: u64,
    server_policy: ServerPolicy,
    /// Windowed task retirement (see [`FleetConfig::retire_window_ms`]);
    /// each runner retires on its own cadence.
    pub(crate) retire_window_ms: Option<f64>,
    /// The engine every tenant submits into.
    pub(crate) engine: SharedEngine,
    /// The server GPU and encoder pools.
    pub(crate) server: ServerPool,
    /// The shared wireless link every streaming tenant joins.
    link: SharedChannel,
    /// Departed members' link handles, reused (via
    /// [`SharedChannel::rejoin`]) by later joiners so the channel's member
    /// table stays O(peak concurrency) instead of O(total arrivals).
    free_links: Vec<SharedChannel>,
    /// The telemetry fan-out every frame event streams through; its load
    /// tracker is what measured-load placement reads.
    pub(crate) sinks: SinkSet,
    /// What every tenant's rig shares (see [`CellMemo`]).
    pub(crate) memo: Rc<CellMemo>,
}

impl Cell {
    /// Builds the substrate of the tenancy `config` describes: its system
    /// and seed, server pool and policy, link streams and fairness,
    /// retirement window and telemetry (not the runner's sessions, frames
    /// or stepping). `aggregate` switches on the aggregate stream (closed
    /// fleets, whose summary is that stream's product).
    ///
    /// # Panics
    ///
    /// Panics if the tenancy is invalid ([`check_tenancy`]).
    pub(crate) fn new(config: &FleetConfig, aggregate: bool) -> Self {
        check_tenancy(config);
        let system = config.system;
        let engine = SharedEngine::new();
        let server = ServerPool::on(&engine, config.server_units);
        let memo = Rc::new(CellMemo::new(&engine, system.mar));
        let sinks =
            SinkSet::from_config(&config.telemetry, &system, config.server_units, aggregate);
        let link = SharedChannel::new(NetworkChannel::new(system.network, config.seed));
        link.set_policy(config.fairness);
        link.set_concurrent_streams(config.link_streams);
        Cell {
            system,
            seed: config.seed,
            server_policy: config.server_policy,
            retire_window_ms: config.retire_window_ms,
            engine,
            server,
            link,
            free_links: Vec::new(),
            sinks,
            memo,
        }
    }

    /// Opens the tenant with arrival ordinal `ordinal` on engine slot
    /// `slot`, starting its controller at `initial_e1_deg` when given (a
    /// warm start) instead of the configured default.
    ///
    /// Only tenants that move frame data over the link join it (reusing a
    /// departed member's handle when one is banked), so a LocalOnly
    /// neighbour never debits the streamers' shares. Everyone else gets a
    /// *private* channel: a clone of the shared handle would let any code
    /// path touching the link mutate the shared channel's RNG/ACK state
    /// without membership, silently coupling tenants. The slot's measured
    /// load starts empty (a recycled slot must not inherit its
    /// predecessor's profile) before placement resolves against it.
    pub(crate) fn open(
        &mut self,
        spec: &SessionSpec,
        ordinal: usize,
        slot: usize,
        initial_e1_deg: Option<f64>,
    ) -> Session {
        let seed = session_seed(self.seed, ordinal);
        let channel = if spec.scheme.uses_network() {
            match self.free_links.pop() {
                Some(handle) => {
                    handle.rejoin(spec.share);
                    handle
                }
                None => self.link.join(spec.share),
            }
        } else {
            SharedChannel::new(NetworkChannel::new(self.system.network, seed))
        };
        let mut system = self.system;
        if let Some(e1) = initial_e1_deg {
            system.initial_e1_deg = e1;
        }
        self.sinks.load.reset(slot);
        let directive = self.server_policy.directive(
            spec.scheme.tenant_class(),
            self.server.units(),
            slot,
            &self.sinks.load,
        );
        let rig = Rig::build(
            &system,
            self.engine.clone(),
            channel,
            self.server,
            Some(slot),
            directive,
            Rc::clone(&self.memo),
        );
        Session::new(spec.scheme, &system, spec.profile.clone(), seed, rig)
    }

    /// Closes a departing tenant: releases its link claim (the survivors'
    /// allocations renormalize) and banks the vacated member handle for
    /// the next joiner.
    pub(crate) fn close(&mut self, session: &Session) {
        let handle = session.channel_handle();
        session.release_link();
        if handle.member().is_some() {
            self.free_links.push(handle);
        }
    }
}
