//! Wireless network channel models for the Q-VR reproduction.
//!
//! The paper computes network latency by dividing compressed frame size by
//! downlink bandwidth, inserts white noise at 20 dB SNR "to better reflect
//! reality", and validates against netcat channels (Sec. 5). Table 2 lists
//! the three technologies: Wi-Fi 200 Mbps, 4G LTE 100 Mbps, early 5G
//! 500 Mbps. This crate implements exactly that model, plus the ACK-derived
//! throughput observability that LIWC's latency predictor reads (Sec. 4.1).
//!
//! # Shared links and fairness
//!
//! A [`NetworkChannel`] holds a link's state, and its only public function
//! is [`NetworkChannel::new`]: every operation goes through
//! [`SharedChannel`] handles, the link's one API, so member ids stay inside
//! this crate. An unbound handle ([`SharedChannel::new`]) transfers
//! anonymously at the plain equal time-share. A multi-tenant link
//! arbitrates its budget with a pluggable [`FairnessPolicy`]: tenants
//! register a [`LinkShare`] via [`SharedChannel::join`] and get back a
//! member-bound handle whose transfers (and ACK observations) resolve
//! through the policy:
//!
//! * [`FairnessPolicy::EqualShare`] — the classic MAC: every active member
//!   time-shares identically (`occupancy / concurrent_streams`). The
//!   default, and bit-identical to the pre-policy engine.
//! * [`FairnessPolicy::Weighted`] — byte-fair WFQ: allocated rates are
//!   proportional to member weights. Each byte a slow-MCS member receives
//!   costs `1 / mcs_efficiency` airtime, so a cell-edge tenant drags the
//!   whole cell (the classic 802.11 rate-anomaly).
//! * [`FairnessPolicy::Airtime`] — airtime-fair: members get *airtime*
//!   proportional to weight and slow-MCS tenants pay for their own
//!   modulation rate instead of billing the cell.
//!
//! Per-member rate caps apply last in every mode.
//!
//! # Example
//!
//! ```
//! use qvr_net::{NetworkChannel, NetworkPreset, SharedChannel};
//!
//! let ch = SharedChannel::new(NetworkChannel::new(NetworkPreset::WiFi, 42));
//! // A 550 KB compressed background at ~200 Mbps takes ~22 ms.
//! let t = ch.download_ms(550.0 * 1024.0);
//! assert!((15.0..35.0).contains(&t));
//! // LIWC reads a smoothed throughput estimate off the ACK stream.
//! assert!(ch.observed_download_mbps() > 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The network technologies of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkPreset {
    /// Wi-Fi: 200 Mbps downlink.
    WiFi,
    /// 4G LTE: 100 Mbps downlink.
    Lte4G,
    /// Early 5G: 500 Mbps downlink.
    Early5G,
}

impl NetworkPreset {
    /// All presets in Table 2 order.
    #[must_use]
    pub fn all() -> [NetworkPreset; 3] {
        [
            NetworkPreset::WiFi,
            NetworkPreset::Lte4G,
            NetworkPreset::Early5G,
        ]
    }

    /// Downlink (download) bandwidth in Mbps (Table 2).
    #[must_use]
    pub fn download_mbps(&self) -> f64 {
        match self {
            NetworkPreset::WiFi => 200.0,
            NetworkPreset::Lte4G => 100.0,
            NetworkPreset::Early5G => 500.0,
        }
    }

    /// Uplink bandwidth in Mbps (pose/input upload; small traffic).
    #[must_use]
    pub fn upload_mbps(&self) -> f64 {
        match self {
            NetworkPreset::WiFi => 80.0,
            NetworkPreset::Lte4G => 30.0,
            NetworkPreset::Early5G => 150.0,
        }
    }

    /// One-way base propagation + queueing latency, ms.
    #[must_use]
    pub fn base_latency_ms(&self) -> f64 {
        match self {
            NetworkPreset::WiFi => 2.0,
            NetworkPreset::Lte4G => 8.0,
            NetworkPreset::Early5G => 1.5,
        }
    }

    /// The paper's display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            NetworkPreset::WiFi => "Wi-Fi",
            NetworkPreset::Lte4G => "4G LTE",
            NetworkPreset::Early5G => "Early 5G",
        }
    }
}

impl fmt::Display for NetworkPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a shared link splits its bandwidth budget between members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FairnessPolicy {
    /// Equal time-share for every active member (the classic MAC and the
    /// pre-policy behaviour): each transfer runs at
    /// `nominal / max(1, occupancy / streams)`. Member weights and MCS
    /// efficiencies are ignored; per-member caps still clamp.
    #[default]
    EqualShare,
    /// Byte-fair weighted queueing: allocated *byte* rates are proportional
    /// to member weights. Receiving a byte at a reduced modulation rate
    /// costs proportionally more airtime, so one slow-MCS member shrinks
    /// everyone's share (the 802.11 performance anomaly, reproduced on
    /// purpose as the foil for [`FairnessPolicy::Airtime`]).
    Weighted,
    /// Airtime-fair scheduling: members get link *time* proportional to
    /// weight, and a slow-MCS member's byte rate is discounted by its own
    /// `mcs_efficiency` instead of being subsidised by the cell.
    Airtime,
}

impl FairnessPolicy {
    /// All policies, default first.
    #[must_use]
    pub fn all() -> [FairnessPolicy; 3] {
        [
            FairnessPolicy::EqualShare,
            FairnessPolicy::Weighted,
            FairnessPolicy::Airtime,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FairnessPolicy::EqualShare => "equal-share",
            FairnessPolicy::Weighted => "weighted",
            FairnessPolicy::Airtime => "airtime",
        }
    }
}

impl fmt::Display for FairnessPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One member's claim on a shared link, consumed by the link's
/// [`FairnessPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkShare {
    /// Relative share weight, `> 0` and finite. Unit weight is the default;
    /// under [`FairnessPolicy::EqualShare`] weights are ignored.
    pub weight: f64,
    /// Hard cap on this member's allocated downlink rate, Mbps. Applied
    /// last in every policy mode.
    pub cap_mbps: Option<f64>,
    /// Fraction of the nominal PHY rate this station's modulation scheme
    /// achieves, in `(0, 1]` (1.0 = full-rate MCS near the AP; 0.5 = a
    /// cell-edge tenant). [`FairnessPolicy::Weighted`] charges the *cell*
    /// for a low efficiency; [`FairnessPolicy::Airtime`] charges the member.
    pub mcs_efficiency: f64,
}

impl Default for LinkShare {
    fn default() -> Self {
        LinkShare {
            weight: 1.0,
            cap_mbps: None,
            mcs_efficiency: 1.0,
        }
    }
}

impl LinkShare {
    /// A share with an explicit weight and defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    #[must_use]
    pub fn weighted(weight: f64) -> Self {
        let s = LinkShare {
            weight,
            ..LinkShare::default()
        };
        s.validate();
        s
    }

    /// Returns a copy with a hard downlink rate cap in Mbps.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not finite and positive.
    #[must_use]
    pub fn with_cap_mbps(mut self, cap: f64) -> Self {
        self.cap_mbps = Some(cap);
        self.validate();
        self
    }

    /// Returns a copy with an MCS efficiency in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `eff` is outside `(0, 1]`.
    #[must_use]
    pub fn with_mcs_efficiency(mut self, eff: f64) -> Self {
        self.mcs_efficiency = eff;
        self.validate();
        self
    }

    /// Checks the share's invariants.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not finite-positive, the cap (when present)
    /// is not finite-positive, or the MCS efficiency is outside `(0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.weight.is_finite() && self.weight > 0.0,
            "link share weight must be finite and positive"
        );
        if let Some(cap) = self.cap_mbps {
            assert!(
                cap.is_finite() && cap > 0.0,
                "link rate cap must be finite and positive"
            );
        }
        assert!(
            self.mcs_efficiency > 0.0 && self.mcs_efficiency <= 1.0,
            "MCS efficiency must be in (0, 1]"
        );
    }
}

/// Resolves every member's allocated downlink rate (Mbps, pre-jitter) on a
/// link with `nominal_mbps` per-stream bandwidth and `streams` concurrent
/// full-rate streams (MU-MIMO/OFDMA spatial capacity).
///
/// The link's aggregate budget is `nominal · min(members, streams)`
/// stream-seconds of airtime per second; no member can exceed the
/// single-stream rate `nominal · mcs_efficiency`, and per-member caps apply
/// last. This is a pure function so fairness invariants (non-negativity,
/// capacity conservation, weight proportionality, cap respect) can be
/// property-tested in isolation; the stateful [`NetworkChannel`] resolves
/// every member transfer through it.
#[must_use]
pub fn allocate_mbps(
    policy: FairnessPolicy,
    nominal_mbps: f64,
    streams: usize,
    members: &[LinkShare],
) -> Vec<f64> {
    let n = members.len();
    if n == 0 {
        return Vec::new();
    }
    let k = streams.max(1);
    // Stream-slots the membership can actually occupy.
    let slots = n.min(k) as f64;
    let clamp_cap = |rate: f64, m: &LinkShare| m.cap_mbps.map_or(rate, |c| rate.min(c));
    match policy {
        FairnessPolicy::EqualShare => {
            let share = nominal_mbps / (n as f64 / k as f64).max(1.0);
            members.iter().map(|m| clamp_cap(share, m)).collect()
        }
        FairnessPolicy::Weighted => {
            // Byte-fair: equalised bytes-per-weight, with each byte costing
            // `1 / mcs_efficiency` airtime out of the shared `slots` budget.
            let airtime_weight: f64 = members.iter().map(|m| m.weight / m.mcs_efficiency).sum();
            members
                .iter()
                .map(|m| {
                    let r = (slots * nominal_mbps * m.weight / airtime_weight)
                        .min(nominal_mbps * m.mcs_efficiency);
                    clamp_cap(r, m)
                })
                .collect()
        }
        FairnessPolicy::Airtime => {
            // Airtime-fair: weight buys link *time*; the member's own MCS
            // converts time to bytes.
            let total_weight: f64 = members.iter().map(|m| m.weight).sum();
            members
                .iter()
                .map(|m| {
                    let airtime = (slots * m.weight / total_weight).min(1.0);
                    clamp_cap(nominal_mbps * m.mcs_efficiency * airtime, m)
                })
                .collect()
        }
    }
}

/// Per-member state on a shared channel: the registered share, a
/// member-local ACK monitor (each tenant observes its *own* ACK stream),
/// and the allocation cache. Allocations only change on join / policy /
/// share / stream mutations — exactly the `reanchor` call sites — so the
/// per-transfer hot path reads the cache instead of re-running the
/// allocator over every member.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    share: LinkShare,
    observed_mbps: f64,
    /// Policy-allocated downlink rate, Mbps (pre-jitter), caps applied.
    allocated_mbps: f64,
    /// The same allocation with per-member caps ignored — the basis for
    /// the uplink share fraction (caps are downlink-only).
    allocated_uncapped_mbps: f64,
    /// Whether the member currently occupies the link. Leavers keep their
    /// slot (ids stay stable) but stop counting toward occupancy and drop
    /// out of the allocation, so the remaining members' shares renormalize.
    active: bool,
}

/// The state of one seeded link: SNR-derived throughput jitter, the ACK
/// monitor and the member table. Its only public function is
/// [`NetworkChannel::new`]; every operation on it goes through a
/// [`SharedChannel`] handle, the link's API.
#[derive(Debug, Clone)]
pub struct NetworkChannel {
    preset: NetworkPreset,
    /// Relative throughput jitter (σ of the multiplicative factor):
    /// noise amplitude is `10^(−SNR/20)` of the signal. Computed once at
    /// construction from `SNR_DB`.
    jitter_sigma: f64,
    rng: StdRng,
    /// EMA of effective downlink throughput, Mbps (the "ACK monitor").
    observed_mbps: f64,
    /// EMA smoothing factor.
    alpha: f64,
    transfers: u64,
    /// Concurrent sessions drawing from this channel's bandwidth budget.
    /// The default of 1 is the classic private-channel behaviour; joins and
    /// leaves set it to the active member count, so every transfer sees
    /// the shared rate.
    occupancy: usize,
    /// Concurrent full-rate streams the link can serve (MU-MIMO/OFDMA
    /// spatial capacity). Sharing degrades rates only once `occupancy`
    /// exceeds this; the default of 1 is classic single-stream sharing.
    streams: usize,
    /// How the budget splits between registered members.
    policy: FairnessPolicy,
    /// Registered members (weights, caps, MCS, per-member ACK monitors).
    /// Empty for a private channel.
    members: Vec<Member>,
}

/// The link's signal-to-noise ratio, dB: the paper inserts "white noise
/// at 20 dB SNR" (Sec. 5).
const SNR_DB: f64 = 20.0;

impl NetworkChannel {
    /// Creates a channel at the paper's 20 dB SNR.
    #[must_use]
    pub fn new(preset: NetworkPreset, seed: u64) -> Self {
        NetworkChannel {
            preset,
            jitter_sigma: 10f64.powf(-SNR_DB / 20.0),
            rng: StdRng::seed_from_u64(seed),
            observed_mbps: preset.download_mbps(),
            alpha: 0.25,
            transfers: 0,
            occupancy: 1,
            streams: 1,
            policy: FairnessPolicy::EqualShare,
            members: Vec::new(),
        }
    }

    /// Number of members currently occupying the link.
    fn active_members(&self) -> usize {
        self.members.iter().filter(|m| m.active).count()
    }

    /// Recomputes the allocation cache and re-anchors the channel-level
    /// and per-member ACK estimates to the policy-allocated rates, so
    /// planning reflects a membership/policy/stream change immediately
    /// instead of after the EMA warms up. Every mutation that can move an
    /// allocation funnels through here; the per-transfer hot path only
    /// reads the cache.
    fn reanchor(&mut self) {
        self.observed_mbps = self.preset.download_mbps() / self.contention_divisor();
        // Only active members occupy the link: the allocator runs over the
        // survivors, so a leave renormalizes everyone else's share.
        let shares: Vec<LinkShare> = self
            .members
            .iter()
            .filter(|m| m.active)
            .map(|m| m.share)
            .collect();
        let capped = allocate_mbps(
            self.policy,
            self.preset.download_mbps(),
            self.streams,
            &shares,
        );
        // Caps are downlink-only; the uplink mirrors the cap-free share.
        let uncapped_shares: Vec<LinkShare> = shares
            .iter()
            .map(|s| LinkShare {
                cap_mbps: None,
                ..*s
            })
            .collect();
        let uncapped = allocate_mbps(
            self.policy,
            self.preset.download_mbps(),
            self.streams,
            &uncapped_shares,
        );
        let mut rates = capped.into_iter().zip(uncapped);
        for member in &mut self.members {
            if member.active {
                let (rate, base) = rates.next().expect("one rate per active member");
                member.observed_mbps = rate;
                member.allocated_mbps = rate;
                member.allocated_uncapped_mbps = base;
            } else {
                member.observed_mbps = 0.0;
                member.allocated_mbps = 0.0;
                member.allocated_uncapped_mbps = 0.0;
            }
        }
    }

    /// The rate divisor implied by occupancy over stream capacity, `≥ 1`.
    fn contention_divisor(&self) -> f64 {
        (self.occupancy as f64 / self.streams as f64).max(1.0)
    }

    /// Samples this transfer's effective throughput factor in `(0.5, 1.0]`-
    /// ish territory: AWGN reduces effective capacity; deep fades hurt more
    /// than lucky frames help.
    fn throughput_factor(&mut self) -> f64 {
        let sigma = self.jitter_sigma;
        // Two-sided Gaussian jitter with a slight downward bias (noise can
        // only destroy capacity on average).
        let g: f64 = {
            // Box-Muller from two uniforms (StdRng has no normal sampler
            // without rand_distr; this keeps dependencies lean).
            let u1: f64 = self.rng.gen_range(1e-9..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        (1.0 - sigma * (0.5 + 0.8 * g).abs()).clamp(0.3, 1.0)
    }

    /// This transfer's effective downlink rate for `member` after applying
    /// the fairness policy and the sampled jitter `factor`.
    ///
    /// The anonymous equal-share arm keeps the pre-policy expression
    /// verbatim (multiply-then-divide) so the default mode stays
    /// bit-identical to the original engine.
    fn effective_download_mbps(&self, member: Option<usize>, factor: f64) -> f64 {
        match (self.policy, member) {
            (FairnessPolicy::EqualShare, m) => {
                let mut mbps = self.preset.download_mbps() * factor / self.contention_divisor();
                if let Some(cap) = m.and_then(|id| self.members[id].share.cap_mbps) {
                    mbps = mbps.min(cap * factor);
                }
                mbps
            }
            (_, None) => self.preset.download_mbps() * factor / self.contention_divisor(),
            (_, Some(id)) => self.members[id].allocated_mbps * factor,
        }
    }

    /// Pure transfer time for `bytes` as `member` (anonymously for
    /// `None`), with throughput jitter but without the base propagation
    /// latency; updates the ACK estimates and the transfer count.
    ///
    /// # Panics
    ///
    /// Panics if `member` names a slot that has left the link.
    fn transfer_ms(&mut self, member: Option<usize>, bytes: f64) -> f64 {
        if let Some(id) = member {
            assert!(
                self.members[id].active,
                "link member {id} has left and cannot transfer"
            );
        }
        let factor = self.throughput_factor();
        let mbps = self.effective_download_mbps(member, factor);
        let transfer = bytes.max(0.0) * 8.0 / (mbps * 1_000.0);
        self.observed_mbps = (1.0 - self.alpha) * self.observed_mbps + self.alpha * mbps;
        if let Some(id) = member {
            let m = &mut self.members[id];
            m.observed_mbps = (1.0 - self.alpha) * m.observed_mbps + self.alpha * mbps;
        }
        self.transfers += 1;
        transfer
    }
}

/// A cloneable handle to one [`NetworkChannel`], and the link's only API:
/// several sessions draw from a single bandwidth budget through handles
/// on it (the multi-tenant shared-link mode). All methods take `&self`
/// and borrow the channel internally. Sampling order across sharers is
/// whatever order they call in — deterministic under deterministic
/// session scheduling.
///
/// A handle is either **unbound** (anonymous equal time-share, the
/// [`SharedChannel::new`] default) or **member-bound** (returned by
/// [`SharedChannel::join`]): a bound handle's transfers and ACK
/// observations resolve through the link's [`FairnessPolicy`] for that
/// member. Cloning preserves the binding.
#[derive(Debug, Clone)]
pub struct SharedChannel {
    channel: Rc<RefCell<NetworkChannel>>,
    member: Option<usize>,
}

impl SharedChannel {
    /// Wraps a channel in a shareable, unbound handle.
    #[must_use]
    pub fn new(channel: NetworkChannel) -> Self {
        SharedChannel {
            channel: Rc::new(RefCell::new(channel)),
            member: None,
        }
    }

    /// Registers a member with the given share and returns a handle bound
    /// to it, aliasing the same budget. The link's occupancy becomes the
    /// active member count, and every member's ACK monitor is re-anchored
    /// to its new allocated rate (shares shift when the membership grows).
    ///
    /// # Panics
    ///
    /// Panics if the share is invalid (see [`LinkShare::validate`]).
    #[must_use]
    pub fn join(&self, share: LinkShare) -> SharedChannel {
        share.validate();
        let ch = &mut *self.channel.borrow_mut();
        ch.members.push(Member {
            share,
            observed_mbps: 0.0,
            allocated_mbps: 0.0,
            allocated_uncapped_mbps: 0.0,
            active: true,
        });
        ch.occupancy = ch.active_members();
        ch.reanchor();
        SharedChannel {
            channel: Rc::clone(&self.channel),
            member: Some(ch.members.len() - 1),
        }
    }

    /// The member this handle is bound to, if any.
    #[must_use]
    pub fn member(&self) -> Option<usize> {
        self.member
    }

    /// Deregisters this handle's member from the link (a session leaving
    /// mid-run): its [`LinkShare`] drops out of the allocation, occupancy
    /// falls, and every remaining member's rate renormalizes over the
    /// survivors. The slot stays reserved, so ids remain stable and the
    /// handle can [`SharedChannel::rejoin`] later.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unbound or its member already left.
    pub fn leave(&self) {
        let id = self.member.expect("cannot leave with an unbound handle");
        let ch = &mut *self.channel.borrow_mut();
        assert!(ch.members[id].active, "link member {id} already left");
        ch.members[id].active = false;
        ch.occupancy = ch.active_members();
        ch.reanchor();
    }

    /// Re-registers this handle's departed member with a (possibly new)
    /// share.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unbound, the member is still active, or the
    /// share is invalid.
    pub fn rejoin(&self, share: LinkShare) {
        let id = self.member.expect("cannot rejoin with an unbound handle");
        share.validate();
        let ch = &mut *self.channel.borrow_mut();
        assert!(!ch.members[id].active, "link member {id} is still active");
        ch.members[id].share = share;
        ch.members[id].active = true;
        ch.occupancy = ch.active_members();
        ch.reanchor();
    }

    /// Whether this handle's member currently occupies the link (unbound
    /// handles are never active members).
    #[must_use]
    pub fn member_is_active(&self) -> bool {
        self.member
            .is_some_and(|id| self.channel.borrow().members[id].active)
    }

    /// Number of members currently occupying the link.
    #[must_use]
    pub fn active_members(&self) -> usize {
        self.channel.borrow().active_members()
    }

    /// Sets the fairness policy arbitrating the link's budget.
    pub fn set_policy(&self, policy: FairnessPolicy) {
        let ch = &mut *self.channel.borrow_mut();
        ch.policy = policy;
        ch.reanchor();
    }

    /// The fairness policy in force.
    #[must_use]
    pub fn policy(&self) -> FairnessPolicy {
        self.channel.borrow().policy
    }

    /// Number of registered members (departed slots included).
    #[must_use]
    pub fn members(&self) -> usize {
        self.channel.borrow().members.len()
    }

    /// The downlink rate (Mbps, pre-jitter) the fairness policy allocates
    /// this handle: its member's policy share, or the plain equal
    /// time-share when unbound.
    #[must_use]
    pub fn allocated_download_mbps(&self) -> f64 {
        let ch = self.channel.borrow();
        match self.member {
            None => ch.preset.download_mbps() / ch.contention_divisor(),
            Some(id) => ch.members[id].allocated_mbps,
        }
    }

    /// Replaces this handle's member share (admission-control degrade or
    /// upgrade) and re-anchors every member's ACK monitor.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unbound or the share is invalid.
    pub fn set_share(&self, share: LinkShare) {
        let id = self
            .member
            .expect("cannot set the share of an unbound handle");
        share.validate();
        let ch = &mut *self.channel.borrow_mut();
        ch.members[id].share = share;
        ch.reanchor();
    }

    /// Concurrent sessions sharing the link.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.channel.borrow().occupancy
    }

    /// Sets the number of concurrent full-rate streams the link serves
    /// (MU-MIMO/OFDMA spatial capacity). With `k` streams, up to `k`
    /// sharers see private-rate transfers; beyond that the per-transfer
    /// rate scales down by `occupancy / k`. The default of 1 degrades with
    /// the very first extra sharer (classic single-stream MAC).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn set_concurrent_streams(&self, k: usize) {
        assert!(k > 0, "a link needs at least one stream");
        let ch = &mut *self.channel.borrow_mut();
        ch.streams = k;
        ch.reanchor();
    }

    /// The configured preset.
    #[must_use]
    pub fn preset(&self) -> NetworkPreset {
        self.channel.borrow().preset
    }

    /// Number of downlink transfers performed on the link, through any
    /// handle.
    #[must_use]
    pub fn transfers(&self) -> u64 {
        self.channel.borrow().transfers
    }

    /// Downloads `bytes` as this handle's member (anonymously when
    /// unbound); returns latency in ms, base propagation latency included,
    /// and updates the ACK-observed throughput estimates. The transfer's
    /// rate resolves through the fairness policy for the member.
    ///
    /// # Panics
    ///
    /// Panics if the handle's member has left the link.
    pub fn download_ms(&self, bytes: f64) -> f64 {
        let ch = &mut *self.channel.borrow_mut();
        ch.preset.base_latency_ms() + ch.transfer_ms(self.member, bytes)
    }

    /// Pure transfer time for `bytes` with throughput jitter but
    /// **without** the base propagation latency — for follow-on chunks of
    /// an already open stream (the connection pays its RTT once).
    /// Otherwise as [`SharedChannel::download_ms`].
    ///
    /// # Panics
    ///
    /// Panics if the handle's member has left the link.
    pub fn transfer_only_ms(&self, bytes: f64) -> f64 {
        self.channel.borrow_mut().transfer_ms(self.member, bytes)
    }

    /// Uploads `bytes` (pose/input stream); returns latency in ms. As a
    /// member the uplink mirrors the member's downlink share *fraction*
    /// (weights and MCS shape both directions; caps are downlink-only); an
    /// unbound handle uploads anonymously.
    ///
    /// # Panics
    ///
    /// Panics if the handle's member has left the link.
    pub fn upload_ms(&self, bytes: f64) -> f64 {
        let ch = &mut *self.channel.borrow_mut();
        if let Some(id) = self.member {
            assert!(
                ch.members[id].active,
                "link member {id} has left and cannot transfer"
            );
        }
        let factor = ch.throughput_factor();
        let mbps = match (ch.policy, self.member) {
            (FairnessPolicy::EqualShare, _) | (_, None) => {
                ch.preset.upload_mbps() * factor / ch.contention_divisor()
            }
            (_, Some(id)) => {
                // Cap-free basis: a downlink rate cap must not throttle the
                // (tiny) pose/input uplink.
                let fraction = ch.members[id].allocated_uncapped_mbps / ch.preset.download_mbps();
                ch.preset.upload_mbps() * fraction * factor
            }
        };
        ch.preset.base_latency_ms() + bytes.max(0.0) * 8.0 / (mbps * 1_000.0)
    }

    /// The smoothed downlink throughput estimate this handle's ACK monitor
    /// sees, Mbps: the "network's ACK packets" channel LIWC taps to assess
    /// remote latency without waiting for software counters. Under
    /// [`FairnessPolicy::EqualShare`], and for an unbound handle, that is
    /// the link-level estimate (every station observes the common
    /// time-share, bit-identical to the pre-policy engine); under the
    /// weighted and airtime policies each member tracks its own allocated
    /// rate.
    #[must_use]
    pub fn observed_download_mbps(&self) -> f64 {
        let ch = self.channel.borrow();
        match (ch.policy, self.member) {
            (FairnessPolicy::EqualShare, _) | (_, None) => ch.observed_mbps,
            (_, Some(id)) => ch.members[id].observed_mbps,
        }
    }
}

impl fmt::Display for SharedChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ch = self.channel.borrow();
        write!(
            f,
            "{} ({} Mbps nominal, {:.0} Mbps observed, {SNR_DB:.0} dB SNR)",
            ch.preset,
            ch.preset.download_mbps(),
            ch.observed_mbps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unbound handle on a fresh channel.
    fn link(preset: NetworkPreset, seed: u64) -> SharedChannel {
        SharedChannel::new(NetworkChannel::new(preset, seed))
    }

    #[test]
    fn table2_bandwidths() {
        assert_eq!(NetworkPreset::WiFi.download_mbps(), 200.0);
        assert_eq!(NetworkPreset::Lte4G.download_mbps(), 100.0);
        assert_eq!(NetworkPreset::Early5G.download_mbps(), 500.0);
    }

    #[test]
    fn full_background_latency_matches_table1() {
        // Table 1: ~530-650 KB backgrounds cost ~28-38 ms over Wi-Fi.
        let ch = link(NetworkPreset::WiFi, 1);
        let mut sum = 0.0;
        let n = 100;
        for _ in 0..n {
            sum += ch.download_ms(590.0 * 1024.0);
        }
        let avg = sum / f64::from(n);
        assert!(
            (24.0..40.0).contains(&avg),
            "avg Wi-Fi background fetch {avg} ms"
        );
    }

    #[test]
    fn faster_preset_is_faster() {
        let bytes = 500_000.0;
        let avg = |preset: NetworkPreset| -> f64 {
            let ch = link(preset, 2);
            (0..50).map(|_| ch.download_ms(bytes)).sum::<f64>() / 50.0
        };
        let (w, l, g) = (
            avg(NetworkPreset::WiFi),
            avg(NetworkPreset::Lte4G),
            avg(NetworkPreset::Early5G),
        );
        assert!(g < w && w < l, "5G {g} < WiFi {w} < LTE {l}");
    }

    #[test]
    fn channel_is_deterministic_per_seed() {
        let a = link(NetworkPreset::WiFi, 9);
        let b = link(NetworkPreset::WiFi, 9);
        for _ in 0..20 {
            assert_eq!(a.download_ms(123_456.0), b.download_ms(123_456.0));
        }
    }

    #[test]
    fn noise_produces_jitter_but_not_chaos() {
        let ch = link(NetworkPreset::WiFi, 3);
        let times: Vec<f64> = (0..200).map(|_| ch.download_ms(400_000.0)).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "jitter must exist");
        assert!(max < 2.0 * mean, "20 dB SNR must not double latency");
        assert!(min > 0.5 * mean);
    }

    #[test]
    fn jitter_sigma_is_the_snr_power_law_bit_for_bit() {
        // σ is computed once at construction; it must be the very value
        // the per-transfer `powf` used to produce at the paper's 20 dB.
        let ch = NetworkChannel::new(NetworkPreset::WiFi, 1);
        assert_eq!(
            ch.jitter_sigma.to_bits(),
            10f64.powf(-20.0 / 20.0).to_bits()
        );
    }

    #[test]
    fn observed_throughput_tracks_nominal() {
        let ch = link(NetworkPreset::Early5G, 5);
        for _ in 0..50 {
            ch.download_ms(1_000_000.0);
        }
        let obs = ch.observed_download_mbps();
        assert!(
            (0.6..=1.01).contains(&(obs / 500.0)),
            "observed {obs} Mbps should sit near (below) nominal"
        );
    }

    #[test]
    fn upload_is_cheap_for_pose_data() {
        let ch = link(NetworkPreset::WiFi, 7);
        // A pose + input packet is well under 2 KB.
        let t = ch.upload_ms(2_048.0);
        assert!(t < 5.0, "pose upload {t} ms");
    }

    #[test]
    fn zero_bytes_costs_base_latency() {
        let ch = link(NetworkPreset::WiFi, 8);
        let t = ch.download_ms(0.0);
        assert!((t - NetworkPreset::WiFi.base_latency_ms()).abs() < 1e-9);
    }

    #[test]
    fn transfer_counter_increments() {
        let ch = link(NetworkPreset::WiFi, 10);
        ch.download_ms(1.0);
        ch.download_ms(1.0);
        assert_eq!(ch.transfers(), 2);
    }

    #[test]
    fn display_mentions_preset() {
        let shown = link(NetworkPreset::Lte4G, 11).to_string();
        assert!(shown.contains("4G LTE"));
        assert!(shown.contains("20 dB SNR"));
    }

    /// The first of `members` default-share members joined to a link on
    /// `streams` concurrent streams.
    fn joined(seed: u64, streams: usize, members: usize) -> SharedChannel {
        let base = link(NetworkPreset::WiFi, seed);
        base.set_concurrent_streams(streams);
        let first = base.join(LinkShare::default());
        for _ in 1..members {
            let _ = base.join(LinkShare::default());
        }
        first
    }

    #[test]
    fn occupancy_divides_effective_bandwidth() {
        let avg = |occ: usize| -> f64 {
            let ch = joined(12, 1, occ);
            (0..100)
                .map(|_| ch.transfer_only_ms(400_000.0))
                .sum::<f64>()
                / 100.0
        };
        let solo = avg(1);
        let four = avg(4);
        let ratio = four / solo;
        assert!(
            (3.9..4.1).contains(&ratio),
            "4 sharers should ~4x transfers, got {ratio:.2}"
        );
    }

    #[test]
    fn ack_monitor_sees_the_shared_rate() {
        let ch = joined(14, 1, 8);
        for _ in 0..50 {
            ch.transfer_only_ms(400_000.0);
        }
        let obs = ch.observed_download_mbps();
        assert!(
            obs < 200.0 / 8.0 * 1.05,
            "observed {obs} Mbps must reflect the 1/8 share"
        );
    }

    #[test]
    fn streams_share_contention_until_oversubscribed() {
        let avg = |occ: usize, streams: usize| -> f64 {
            let ch = joined(17, streams, occ);
            (0..100)
                .map(|_| ch.transfer_only_ms(400_000.0))
                .sum::<f64>()
                / 100.0
        };
        let solo = avg(1, 8);
        let full = avg(8, 8);
        let over = avg(16, 8);
        assert!(
            (full / solo - 1.0).abs() < 1e-9,
            "8 sharers on 8 streams must see private rates"
        );
        let ratio = over / solo;
        assert!(
            (1.9..2.1).contains(&ratio),
            "16 sharers on 8 streams ~2x, got {ratio:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        link(NetworkPreset::WiFi, 18).set_concurrent_streams(0);
    }

    #[test]
    fn equal_share_members_match_anonymous_sharing_exactly() {
        // The golden-compat contract at channel level: a lone EqualShare
        // member with a default share draws the same bits as a private,
        // unbound channel on the same seed.
        let private = link(NetworkPreset::WiFi, 21);
        let member = joined(21, 1, 1);
        assert_eq!(member.occupancy(), 1);
        assert_eq!(
            private.observed_download_mbps(),
            member.observed_download_mbps()
        );
        for _ in 0..30 {
            assert_eq!(
                private.transfer_only_ms(300_000.0),
                member.transfer_only_ms(300_000.0)
            );
            assert_eq!(private.upload_ms(2_000.0), member.upload_ms(2_000.0));
            assert_eq!(
                private.observed_download_mbps(),
                member.observed_download_mbps()
            );
        }
    }

    #[test]
    fn weighted_rates_are_proportional_to_weights() {
        let ch = link(NetworkPreset::WiFi, 22);
        ch.set_policy(FairnessPolicy::Weighted);
        let heavy = ch.join(LinkShare::weighted(3.0));
        let light = ch.join(LinkShare::weighted(1.0));
        // 2 members on 1 stream, weights 3:1 over the 200 Mbps budget.
        let h = heavy.allocated_download_mbps();
        let l = light.allocated_download_mbps();
        assert!((h / l - 3.0).abs() < 1e-9, "3:1 weights, got {h}/{l}");
        assert!((h + l - 200.0).abs() < 1e-9, "shares must fill the budget");
    }

    #[test]
    fn caps_clamp_in_every_mode() {
        for policy in FairnessPolicy::all() {
            let ch = link(NetworkPreset::WiFi, 23);
            ch.set_policy(policy);
            let capped = ch.join(LinkShare::default().with_cap_mbps(10.0));
            let free = ch.join(LinkShare::default());
            assert!(
                capped.allocated_download_mbps() <= 10.0 + 1e-12,
                "{policy}: cap exceeded"
            );
            assert!(free.allocated_download_mbps() > 10.0);
            // Transfer time reflects the cap: ~80x slower than the free
            // member's full share would be at 10 vs ~100 Mbps.
            let t_capped = capped.transfer_only_ms(100_000.0);
            let t_free = free.transfer_only_ms(100_000.0);
            assert!(
                t_capped > 2.0 * t_free,
                "{policy}: capped member must run much slower"
            );
        }
    }

    #[test]
    fn download_caps_do_not_throttle_the_uplink() {
        // A hard 5 Mbps downlink cap must leave the (tiny) pose uplink at
        // the member's cap-free share — caps are downlink-only.
        let mean_upload = |cap: Option<f64>| {
            let ch = link(NetworkPreset::WiFi, 31);
            ch.set_policy(FairnessPolicy::Weighted);
            let share = cap.map_or(LinkShare::default(), |c| {
                LinkShare::default().with_cap_mbps(c)
            });
            let capped = ch.join(share);
            let _other = ch.join(LinkShare::default());
            (0..50).map(|_| capped.upload_ms(2_048.0)).sum::<f64>() / 50.0
        };
        let with_cap = mean_upload(Some(5.0));
        let without = mean_upload(None);
        assert!(
            (with_cap / without - 1.0).abs() < 0.05,
            "a downlink cap must not slow uploads: {with_cap:.3} vs {without:.3} ms"
        );
    }

    #[test]
    fn airtime_charges_the_slow_station_weighted_charges_the_cell() {
        // One full-rate member + one half-rate (cell-edge) member. Byte-fair
        // weighted queueing drags the fast member below its fair half;
        // airtime fairness preserves the fast member's half and halves the
        // slow one's bytes.
        let rate_of_fast = |policy: FairnessPolicy| {
            let ch = link(NetworkPreset::WiFi, 24);
            ch.set_policy(policy);
            let fast = ch.join(LinkShare::default());
            let _slow = ch.join(LinkShare::default().with_mcs_efficiency(0.5));
            fast.allocated_download_mbps()
        };
        let fair_half = 100.0;
        assert!(
            rate_of_fast(FairnessPolicy::Weighted) < 0.75 * fair_half,
            "byte-fairness must tax the fast member for the slow one"
        );
        assert!(
            (rate_of_fast(FairnessPolicy::Airtime) - fair_half).abs() < 1e-9,
            "airtime fairness must not tax the fast member"
        );
    }

    #[test]
    fn member_ack_monitor_tracks_its_own_share() {
        let ch = link(NetworkPreset::WiFi, 25);
        ch.set_policy(FairnessPolicy::Weighted);
        let heavy = ch.join(LinkShare::weighted(4.0));
        let light = ch.join(LinkShare::weighted(1.0));
        for _ in 0..40 {
            heavy.transfer_only_ms(200_000.0);
            light.transfer_only_ms(200_000.0);
        }
        let h = heavy.observed_download_mbps();
        let l = light.observed_download_mbps();
        assert!(
            h > 2.5 * l,
            "heavy member must observe a much larger share: {h} vs {l} Mbps"
        );
    }

    #[test]
    fn a_cloned_bound_handle_keeps_its_member() {
        // Cloning preserves the binding: a cell banks and rejoins clones of
        // bound handles, so a clone must act as its member and no other.
        let ch = link(NetworkPreset::WiFi, 27);
        ch.set_policy(FairnessPolicy::Weighted);
        let heavy = ch.join(LinkShare::weighted(4.0));
        let light = ch.join(LinkShare::weighted(1.0));
        let clone = light.clone();
        assert_eq!(clone.member(), light.member());
        let (h, l) = (
            heavy.observed_download_mbps(),
            light.observed_download_mbps(),
        );
        for _ in 0..20 {
            clone.transfer_only_ms(200_000.0);
        }
        assert!(
            light.observed_download_mbps() < l,
            "transfers through the clone move the light member's ACK estimate"
        );
        assert_eq!(
            clone.observed_download_mbps(),
            light.observed_download_mbps()
        );
        assert_eq!(
            heavy.observed_download_mbps(),
            h,
            "the heavy member's estimate must not move"
        );
        clone.leave();
        assert!(!light.member_is_active(), "leaving through the clone");
        assert!(heavy.member_is_active());
        assert_eq!(ch.active_members(), 1);
    }

    #[test]
    fn prediction_close_to_measurement_mean() {
        // The ACK-observed throughput predicts the measured transfer time:
        // base latency plus `bytes` at the observed rate.
        let ch = link(NetworkPreset::WiFi, 6);
        for _ in 0..30 {
            ch.download_ms(500_000.0);
        }
        let predicted = NetworkPreset::WiFi.base_latency_ms()
            + 500_000.0 * 8.0 / (ch.observed_download_mbps() * 1_000.0);
        let mut sum = 0.0;
        for _ in 0..50 {
            sum += ch.download_ms(500_000.0);
        }
        let measured = sum / 50.0;
        assert!(
            (predicted - measured).abs() / measured < 0.15,
            "predicted {predicted} vs measured {measured}"
        );
    }

    #[test]
    fn joining_members_drives_occupancy() {
        let ch = link(NetworkPreset::WiFi, 26);
        assert_eq!(ch.members(), 0);
        let a = ch.join(LinkShare::default());
        let b = ch.join(LinkShare::default());
        assert_eq!((a.member(), b.member()), (Some(0), Some(1)));
        assert_eq!(ch.members(), 2);
        assert_eq!(ch.occupancy(), 2);
    }

    #[test]
    fn set_member_share_reanchors_the_allocation() {
        let ch = link(NetworkPreset::WiFi, 28);
        ch.set_policy(FairnessPolicy::Weighted);
        let a = ch.join(LinkShare::default());
        let _b = ch.join(LinkShare::default());
        assert!((a.allocated_download_mbps() - 100.0).abs() < 1e-9);
        a.set_share(LinkShare::weighted(1.0).with_cap_mbps(25.0));
        assert!((a.allocated_download_mbps() - 25.0).abs() < 1e-9);
        assert!((a.observed_download_mbps() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn allocate_mbps_empty_membership_is_empty() {
        assert!(allocate_mbps(FairnessPolicy::Weighted, 200.0, 4, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "weight must be finite and positive")]
    fn invalid_share_rejected_at_join() {
        let member = link(NetworkPreset::WiFi, 29).join(LinkShare::weighted(1.0));
        member.set_share(LinkShare {
            weight: 0.0,
            cap_mbps: None,
            mcs_efficiency: 1.0,
        });
    }

    #[test]
    fn bound_handles_resolve_their_member() {
        let base = link(NetworkPreset::WiFi, 30);
        base.set_policy(FairnessPolicy::Weighted);
        assert_eq!(base.policy(), FairnessPolicy::Weighted);
        let heavy = base.join(LinkShare::weighted(3.0));
        let light = base.join(LinkShare::weighted(1.0));
        assert_eq!(base.member(), None);
        assert_eq!(heavy.member(), Some(0));
        assert_eq!(light.member(), Some(1));
        assert_eq!(base.members(), 2);
        let h = heavy.allocated_download_mbps();
        let l = light.allocated_download_mbps();
        assert!((h / l - 3.0).abs() < 1e-9);
        // Transfers through either handle debit the one shared budget.
        heavy.download_ms(10_000.0);
        light.download_ms(10_000.0);
        assert_eq!(base.transfers(), 2);
        // Degrading through the handle re-resolves immediately.
        light.set_share(LinkShare::weighted(1.0).with_cap_mbps(5.0));
        assert!((light.allocated_download_mbps() - 5.0).abs() < 1e-9);
        assert!(light.observed_download_mbps() < heavy.observed_download_mbps());
    }

    #[test]
    fn leave_renormalizes_allocations_over_remaining_members() {
        // The post-leave allocation-sum regression: in every policy mode,
        // after a member leaves the survivors' allocated rates must sum back
        // to the full single-stream budget (no stranded share), and
        // occupancy must fall so equal-share transfers speed up.
        for policy in FairnessPolicy::all() {
            let ch = link(NetworkPreset::WiFi, 40);
            ch.set_policy(policy);
            let a = ch.join(LinkShare::weighted(2.0));
            let b = ch.join(LinkShare::default());
            let c = ch.join(LinkShare::default());
            assert_eq!(ch.occupancy(), 3);
            b.leave();
            assert_eq!(ch.occupancy(), 2, "{policy}: occupancy must fall");
            assert_eq!(ch.active_members(), 2);
            assert!(!b.member_is_active());
            assert_eq!(b.allocated_download_mbps(), 0.0);
            let sum = a.allocated_download_mbps() + c.allocated_download_mbps();
            if policy == FairnessPolicy::EqualShare {
                // Equal share ignores weights; with 2 active on 1 stream
                // each sees the halved time-share via the divisor.
                assert!((ch.channel.borrow().contention_divisor() - 2.0).abs() < 1e-12);
            } else {
                assert!(
                    (sum - 200.0).abs() < 1e-9,
                    "{policy}: survivors must reclaim the full budget, got {sum}"
                );
            }
        }
    }

    #[test]
    fn leave_and_rejoin_round_trip() {
        let ch = link(NetworkPreset::WiFi, 41);
        ch.set_policy(FairnessPolicy::Weighted);
        let a = ch.join(LinkShare::default());
        let b = ch.join(LinkShare::default());
        let before = a.allocated_download_mbps();
        b.leave();
        assert!(a.allocated_download_mbps() > before);
        b.rejoin(LinkShare::weighted(3.0));
        assert!(b.member_is_active());
        assert_eq!(ch.occupancy(), 2);
        let (ra, rb) = (a.allocated_download_mbps(), b.allocated_download_mbps());
        assert!(
            (rb / ra - 3.0).abs() < 1e-9,
            "rejoin share applies: {rb}/{ra}"
        );
    }

    #[test]
    #[should_panic(expected = "already left")]
    fn double_leave_rejected() {
        let a = link(NetworkPreset::WiFi, 42).join(LinkShare::default());
        a.leave();
        a.leave();
    }

    #[test]
    #[should_panic(expected = "cannot transfer")]
    fn departed_member_cannot_transfer() {
        let ch = link(NetworkPreset::WiFi, 43);
        ch.set_policy(FairnessPolicy::Airtime);
        let a = ch.join(LinkShare::default());
        a.leave();
        let _ = a.transfer_only_ms(1_000.0);
    }

    #[test]
    fn bound_handles_leave_through_the_shared_link() {
        let base = link(NetworkPreset::WiFi, 44);
        let a = base.join(LinkShare::default());
        let b = base.join(LinkShare::default());
        assert!(a.member_is_active() && b.member_is_active());
        assert_eq!(base.active_members(), 2);
        b.leave();
        assert!(!b.member_is_active());
        assert_eq!(base.active_members(), 1);
        assert_eq!(base.occupancy(), 1);
        // The survivor's equal time-share is back to private rate.
        assert!((a.allocated_download_mbps() - 200.0).abs() < 1e-9);
        b.rejoin(LinkShare::default());
        assert_eq!(base.active_members(), 2);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(FairnessPolicy::EqualShare.to_string(), "equal-share");
        assert_eq!(FairnessPolicy::Weighted.to_string(), "weighted");
        assert_eq!(FairnessPolicy::Airtime.to_string(), "airtime");
        assert_eq!(FairnessPolicy::default(), FairnessPolicy::EqualShare);
    }

    #[test]
    fn shared_handle_aliases_one_budget() {
        let a = link(NetworkPreset::WiFi, 16);
        let b = a.clone();
        let _m = a.join(LinkShare::default());
        let _n = b.join(LinkShare::default());
        assert_eq!(a.occupancy(), 2, "joins through either handle count");
        assert_eq!(b.members(), 2);
        a.download_ms(1_000.0);
        b.download_ms(1_000.0);
        assert_eq!(a.transfers(), 2, "both handles hit the same channel");
        assert_eq!(a.preset(), NetworkPreset::WiFi);
        assert!(b.observed_download_mbps() > 0.0);
        assert!(a.to_string().contains("Wi-Fi"));
    }
}
