//! SLO-driven fleet admission control.
//!
//! PR 1's fleets accept any N tenants and let the tail degrade; a real
//! collaborative-VR operator instead gates joins so the sessions already
//! paying for an experience keep getting it. An [`AdmissionController`]
//! holds the accepted roster and decides each join by *probing*: it runs a
//! short deterministic fleet (the accepted sessions plus the candidate,
//! same seed every time) and checks the resulting [`FleetSummary`]
//! aggregates — p95 motion-to-photon latency, the FPS fairness floor, and
//! server-pool utilization — against an [`AdmissionPolicy`] SLO. Its one
//! constructor takes the gated cell's [`FleetConfig`] as a template, so
//! every probe runs the cell's system, seed, server pool and placement,
//! link and fairness.
//!
//! Admitted tenants come in two classes. **Protected** tenants are the SLO
//! constituency: every future probe must keep their p95/FPS inside the
//! policy. **Best-effort** tenants (the product of degraded admission)
//! ride along at a reduced [`LinkShare`] with no personal SLO claim —
//! without that exemption a cell-edge (slow-MCS) candidate could never be
//! degraded in, because its own frames would veto every probe.
//!
//! Three outcomes per offer, in order:
//!
//! 1. **Admit** — with the candidate at its requested share, the protected
//!    class *plus the candidate* meets the SLO; the candidate joins
//!    protected.
//! 2. **Degrade** — the full-share probe fails, but with the candidate at
//!    the policy's degraded share the protected class stays inside the
//!    SLO; the candidate joins best-effort. Against an *empty* protected
//!    class the check falls back to the full fleet-wide SLO (with nobody
//!    to protect, best-effort entry would otherwise be vacuously true,
//!    impossible SLOs included).
//! 3. **Reject** — neither probe passes; the roster is unchanged.
//!
//! Everything is deterministic: the same offer sequence against the same
//! controller configuration yields the same decision sequence, and the
//! decision rule is pointwise monotone in the SLO — against an identical
//! roster, a policy that [`AdmissionPolicy::tightens`] another can only
//! demote its decisions (Admit → Degrade/Reject, Degrade → Reject), never
//! promote them.

use crate::cell::check_tenancy;
use crate::fleet::{Fleet, FleetConfig, FleetSummary, SessionSpec, SteppingPolicy};
use crate::telemetry::TelemetryConfig;
use qvr_net::LinkShare;
use std::fmt;

/// The SLO an [`AdmissionController`] defends, plus how it probes.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionPolicy {
    /// Highest tolerable p95 motion-to-photon latency over the SLO
    /// constituency, ms.
    pub mtp_p95_slo_ms: f64,
    /// Lowest tolerable per-session frame rate (the fairness floor) over
    /// the SLO constituency, FPS.
    pub min_fps_floor: f64,
    /// Highest tolerable server-pool utilization, `[0, 1]` (always
    /// fleet-wide: the shared pool doesn't care which class burned it).
    pub max_server_utilization: f64,
    /// Frames each admission probe simulates. More frames cost more but
    /// see deeper into tail behaviour.
    pub probe_frames: usize,
    /// The reduced share offered when a full-share probe fails; `None`
    /// disables degraded admission (reject-only control). Only the weight
    /// and cap apply — the candidate's `mcs_efficiency` is a physical
    /// property of its radio, which no admission policy can change, so it
    /// is preserved from the candidate's requested share.
    pub degraded: Option<LinkShare>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            mtp_p95_slo_ms: 45.0,
            min_fps_floor: 60.0,
            max_server_utilization: 0.95,
            probe_frames: 24,
            degraded: Some(LinkShare::weighted(0.5)),
        }
    }
}

impl AdmissionPolicy {
    /// Returns a copy with a different p95 MTP SLO.
    #[must_use]
    pub fn with_mtp_p95_slo_ms(mut self, slo: f64) -> Self {
        self.mtp_p95_slo_ms = slo;
        self
    }

    /// Returns a copy with a different FPS floor SLO.
    #[must_use]
    pub fn with_min_fps_floor(mut self, fps: f64) -> Self {
        self.min_fps_floor = fps;
        self
    }

    /// Returns a copy without degraded admission (reject-only).
    #[must_use]
    pub fn reject_only(mut self) -> Self {
        self.degraded = None;
        self
    }

    /// Whether a probed fleet meets every SLO dimension fleet-wide.
    #[must_use]
    pub fn accepts(&self, summary: &FleetSummary) -> bool {
        summary.mtp_p95_ms <= self.mtp_p95_slo_ms
            && summary.fps_floor >= self.min_fps_floor
            && summary.server_utilization <= self.max_server_utilization
    }

    /// Whether a probe keeps the masked subset of its sessions (the SLO
    /// constituency for this decision) inside the SLO. Pool utilization is
    /// always fleet-wide. Falls back to the fleet-wide
    /// [`AdmissionPolicy::accepts`] when the mask selects nobody.
    ///
    /// # Panics
    ///
    /// Panics if the mask length doesn't match the probe's session count.
    #[must_use]
    pub fn accepts_constituency(&self, summary: &FleetSummary, constituency: &[bool]) -> bool {
        if !constituency.contains(&true) {
            return self.accepts(summary);
        }
        summary.mtp_p95_over(constituency) <= self.mtp_p95_slo_ms
            && summary.fps_floor_over(constituency) >= self.min_fps_floor
            && summary.server_utilization <= self.max_server_utilization
    }

    /// Whether `self` is at least as strict as `other` in every dimension
    /// (the premise of the admission monotonicity property).
    #[must_use]
    pub fn tightens(&self, other: &AdmissionPolicy) -> bool {
        self.mtp_p95_slo_ms <= other.mtp_p95_slo_ms
            && self.min_fps_floor >= other.min_fps_floor
            && self.max_server_utilization <= other.max_server_utilization
    }
}

/// The controller's verdict on one offered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionDecision {
    /// Joined the protected class at its requested share.
    Admitted,
    /// Joined best-effort at the policy's degraded share.
    Degraded,
    /// Refused; the roster is unchanged.
    Rejected,
}

impl AdmissionDecision {
    /// Whether the session joined the fleet (at any share).
    #[must_use]
    pub fn joined(&self) -> bool {
        !matches!(self, AdmissionDecision::Rejected)
    }
}

impl fmt::Display for AdmissionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdmissionDecision::Admitted => "admitted",
            AdmissionDecision::Degraded => "degraded",
            AdmissionDecision::Rejected => "rejected",
        })
    }
}

/// Gate for joining sessions: probes each candidate against the SLO and
/// keeps the accepted roster (protected + best-effort classes).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    /// The tenancy every probe fleet runs (system, seed, server pool and
    /// placement policy, link streams and fairness), normalised at
    /// construction: no sessions, round-robin stepping, no retirement,
    /// default telemetry. Only the sessions and frames vary per probe.
    template: FleetConfig,
    policy: AdmissionPolicy,
    accepted: Vec<SessionSpec>,
    /// `protected[i]` — whether `accepted[i]` belongs to the SLO
    /// constituency (joined via Admit rather than Degrade).
    protected: Vec<bool>,
    /// The share `accepted[i]` originally asked for (degraded members
    /// carry a reduced share in `accepted`; reclaim-driven upgrades restore
    /// this one).
    requested: Vec<LinkShare>,
    decisions: Vec<AdmissionDecision>,
    /// The probe of the accepted join that formed the current roster (the
    /// running aggregates the operator watches). It lists the sessions in
    /// roster order, so `protected` masks it; a release clears it.
    last_accepted_probe: Option<FleetSummary>,
    /// Probe fleets actually simulated.
    probes_run: usize,
}

impl AdmissionController {
    /// A controller gating joins to the cell `template` describes: its
    /// system, seed, server pool and placement policy, link streams and
    /// fairness, so probes run the tenancy the cell runs. The template's
    /// sessions, stepping, retirement window and telemetry are dropped
    /// (probes are short closed fleets that never retire and stream only
    /// the default sinks), and each probe sets its own frames.
    ///
    /// # Panics
    ///
    /// Panics if the template's tenancy is invalid (as for [`Fleet::new`])
    /// or the policy's `probe_frames` is zero.
    #[must_use]
    pub fn new(template: FleetConfig, policy: AdmissionPolicy) -> Self {
        check_tenancy(&template);
        assert!(policy.probe_frames > 0, "probes need at least one frame");
        AdmissionController {
            template: FleetConfig {
                sessions: Vec::new(),
                stepping: SteppingPolicy::RoundRobin,
                retire_window_ms: None,
                telemetry: TelemetryConfig::default(),
                ..template
            },
            policy,
            accepted: Vec::new(),
            protected: Vec::new(),
            requested: Vec::new(),
            decisions: Vec::new(),
            last_accepted_probe: None,
            probes_run: 0,
        }
    }

    /// The one config shape every controller fleet uses (roster views,
    /// candidate probes, upgrade probes): the template with `sessions` for
    /// `frames` each.
    fn config_for(&self, sessions: Vec<SessionSpec>, frames: usize) -> FleetConfig {
        FleetConfig {
            sessions,
            frames,
            ..self.template.clone()
        }
    }

    /// The fleet config the controller would run right now with `frames`
    /// per session; `None` while the roster is empty.
    #[must_use]
    pub fn fleet_config(&self, frames: usize) -> Option<FleetConfig> {
        if self.accepted.is_empty() {
            return None;
        }
        Some(self.config_for(self.accepted.clone(), frames))
    }

    /// Simulates one probe fleet over `sessions` for `probe_frames`.
    fn probe(&mut self, sessions: Vec<SessionSpec>) -> FleetSummary {
        self.probes_run += 1;
        Fleet::run(self.config_for(sessions, self.policy.probe_frames))
    }

    /// Probes the accepted roster plus `candidate` and joins the candidate
    /// iff the probe keeps the SLO constituency — the protected class,
    /// plus the candidate itself when it applies for protection — inside
    /// the SLO. `requested` is the share the candidate originally asked
    /// for (what a later upgrade restores). Returns whether it joined.
    fn try_join(&mut self, candidate: SessionSpec, requested: LinkShare, protect: bool) -> bool {
        let mut constituency = self.protected.clone();
        constituency.push(protect);
        let mut sessions = self.accepted.clone();
        sessions.push(candidate.clone());
        let probe = self.probe(sessions);
        if !self.policy.accepts_constituency(&probe, &constituency) {
            return false;
        }
        self.accepted.push(candidate);
        self.protected.push(protect);
        self.requested.push(requested);
        self.last_accepted_probe = Some(probe);
        true
    }

    /// Offers one session: probes, decides, and (on admit/degrade) joins
    /// it to the roster.
    ///
    /// Probing is incremental on the join side: the candidate probe *is*
    /// the new roster's fleet, so a join never re-runs a roster-only probe
    /// on top of it (and a leave, [`AdmissionController::release`], runs
    /// none).
    pub fn offer(&mut self, spec: SessionSpec) -> AdmissionDecision {
        let requested = spec.share;
        let decision = if self.try_join(spec.clone(), requested, true) {
            AdmissionDecision::Admitted
        } else if let Some(degraded_share) = self.policy.degraded {
            // Degraded probe: the candidate rides best-effort. Degrade the
            // policy knobs (weight, cap) but keep the station's physical
            // MCS efficiency.
            let degraded = spec.with_share(LinkShare {
                mcs_efficiency: requested.mcs_efficiency,
                ..degraded_share
            });
            if self.try_join(degraded, requested, false) {
                AdmissionDecision::Degraded
            } else {
                AdmissionDecision::Rejected
            }
        } else {
            AdmissionDecision::Rejected
        };
        self.decisions.push(decision);
        decision
    }

    /// Offers one session for full (protected) admission *only*: probes
    /// exactly as [`AdmissionController::offer`] but never falls back to a
    /// degraded share — the candidate joins iff the full-share probe holds
    /// the SLO, and a decline leaves the roster untouched. The shard
    /// router's first pass uses this so a join that would only ride
    /// best-effort here can first try a less-loaded cell (DESIGN.md §12's
    /// spill-resolution order).
    pub fn offer_protected(&mut self, spec: SessionSpec) -> AdmissionDecision {
        let requested = spec.share;
        let decision = if self.try_join(spec, requested, true) {
            AdmissionDecision::Admitted
        } else {
            AdmissionDecision::Rejected
        };
        self.decisions.push(decision);
        decision
    }

    /// Handles a *leaving* session: removes roster member `idx`, reclaims
    /// its resources, and tries to spend them on upgrading best-effort
    /// tenants back to their originally-requested (protected) shares.
    ///
    /// The departure itself runs no probe, so
    /// [`AdmissionController::probes_run`] stays flat when there is
    /// nothing to upgrade. It clears the cached probe, which ran a roster
    /// that no longer exists: [`AdmissionController::accepted_summary`]
    /// reads `None` until the next accepted join. Each *upgrade attempt*
    /// is a real probe (the candidate's share actually changes):
    /// best-effort members are tried in admission order, greedily keeping
    /// every upgrade whose probe holds the SLO over the protected class
    /// plus the upgradee.
    ///
    /// Returns the roster indices (post-removal) that were upgraded.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a roster index.
    pub fn release(&mut self, idx: usize) -> Vec<usize> {
        assert!(idx < self.accepted.len(), "unknown roster member {idx}");
        self.accepted.remove(idx);
        self.protected.remove(idx);
        self.requested.remove(idx);
        self.last_accepted_probe = None;
        // Reclaim: offer the freed headroom to best-effort tenants, in
        // admission order, restoring their originally-requested shares.
        let mut upgraded = Vec::new();
        for i in 0..self.accepted.len() {
            if self.protected[i] {
                continue;
            }
            let candidate = self.accepted[i].clone().with_share(self.requested[i]);
            // Probe the roster with member `i` at its requested share: the
            // roster minus the upgradee, plus the upgraded candidate last —
            // the same shape `offer` probes, so the SLO mask lines up.
            let mut sessions: Vec<SessionSpec> = self.accepted.clone();
            sessions.remove(i);
            let mut constituency: Vec<bool> = self
                .protected
                .iter()
                .enumerate()
                .filter_map(|(j, p)| (j != i).then_some(*p))
                .collect();
            sessions.push(candidate.clone());
            constituency.push(true);
            let probe = self.probe(sessions);
            if self.policy.accepts_constituency(&probe, &constituency) {
                self.accepted[i] = candidate;
                self.protected[i] = true;
                upgraded.push(i);
            }
        }
        upgraded
    }

    /// Probe fleets simulated so far (joins, degrades, and upgrade
    /// attempts; a leave itself runs none).
    #[must_use]
    pub fn probes_run(&self) -> usize {
        self.probes_run
    }

    /// The accepted roster, in admission order (degraded members carry
    /// their degraded share).
    #[must_use]
    pub fn admitted(&self) -> &[SessionSpec] {
        &self.accepted
    }

    /// Which accepted roster members are protected (vs best-effort), in
    /// admission order.
    #[must_use]
    pub fn protected(&self) -> &[bool] {
        &self.protected
    }

    /// The share each roster member originally requested (what a
    /// reclaim-driven upgrade restores), in admission order.
    #[must_use]
    pub fn requested(&self) -> &[LinkShare] {
        &self.requested
    }

    /// Every decision so far, in offer order.
    #[must_use]
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Sessions offered so far.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.decisions.len()
    }

    /// Count of a given decision so far.
    #[must_use]
    pub fn count(&self, decision: AdmissionDecision) -> usize {
        self.decisions.iter().filter(|d| **d == decision).count()
    }

    /// The probe of the accepted join that formed the current roster (the
    /// running aggregates admission is controlled on); `None` while the
    /// roster is empty, and after a release until the next accepted join.
    #[must_use]
    pub fn accepted_summary(&self) -> Option<&FleetSummary> {
        self.last_accepted_probe.as_ref()
    }

    /// p95 MTP and FPS floor over the protected class in
    /// [`AdmissionController::accepted_summary`]'s probe — the quantities
    /// the SLO actually constrains. `None` without that probe, or while
    /// the roster holds no protected members.
    #[must_use]
    pub fn protected_metrics(&self) -> Option<(f64, f64)> {
        let probe = self.last_accepted_probe.as_ref()?;
        if !self.protected.contains(&true) {
            return None;
        }
        Some((
            probe.mtp_p95_over(&self.protected),
            probe.fps_floor_over(&self.protected),
        ))
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }
}

impl fmt::Display for AdmissionController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} offered / {} admitted / {} degraded / {} rejected under p95 ≤ {:.0} ms, \
             FPS ≥ {:.0}, util ≤ {:.0}% ({} link)",
            self.offered(),
            self.count(AdmissionDecision::Admitted),
            self.count(AdmissionDecision::Degraded),
            self.count(AdmissionDecision::Rejected),
            self.policy.mtp_p95_slo_ms,
            self.policy.min_fps_floor,
            self.policy.max_server_utilization * 100.0,
            self.template.fairness,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{SchemeKind, SystemConfig};
    use qvr_net::FairnessPolicy;
    use qvr_scene::Benchmark;

    fn spec() -> SessionSpec {
        SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile())
    }

    /// A cell over the default system's full server array and a link with
    /// one full-rate stream per server GPU, under `fairness`.
    fn cell(fairness: FairnessPolicy, seed: u64) -> FleetConfig {
        FleetConfig {
            fairness,
            ..FleetConfig::uniform(
                SystemConfig::default(),
                SchemeKind::Qvr,
                Benchmark::Hl2H.profile(),
                0,
                1,
                seed,
            )
        }
    }

    fn policy(slo_ms: f64) -> AdmissionPolicy {
        let mut p = AdmissionPolicy::default()
            .with_mtp_p95_slo_ms(slo_ms)
            .with_min_fps_floor(40.0);
        // Small probes keep the debug-mode unit tests quick; the
        // integration suite and fig_admission exercise realistic sizes.
        p.probe_frames = 8;
        p
    }

    #[test]
    fn first_session_admits_under_a_sane_slo() {
        let mut c = AdmissionController::new(cell(FairnessPolicy::EqualShare, 42), policy(40.0));
        assert_eq!(c.offer(spec()), AdmissionDecision::Admitted);
        assert_eq!(c.admitted().len(), 1);
        assert_eq!(c.protected(), &[true]);
        assert_eq!(c.offered(), 1);
        let probe = c.accepted_summary().expect("roster probed");
        assert!(probe.mtp_p95_ms <= 40.0);
        let (p95, floor) = c.protected_metrics().expect("protected class exists");
        assert!(p95 <= 40.0);
        assert!(floor >= 40.0);
        assert!(c.fleet_config(10).is_some());
    }

    #[test]
    fn impossible_slo_rejects_everyone() {
        let mut c = AdmissionController::new(cell(FairnessPolicy::Weighted, 42), policy(1.0));
        for _ in 0..3 {
            assert_eq!(c.offer(spec()), AdmissionDecision::Rejected);
        }
        assert!(c.admitted().is_empty());
        assert!(c.accepted_summary().is_none());
        assert!(c.protected_metrics().is_none());
        assert!(c.fleet_config(10).is_none());
        assert_eq!(c.count(AdmissionDecision::Rejected), 3);
        assert!(c.to_string().contains("3 rejected"));
    }

    #[test]
    fn degraded_tenants_join_best_effort_without_breaking_the_protected_slo() {
        // A cell-edge candidate (half-rate MCS) under airtime fairness: its
        // own latency is poor, so full admission fails once the cell has
        // tenants to protect — but best-effort entry must succeed while the
        // protected class stays inside the SLO.
        let mut p = policy(25.0);
        p.degraded = Some(LinkShare::weighted(0.25));
        let mut c = AdmissionController::new(cell(FairnessPolicy::Airtime, 42), p.clone());
        // Fill the protected class with full-rate tenants first.
        for _ in 0..3 {
            c.offer(spec());
        }
        let protected_before = c.count(AdmissionDecision::Admitted);
        assert!(protected_before > 0, "full-rate tenants must admit");
        // Now offer cell-edge stations until one degrades or everything
        // rejects; none may break the protected class.
        let edge = || spec().with_share(LinkShare::default().with_mcs_efficiency(0.5));
        for _ in 0..4 {
            c.offer(edge());
        }
        let (p95, _) = c.protected_metrics().expect("protected class exists");
        assert!(
            p95 <= p.mtp_p95_slo_ms,
            "protected p95 {:.1} ms must hold the {:.1} ms SLO",
            p95,
            p.mtp_p95_slo_ms
        );
        // Best-effort members never enter the protected mask; they carry
        // the policy's degraded weight but keep their own physical MCS.
        for (i, protected) in c.protected().iter().enumerate() {
            let share = c.admitted()[i].share;
            let degraded = share.weight == p.degraded.unwrap().weight;
            assert_eq!(*protected, !degraded);
            if degraded {
                assert_eq!(
                    share.mcs_efficiency, 0.5,
                    "degrade must preserve the station's physical MCS"
                );
            }
        }
        assert!(
            c.count(AdmissionDecision::Degraded) > 0,
            "at least one cell-edge station must come in best-effort"
        );
    }

    #[test]
    fn rejection_leaves_the_roster_untouched() {
        let mut tight = AdmissionController::new(
            cell(FairnessPolicy::EqualShare, 42),
            policy(40.0).reject_only(),
        );
        // Admit as many as the SLO allows, then verify the roster stops
        // growing while decisions keep accruing.
        let decisions: Vec<_> = (0..12).map(|_| tight.offer(spec())).collect();
        let joined = decisions.iter().filter(|d| d.joined()).count();
        assert_eq!(tight.admitted().len(), joined);
        assert_eq!(tight.offered(), 12);
        if let Some(probe) = tight.accepted_summary() {
            assert!(tight.policy().accepts(probe), "roster must meet the SLO");
        }
    }

    #[test]
    fn probes_ignore_the_templates_retirement_and_telemetry() {
        // Probes are short closed fleets: a template that retires history
        // and streams windowed, metrics and health telemetry must decide
        // exactly as a plain one, and its cached probe must be the plain
        // one's (no windows, exposition or incidents ride along).
        let plain = cell(FairnessPolicy::Weighted, 42);
        let observed = FleetConfig {
            retire_window_ms: Some(300.0),
            telemetry: TelemetryConfig::default()
                .with_window_ms(50.0)
                .with_metrics()
                .with_health(crate::obs::HealthRules::new(50.0).with_mtp_p95_ceiling_ms(20.0)),
            ..plain.clone()
        };
        let mut a = AdmissionController::new(plain, policy(40.0));
        let mut b = AdmissionController::new(observed, policy(40.0));
        for _ in 0..4 {
            assert_eq!(a.offer(spec()), b.offer(spec()));
        }
        assert_eq!(a.decisions(), b.decisions());
        let probe = a.accepted_summary().expect("something admitted");
        assert_eq!(Some(probe), b.accepted_summary());
        assert!(probe.exposition.is_none() && probe.windows.is_empty());
    }

    #[test]
    fn release_reuses_the_cached_probe_when_nothing_can_upgrade() {
        // With no best-effort members, removing one session must cost
        // zero probe fleets, and the leave clears the cached probe, which
        // ran the old roster.
        let mut c = AdmissionController::new(cell(FairnessPolicy::EqualShare, 42), policy(40.0));
        c.offer(spec());
        c.offer(spec());
        let probes_before = c.probes_run();
        assert!(c.accepted_summary().is_some(), "the join cached its probe");
        let upgraded = c.release(0);
        assert!(upgraded.is_empty());
        assert_eq!(
            c.probes_run(),
            probes_before,
            "a single leave must not re-run the roster probe"
        );
        assert_eq!(c.admitted().len(), 1);
        assert_eq!(c.protected(), &[true]);
        assert!(c.accepted_summary().is_none(), "a leave clears the cache");
        assert!(c.protected_metrics().is_none());
        // The next accepted join caches its own probe again.
        assert_eq!(c.offer(spec()), AdmissionDecision::Admitted);
        assert_eq!(c.accepted_summary().expect("probed").len(), 2);
    }

    #[test]
    fn release_upgrades_best_effort_tenants_with_reclaimed_headroom() {
        // Load-driven degradation (unlike an MCS handicap, load can be
        // reclaimed): non-adaptive RemoteOnly tenants on a 2-stream
        // weighted link admit until the link saturates, the third comes in
        // best-effort at a quarter weight, and further offers reject. When
        // a protected member then leaves, the reclaim pass must upgrade the
        // degraded tenant back to its requested (unit) share — at the cost
        // of exactly one upgrade probe on top of the incremental leave.
        let heavy = || SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile());
        let mut p = AdmissionPolicy::default()
            .with_mtp_p95_slo_ms(100.0)
            .with_min_fps_floor(10.0);
        p.probe_frames = 8;
        p.degraded = Some(LinkShare::weighted(0.25));
        let mut c = AdmissionController::new(
            FleetConfig {
                server_units: 8,
                link_streams: 2,
                ..cell(FairnessPolicy::Weighted, 42)
            },
            p,
        );
        let decisions: Vec<_> = (0..4).map(|_| c.offer(heavy())).collect();
        assert_eq!(
            decisions,
            vec![
                AdmissionDecision::Admitted,
                AdmissionDecision::Admitted,
                AdmissionDecision::Degraded,
                AdmissionDecision::Rejected,
            ]
        );
        let best_effort = c.protected().iter().position(|p| !*p).expect("degraded in");
        assert_eq!(c.admitted()[best_effort].share.weight, 0.25);
        let probes_before = c.probes_run();
        let upgraded = c.release(0);
        assert_eq!(upgraded, vec![1], "the freed headroom upgrades the tenant");
        assert_eq!(
            c.probes_run(),
            probes_before + 1,
            "one upgrade probe, no roster re-probe"
        );
        assert_eq!(c.protected(), &[true, true]);
        assert_eq!(
            c.admitted()[1].share,
            c.requested()[1],
            "upgrade restores the originally-requested share"
        );
        assert!(c.accepted_summary().is_none(), "a leave clears the cache");
        // The upgraded roster keeps its protected class inside the SLO. Its
        // order is the upgrade probe's (upgradee last), so a fresh run of
        // the roster reproduces that probe.
        let roster = Fleet::run(
            c.fleet_config(c.policy().probe_frames)
                .expect("members remain"),
        );
        assert!(roster.mtp_p95_over(c.protected()) <= c.policy().mtp_p95_slo_ms);
    }

    #[test]
    #[should_panic(expected = "unknown roster member")]
    fn release_of_unknown_member_rejected() {
        let mut c = AdmissionController::new(cell(FairnessPolicy::EqualShare, 1), policy(40.0));
        let _ = c.release(0);
    }

    #[test]
    fn tightens_orders_policies() {
        let loose = policy(50.0);
        let tight = policy(30.0);
        assert!(tight.tightens(&loose));
        assert!(!loose.tightens(&tight));
        assert!(tight.tightens(&tight.clone()));
    }

    #[test]
    fn decision_display_labels() {
        assert_eq!(AdmissionDecision::Admitted.to_string(), "admitted");
        assert_eq!(AdmissionDecision::Degraded.to_string(), "degraded");
        assert_eq!(AdmissionDecision::Rejected.to_string(), "rejected");
        assert!(AdmissionDecision::Admitted.joined());
        assert!(AdmissionDecision::Degraded.joined());
        assert!(!AdmissionDecision::Rejected.joined());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_probe_frames_rejected() {
        let p = AdmissionPolicy {
            probe_frames: 0,
            ..AdmissionPolicy::default()
        };
        let _ = AdmissionController::new(cell(FairnessPolicy::EqualShare, 1), p);
    }
}
