//! Deterministic admission control for [`crate::Network`].
//!
//! The paper's routers bound *where* a message may travel; nothing in
//! the model bounds *how many* messages the network will accept. This
//! module adds that missing bound. A network is *saturated* when its
//! live [`ArrivalSlab`](crate::slab::ArrivalSlab) entries (in-flight
//! transmissions) reach [`AdmissionConfig::max_live`]; at an injection
//! into a saturated network the configured policy either
//!
//! * **reject-new** — refuses the injection outright
//!   ([`crate::MessageFate::Rejected`]); or
//! * **shed-oldest** — evicts the oldest still-in-flight admitted
//!   message ([`crate::MessageFate::Shed`]) and admits the newcomer.
//!
//! Every decision is a pure function of the configuration and the
//! slab's live count at the instant of the injection — no clocks, no
//! randomness — so an overloaded run replays byte-for-byte from its
//! seed, at any worker count. The conservation invariant
//! ([`crate::NetworkMetrics::accounted`]) extends over the two fates:
//! a rejected message is still *sent* (the sender experienced it), it
//! just never touches the scheduler.

/// What the network does at an injection while saturated.
/// [`Default`] is [`Open`](AdmissionPolicy::Open): admit everything,
/// byte-identical to the pre-admission simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AdmissionPolicy {
    /// No admission control (the historical behaviour, and the
    /// default — every existing golden depends on it).
    #[default]
    Open,
    /// Refuse new injections while saturated; the message is recorded
    /// with fate [`crate::MessageFate::Rejected`] and never scheduled.
    RejectNew,
    /// Evict the oldest still-in-flight admitted message (fate
    /// [`crate::MessageFate::Shed`]) and admit the newcomer — newest
    /// traffic wins, bounded state is preserved.
    ShedOldest,
}

/// Admission configuration of a [`crate::Network`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmissionConfig {
    /// The policy applied once saturated.
    pub policy: AdmissionPolicy,
    /// Saturation threshold: live [`ArrivalSlab`](crate::slab::ArrivalSlab)
    /// entries (in-flight transmissions) at or above this saturate the
    /// network. `0` means never saturated.
    pub max_live: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MessageFate, MessageId, Network, NetworkBuilder};
    use local_routing::Alg3;
    use locality_graph::{generators, NodeId};
    use locality_obs::{names, Level, Recorder};

    /// A 16-node ring at Alg3's threshold under `policy`, recording
    /// metrics, with `sends` messages injected in one tick and run to
    /// quiescence.
    fn run(policy: AdmissionPolicy, max_live: usize, sends: u32) -> (Network, Vec<MessageId>) {
        let g = generators::cycle(16);
        let mut net = NetworkBuilder::new(&g, 8)
            .admission(AdmissionConfig { policy, max_live })
            .recorder(Recorder::new(Level::Metrics))
            .build(Alg3);
        let ids = (0..sends)
            .map(|i| net.send(NodeId(i % 16), NodeId((i + 8) % 16)))
            .collect();
        net.run_until_quiet();
        (net, ids)
    }

    /// The admission gauges `[rejected, shed, peak_live, decisions]`
    /// of the network's trace.
    fn gauges(net: &mut Network) -> [Option<u64>; 4] {
        let text = String::from_utf8(net.finish_trace()).unwrap();
        let events = locality_obs::parse_trace(&text).unwrap();
        [
            names::ADMISSION_REJECTED,
            names::ADMISSION_SHED,
            names::ADMISSION_PEAK_LIVE,
            names::ADMISSION_DECISIONS,
        ]
        .map(|key| {
            events
                .iter()
                .find(|e| e.str_of("ev") == Some("gauge") && e.str_of("name") == Some(key))
                .and_then(|e| e.u64_of("v"))
        })
    }

    #[test]
    fn open_policy_admits_everything() {
        let (mut net, ids) = run(AdmissionPolicy::Open, 1, 10);
        for id in ids {
            assert!(net.record(id).unwrap().delivered());
        }
        let m = net.metrics();
        assert_eq!((m.rejected, m.shed), (0, 0));
        assert_eq!(gauges(&mut net), [None; 4], "open traces carry no gauges");
    }

    #[test]
    fn reject_new_trips_at_the_high_water_mark() {
        // Each admitted send holds one slab entry for the rest of the
        // tick: the eighth send sees 7 live and is admitted, the ninth
        // and tenth see 8 and are rejected.
        let (mut net, ids) = run(AdmissionPolicy::RejectNew, 8, 10);
        for (i, id) in ids.iter().enumerate() {
            let fate = &net.record(*id).unwrap().fate;
            if i < 8 {
                assert_eq!(*fate, MessageFate::Delivered, "send {i}");
            } else {
                assert_eq!(*fate, MessageFate::Rejected, "send {i}");
            }
        }
        assert!(net.metrics().accounted());
        assert_eq!(gauges(&mut net), [Some(2), Some(0), Some(8), Some(10)]);
    }

    #[test]
    fn shed_oldest_sheds_then_admits() {
        let (mut net, ids) = run(AdmissionPolicy::ShedOldest, 4, 5);
        let fates: Vec<MessageFate> = ids
            .iter()
            .map(|id| net.record(*id).unwrap().fate.clone())
            .collect();
        assert_eq!(fates[0], MessageFate::Shed, "the oldest makes room");
        assert!(fates[1..].iter().all(|f| *f == MessageFate::Delivered));
        let m = net.metrics();
        assert_eq!((m.rejected, m.shed), (0, 1));
        assert_eq!(gauges(&mut net), [Some(0), Some(1), Some(4), Some(5)]);
    }
}
