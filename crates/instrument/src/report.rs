//! Report types flowing from instrumentation to the management plane.

/// An alarm event produced by a sensor when a threshold's satisfaction
/// changes (after spike filtering): the detection step of enforcement.
#[derive(Clone, Debug, PartialEq)]
pub struct AlarmEvent {
    /// The condition key the threshold was registered under (the
    /// coordinator's global condition index).
    pub condition: usize,
    /// Whether the condition now holds.
    pub satisfied: bool,
    /// The observed value that caused the transition.
    pub value: f64,
    /// Timestamp, microseconds.
    pub at_us: u64,
}

/// A violation notification from a coordinator to its QoS Host Manager —
/// the payload of the policy's `QoSHostManager->notify(...)` action.
#[derive(Clone, Debug, PartialEq)]
pub struct ViolationReport {
    /// Violated policy name.
    pub policy: String,
    /// Reporting process (subject identity).
    pub process: String,
    /// Timestamp, microseconds.
    pub at_us: u64,
    /// Telemetry correlation id of the violation episode (0 = none):
    /// minted when the sensor first tripped, carried end to end so the
    /// whole lifecycle is one causal chain.
    pub corr: u64,
    /// Attribute readings gathered by the policy's sensor-read actions,
    /// e.g. `frame_rate`, `jitter_rate`, `buffer_size`.
    pub readings: Vec<(String, f64)>,
}

impl ViolationReport {
    /// Look up a reading by attribute name.
    pub fn reading(&self, attr: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|(a, _)| a == attr)
            .map(|&(_, v)| v)
    }

    /// The wire form of this report (live-mode violation notification).
    pub fn to_wire(&self) -> qos_wire::messages::LiveViolationMsg {
        qos_wire::messages::LiveViolationMsg {
            policy: self.policy.clone(),
            process: self.process.clone(),
            at_us: self.at_us,
            corr: self.corr,
            readings: self.readings.clone(),
        }
    }

    /// The wire form of this report, moving its strings rather than
    /// cloning them (the sending side's hot path).
    pub fn into_wire(self) -> qos_wire::messages::LiveViolationMsg {
        qos_wire::messages::LiveViolationMsg {
            policy: self.policy,
            process: self.process,
            at_us: self.at_us,
            corr: self.corr,
            readings: self.readings,
        }
    }

    /// Rebuild a report from its wire form (the receiving side of a
    /// live-mode transport).
    pub fn from_wire(m: qos_wire::messages::LiveViolationMsg) -> ViolationReport {
        ViolationReport {
            policy: m.policy,
            process: m.process,
            at_us: m.at_us,
            corr: m.corr,
            readings: m.readings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_lookup() {
        let r = ViolationReport {
            policy: "P".into(),
            process: "h0:p1".into(),
            at_us: 5,
            corr: 0,
            readings: vec![("frame_rate".into(), 18.0), ("buffer_size".into(), 9000.0)],
        };
        assert_eq!(r.reading("frame_rate"), Some(18.0));
        assert_eq!(r.reading("nope"), None);
    }

    #[test]
    fn wire_roundtrip_preserves_report() {
        let r = ViolationReport {
            policy: "NotifyQoSViolation".into(),
            process: "h0:p1".into(),
            at_us: 123_456,
            corr: 77,
            readings: vec![("frame_rate".into(), 18.0), ("buffer_size".into(), 9000.0)],
        };
        assert_eq!(ViolationReport::from_wire(r.to_wire()), r);
        assert_eq!(r.clone().into_wire(), r.to_wire());
    }
}
