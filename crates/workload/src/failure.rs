//! Processor failure/repair specification.
//!
//! The paper's closed model assumes processors never fail; this extension
//! layers a classical fail/repair process over the shared-nothing machine
//! to study how locking granularity interacts with failure cost. Each
//! processor independently alternates between *up* and *down* periods:
//! up-time draws from an exponential with mean [`FailureSpec::mtbf`] and
//! down-time from an exponential with mean [`FailureSpec::mttr`] (both in
//! model time units, the same scale as service demands).
//!
//! The spec is *descriptive only* — the draws themselves happen in
//! `lockgran-core::system` against the run's seeded `SimRng`, so a config
//! with no failure spec is bit-identical to the pre-extension model.

use lockgran_sim::json_struct;

json_struct! {
    /// Per-processor exponential failure/repair process parameters.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct FailureSpec {
        /// Mean time between failures (exponential mean of each up period),
        /// in model time units.
        pub mtbf: f64,
        /// Mean time to repair (exponential mean of each down period), in
        /// model time units.
        pub mttr: f64,
    }
}

impl FailureSpec {
    /// A failure process with the given means.
    pub fn new(mtbf: f64, mttr: f64) -> Self {
        FailureSpec { mtbf, mttr }
    }

    /// Validate the parameters: both means must be positive and finite.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mtbf.is_finite() && self.mtbf > 0.0) {
            return Err(format!(
                "mtbf must be positive and finite, got {}",
                self.mtbf
            ));
        }
        if !(self.mttr.is_finite() && self.mttr > 0.0) {
            return Err(format!(
                "mttr must be positive and finite, got {}",
                self.mttr
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockgran_sim::{FromJson, ToJson};

    #[test]
    fn validation() {
        assert!(FailureSpec::new(2000.0, 50.0).validate().is_ok());
        assert!(FailureSpec::new(0.0, 50.0).validate().is_err());
        assert!(FailureSpec::new(2000.0, 0.0).validate().is_err());
        assert!(FailureSpec::new(-1.0, 50.0).validate().is_err());
        assert!(FailureSpec::new(f64::NAN, 50.0).validate().is_err());
        assert!(FailureSpec::new(f64::INFINITY, 50.0).validate().is_err());
    }

    #[test]
    fn json_round_trip() {
        let f = FailureSpec::new(2000.0, 50.0);
        let back = FailureSpec::from_json(&f.to_json()).unwrap();
        assert_eq!(f, back);
    }
}
