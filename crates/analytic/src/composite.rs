//! Composite multi-object workloads.
//!
//! The paper's model is *per shared object* — the analysis fixes one
//! object `j` and its protocol processes, and the system's `M` objects
//! are independent. Real address spaces are heterogeneous: some objects
//! are private, some read-shared, some write-contended. A composite
//! workload assigns each object class its own [`Scenario`] and an access
//! weight; the system-level average communication cost per operation is
//! the weighted mixture of the per-object costs.

use crate::chain::{analyze, AnalyzeError};
use repmem_core::{CoherenceProtocol, Scenario, SystemParams};

/// One class of objects with a common access pattern.
#[derive(Debug, Clone)]
pub struct ObjectClass {
    /// Descriptive label (for reports).
    pub label: String,
    /// Per-object access scenario.
    pub scenario: Scenario,
    /// Fraction of all operations that target objects of this class.
    pub weight: f64,
}

impl ObjectClass {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, scenario: Scenario, weight: f64) -> Self {
        ObjectClass {
            label: label.into(),
            scenario,
            weight,
        }
    }
}

/// Validate that class weights form a distribution.
pub fn check_weights(classes: &[ObjectClass]) -> Result<(), String> {
    if classes.is_empty() {
        return Err("no object classes".into());
    }
    let total: f64 = classes.iter().map(|c| c.weight).sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(format!("class weights sum to {total}, expected 1"));
    }
    if classes.iter().any(|c| c.weight < 0.0) {
        return Err("negative class weight".into());
    }
    Ok(())
}

/// System-level `acc` of one protocol over a composite workload:
/// `acc = Σ_classes weight · acc(protocol, class scenario)`.
pub fn composite_acc(
    protocol: &dyn CoherenceProtocol,
    sys: &SystemParams,
    classes: &[ObjectClass],
) -> Result<f64, AnalyzeError> {
    let mut total = 0.0;
    for class in classes {
        if class.weight == 0.0 {
            continue;
        }
        let acc = analyze(protocol, sys, &class.scenario)?.acc;
        total += class.weight * acc;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::ProtocolKind;
    use repmem_protocols::protocol;

    fn classes() -> Vec<ObjectClass> {
        vec![
            ObjectClass::new("private", Scenario::ideal(0.5).unwrap(), 0.6),
            ObjectClass::new(
                "read-shared",
                Scenario::read_disturbance(0.05, 0.1, 4).unwrap(),
                0.4,
            ),
        ]
    }

    #[test]
    fn weights_validate() {
        assert!(check_weights(&classes()).is_ok());
        let mut bad = classes();
        bad[0].weight = 0.9;
        assert!(check_weights(&bad).is_err());
        assert!(check_weights(&[]).is_err());
    }

    #[test]
    fn mixture_is_the_weighted_sum() {
        let sys = SystemParams::new(8, 100, 20);
        let cls = classes();
        let p = protocol(ProtocolKind::WriteThrough);
        let whole = composite_acc(p, &sys, &cls).unwrap();
        let a0 = analyze(p, &sys, &cls[0].scenario).unwrap().acc;
        let a1 = analyze(p, &sys, &cls[1].scenario).unwrap().acc;
        assert!((whole - (0.6 * a0 + 0.4 * a1)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_class_matches_plain_analysis() {
        let sys = SystemParams::new(6, 50, 10);
        let scenario = Scenario::multiple_centers(0.4, 3).unwrap();
        let cls = vec![ObjectClass::new("all", scenario.clone(), 1.0)];
        for kind in ProtocolKind::ALL {
            let c = composite_acc(protocol(kind), &sys, &cls).unwrap();
            let a = analyze(protocol(kind), &sys, &scenario).unwrap().acc;
            assert!((c - a).abs() < 1e-12, "{kind:?}");
        }
    }
}
