//! Model-validation metrics: MAPE and comparison reports.
//!
//! The paper reports model accuracy as the mean absolute percentage error
//! (MAPE) between model estimates and measurements: 13.7 % for the Spark
//! FC-ANN experiment, 1.2 % for the Inception-v3 weak-scaling experiment,
//! and 25.4 % / 26 % / 19.6 % / 23.5 % for the four belief-propagation
//! graph sizes.

/// Mean absolute percentage error between predictions and reference values:
/// `100/N · Σ |pred − ref| / |ref|`.
///
/// # Panics
/// Panics on empty or mismatched inputs, or when any reference value is
/// zero (the percentage error is undefined there).
pub fn mape(predicted: &[f64], reference: &[f64]) -> f64 {
    assert!(!predicted.is_empty(), "need at least one point");
    assert_eq!(
        predicted.len(),
        reference.len(),
        "prediction/reference length mismatch"
    );
    let sum: f64 = predicted
        .iter()
        .zip(reference)
        .map(|(&p, &r)| {
            assert!(r != 0.0, "MAPE undefined for zero reference value");
            ((p - r) / r).abs()
        })
        .sum();
    100.0 * sum / predicted.len() as f64
}

/// A point-by-point model-vs-measurement comparison over worker counts,
/// as printed under each figure of the paper.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Worker counts the two series share.
    pub ns: Vec<usize>,
    /// Model-predicted values (speedups, typically).
    pub predicted: Vec<f64>,
    /// Reference (measured / simulated) values.
    pub reference: Vec<f64>,
}

impl Comparison {
    /// Builds a comparison from paired `(n, predicted, reference)` rows.
    ///
    /// # Panics
    /// Panics when the rows are empty.
    pub fn new(rows: impl IntoIterator<Item = (usize, f64, f64)>) -> Self {
        let mut ns = Vec::new();
        let mut predicted = Vec::new();
        let mut reference = Vec::new();
        for (n, p, r) in rows {
            ns.push(n);
            predicted.push(p);
            reference.push(r);
        }
        assert!(!ns.is_empty(), "comparison needs at least one row");
        Self {
            ns,
            predicted,
            reference,
        }
    }

    /// Joins two speedup series on their common worker counts.
    ///
    /// # Panics
    /// Panics when the series share no worker count.
    pub fn join(predicted: &[(usize, f64)], reference: &[(usize, f64)]) -> Self {
        let rows: Vec<(usize, f64, f64)> = predicted
            .iter()
            .filter_map(|&(n, p)| {
                reference
                    .iter()
                    .find(|&&(m, _)| m == n)
                    .map(|&(_, r)| (n, p, r))
            })
            .collect();
        assert!(!rows.is_empty(), "series share no worker counts");
        Self::new(rows)
    }

    /// MAPE of the comparison.
    pub fn mape(&self) -> f64 {
        mape(&self.predicted, &self.reference)
    }

    /// Paper-style table: one row per worker count plus a MAPE footer.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>12} {:>9}",
            "n", "model", "measured", "APE%"
        );
        for ((&n, &p), &r) in self.ns.iter().zip(&self.predicted).zip(&self.reference) {
            let ape = 100.0 * ((p - r) / r).abs();
            let _ = writeln!(out, "{n:>6} {p:>12.4} {r:>12.4} {ape:>9.2}");
        }
        let _ = writeln!(out, "MAPE: {:.1}%", self.mape());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_zero_for_exact_match() {
        assert_eq!(mape(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn mape_hand_computed() {
        // errors: 10% and 20% → mean 15%.
        let m = mape(&[1.1, 2.4], &[1.0, 2.0]);
        assert!((m - 15.0).abs() < 1e-9);
    }

    #[test]
    fn mape_symmetric_in_sign_of_error() {
        let over = mape(&[1.1], &[1.0]);
        let under = mape(&[0.9], &[1.0]);
        assert!((over - under).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = mape(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_inputs_rejected() {
        let _ = mape(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "zero reference")]
    fn zero_reference_rejected() {
        let _ = mape(&[1.0], &[0.0]);
    }

    #[test]
    fn comparison_join_intersects() {
        let model = vec![(1, 1.0), (2, 1.8), (4, 3.0)];
        let measured = vec![(2, 1.7), (4, 2.8), (8, 4.0)];
        let c = Comparison::join(&model, &measured);
        assert_eq!(c.ns, vec![2, 4]);
        assert!(c.mape() > 0.0);
    }

    #[test]
    #[should_panic(expected = "share no worker counts")]
    fn disjoint_join_rejected() {
        let _ = Comparison::join(&[(1, 1.0)], &[(2, 1.0)]);
    }

    #[test]
    fn comparison_table_contains_mape_footer() {
        let c = Comparison::new([(1, 1.0, 1.0), (2, 2.0, 1.9)]);
        let t = c.to_table();
        assert!(t.contains("MAPE"));
        assert_eq!(t.lines().count(), 4);
    }
}
