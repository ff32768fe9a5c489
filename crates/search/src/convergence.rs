//! Convergence histories (best-so-far cost versus search effort).
//!
//! Figure 7 of the paper plots execution cycles against search time for each
//! method under GA and MCTS. Every search algorithm in this crate records a
//! [`ConvergenceHistory`] so the figure can be regenerated, and §5.5's
//! "cycle improvement" factors (naive → tuned) can be computed.

/// One sample of a search's progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Search iteration at which the sample was taken (1-based).
    pub iteration: usize,
    /// Cumulative number of simulator evaluations performed.
    pub evaluations: usize,
    /// Best objective value found so far (cycles for the latency objective).
    pub best_objective: f64,
}

/// Best-so-far trajectory of one search run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceHistory {
    points: Vec<ConvergencePoint>,
}

impl ConvergenceHistory {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample. Only improvements and the first sample are stored
    /// (the trajectory is a non-increasing step function, so intermediate
    /// equal values carry no information).
    pub fn record(&mut self, iteration: usize, evaluations: usize, best_objective: f64) {
        let improved = self
            .points
            .last()
            .is_none_or(|last| best_objective < last.best_objective);
        if improved {
            self.points.push(ConvergencePoint {
                iteration,
                evaluations,
                best_objective,
            });
        }
    }

    /// All recorded samples, in iteration order.
    #[must_use]
    pub fn points(&self) -> &[ConvergencePoint] {
        &self.points
    }

    /// The final best objective value, if any sample was recorded.
    #[must_use]
    pub fn final_best(&self) -> Option<f64> {
        self.points.last().map(|p| p.best_objective)
    }

    /// The first (starting-point) objective value, if any.
    #[must_use]
    pub fn initial(&self) -> Option<f64> {
        self.points.first().map(|p| p.best_objective)
    }

    /// Improvement factor from the first to the last sample
    /// (`initial / final`), the quantity §5.5 reports (e.g. 64.5× for
    /// BERT-Base).
    #[must_use]
    pub fn improvement_factor(&self) -> Option<f64> {
        match (self.initial(), self.final_best()) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    }

    /// Best-so-far value at a given iteration (step-function lookup).
    #[must_use]
    pub fn best_at(&self, iteration: usize) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.iteration <= iteration)
            .last()
            .map(|p| p.best_objective)
    }

    /// Merges another history that continues this one (e.g. the GA phase
    /// appended after the MCTS phase), shifting its iteration numbers.
    pub fn extend_from(&mut self, other: &ConvergenceHistory) {
        let offset_iter = self.points.last().map_or(0, |p| p.iteration);
        let offset_eval = self.points.last().map_or(0, |p| p.evaluations);
        for p in other.points() {
            self.record(
                p.iteration + offset_iter,
                p.evaluations + offset_eval,
                p.best_objective,
            );
        }
    }

    /// Downsamples the trajectory to at most `max_points` samples for
    /// plotting (Figure 7 "proportionally reduces the number of plotted
    /// lines").
    #[must_use]
    pub fn downsample(&self, max_points: usize) -> Vec<ConvergencePoint> {
        if self.points.len() <= max_points || max_points == 0 {
            return self.points.clone();
        }
        let step = self.points.len() as f64 / max_points as f64;
        let mut out = Vec::with_capacity(max_points);
        for i in 0..max_points {
            out.push(self.points[(i as f64 * step) as usize]);
        }
        if let Some(last) = self.points.last() {
            if out.last() != Some(last) {
                out.push(*last);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_improvements() {
        let mut h = ConvergenceHistory::new();
        h.record(1, 1, 100.0);
        h.record(2, 2, 100.0);
        h.record(3, 3, 80.0);
        h.record(4, 4, 90.0);
        h.record(5, 5, 50.0);
        assert_eq!(h.points().len(), 3);
        assert_eq!(h.final_best(), Some(50.0));
        assert_eq!(h.initial(), Some(100.0));
        assert_eq!(h.improvement_factor(), Some(2.0));
    }

    #[test]
    fn best_at_is_a_step_function() {
        let mut h = ConvergenceHistory::new();
        h.record(1, 1, 100.0);
        h.record(10, 10, 40.0);
        assert_eq!(h.best_at(5), Some(100.0));
        assert_eq!(h.best_at(10), Some(40.0));
        assert_eq!(h.best_at(0), None);
    }

    #[test]
    fn extend_shifts_iterations() {
        let mut a = ConvergenceHistory::new();
        a.record(1, 1, 100.0);
        a.record(5, 5, 60.0);
        let mut b = ConvergenceHistory::new();
        b.record(1, 1, 55.0);
        b.record(3, 3, 50.0);
        a.extend_from(&b);
        assert_eq!(a.final_best(), Some(50.0));
        assert_eq!(a.points().last().unwrap().iteration, 8);
    }

    #[test]
    fn downsample_preserves_endpoints() {
        let mut h = ConvergenceHistory::new();
        for i in 0..100 {
            h.record(i + 1, i + 1, 1000.0 - i as f64 * 10.0);
        }
        let d = h.downsample(10);
        assert!(d.len() <= 11);
        assert_eq!(d.first().unwrap().best_objective, 1000.0);
        assert_eq!(d.last().unwrap().best_objective, h.final_best().unwrap());
        // Empty and small histories pass through unchanged.
        assert_eq!(ConvergenceHistory::new().downsample(5).len(), 0);
    }
}
