//! Search space of tiling factors.
//!
//! Candidate values follow the paper's multi-tiered scheme: the batch and
//! head chunks take divisors of `B` and `H`; the query row-block `N_Q` takes
//! multiples of the softmax row granularity (powers of two up to the sequence
//! length, since softmax is row-wise); the key/value sub-tile `N_{K,V}` takes
//! multiples of the MAC array width. The space is the cartesian product of
//! the four axes.

use mas_dataflow::{AttentionWorkload, Tiling};
use mas_sim::HardwareConfig;
use rand::Rng;

/// Candidate values for each tiling dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Candidates for the batch chunk `B_b`.
    pub b_b: Vec<usize>,
    /// Candidates for the head chunk `H_h`.
    pub h_h: Vec<usize>,
    /// Candidates for the query row-block `N_Q`.
    pub n_q: Vec<usize>,
    /// Candidates for the key/value sub-tile `N_{K,V}`.
    pub n_kv: Vec<usize>,
}

/// Returns every divisor of `n`, in increasing order.
fn divisors(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for d in 1..=n {
        if n.is_multiple_of(d) {
            out.push(d);
        }
    }
    out
}

/// Powers of two in `[lo, hi]`, plus `hi` itself, deduplicated and sorted.
fn pow2_candidates(lo: usize, hi: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut v = lo.max(1);
    while v < hi {
        out.push(v);
        v *= 2;
    }
    out.push(hi);
    out.dedup();
    out
}

impl SearchSpace {
    /// Builds the search space for one workload on one device.
    #[must_use]
    pub fn for_workload(workload: &AttentionWorkload, hw: &HardwareConfig) -> Self {
        let n = workload.seq_len;
        Self {
            b_b: divisors(workload.batch),
            h_h: divisors(workload.heads),
            n_q: pow2_candidates(hw.mac_array_rows.min(n), n),
            n_kv: pow2_candidates(hw.mac_array_cols.min(n), n),
        }
    }

    /// Number of points in the space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.b_b.len() * self.h_h.len() * self.n_q.len() * self.n_kv.len()
    }

    /// Whether the space is empty (never the case for valid workloads).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidate lists per dimension, in decision order
    /// (`B_b`, `H_h`, `N_Q`, `N_{K,V}`).
    #[must_use]
    pub fn axes(&self) -> [&[usize]; 4] {
        [&self.b_b, &self.h_h, &self.n_q, &self.n_kv]
    }

    /// The `index`-th point of the space in row-major order over the axes.
    #[must_use]
    pub fn point(&self, index: usize, workload: &AttentionWorkload) -> Option<Tiling> {
        if index >= self.len() {
            return None;
        }
        let mut rest = index;
        let n_kv = self.n_kv[rest % self.n_kv.len()];
        rest /= self.n_kv.len();
        let n_q = self.n_q[rest % self.n_q.len()];
        rest /= self.n_q.len();
        let h_h = self.h_h[rest % self.h_h.len()];
        rest /= self.h_h.len();
        let b_b = self.b_b[rest % self.b_b.len()];
        Some(Tiling::new(b_b, h_h, n_q, n_kv, workload))
    }

    /// Iterates over every tiling in the space.
    pub fn iter<'a>(
        &'a self,
        workload: &'a AttentionWorkload,
    ) -> impl Iterator<Item = Tiling> + 'a {
        (0..self.len()).filter_map(move |i| self.point(i, workload))
    }

    /// Draws a uniformly random tiling from the space.
    pub fn sample<R: Rng>(&self, rng: &mut R, workload: &AttentionWorkload) -> Tiling {
        let index = rng.gen_range(0..self.len());
        self.point(index, workload)
            .expect("sampled index is within the space")
    }

    /// Returns a neighbouring tiling: one randomly chosen dimension moves to
    /// an adjacent candidate value (used by the genetic mutation operator).
    pub fn neighbour<R: Rng>(
        &self,
        tiling: &Tiling,
        rng: &mut R,
        workload: &AttentionWorkload,
    ) -> Tiling {
        let axis = rng.gen_range(0..4usize);
        let (values, current): (&[usize], usize) = match axis {
            0 => (&self.b_b, tiling.b_b),
            1 => (&self.h_h, tiling.h_h),
            2 => (&self.n_q, tiling.n_q),
            _ => (&self.n_kv, tiling.n_kv),
        };
        let pos = values
            .iter()
            .position(|&v| v >= current)
            .unwrap_or(values.len() - 1);
        let new_pos = if pos == 0 {
            1.min(values.len() - 1)
        } else if pos + 1 >= values.len() || rng.gen_bool(0.5) {
            pos - 1
        } else {
            pos + 1
        };
        let value = values[new_pos];
        let mut t = *tiling;
        match axis {
            0 => t.b_b = value,
            1 => t.h_h = value,
            2 => t.n_q = value,
            _ => t.n_kv = value,
        }
        Tiling::new(t.b_b, t.h_h, t.n_q, t.n_kv, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bert() -> AttentionWorkload {
        AttentionWorkload::new("BERT-Base", 1, 12, 512, 64)
    }

    #[test]
    fn divisor_and_pow2_helpers() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(pow2_candidates(16, 512), vec![16, 32, 64, 128, 256, 512]);
        assert_eq!(pow2_candidates(16, 16), vec![16]);
    }

    #[test]
    fn space_covers_expected_candidates() {
        let w = bert();
        let hw = HardwareConfig::edge_default();
        let s = SearchSpace::for_workload(&w, &hw);
        assert_eq!(s.b_b, vec![1]);
        assert_eq!(s.h_h, vec![1, 2, 3, 4, 6, 12]);
        assert!(s.n_q.contains(&64));
        assert!(s.n_kv.contains(&512));
        assert_eq!(
            s.len(),
            s.b_b.len() * s.h_h.len() * s.n_q.len() * s.n_kv.len()
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn every_index_maps_to_a_distinct_point() {
        let w = bert();
        let hw = HardwareConfig::edge_default();
        let s = SearchSpace::for_workload(&w, &hw);
        let points: Vec<Tiling> = s.iter(&w).collect();
        assert_eq!(points.len(), s.len());
        for (i, a) in points.iter().enumerate() {
            for b in points.iter().skip(i + 1) {
                assert_ne!(a, b, "duplicate point in the space");
            }
        }
        assert!(s.point(s.len(), &w).is_none());
    }

    #[test]
    fn samples_come_from_the_space() {
        let w = bert();
        let hw = HardwareConfig::edge_default();
        let s = SearchSpace::for_workload(&w, &hw);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let t = s.sample(&mut rng, &w);
            assert!(s.h_h.contains(&t.h_h));
            assert!(s.n_q.contains(&t.n_q));
            assert!(s.n_kv.contains(&t.n_kv));
        }
    }

    #[test]
    fn neighbours_differ_in_at_most_one_axis() {
        let w = bert();
        let hw = HardwareConfig::edge_default();
        let s = SearchSpace::for_workload(&w, &hw);
        let mut rng = StdRng::seed_from_u64(9);
        let base = s.sample(&mut rng, &w);
        for _ in 0..20 {
            let n = s.neighbour(&base, &mut rng, &w);
            let diffs = [
                n.b_b != base.b_b,
                n.h_h != base.h_h,
                n.n_q != base.n_q,
                n.n_kv != base.n_kv,
            ]
            .iter()
            .filter(|&&d| d)
            .count();
            assert!(diffs <= 1);
        }
    }

    #[test]
    fn vit_sequence_is_covered_despite_not_being_a_power_of_two() {
        let w = AttentionWorkload::new("ViT-B/14", 1, 12, 196, 64);
        let hw = HardwareConfig::edge_default();
        let s = SearchSpace::for_workload(&w, &hw);
        assert!(
            s.n_q.contains(&196),
            "the full sequence must be a candidate"
        );
        assert!(s.n_kv.contains(&196));
    }
}
