//! Trial metrics read off a lane's trajectory.

/// The number of rounds a trial with per-round informed counts
/// `informed_per_round` needed to inform at least `fraction` of `reachable`
/// vertices, or `None` if that never happened — the definition behind
/// [`crate::LaneWorkspace::lane_rounds_to_reach_fraction`].
pub(crate) fn rounds_to_reach_fraction(
    informed_per_round: &[usize],
    fraction: f64,
    reachable: usize,
) -> Option<usize> {
    let target = (fraction * reachable as f64).ceil() as usize;
    informed_per_round.iter().position(|&c| c >= target)
}

#[cfg(test)]
mod tests {
    #[test]
    fn rounds_to_reach_fraction() {
        let informed = [1, 2, 4, 8, 10];
        assert_eq!(super::rounds_to_reach_fraction(&informed, 0.1, 10), Some(0));
        // need ⌈0.5·10⌉ = 5 informed; the first round with ≥ 5 is round 3 (count 8)
        assert_eq!(super::rounds_to_reach_fraction(&informed, 0.5, 10), Some(3));
        assert_eq!(super::rounds_to_reach_fraction(&informed, 1.0, 10), Some(4));
        assert_eq!(super::rounds_to_reach_fraction(&[1, 2, 3], 1.0, 10), None);
    }
}
