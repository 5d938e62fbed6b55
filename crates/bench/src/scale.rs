//! Experiment scale control.

/// How much work an experiment run does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Reduced seeds / cycles (CI-friendly; the default).
    Quick,
    /// The paper's methodology: 10 fault patterns per point, long
    /// measurement windows.
    Full,
}

impl Scale {
    /// Reads `DRAIN_SCALE` (`quick` | `full`, any letter case); `Quick`
    /// when unset. Any other value is a one-line error and exit code 2.
    pub fn from_env() -> Scale {
        crate::env_parsed("DRAIN_SCALE", Scale::parse).unwrap_or(Scale::Quick)
    }

    fn parse(value: &str) -> Result<Scale, &'static str> {
        match value.trim().to_ascii_lowercase().as_str() {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            _ => Err("quick or full"),
        }
    }

    /// Fault patterns (seeds) per configuration point (paper: 10).
    pub fn seeds(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }

    /// Warmup cycles before the measurement window opens.
    pub fn warmup(self) -> u64 {
        match self {
            Scale::Quick => 3_000,
            Scale::Full => 20_000,
        }
    }

    /// Measurement cycles.
    pub fn measure(self) -> u64 {
        match self {
            Scale::Quick => 8_000,
            Scale::Full => 60_000,
        }
    }

    /// Cycle budget for closed-loop (application) runs.
    pub fn app_budget(self) -> u64 {
        match self {
            Scale::Quick => 150_000,
            Scale::Full => 2_000_000,
        }
    }

    /// Per-core transaction quota for closed-loop runs.
    pub fn app_quota(self) -> u64 {
        match self {
            Scale::Quick => 300,
            Scale::Full => 5_000,
        }
    }

    /// Injection rates swept for saturation search.
    pub fn rate_sweep(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.02, 0.05, 0.10, 0.16, 0.24, 0.34, 0.44],
            Scale::Full => vec![
                0.02, 0.04, 0.06, 0.09, 0.12, 0.16, 0.20, 0.26, 0.32, 0.40, 0.48, 0.56,
            ],
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.seeds() < Scale::Full.seeds());
        assert!(Scale::Quick.measure() < Scale::Full.measure());
        assert!(Scale::Quick.rate_sweep().len() <= Scale::Full.rate_sweep().len());
    }

    #[test]
    fn scale_values_parse_in_any_case() {
        for v in ["full", "FULL", "Full", " full "] {
            assert_eq!(Scale::parse(v), Ok(Scale::Full), "{v:?}");
        }
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
    }

    #[test]
    fn unknown_scale_values_are_rejected() {
        for v in ["", "ful", "fulll", "paper", "1", "quick,full"] {
            assert_eq!(Scale::parse(v), Err("quick or full"), "{v:?}");
        }
    }
}
