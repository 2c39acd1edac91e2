//! Full-system configuration presets.

use jukebox::JukeboxConfig;
use luke_common::SimError;
use sim_cpu::CoreConfig;
use sim_mem::HierarchyConfig;

/// Largest log2 size of a branch-predictor or BTB table: 16M entries,
/// far above Table 1's 8K-entry BTB, and small enough that `1 << bits`
/// cannot overflow or exhaust memory.
const MAX_TABLE_BITS: u32 = 24;

/// A complete platform configuration: core, memory system and the Jukebox
/// parameters appropriate for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Platform name ("skylake" / "broadwell").
    pub name: &'static str,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Cache/TLB/DRAM parameters.
    pub mem: HierarchyConfig,
    /// Jukebox parameters tuned for this platform (§5.6: the small
    /// Broadwell L2 needs 32KB of metadata).
    pub jukebox: JukeboxConfig,
}

impl SystemConfig {
    /// The Skylake-like evaluation platform of Table 1.
    pub fn skylake() -> Self {
        SystemConfig {
            name: "skylake",
            core: CoreConfig::skylake_like(),
            mem: HierarchyConfig::skylake_like(),
            jukebox: JukeboxConfig::paper_default(),
        }
    }

    /// The Broadwell-like characterization platform (§4.1, §5.6).
    pub fn broadwell() -> Self {
        SystemConfig {
            name: "broadwell",
            core: CoreConfig::broadwell_like(),
            mem: HierarchyConfig::broadwell_like(),
            jukebox: JukeboxConfig::broadwell(),
        }
    }

    /// Validates every layer of the configuration — core, memory
    /// hierarchy, Jukebox — returning the first violation. The CLI calls
    /// this before running anything, so a zero-way cache or an empty CRRB
    /// becomes a one-line error and a nonzero exit rather than a panic.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.core.freq_ghz > 0.0 && self.core.freq_ghz.is_finite()) {
            return Err(SimError::invalid_config(
                "core.freq_ghz",
                format!("must be positive and finite, got {}", self.core.freq_ghz),
            ));
        }
        if self.core.issue_width == 0 {
            return Err(SimError::invalid_config(
                "core.issue_width",
                "must be at least 1",
            ));
        }
        if self.core.rob_entries == 0 {
            return Err(SimError::invalid_config(
                "core.rob_entries",
                "must be at least 1",
            ));
        }
        if self.core.fetch_bytes_per_cycle == 0 {
            return Err(SimError::invalid_config(
                "core.fetch_bytes_per_cycle",
                "must be at least 1",
            ));
        }
        // The core's clock takes whole cycles out of these fractions with
        // a fast path that assumes finite, non-negative amounts.
        for (field, cycles) in [
            ("core.core_bound_per_instr", self.core.core_bound_per_instr),
            ("core.redirect_bubble", self.core.redirect_bubble),
            ("core.taken_branch_bubble", self.core.taken_branch_bubble),
        ] {
            if !(cycles >= 0.0 && cycles.is_finite()) {
                return Err(SimError::invalid_config(
                    field,
                    format!("must be non-negative and finite, got {cycles}"),
                ));
            }
        }
        if self.core.ras_depth == 0 {
            return Err(SimError::invalid_config(
                "core.ras_depth",
                "must be at least 1",
            ));
        }
        for (field, bits) in [
            ("core.gshare_bits", self.core.gshare_bits),
            ("core.bimodal_bits", self.core.bimodal_bits),
            ("core.chooser_bits", self.core.chooser_bits),
            ("core.btb_bits", self.core.btb_bits),
        ] {
            if bits > MAX_TABLE_BITS {
                return Err(SimError::invalid_config(
                    field,
                    format!(
                        "a table of 2^{bits} entries is too large (at most 2^{MAX_TABLE_BITS})"
                    ),
                ));
            }
        }
        self.mem.validate()?;
        self.jukebox.try_validate()?;
        Ok(())
    }

    /// Renders the Table 1-style parameter listing.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("Platform: {}\n", self.name));
        s.push_str(&format!(
            "Core: {}-wide, {} GHz, ROB {}, fetch {}B/cycle, mispredict penalty {}\n",
            self.core.issue_width,
            self.core.freq_ghz,
            self.core.rob_entries,
            self.core.fetch_bytes_per_cycle,
            self.core.mispredict_penalty,
        ));
        s.push_str(&format!(
            "BP: gshare 2^{} + bimodal 2^{}, BTB 2^{} entries, RAS {}\n",
            self.core.gshare_bits, self.core.bimodal_bits, self.core.btb_bits, self.core.ras_depth,
        ));
        s.push_str(&format!("L1-I: {}\n", self.mem.l1i));
        s.push_str(&format!("L1-D: {}\n", self.mem.l1d));
        s.push_str(&format!("L2:   {}\n", self.mem.l2));
        s.push_str(&format!("LLC:  {}\n", self.mem.llc));
        s.push_str(&format!(
            "DRAM: {} cycles latency, {} cycles/line channel occupancy\n",
            self.mem.dram.latency, self.mem.dram.cycles_per_line,
        ));
        s.push_str(&format!(
            "Jukebox: CRRB {} entries, region {}B, metadata {} per direction\n",
            self.jukebox.crrb_entries, self.jukebox.region_bytes, self.jukebox.metadata_capacity,
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luke_common::size::ByteSize;

    #[test]
    fn presets_differ_in_l2_and_metadata() {
        let sky = SystemConfig::skylake();
        let bdw = SystemConfig::broadwell();
        assert_eq!(sky.mem.l2.capacity, ByteSize::mib(1));
        assert_eq!(bdw.mem.l2.capacity, ByteSize::kib(256));
        assert_eq!(sky.jukebox.metadata_capacity, ByteSize::kib(16));
        assert_eq!(bdw.jukebox.metadata_capacity, ByteSize::kib(32));
    }

    #[test]
    fn presets_validate_clean() {
        assert!(SystemConfig::skylake().validate().is_ok());
        assert!(SystemConfig::broadwell().validate().is_ok());
    }

    #[test]
    fn validate_surfaces_violations_in_any_layer() {
        let mut c = SystemConfig::skylake();
        c.core.freq_ghz = 0.0;
        assert!(format!("{}", c.validate().unwrap_err()).contains("core.freq_ghz"));

        let mut c = SystemConfig::skylake();
        c.mem.llc.ways = 0;
        assert!(format!("{}", c.validate().unwrap_err()).contains("llc.cache.ways"));

        let mut c = SystemConfig::skylake();
        c.mem.l2.mshrs = 0;
        assert!(format!("{}", c.validate().unwrap_err()).contains("l2.cache.mshrs"));

        let mut c = SystemConfig::skylake();
        c.jukebox.crrb_entries = 0;
        assert!(format!("{}", c.validate().unwrap_err()).contains("jukebox.crrb_entries"));

        type CoreEdit = fn(&mut sim_cpu::CoreConfig);
        let core_rows: [(&str, CoreEdit); 10] = [
            ("core.core_bound_per_instr", |c| {
                c.core_bound_per_instr = -0.1
            }),
            ("core.core_bound_per_instr", |c| {
                c.core_bound_per_instr = f64::NAN
            }),
            ("core.redirect_bubble", |c| {
                c.redirect_bubble = f64::INFINITY
            }),
            ("core.taken_branch_bubble", |c| c.taken_branch_bubble = -1.0),
            ("core.ras_depth", |c| c.ras_depth = 0),
            ("core.gshare_bits", |c| c.gshare_bits = 64),
            ("core.bimodal_bits", |c| c.bimodal_bits = MAX_TABLE_BITS + 1),
            ("core.chooser_bits", |c| c.chooser_bits = 40),
            ("core.btb_bits", |c| c.btb_bits = 31),
            ("core.btb_bits", |c| c.btb_bits = u32::MAX),
        ];
        for (field, edit) in core_rows {
            let mut c = SystemConfig::skylake();
            edit(&mut c.core);
            let err = c.validate().unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { field: ref f, .. } if f == field),
                "{field}: {err}"
            );
        }
        let mut c = SystemConfig::skylake();
        c.core.btb_bits = MAX_TABLE_BITS;
        c.core.redirect_bubble = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn describe_contains_key_parameters() {
        let s = SystemConfig::skylake().describe();
        assert!(s.contains("skylake"));
        assert!(s.contains("1MB"));
        assert!(s.contains("CRRB 16"));
    }
}
