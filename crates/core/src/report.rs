//! Human-readable mapping reports.

use crate::pipeline::{CommOutcome, Mapping};
use rescomm_loopnest::LoopNest;
use rescomm_macrocomm::MacroKind;
use std::fmt;

/// Aggregated counts plus per-access lines for one mapping.
#[derive(Debug, Clone)]
pub struct MappingReport {
    /// Nest name.
    pub nest: String,
    /// Fully local accesses.
    pub n_local: usize,
    /// Linear-local accesses with a constant offset (translations).
    pub n_translation: usize,
    /// Broadcasts (partial or total).
    pub n_broadcast: usize,
    /// Scatters.
    pub n_scatter: usize,
    /// Gathers.
    pub n_gather: usize,
    /// Reductions.
    pub n_reduction: usize,
    /// Communications decomposed into elementary factors.
    pub n_decomposed: usize,
    /// Total elementary factors across all decompositions.
    pub n_factors: usize,
    /// Residual general communications.
    pub n_general: usize,
    /// Recoverable events on the mapping (see [`crate::error::Incident`]):
    /// self-check disagreements or oracle failures plus node-loss remaps;
    /// 0 on a clean run.
    pub n_incidents: usize,
    /// How many of the incidents are node-loss remaps.
    pub n_node_loss: usize,
    /// One line per access: `(array, statement, outcome)`.
    pub lines: Vec<(String, String, String)>,
    /// Human-readable incident descriptions, parallel to `n_incidents`.
    pub incident_lines: Vec<String>,
}

impl MappingReport {
    /// Build from a mapping.
    pub fn from_mapping(mapping: &Mapping, nest: &LoopNest) -> Self {
        let mut r = MappingReport {
            nest: nest.name.clone(),
            n_local: 0,
            n_translation: 0,
            n_broadcast: 0,
            n_scatter: 0,
            n_gather: 0,
            n_reduction: 0,
            n_decomposed: 0,
            n_factors: 0,
            n_general: 0,
            n_incidents: mapping.incidents.len(),
            n_node_loss: mapping
                .incidents
                .iter()
                .filter(|i| i.kind == crate::error::IncidentKind::NodeLoss)
                .count(),
            lines: Vec::new(),
            incident_lines: mapping.incidents.iter().map(|i| i.to_string()).collect(),
        };
        for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
            let desc = match out {
                CommOutcome::Local => {
                    r.n_local += 1;
                    "local".to_string()
                }
                CommOutcome::Translation => {
                    r.n_translation += 1;
                    "translation".to_string()
                }
                CommOutcome::Macro {
                    kind,
                    total,
                    rotated,
                } => {
                    let k = match kind {
                        MacroKind::Broadcast => {
                            r.n_broadcast += 1;
                            "broadcast"
                        }
                        MacroKind::Scatter => {
                            r.n_scatter += 1;
                            "scatter"
                        }
                        MacroKind::Gather => {
                            r.n_gather += 1;
                            "gather"
                        }
                        MacroKind::Reduction => {
                            r.n_reduction += 1;
                            "reduction"
                        }
                    };
                    format!(
                        "{}{}{}",
                        if *total { "total " } else { "partial " },
                        k,
                        if *rotated { " (rotated onto axis)" } else { "" }
                    )
                }
                CommOutcome::Decomposed { factors, rotated } => {
                    r.n_decomposed += 1;
                    r.n_factors += factors.len();
                    let fs: Vec<String> = factors.iter().map(|f| f.to_string()).collect();
                    format!(
                        "decomposed: {}{}",
                        fs.join("·"),
                        if *rotated {
                            " (after similarity rotation)"
                        } else {
                            ""
                        }
                    )
                }
                CommOutcome::DecomposedGeneral { n_factors } => {
                    r.n_decomposed += 1;
                    r.n_factors += n_factors;
                    format!("decomposed into {n_factors} unirow factors")
                }
                CommOutcome::General => {
                    r.n_general += 1;
                    "general affine communication".to_string()
                }
            };
            r.lines.push((
                nest.array(acc.array).name.clone(),
                nest.statement(acc.stmt).name.clone(),
                desc,
            ));
        }
        r
    }

    /// Total macro-communications of any kind.
    pub fn n_macro(&self) -> usize {
        self.n_broadcast + self.n_scatter + self.n_gather + self.n_reduction
    }

    /// Total accesses.
    pub fn n_accesses(&self) -> usize {
        self.lines.len()
    }
}

impl fmt::Display for MappingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mapping report for `{}`:", self.nest)?;
        writeln!(
            f,
            "  {} local, {} translation, {} macro (bc {}, sc {}, ga {}, red {}), \
             {} decomposed ({} factors), {} general",
            self.n_local,
            self.n_translation,
            self.n_macro(),
            self.n_broadcast,
            self.n_scatter,
            self.n_gather,
            self.n_reduction,
            self.n_decomposed,
            self.n_factors,
            self.n_general
        )?;
        for (arr, stmt, desc) in &self.lines {
            writeln!(f, "    {arr} in {stmt}: {desc}")?;
        }
        if self.n_incidents > 0 {
            if self.n_node_loss > 0 {
                writeln!(f, "  {} node-loss remap(s) survived:", self.n_node_loss)?;
            }
            if self.n_incidents > self.n_node_loss {
                writeln!(
                    f,
                    "  {} self-check incident(s) against the reference oracle:",
                    self.n_incidents - self.n_node_loss
                )?;
            }
            for line in &self.incident_lines {
                writeln!(f, "  ! {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::pipeline::{map_nest, MappingOptions};
    use rescomm_loopnest::examples;

    #[test]
    fn report_counts_consistent() {
        let (nest, _) = examples::motivating_example(8, 4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let r = mapping.report(&nest);
        assert_eq!(r.n_accesses(), 8);
        assert_eq!(
            r.n_local + r.n_translation + r.n_macro() + r.n_decomposed + r.n_general,
            8
        );
        assert_eq!(r.n_local, 5);
        assert_eq!(r.n_broadcast, 2);
        assert_eq!(r.n_decomposed, 1);
        assert_eq!(r.n_factors, 2);
        assert_eq!(r.n_general, 0);
    }

    #[test]
    fn incidents_surface_in_the_report() {
        let (nest, _) = examples::motivating_example(4, 2);
        let mut mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert_eq!(mapping.report(&nest).n_incidents, 0);
        mapping.incidents.push(crate::error::Incident::fallback(
            "self_check",
            "synthetic disagreement for the report test".into(),
        ));
        let r = mapping.report(&nest);
        assert_eq!(r.n_incidents, 1);
        let text = format!("{r}");
        assert!(text.contains("1 self-check incident"));
        assert!(text.contains("[self_check]"));
    }

    #[test]
    fn display_mentions_every_access() {
        let (nest, _) = examples::motivating_example(4, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let text = format!("{}", mapping.report(&nest));
        assert!(text.contains("broadcast"));
        assert!(text.contains("decomposed"));
        assert!(text.contains("local"));
        assert_eq!(text.matches("\n    ").count(), 8);
    }
}
