//! Sign-language / gesture annotation emulator.
//!
//! Models annotation corpora like the ASL datasets used throughout the
//! interval-mining literature: every sequence is one utterance; intervals
//! are linguistic annotations on parallel tiers (hand shape, head movement,
//! eyebrow position, mouthing, …). Annotations on different tiers overlap
//! heavily — a wh-question raises the brows *during* the manual sign, a
//! head-shake *contains* the negated phrase — which is exactly the kind of
//! structure temporal patterns are meant to capture. Utterances are drawn
//! from a small set of grammatical templates with jitter and optional tiers.

use interval_core::rng::SplitMix64;
use interval_core::{EventInterval, IntervalDatabase, IntervalSequence, SymbolTable, Time};

/// Parameters of the gesture emulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GestureConfig {
    /// Number of utterances (sequences).
    pub utterances: usize,
    /// Mean sign duration in frames.
    pub avg_sign_frames: f64,
    /// Probability that an optional tier annotation is realized.
    pub optional_tier_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GestureConfig {
    fn default() -> Self {
        Self {
            utterances: 800,
            avg_sign_frames: 30.0,
            optional_tier_probability: 0.7,
            seed: 31,
        }
    }
}

/// One templated annotation: tier name, start offset relative to the
/// template anchor, duration factor relative to the sign duration, and
/// whether the tier is optional.
struct TemplateAnnotation {
    tier: &'static str,
    offset_frac: f64,
    duration_frac: f64,
    optional: bool,
}

/// A grammatical template.
struct Template {
    annotations: &'static [TemplateAnnotation],
}

const WH_QUESTION: Template = Template {
    annotations: &[
        TemplateAnnotation {
            tier: "sign-wh",
            offset_frac: 0.0,
            duration_frac: 1.0,
            optional: false,
        },
        // brows raise just before the sign and hold through it (contains)
        TemplateAnnotation {
            tier: "brow-raise",
            offset_frac: -0.2,
            duration_frac: 1.5,
            optional: false,
        },
        TemplateAnnotation {
            tier: "head-tilt",
            offset_frac: 0.3,
            duration_frac: 0.6,
            optional: true,
        },
    ],
};

const NEGATION: Template = Template {
    annotations: &[
        TemplateAnnotation {
            tier: "sign-neg",
            offset_frac: 0.0,
            duration_frac: 1.0,
            optional: false,
        },
        // head-shake overlaps the sign, extending past it
        TemplateAnnotation {
            tier: "head-shake",
            offset_frac: 0.4,
            duration_frac: 1.2,
            optional: false,
        },
        TemplateAnnotation {
            tier: "mouth-neg",
            offset_frac: 0.1,
            duration_frac: 0.8,
            optional: true,
        },
    ],
};

const TOPIC_COMMENT: Template = Template {
    annotations: &[
        TemplateAnnotation {
            tier: "sign-topic",
            offset_frac: 0.0,
            duration_frac: 1.0,
            optional: false,
        },
        // comment sign meets/after the topic
        TemplateAnnotation {
            tier: "sign-comment",
            offset_frac: 1.0,
            duration_frac: 1.1,
            optional: false,
        },
        TemplateAnnotation {
            tier: "brow-raise",
            offset_frac: 0.0,
            duration_frac: 0.9,
            optional: true,
        },
        TemplateAnnotation {
            tier: "pause",
            offset_frac: 2.2,
            duration_frac: 0.3,
            optional: true,
        },
    ],
};

const TEMPLATES: &[&Template] = &[&WH_QUESTION, &NEGATION, &TOPIC_COMMENT];

/// All tier names the emulator can produce.
pub const TIERS: &[&str] = &[
    "sign-wh",
    "brow-raise",
    "head-tilt",
    "sign-neg",
    "head-shake",
    "mouth-neg",
    "sign-topic",
    "sign-comment",
    "pause",
];

/// The emulator. Construct with a [`GestureConfig`], call
/// [`generate`](GestureEmulator::generate).
#[derive(Debug, Clone)]
pub struct GestureEmulator {
    config: GestureConfig,
}

impl GestureEmulator {
    /// Creates an emulator.
    pub fn new(config: GestureConfig) -> Self {
        Self { config }
    }

    /// Generates the annotation database (deterministic per seed).
    pub fn generate(&self) -> IntervalDatabase {
        let cfg = &self.config;
        let mut symbols = SymbolTable::new();
        for t in TIERS {
            symbols.intern(t);
        }
        let mut rng = SplitMix64::new(cfg.seed);
        let mut sequences = Vec::with_capacity(cfg.utterances);
        for _ in 0..cfg.utterances {
            sequences.push(self.utterance(&mut rng, &symbols));
        }
        IntervalDatabase::from_parts(symbols, sequences)
    }

    fn utterance(&self, rng: &mut SplitMix64, symbols: &SymbolTable) -> IntervalSequence {
        let cfg = &self.config;
        let template = TEMPLATES[rng.range(0..TEMPLATES.len())];
        let sign_frames = (cfg.avg_sign_frames * (0.6 + 0.8 * rng.unit_f64())).max(4.0);
        let anchor = rng.range(0..120i64) as f64;
        let mut seq = IntervalSequence::new();
        for a in template.annotations {
            if a.optional && rng.unit_f64() >= cfg.optional_tier_probability {
                continue;
            }
            let mut jitter = || (rng_jitter(rng) * 0.08) * sign_frames;
            let start = anchor + a.offset_frac * sign_frames + jitter();
            let duration = (a.duration_frac * sign_frames + jitter()).max(2.0);
            #[expect(
                clippy::expect_used,
                reason = "every template tier is interned before generation; a miss means the tier list and templates drifted"
            )]
            let symbol = symbols.lookup(a.tier).expect("tier interned");
            let start = start.round() as Time;
            seq.push(EventInterval::new_unchecked(
                symbol,
                start,
                start + duration.round().max(1.0) as Time,
            ));
        }
        seq
    }
}

fn rng_jitter(rng: &mut SplitMix64) -> f64 {
    2.0 * rng.unit_f64() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = GestureEmulator::new(GestureConfig::default()).generate();
        let b = GestureEmulator::new(GestureConfig::default()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn produces_requested_utterances_with_known_tiers() {
        let db = GestureEmulator::new(GestureConfig {
            utterances: 60,
            ..Default::default()
        })
        .generate();
        assert_eq!(db.len(), 60);
        for seq in db.sequences() {
            assert!(!seq.is_empty());
            for iv in seq {
                assert!(TIERS.contains(&db.symbols().name(iv.symbol)));
            }
        }
    }

    #[test]
    fn annotations_overlap_within_utterances() {
        let db = GestureEmulator::new(GestureConfig {
            utterances: 300,
            ..Default::default()
        })
        .generate();
        let overlapping = db
            .sequences()
            .iter()
            .filter(|s| {
                s.iter().enumerate().any(|(i, a)| {
                    s.iter()
                        .skip(i + 1)
                        .any(|b| a.start < b.end && b.start < a.end)
                })
            })
            .count();
        assert!(
            overlapping > db.len() / 2,
            "only {overlapping}/{} utterances have overlapping tiers",
            db.len()
        );
    }

    #[test]
    fn mandatory_tiers_always_present() {
        let db = GestureEmulator::new(GestureConfig {
            utterances: 100,
            optional_tier_probability: 0.0,
            ..Default::default()
        })
        .generate();
        // With optional tiers disabled, every utterance still has at least
        // the mandatory annotations of its template (>= 2).
        for seq in db.sequences() {
            assert!(seq.len() >= 2, "utterance lost mandatory tiers: {seq:?}");
        }
    }
}
