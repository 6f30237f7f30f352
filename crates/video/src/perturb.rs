//! Deterministic content-fault injection — seeded perturbations of the
//! frame stream itself.
//!
//! The chaos harness (`rt::fault`) injures the *infrastructure*: model
//! calls time out, caches get poisoned, processes die. This module
//! injures the *content*: the frames a corpus hands the detector stop
//! looking like the frames the profile was calibrated on. Hosseini et
//! al. showed that small, targeted input perturbations flip cloud
//! video-API decisions wholesale; the bound-soundness audit
//! (`tests/content_shift.rs`) uses this module to measure exactly where
//! the paper's Hoeffding–Serfling / Bernstein bounds stay sound under
//! such shifts and where they silently bend.
//!
//! Like [`rt::fault`](smokescreen_rt), every decision is a **pure
//! function** of `(plan, frame index)` — never of shared mutable state or
//! of frame *content* — derived from a seeded xoshiro256\*\* stream. Two
//! runs with the same plan perturb the identical frame set with the
//! identical parameters at any thread count, which keeps perturbed runs
//! replayable bit-for-bit and (crucially for the audit) keeps the
//! perturbed population fixed *before* any sampling happens, so uniform
//! sampling remains uniform over the perturbed stream.
//!
//! The plan schedules five perturbation kinds:
//!
//! * **Occlusion** — a static occluder patch (a parked truck, a smudge on
//!   the dome) raises the `occlusion` attribute of every object it
//!   overlaps, in proportion to the overlap.
//! * **Glare** — a horizontal brightness ramp (low sun, headlight bloom)
//!   attenuates object contrast, biting hardest through the detectors'
//!   `contrast_gamma` response at night.
//! * **Shake** — camera-shake jitter translates every bounding box by a
//!   per-frame offset; boxes clamp at the frame edge, shrinking objects
//!   that get pushed out of view.
//! * **LabelFlip** — Hosseini's decision-flip regime: ground-truth labels
//!   swap within confusable pairs (car ↔ truck, bus ↔ bicycle), so the
//!   queried class's per-frame counts are wrong at the source. Sensitive
//!   classes (person/face) are never touched.
//! * **Drift** — mid-stream class-prevalence drift: the final `rate`
//!   fraction of the stream deterministically gains 1–2 extra cars per
//!   existing car (rush hour starting mid-recording). Unlike the other
//!   kinds, drift is a *tail regime*, not a per-frame coin flip — that is
//!   what makes it a distribution shift rather than noise.
//!
//! Replay recipe: set `SMOKESCREEN_PERTURB_SEED`, `SMOKESCREEN_PERTURB_RATE`
//! and `SMOKESCREEN_PERTURB_KIND` and build the plan with
//! [`PerturbPlan::from_env`]. Malformed values are a *loud* startup error
//! (a panic naming the variable and the offending string), matching the
//! FAULT/CRASH convention: a typo in a chaos knob must never silently run
//! the perturbations-disabled configuration.

use std::fmt;
use std::str::FromStr;

use smokescreen_rt::fault::{mix, parse_rate, parse_seed};
use smokescreen_rt::rng::StdRng;

use crate::corpus::VideoCorpus;
use crate::frame::Frame;
use crate::object::{BBox, Object, ObjectClass};

/// Environment variable carrying the perturbation-plan seed (decimal `u64`).
pub const PERTURB_SEED_ENV: &str = "SMOKESCREEN_PERTURB_SEED";

/// Environment variable carrying the perturbation rate in `[0, 1]`.
pub const PERTURB_RATE_ENV: &str = "SMOKESCREEN_PERTURB_RATE";

/// Environment variable naming the perturbation kind
/// (`occlusion|glare|shake|label-flip|drift`).
pub const PERTURB_KIND_ENV: &str = "SMOKESCREEN_PERTURB_KIND";

/// Domain-separation constant keeping perturbation decisions independent
/// of fault and crash decisions derived from the same seed.
const PERTURB_STREAM_SALT: u64 = 0x0CC1_0DED_FA11_5AFE;

/// Which content fault a plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerturbKind {
    /// Static occluder patch raising `occlusion` on overlapped objects.
    Occlusion,
    /// Horizontal brightness ramp attenuating object contrast.
    Glare,
    /// Camera-shake jitter translating every bounding box.
    Shake,
    /// Ground-truth label swap within confusable class pairs.
    LabelFlip,
    /// Mid-stream class-prevalence drift in the tail of the stream.
    Drift,
}

impl PerturbKind {
    /// All kinds, in a stable order (the audit matrix sweeps this).
    pub const ALL: [PerturbKind; 5] = [
        PerturbKind::Occlusion,
        PerturbKind::Glare,
        PerturbKind::Shake,
        PerturbKind::LabelFlip,
        PerturbKind::Drift,
    ];

    /// Canonical lower-case name (the `SMOKESCREEN_PERTURB_KIND` value).
    pub fn name(self) -> &'static str {
        match self {
            PerturbKind::Occlusion => "occlusion",
            PerturbKind::Glare => "glare",
            PerturbKind::Shake => "shake",
            PerturbKind::LabelFlip => "label-flip",
            PerturbKind::Drift => "drift",
        }
    }
}

impl fmt::Display for PerturbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PerturbKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "occlusion" => Ok(PerturbKind::Occlusion),
            "glare" => Ok(PerturbKind::Glare),
            "shake" => Ok(PerturbKind::Shake),
            "label-flip" | "label_flip" | "labelflip" => Ok(PerturbKind::LabelFlip),
            "drift" => Ok(PerturbKind::Drift),
            other => Err(format!(
                "unknown perturbation kind {other:?} (expected \
                 occlusion|glare|shake|label-flip|drift)"
            )),
        }
    }
}

/// One scheduled perturbation for a frame, with all parameters drawn.
///
/// Parameters are drawn at decision time from the frame's pure stream, so
/// a `Perturbation` value fully describes what happens to the frame —
/// applying it is deterministic arithmetic with no further randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// An occluder patch covering `[x, x+w] × [y, y+h]` of the frame;
    /// objects it overlaps gain `severity · overlap_fraction` occlusion.
    Occlusion {
        /// Patch left edge (normalized).
        x: f32,
        /// Patch top edge (normalized).
        y: f32,
        /// Patch width (normalized).
        w: f32,
        /// Patch height (normalized).
        h: f32,
        /// Occlusion added to a fully covered object, in `(0, 1)`.
        severity: f32,
    },
    /// A horizontal brightness ramp: an object centred at normalized `cx`
    /// keeps `1 − attenuation · cx` of its contrast.
    Glare {
        /// Maximum contrast attenuation (at the right frame edge).
        attenuation: f32,
    },
    /// A per-frame camera offset applied to every bounding box.
    Shake {
        /// Horizontal translation (normalized).
        dx: f32,
        /// Vertical translation (normalized).
        dy: f32,
    },
    /// Swap ground-truth labels within confusable pairs
    /// (car ↔ truck, bus ↔ bicycle).
    LabelFlip,
    /// Prevalence drift: every car gains this many extra copies.
    Drift {
        /// Extra cars spawned per existing car (1 or 2).
        extra_copies: u32,
    },
}

/// A seeded, replayable content-fault schedule.
///
/// The plan is plain data (`Copy`): [`PerturbPlan::decision`] is a pure
/// function of `(plan, frame index, population)`, never of frame content
/// or shared state — the soundness argument in DESIGN.md ("content
/// independence") rests on exactly this property.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbPlan {
    seed: u64,
    rate: f64,
    kind: PerturbKind,
}

impl PerturbPlan {
    /// A plan perturbing frames at `rate` (clamped to `[0, 1]`). For
    /// [`PerturbKind::Drift`] the rate is the drifted *tail fraction* of
    /// the stream rather than a per-frame probability.
    pub fn new(seed: u64, rate: f64, kind: PerturbKind) -> Self {
        PerturbPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            kind,
        }
    }

    /// The plan seed (for replay reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-frame perturbation probability (tail fraction for drift).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The perturbation kind this plan injects.
    pub fn kind(&self) -> PerturbKind {
        self.kind
    }

    /// Builds a plan from `SMOKESCREEN_PERTURB_SEED` /
    /// `SMOKESCREEN_PERTURB_RATE` / `SMOKESCREEN_PERTURB_KIND`. Returns
    /// `None` when the rate is unset or zero — the perturbations-disabled
    /// configuration. Malformed values (including a positive rate with no
    /// kind, or a bogus kind even when disabled) are a loud startup error,
    /// matching [`FaultPlan::from_env`](smokescreen_rt::fault::FaultPlan).
    pub fn from_env() -> Option<Self> {
        match Self::parse_env(
            std::env::var(PERTURB_SEED_ENV).ok().as_deref(),
            std::env::var(PERTURB_RATE_ENV).ok().as_deref(),
            std::env::var(PERTURB_KIND_ENV).ok().as_deref(),
        ) {
            Ok(plan) => plan,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Parse layer behind [`PerturbPlan::from_env`], exposed for tests.
    /// `Err` carries a message naming the offending variable and value.
    pub fn parse_env(
        seed: Option<&str>,
        rate: Option<&str>,
        kind: Option<&str>,
    ) -> Result<Option<Self>, String> {
        let seed = parse_seed(PERTURB_SEED_ENV, seed)?;
        // The kind is validated even when the rate leaves the plan
        // disabled — a typo'd kind is a configuration bug either way.
        let kind = match kind {
            None => None,
            Some(raw) => Some(
                raw.parse::<PerturbKind>()
                    .map_err(|e| format!("{PERTURB_KIND_ENV}: {e}"))?,
            ),
        };
        match parse_rate(PERTURB_RATE_ENV, rate)? {
            Some(rate) if rate > 0.0 => match kind {
                Some(kind) => Ok(Some(PerturbPlan::new(seed, rate, kind))),
                None => Err(format!(
                    "{PERTURB_KIND_ENV} must be set when {PERTURB_RATE_ENV} > 0 \
                     (expected occlusion|glare|shake|label-flip|drift)"
                )),
            },
            _ => Ok(None),
        }
    }

    /// The perturbation scheduled for `frame_idx` in a stream of
    /// `population` frames, or `None` for a clean frame.
    ///
    /// Pure in `(self, frame_idx, population)`: the same plan and indices
    /// always return the same decision with the same drawn parameters, on
    /// any thread, in any order. `population` only matters for
    /// [`PerturbKind::Drift`], whose regime is the final `rate` fraction
    /// of the stream.
    pub fn decision(&self, frame_idx: u64, population: u64) -> Option<Perturbation> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ PERTURB_STREAM_SALT, frame_idx));
        match self.kind {
            PerturbKind::Drift => {
                // Tail regime, not a coin flip: drift starts at a fixed
                // frame and stays on, which is what "the traffic changed"
                // means. The rng only draws the per-frame magnitude.
                let start = (population as f64 * (1.0 - self.rate)).ceil() as u64;
                if frame_idx < start {
                    return None;
                }
                Some(Perturbation::Drift {
                    extra_copies: rng.gen_range(1u32..=2),
                })
            }
            kind => {
                if rng.gen_f64() >= self.rate {
                    return None;
                }
                Some(match kind {
                    PerturbKind::Occlusion => Perturbation::Occlusion {
                        x: rng.gen_f64() as f32 * 0.6,
                        y: rng.gen_f64() as f32 * 0.6,
                        w: 0.25 + 0.35 * rng.gen_f64() as f32,
                        h: 0.25 + 0.35 * rng.gen_f64() as f32,
                        severity: 0.6 + 0.35 * rng.gen_f64() as f32,
                    },
                    PerturbKind::Glare => Perturbation::Glare {
                        attenuation: 0.25 + 0.45 * rng.gen_f64() as f32,
                    },
                    PerturbKind::Shake => Perturbation::Shake {
                        dx: (rng.gen_f64() as f32 - 0.5) * 0.12,
                        dy: (rng.gen_f64() as f32 - 0.5) * 0.12,
                    },
                    PerturbKind::LabelFlip => Perturbation::LabelFlip,
                    PerturbKind::Drift => unreachable!("handled above"),
                })
            }
        }
    }

    /// Applies the plan to a corpus, returning the perturbed corpus.
    ///
    /// At rate 0 the input is returned unchanged (same name, same frames,
    /// byte-identical downstream) — the inertness contract `ci.sh` pins.
    /// Otherwise the perturbed corpus is renamed
    /// `"{name}+{kind}@{rate}#{seed}"` so its generation journals and
    /// caches can never cross-contaminate with the clean corpus's.
    pub fn apply(&self, corpus: &VideoCorpus) -> VideoCorpus {
        if self.rate <= 0.0 {
            return corpus.clone();
        }
        let population = corpus.len() as u64;
        let frames = corpus
            .frames()
            .iter()
            .map(|f| match self.decision(f.id, population) {
                Some(p) => perturb_frame(f, &p),
                None => f.clone(),
            })
            .collect();
        VideoCorpus::new(
            format!(
                "{}+{}@{}#{}",
                corpus.name,
                self.kind.name(),
                self.rate,
                self.seed
            ),
            corpus.fps,
            corpus.native_resolution,
            frames,
        )
    }
}

/// Applies one drawn perturbation to a frame — deterministic arithmetic,
/// no randomness beyond what [`PerturbPlan::decision`] already drew.
pub fn perturb_frame(frame: &Frame, perturbation: &Perturbation) -> Frame {
    let mut out = frame.clone();
    match *perturbation {
        Perturbation::Occlusion { x, y, w, h, severity } => {
            let patch = BBox::new(x, y, w, h);
            for obj in &mut out.objects {
                let frac = overlap_fraction(&obj.bbox, &patch);
                if frac > 0.0 {
                    obj.occlusion = obj.occlusion.max(severity * frac).min(1.0);
                }
            }
        }
        Perturbation::Glare { attenuation } => {
            for obj in &mut out.objects {
                let cx = (obj.bbox.x + 0.5 * obj.bbox.w).clamp(0.0, 1.0);
                let keep = 1.0 - attenuation * cx;
                obj.contrast = (obj.contrast * keep).clamp(0.01, 1.0);
            }
        }
        Perturbation::Shake { dx, dy } => {
            for obj in &mut out.objects {
                // BBox::new clamps into the unit square, shrinking boxes
                // pushed past the frame edge — objects shaken out of view
                // genuinely lose pixels.
                obj.bbox = BBox::new(obj.bbox.x + dx, obj.bbox.y + dy, obj.bbox.w, obj.bbox.h);
            }
        }
        Perturbation::LabelFlip => {
            for obj in &mut out.objects {
                obj.class = flip_class(obj.class);
            }
        }
        Perturbation::Drift { extra_copies } => {
            let base_id = out.objects.iter().map(|o| o.id).max().map_or(0, |m| m + 1);
            let cars: Vec<Object> = out
                .objects
                .iter()
                .filter(|o| o.class == ObjectClass::Car)
                .cloned()
                .collect();
            let mut next_id = base_id;
            for (i, car) in cars.iter().enumerate() {
                for k in 0..extra_copies {
                    let mut extra = car.clone();
                    extra.id = next_id;
                    next_id += 1;
                    // Offset each copy so it is a distinct physical car,
                    // deterministically placed from its ordinal.
                    let shift = 0.03 * (1.0 + k as f32) * (1.0 + (i % 3) as f32);
                    extra.bbox = BBox::new(
                        car.bbox.x + shift,
                        car.bbox.y + 0.4 * shift,
                        car.bbox.w,
                        car.bbox.h,
                    );
                    out.objects.push(extra);
                }
            }
        }
    }
    out
}

/// Fraction of `obj`'s area covered by `patch` (0 when disjoint).
fn overlap_fraction(obj: &BBox, patch: &BBox) -> f32 {
    let ix = (obj.x + obj.w).min(patch.x + patch.w) - obj.x.max(patch.x);
    let iy = (obj.y + obj.h).min(patch.y + patch.h) - obj.y.max(patch.y);
    if ix <= 0.0 || iy <= 0.0 {
        return 0.0;
    }
    let area = obj.area();
    if area <= 0.0 {
        0.0
    } else {
        (ix * iy / area).clamp(0.0, 1.0)
    }
}

/// The label-flip involution: confusable pairs swap, sensitive classes
/// are never touched (the privacy semantics must survive content faults).
pub fn flip_class(class: ObjectClass) -> ObjectClass {
    match class {
        ObjectClass::Car => ObjectClass::Truck,
        ObjectClass::Truck => ObjectClass::Car,
        ObjectClass::Bus => ObjectClass::Bicycle,
        ObjectClass::Bicycle => ObjectClass::Bus,
        ObjectClass::Person => ObjectClass::Person,
        ObjectClass::Face => ObjectClass::Face,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Resolution;

    fn test_frame(id: u64, cars: usize) -> Frame {
        let mut objects = Vec::new();
        for i in 0..cars {
            objects.push(Object {
                id: i as u64,
                class: ObjectClass::Car,
                bbox: BBox::new(0.1 + 0.15 * i as f32, 0.3, 0.12, 0.08),
                contrast: 0.6,
                occlusion: 0.1,
            });
        }
        objects.push(Object {
            id: 90,
            class: ObjectClass::Person,
            bbox: BBox::new(0.7, 0.6, 0.05, 0.15),
            contrast: 0.5,
            occlusion: 0.0,
        });
        Frame {
            id,
            ts_secs: id as f64 / 30.0,
            sequence: 0,
            objects,
        }
    }

    fn test_corpus(frames: usize) -> VideoCorpus {
        VideoCorpus::new(
            "t",
            30.0,
            Resolution::square(608),
            (0..frames).map(|i| test_frame(i as u64, 2 + i % 3)).collect(),
        )
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in PerturbKind::ALL {
            assert_eq!(kind.name().parse::<PerturbKind>().unwrap(), kind);
        }
        assert!("fog".parse::<PerturbKind>().is_err());
        assert_eq!(
            "label_flip".parse::<PerturbKind>().unwrap(),
            PerturbKind::LabelFlip
        );
    }

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        for kind in PerturbKind::ALL {
            let plan = PerturbPlan::new(7, 0.3, kind);
            let a: Vec<_> = (0..2_000).map(|i| plan.decision(i, 2_000)).collect();
            let b: Vec<_> = (0..2_000).map(|i| plan.decision(i, 2_000)).collect();
            assert_eq!(a, b, "{kind}: same plan must replay the same schedule");
            let other = PerturbPlan::new(8, 0.3, kind);
            let c: Vec<_> = (0..2_000).map(|i| other.decision(i, 2_000)).collect();
            assert_ne!(a, c, "{kind}: different seeds must schedule differently");
        }
    }

    #[test]
    fn decisions_are_order_independent() {
        let plan = PerturbPlan::new(3, 0.25, PerturbKind::Occlusion);
        let forward: Vec<_> = (0..1_000).map(|i| plan.decision(i, 1_000)).collect();
        let mut backward: Vec<_> = (0..1_000).rev().map(|i| plan.decision(i, 1_000)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn frequency_tracks_rate_for_coin_flip_kinds() {
        for kind in [PerturbKind::Occlusion, PerturbKind::Glare, PerturbKind::Shake] {
            for &rate in &[0.05, 0.2, 0.5] {
                let plan = PerturbPlan::new(11, rate, kind);
                let n = 20_000u64;
                let hits = (0..n).filter(|&i| plan.decision(i, n).is_some()).count();
                let observed = hits as f64 / n as f64;
                assert!(
                    (observed - rate).abs() < 0.02,
                    "{kind} rate={rate} observed={observed}"
                );
            }
        }
    }

    #[test]
    fn drift_is_a_contiguous_tail_regime() {
        let plan = PerturbPlan::new(5, 0.25, PerturbKind::Drift);
        let n = 4_000u64;
        let decisions: Vec<_> = (0..n).map(|i| plan.decision(i, n)).collect();
        let start = (n as f64 * 0.75).ceil() as usize;
        assert!(decisions[..start].iter().all(Option::is_none));
        assert!(decisions[start..].iter().all(Option::is_some));
        for d in &decisions[start..] {
            let Some(Perturbation::Drift { extra_copies }) = d else {
                panic!("drift plan drew a non-drift perturbation: {d:?}");
            };
            assert!((1..=2).contains(extra_copies));
        }
    }

    #[test]
    fn zero_rate_apply_is_identity() {
        let corpus = test_corpus(50);
        for kind in PerturbKind::ALL {
            let plan = PerturbPlan::new(9, 0.0, kind);
            let out = plan.apply(&corpus);
            assert_eq!(out.name, corpus.name, "{kind}: zero rate must not rename");
            assert_eq!(out.frames(), corpus.frames());
            assert!((0..200).all(|i| plan.decision(i, 200).is_none()));
        }
    }

    #[test]
    fn apply_renames_and_replays_byte_identically() {
        let corpus = test_corpus(200);
        let plan = PerturbPlan::new(13, 0.2, PerturbKind::Glare);
        let a = plan.apply(&corpus);
        let b = plan.apply(&corpus);
        assert_eq!(a.name, "t+glare@0.2#13");
        assert_eq!(a.frames(), b.frames());
        assert_ne!(a.frames(), corpus.frames(), "a 20% glare plan must bite");
    }

    #[test]
    fn occlusion_raises_occlusion_proportionally() {
        let frame = test_frame(0, 2);
        let full = Perturbation::Occlusion {
            x: 0.0,
            y: 0.0,
            w: 1.0,
            h: 1.0,
            severity: 0.9,
        };
        let out = perturb_frame(&frame, &full);
        for obj in &out.objects {
            assert!((obj.occlusion - 0.9).abs() < 1e-6, "full cover ⇒ severity");
        }
        let miss = Perturbation::Occlusion {
            x: 0.0,
            y: 0.9,
            w: 0.05,
            h: 0.05,
            severity: 0.9,
        };
        assert_eq!(perturb_frame(&frame, &miss), frame, "disjoint patch is a no-op");
    }

    #[test]
    fn glare_attenuates_contrast_by_horizontal_position() {
        let frame = test_frame(0, 2);
        let out = perturb_frame(&frame, &Perturbation::Glare { attenuation: 0.5 });
        for (before, after) in frame.objects.iter().zip(&out.objects) {
            assert!(after.contrast <= before.contrast);
            assert!(after.contrast >= 0.01);
        }
        // The rightmost object (person at cx≈0.72) loses more than the
        // leftmost car (cx≈0.16).
        let left_keep = out.objects[0].contrast / frame.objects[0].contrast;
        let right_keep = out.objects.last().unwrap().contrast
            / frame.objects.last().unwrap().contrast;
        assert!(right_keep < left_keep);
    }

    #[test]
    fn shake_keeps_boxes_in_unit_square() {
        let frame = test_frame(0, 3);
        let out = perturb_frame(&frame, &Perturbation::Shake { dx: 0.3, dy: -0.5 });
        for obj in &out.objects {
            assert!(obj.bbox.x >= 0.0 && obj.bbox.x + obj.bbox.w <= 1.0 + f32::EPSILON);
            assert!(obj.bbox.y >= 0.0 && obj.bbox.y + obj.bbox.h <= 1.0 + f32::EPSILON);
        }
        assert_ne!(out, frame);
    }

    #[test]
    fn label_flip_is_an_involution_sparing_sensitive_classes() {
        for class in ObjectClass::ALL {
            assert_eq!(flip_class(flip_class(class)), class);
            if class.is_sensitive() {
                assert_eq!(flip_class(class), class);
            } else {
                assert_ne!(flip_class(class), class);
            }
        }
        let frame = test_frame(0, 2);
        let out = perturb_frame(&frame, &Perturbation::LabelFlip);
        assert_eq!(out.count_class(ObjectClass::Truck), 2);
        assert_eq!(out.count_class(ObjectClass::Car), 0);
        assert_eq!(out.count_class(ObjectClass::Person), 1, "person untouched");
        assert_eq!(perturb_frame(&out, &Perturbation::LabelFlip), frame);
    }

    #[test]
    fn drift_multiplies_cars_with_fresh_ids() {
        let frame = test_frame(0, 3);
        let out = perturb_frame(&frame, &Perturbation::Drift { extra_copies: 2 });
        assert_eq!(out.count_class(ObjectClass::Car), 9, "3 cars × (1 + 2 copies)");
        assert_eq!(out.count_class(ObjectClass::Person), 1);
        let mut ids: Vec<u64> = out.objects.iter().map(|o| o.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "all object ids must stay unique");
    }

    #[test]
    fn drifted_corpus_raises_tail_mean_car_count() {
        let corpus = test_corpus(1_000);
        let plan = PerturbPlan::new(21, 0.3, PerturbKind::Drift);
        let out = plan.apply(&corpus);
        let counts = out.ground_truth_counts(ObjectClass::Car);
        let head: f64 = counts[..700].iter().sum::<f64>() / 700.0;
        let tail: f64 = counts[700..].iter().sum::<f64>() / 300.0;
        assert!(
            tail > 2.0 * head,
            "drift tail must visibly shift prevalence: head={head} tail={tail}"
        );
    }

    #[test]
    fn env_parsing_is_strict_and_loud() {
        // Valid configurations.
        assert_eq!(PerturbPlan::parse_env(None, None, None), Ok(None));
        assert_eq!(PerturbPlan::parse_env(Some("7"), None, None), Ok(None));
        assert_eq!(PerturbPlan::parse_env(None, Some("0"), Some("glare")), Ok(None));
        assert_eq!(
            PerturbPlan::parse_env(Some("7"), Some("0.05"), Some("glare")),
            Ok(Some(PerturbPlan::new(7, 0.05, PerturbKind::Glare)))
        );
        assert_eq!(
            PerturbPlan::parse_env(None, Some("0.5"), Some("label-flip")),
            Ok(Some(PerturbPlan::new(0, 0.5, PerturbKind::LabelFlip)))
        );

        // Malformed values surface the variable name and raw string.
        for (seed, rate, bad) in [
            (Some("banana"), Some("0.1"), "banana"),
            (Some("-3"), Some("0.1"), "-3"),
            (None, Some("lots"), "lots"),
            (None, Some("1.5"), "1.5"),
            (None, Some("-0.1"), "-0.1"),
            (None, Some("NaN"), "NaN"),
            (None, Some("inf"), "inf"),
        ] {
            let err = PerturbPlan::parse_env(seed, rate, Some("glare")).unwrap_err();
            assert!(err.contains("SMOKESCREEN_PERTURB_"), "{err}");
            assert!(err.contains(bad), "{err} should quote {bad:?}");
        }

        // A bogus kind is loud even when the rate leaves the plan
        // disabled, and a positive rate with no kind names the missing
        // variable.
        let err = PerturbPlan::parse_env(None, None, Some("fog")).unwrap_err();
        assert!(err.contains(PERTURB_KIND_ENV) && err.contains("fog"), "{err}");
        let err = PerturbPlan::parse_env(None, Some("0.2"), None).unwrap_err();
        assert!(err.contains(PERTURB_KIND_ENV), "{err}");
        // A malformed seed is loud even when disabled.
        assert!(PerturbPlan::parse_env(Some("oops"), None, None).is_err());
    }

    #[test]
    fn perturb_stream_is_independent_of_fault_stream() {
        use smokescreen_rt::fault::FaultPlan;
        let perturbs = PerturbPlan::new(42, 0.2, PerturbKind::Occlusion);
        let faults = FaultPlan::new(42, 0.2);
        let both = (0..20_000u64)
            .filter(|&k| perturbs.decision(k, 20_000).is_some() && faults.fault_for(k).is_some())
            .count();
        // Independent 20% streams co-fire on ~4% of keys; identical
        // streams would co-fire on 20%.
        assert!((both as f64 / 20_000.0) < 0.08, "co-fire={both}");
    }
}
