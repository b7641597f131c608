use crate::pattern::{synthesize, ClipFamily, ClipRecipe};
use crate::{BenchmarkSpec, LayoutError, Signature};
use hotspot_features::{run_length_histogram, FeatureExtractor, FeatureMatrix, DEFAULT_RUN_BINS};
use hotspot_geom::{Point, Raster, Rect};
use hotspot_litho::{CountingOracle, Label, LithoSimulator};
use hotspot_telemetry as telemetry;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::num::NonZeroUsize;

/// A fully generated benchmark: labels, features, and signatures for every
/// clip, with rasters regenerable on demand.
///
/// See the [crate-level documentation](crate) for design rationale and an
/// example.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GeneratedBenchmark {
    spec: BenchmarkSpec,
    recipes: Vec<ClipRecipe>,
    labels: Vec<Label>,
    origins: Vec<Point>,
    dct: FeatureMatrix,
    density: FeatureMatrix,
    signatures: Vec<Signature>,
    hotspot_count: usize,
}

/// One labelled candidate produced by the synthesis workers.
struct Candidate {
    recipe: ClipRecipe,
    label: Label,
    dct: Vec<f32>,
    density: Vec<f32>,
    signature: Signature,
}

impl GeneratedBenchmark {
    /// Generates a benchmark matching `spec` exactly, deterministically in
    /// `seed`.
    ///
    /// Candidates are synthesised in batches, labelled by the lithography
    /// simulator, and accepted until both class quotas are met; with some
    /// probability a candidate instead duplicates an earlier accepted clip
    /// (sharing its pattern and label).
    ///
    /// # Determinism
    ///
    /// The result is a pure function of `(spec, seed)`, whatever the number
    /// of cores. One serial RNG makes every random decision: duplicate
    /// draws, and the `(family, clip_seed)` pair of each fresh candidate in a
    /// batch, all drawn before the batch is labelled. Synthesis, labelling,
    /// features and signature of a candidate depend only on its pair, so the
    /// batch can be mapped on one thread per available core. The map returns
    /// candidates in draw order, and acceptance then runs serially in that
    /// order. Labels, features, signatures and the accept order are
    /// therefore the same as a sequential loop would produce. Worker threads
    /// inherit the caller's telemetry silence and trace context.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadSpec`] for an invalid specification and
    /// [`LayoutError::GenerationStalled`] if the geometry windows cannot
    /// produce the requested labels (which would indicate a litho-model /
    /// generator mismatch — covered by tests).
    pub fn generate(spec: &BenchmarkSpec, seed: u64) -> Result<Self, LayoutError> {
        spec.validate()?;
        let tech = spec.tech;
        let sim = LithoSimulator::new(tech.litho_config());
        let extractor = FeatureExtractor::standard();
        let core = core_rect(spec);
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut recipes: Vec<ClipRecipe> = Vec::with_capacity(spec.total());
        let mut labels: Vec<Label> = Vec::with_capacity(spec.total());
        let mut dct_rows: Vec<Vec<f32>> = Vec::with_capacity(spec.total());
        let mut density_rows: Vec<Vec<f32>> = Vec::with_capacity(spec.total());
        let mut signatures: Vec<Signature> = Vec::with_capacity(spec.total());
        let mut fresh_indices: Vec<usize> = Vec::new();

        let mut hotspots = 0usize;
        let mut non_hotspots = 0usize;
        let mut attempts = 0usize;
        let max_attempts = spec.total().saturating_mul(40).max(10_000);

        while hotspots < spec.hotspots || non_hotspots < spec.non_hotspots {
            if attempts > max_attempts {
                return Err(LayoutError::GenerationStalled {
                    hotspots,
                    non_hotspots,
                    attempts,
                });
            }
            let need_hs = spec.hotspots - hotspots;
            let need_nhs = spec.non_hotspots - non_hotspots;
            // Fill at most half the remaining need per round (one clip
            // minimum) so later rounds can draw duplicates of earlier clips.
            let need = need_hs + need_nhs;
            let batch = need.div_ceil(2).clamp(1, 1024);

            // Duplicates are decided serially (they need the accepted list).
            let mut dup_quota = 0usize;
            if !fresh_indices.is_empty() {
                for _ in 0..batch {
                    if rng.gen_bool(spec.dup_rate) {
                        dup_quota += 1;
                    }
                }
            }
            let mut accepted_dups = 0usize;
            while accepted_dups < dup_quota
                && (hotspots < spec.hotspots || non_hotspots < spec.non_hotspots)
            {
                let source = fresh_indices[rng.gen_range(0..fresh_indices.len())];
                let label = labels[source];
                let fits = match label {
                    Label::Hotspot => hotspots < spec.hotspots,
                    Label::NonHotspot => non_hotspots < spec.non_hotspots,
                };
                accepted_dups += 1;
                if !fits {
                    continue;
                }
                recipes.push(ClipRecipe::Duplicate { source });
                labels.push(label);
                dct_rows.push(dct_rows[source].clone());
                density_rows.push(density_rows[source].clone());
                signatures.push(signatures[source].clone());
                match label {
                    Label::Hotspot => hotspots += 1,
                    Label::NonHotspot => non_hotspots += 1,
                }
            }

            // Fresh candidates: the serial RNG draws every (family, seed)
            // pair first, then the pairs are synthesised and labelled on
            // worker threads and come back in draw order.
            let fresh_batch = batch.saturating_sub(dup_quota).max(1);
            let specs: Vec<(ClipFamily, u64)> = (0..fresh_batch)
                .map(|_| {
                    let family = choose_family(&mut rng, spec, hotspots, non_hotspots);
                    let clip_seed = rng.gen::<u64>();
                    (family, clip_seed)
                })
                .collect();
            attempts += specs.len();
            let candidates = ordered_map(&specs, threads, |&(family, clip_seed)| {
                let raster = synthesize(tech, family, clip_seed);
                let label = sim.label(&raster, core);
                Candidate {
                    recipe: ClipRecipe::Fresh {
                        family,
                        seed: clip_seed,
                    },
                    label,
                    dct: clip_features(&extractor, &raster, core),
                    density: extractor.density_features(&raster),
                    signature: Signature::from_raster(&raster, core),
                }
            });
            for c in candidates {
                let fits = match c.label {
                    Label::Hotspot => hotspots < spec.hotspots,
                    Label::NonHotspot => non_hotspots < spec.non_hotspots,
                };
                if !fits {
                    continue;
                }
                fresh_indices.push(recipes.len());
                recipes.push(c.recipe);
                labels.push(c.label);
                dct_rows.push(c.dct);
                density_rows.push(c.density);
                signatures.push(c.signature);
                match c.label {
                    Label::Hotspot => hotspots += 1,
                    Label::NonHotspot => non_hotspots += 1,
                }
            }
        }

        // Shuffle clip order so labels are not grouped by generation phase,
        // then lay clips out on a square grid for the layout map (Fig. 5).
        let mut order: Vec<usize> = (0..recipes.len()).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        let mut remap = vec![0usize; order.len()];
        for (new_idx, &old_idx) in order.iter().enumerate() {
            remap[old_idx] = new_idx;
        }
        let recipes: Vec<ClipRecipe> = order
            .iter()
            .map(|&i| match recipes[i] {
                ClipRecipe::Duplicate { source } => ClipRecipe::Duplicate {
                    source: remap[source],
                },
                fresh => fresh,
            })
            .collect();
        let labels: Vec<Label> = order.iter().map(|&i| labels[i]).collect();
        let dct_rows: Vec<Vec<f32>> = order.iter().map(|&i| dct_rows[i].clone()).collect();
        let density_rows: Vec<Vec<f32>> = order.iter().map(|&i| density_rows[i].clone()).collect();
        let signatures: Vec<Signature> = order.iter().map(|&i| signatures[i].clone()).collect();

        let grid = (recipes.len() as f64).sqrt().ceil() as usize;
        let edge = tech.clip_edge();
        let origins = (0..recipes.len())
            .map(|i| Point::new((i % grid) as i64 * edge, (i / grid) as i64 * edge))
            .collect();

        let dct = FeatureMatrix::from_rows(dct_rows).map_err(|e| LayoutError::BadSpec {
            detail: format!("non-uniform DCT feature widths: {e}"),
        })?;
        let density = FeatureMatrix::from_rows(density_rows).map_err(|e| LayoutError::BadSpec {
            detail: format!("non-uniform density feature widths: {e}"),
        })?;
        Ok(GeneratedBenchmark {
            spec: spec.clone(),
            recipes,
            labels,
            origins,
            dct,
            density,
            signatures,
            hotspot_count: hotspots,
        })
    }

    /// The generating specification.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Number of clips.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the benchmark is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Ground-truth labels (generation-time; experiments must meter access
    /// through [`GeneratedBenchmark::oracle`]).
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Hotspot clip count.
    pub fn hotspot_count(&self) -> usize {
        self.hotspot_count
    }

    /// Non-hotspot clip count.
    pub fn non_hotspot_count(&self) -> usize {
        self.len() - self.hotspot_count
    }

    /// Block-DCT features of every clip (row = clip).
    pub fn dct_features(&self) -> &FeatureMatrix {
        &self.dct
    }

    /// Coarse density features of every clip (row = clip).
    pub fn density_features(&self) -> &FeatureMatrix {
        &self.density
    }

    /// Pattern signatures of every clip.
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// Layout-map origin of every clip (for the Fig. 5 visualisation).
    pub fn origins(&self) -> &[Point] {
        &self.origins
    }

    /// The clip recipes (pattern provenance).
    pub fn recipes(&self) -> &[ClipRecipe] {
        &self.recipes
    }

    /// A metered labelling oracle over this benchmark's ground truth.
    pub fn oracle(&self) -> CountingOracle {
        CountingOracle::new(self.labels.clone())
    }

    /// Regenerates the mask raster of clip `index` deterministically.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn clip_raster(&self, index: usize) -> Raster {
        assert!(
            index < self.len(),
            "clip {index} out of range ({} clips)",
            self.len()
        );
        match self.recipes[index] {
            ClipRecipe::Fresh { family, seed } => synthesize(self.spec.tech, family, seed),
            ClipRecipe::Duplicate { source } => self.clip_raster(source),
        }
    }

    /// The core region shared by all clips, in clip-local coordinates.
    pub fn core(&self) -> Rect {
        core_rect(&self.spec)
    }

    /// Serialises the benchmark as JSON (features, labels, signatures,
    /// recipes — everything except rasters, which regenerate from recipes).
    /// Generation of the full-scale ICCAD12 population labels 163 400 clips
    /// through the litho simulator; caching the result makes experiment
    /// re-runs instant. A mut reference works as the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialisation failures.
    pub fn write_json<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        serde_json::to_writer(writer, self).map_err(std::io::Error::other)
    }

    /// Loads a benchmark saved by [`GeneratedBenchmark::write_json`],
    /// validating internal consistency. A mut reference works as the reader.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable input and a
    /// [`LayoutError::BadSpec`] (wrapped in `io::Error`) when the archive's
    /// counts are inconsistent (truncated or hand-edited files).
    pub fn read_json<R: std::io::Read>(reader: R) -> std::io::Result<Self> {
        let bench: GeneratedBenchmark =
            serde_json::from_reader(reader).map_err(std::io::Error::other)?;
        let n = bench.labels.len();
        let hotspots = bench.labels.iter().filter(|l| l.is_hotspot()).count();
        let consistent = bench.recipes.len() == n
            && bench.origins.len() == n
            && bench.signatures.len() == n
            && bench.dct.rows() == n
            && bench.density.rows() == n
            && bench.hotspot_count == hotspots
            && bench
                .recipes
                .iter()
                .all(|r| !matches!(r, ClipRecipe::Duplicate { source } if *source >= n));
        if !consistent {
            return Err(std::io::Error::other(LayoutError::BadSpec {
                detail: "benchmark archive is internally inconsistent".to_owned(),
            }));
        }
        Ok(bench)
    }
}

/// Combined feature vector of one clip: block-DCT features of the core crop
/// (double effective resolution where defects count) concatenated with
/// censored run-length histograms of the core. The DCT half carries the
/// spectral layout representation the hotspot-CNN literature trains on; the
/// run-length half carries the translation-invariant width/spacing view a
/// small MLP needs to generalise from the few labelled clips an active
/// learner starts with.
fn clip_features(extractor: &FeatureExtractor, raster: &Raster, core: Rect) -> Vec<f32> {
    let core_crop = raster.crop(&core).unwrap_or_else(|| raster.clone());
    let mut features = extractor.extract(&core_crop);
    features.extend(run_length_histogram(&core_crop, 0.5, &DEFAULT_RUN_BINS));
    features
}

/// Maps `f` over `items` on up to `threads` threads and returns the results
/// in input order.
///
/// `items` is cut into at most `threads` contiguous chunks of near-equal
/// length. The calling thread maps the first chunk itself, one scoped
/// thread maps each other chunk, and the per-chunk results are joined in
/// chunk order — so the output equals `items.iter().map(f).collect()` for
/// any thread count. Workers inherit the caller's telemetry state: a
/// silenced caller gets silenced workers, and a traced caller's open span
/// parents the workers' spans, whose records are absorbed in chunk order.
/// A panic in any chunk propagates to the caller.
fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk_len = items.len().div_ceil(threads.max(1)).max(1);
    let mut chunks = items.chunks(chunk_len);
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    let silenced = telemetry::thread_is_silenced();
    let handoff = telemetry::trace::handoff();
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = chunks
            .map(|chunk| {
                scope.spawn(move || {
                    let _mute = silenced.then(telemetry::silence_thread);
                    let _trace = telemetry::trace::adopt(handoff, handoff.map_or(0, |h| h.track()));
                    let out: Vec<R> = chunk.iter().map(f).collect();
                    (out, telemetry::trace::harvest())
                })
            })
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(items.len());
        out.extend(first.iter().map(f));
        for worker in workers {
            match worker.join() {
                Ok((part, records)) => {
                    out.extend(part);
                    telemetry::trace::absorb(records);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

fn core_rect(spec: &BenchmarkSpec) -> Rect {
    let lo = (spec.tech.clip_edge() - spec.tech.core_edge()) / 2;
    // core_edge is non-negative for every Tech, so spanning() needs no
    // fallible construction here.
    Rect::spanning(
        Point::new(lo, lo),
        Point::new(lo + spec.tech.core_edge(), lo + spec.tech.core_edge()),
    )
}

fn choose_family(
    rng: &mut ChaCha8Rng,
    spec: &BenchmarkSpec,
    hotspots: usize,
    non_hotspots: usize,
) -> ClipFamily {
    let need_hs = hotspots < spec.hotspots;
    let need_nhs = non_hotspots < spec.non_hotspots;
    let want_hotspot = match (need_hs, need_nhs) {
        (true, false) => true,
        (false, _) => false,
        (true, true) => {
            let remaining_hs = (spec.hotspots - hotspots) as f64;
            let remaining = (spec.total() - hotspots - non_hotspots) as f64;
            rng.gen_bool((remaining_hs / remaining).clamp(0.0, 1.0))
        }
    };
    if want_hotspot {
        if rng.gen_bool(0.5) {
            ClipFamily::Pinch
        } else {
            ClipFamily::Bridge
        }
    } else if rng.gen_bool(spec.near_miss_rate) {
        ClipFamily::NearMiss
    } else {
        ClipFamily::Safe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "test".to_owned(),
            tech: crate::Tech::Euv7,
            hotspots: 12,
            non_hotspots: 48,
            dup_rate: 0.2,
            near_miss_rate: 0.3,
        }
    }

    #[test]
    fn generates_exact_counts() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        assert_eq!(bench.len(), 60);
        assert_eq!(bench.hotspot_count(), 12);
        assert_eq!(bench.non_hotspot_count(), 48);
        let hs = bench.labels().iter().filter(|l| l.is_hotspot()).count();
        assert_eq!(hs, 12);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GeneratedBenchmark::generate(&small_spec(), 9).unwrap();
        let b = GeneratedBenchmark::generate(&small_spec(), 9).unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.recipes(), b.recipes());
        assert_eq!(a.dct_features(), b.dct_features());
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratedBenchmark::generate(&small_spec(), 1).unwrap();
        let b = GeneratedBenchmark::generate(&small_spec(), 2).unwrap();
        assert_ne!(a.recipes(), b.recipes());
    }

    #[test]
    fn rasters_regenerate_and_match_labels() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 5).unwrap();
        let sim = LithoSimulator::new(bench.spec().tech.litho_config());
        for i in (0..bench.len()).step_by(7) {
            let raster = bench.clip_raster(i);
            assert_eq!(
                sim.label(&raster, bench.core()),
                bench.labels()[i],
                "clip {i} label mismatch on regeneration"
            );
        }
    }

    #[test]
    fn duplicates_share_signatures() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 11).unwrap();
        let mut found_dup = false;
        for (i, recipe) in bench.recipes().iter().enumerate() {
            if let ClipRecipe::Duplicate { source } = recipe {
                found_dup = true;
                assert_eq!(bench.signatures()[i], bench.signatures()[*source]);
                assert_eq!(bench.labels()[i], bench.labels()[*source]);
            }
        }
        assert!(found_dup, "expected at least one duplicate at dup_rate 0.2");
    }

    #[test]
    fn features_have_expected_shapes() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        assert_eq!(bench.dct_features().rows(), bench.len());
        assert_eq!(bench.dct_features().dim(), 148);
        assert_eq!(bench.density_features().dim(), 16);
        assert_eq!(bench.signatures().len(), bench.len());
        assert_eq!(bench.origins().len(), bench.len());
    }

    #[test]
    fn oracle_reflects_ground_truth() {
        use hotspot_litho::LithoOracle;
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        let mut oracle = bench.oracle();
        for i in 0..bench.len() {
            assert_eq!(oracle.query(i), bench.labels()[i]);
        }
        assert_eq!(oracle.unique_queries(), bench.len());
    }

    #[test]
    fn labels_are_shuffled() {
        // Hotspots should not all sit at the front of the index space.
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        let first_quarter_hs = bench.labels()[..15]
            .iter()
            .filter(|l| l.is_hotspot())
            .count();
        assert!(first_quarter_hs < 12, "labels appear sorted by class");
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        let mut buffer = Vec::new();
        bench.write_json(&mut buffer).unwrap();
        let back = GeneratedBenchmark::read_json(buffer.as_slice()).unwrap();
        assert_eq!(back.labels(), bench.labels());
        assert_eq!(back.recipes(), bench.recipes());
        assert_eq!(back.dct_features(), bench.dct_features());
        assert_eq!(back.signatures(), bench.signatures());
        // Rasters regenerate identically from the loaded recipes.
        assert_eq!(back.clip_raster(5), bench.clip_raster(5));
    }

    #[test]
    fn read_json_rejects_corrupted_archives() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        let mut buffer = Vec::new();
        bench.write_json(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        // Flip one label so the hotspot tally no longer matches.
        let corrupted = text.replacen("\"NonHotspot\"", "\"Hotspot\"", 1);
        assert!(GeneratedBenchmark::read_json(corrupted.as_bytes()).is_err());
        assert!(GeneratedBenchmark::read_json(&b"not json"[..]).is_err());
    }

    #[test]
    fn ordered_map_matches_a_sequential_map_for_any_thread_count() {
        // 0 items, 1 item, fewer items than threads, and lengths that leave
        // the last chunk shorter than the others.
        for len in [0usize, 1, 2, 5, 7, 9, 64, 1023] {
            let items: Vec<u64> = (0..len as u64).map(|i| i * 31 + 7).collect();
            let expected: Vec<(u64, u64)> = items.iter().map(|&v| (v, v * v)).collect();
            for threads in [1usize, 2, 3, 8] {
                let got = ordered_map(&items, threads, |&v| (v, v * v));
                assert_eq!(got, expected, "{len} items on {threads} threads");
            }
        }
    }

    #[test]
    fn ordered_map_runs_the_first_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..7).collect();
        // Chunks of 3: items 0..3 on the caller, 3..6 and 6..7 on workers.
        let on_caller = ordered_map(&items, 3, |_| std::thread::current().id() == caller);
        assert_eq!(on_caller, [true, true, true, false, false, false, false]);
    }

    #[test]
    fn ordered_map_workers_inherit_the_callers_silence() {
        let items: Vec<usize> = (0..8).collect();
        let loud = ordered_map(&items, 4, |_| telemetry::thread_is_silenced());
        assert!(loud.iter().all(|&silenced| !silenced));
        let _mute = telemetry::silence_thread();
        let quiet = ordered_map(&items, 4, |_| telemetry::thread_is_silenced());
        assert!(quiet.iter().all(|&silenced| silenced));
    }

    #[test]
    fn ordered_map_workers_inherit_the_callers_trace_context() {
        telemetry::trace::enable();
        {
            let _outer = telemetry::span("test.ordered_map.outer");
            let items: Vec<usize> = (0..4).collect();
            ordered_map(&items, 2, |_| {
                let _item = telemetry::span("test.ordered_map.item");
            });
        }
        let records = telemetry::trace::drain_records();
        let outer = records
            .iter()
            .find(|r| r.name == "test.ordered_map.outer")
            .expect("outer span traced");
        let items: Vec<_> = records
            .iter()
            .filter(|r| r.name == "test.ordered_map.item")
            .collect();
        // Two items ran on the caller and two on the worker; all four parent
        // onto the caller's open span, on the caller's track.
        assert_eq!(items.len(), 4);
        assert!(items
            .iter()
            .all(|r| r.parent == outer.id && r.track == outer.track));
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn ordered_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..8).collect();
        let _ = ordered_map(&items, 2, |&i| {
            assert!(i != 5, "item {i}");
            i
        });
    }

    #[test]
    fn zero_hotspot_benchmark_works() {
        let spec = BenchmarkSpec {
            name: "empty-hs".to_owned(),
            tech: crate::Tech::Euv7,
            hotspots: 0,
            non_hotspots: 20,
            dup_rate: 0.1,
            near_miss_rate: 0.3,
        };
        let bench = GeneratedBenchmark::generate(&spec, 0).unwrap();
        assert_eq!(bench.hotspot_count(), 0);
        assert_eq!(bench.len(), 20);
    }
}
