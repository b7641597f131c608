//! Golden content hashes of generated benchmarks.
//!
//! Generation labels candidates on worker threads; the accept order, labels,
//! features and signatures must nevertheless be a pure function of
//! `(spec, seed)`. Each constant below hashes everything a generated
//! benchmark holds, down to the bit pattern of every feature value, so any
//! change to synthesis, litho labelling, feature extraction or the
//! candidate map's ordering shows up as a mismatch.

use hotspot_layout::{BenchmarkSpec, ClipFamily, ClipRecipe, GeneratedBenchmark};

/// 64-bit FNV-1a: tiny, platform-independent and stable across releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn content_hash(bench: &GeneratedBenchmark) -> u64 {
    let mut h = Fnv::new();
    h.u64(bench.len() as u64);
    h.u64(bench.hotspot_count() as u64);
    for label in bench.labels() {
        h.bytes(&[u8::from(label.is_hotspot())]);
    }
    for recipe in bench.recipes() {
        match *recipe {
            ClipRecipe::Fresh { family, seed } => {
                let family = match family {
                    ClipFamily::Safe => 0,
                    ClipFamily::NearMiss => 1,
                    ClipFamily::Pinch => 2,
                    ClipFamily::Bridge => 3,
                };
                h.bytes(&[0, family]);
                h.u64(seed);
            }
            ClipRecipe::Duplicate { source } => {
                h.bytes(&[1]);
                h.u64(source as u64);
            }
        }
    }
    for origin in bench.origins() {
        h.u64(origin.x as u64);
        h.u64(origin.y as u64);
    }
    for signature in bench.signatures() {
        h.u64(signature.exact_hash);
        h.u64(signature.core_density.len() as u64);
        h.bytes(&signature.core_density);
    }
    for features in [bench.dct_features(), bench.density_features()] {
        h.u64(features.rows() as u64);
        h.u64(features.dim() as u64);
        for v in features.as_slice() {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.0
}

fn assert_golden(spec: &BenchmarkSpec, seed: u64, expected: u64) {
    let bench = GeneratedBenchmark::generate(spec, seed).expect("generation succeeds");
    let actual = content_hash(&bench);
    assert_eq!(
        actual, expected,
        "{} seed {seed}: content hash {actual:#018x}, golden {expected:#018x}",
        spec.name
    );
}

#[test]
fn iccad12_content_hash_is_golden() {
    let spec = BenchmarkSpec::iccad12().scaled(0.01);
    assert_golden(&spec, 1, 0xaa66_8406_553c_dc33);
    assert_golden(&spec, 7, 0x2473_eefa_d645_bd3f);
}

#[test]
fn iccad16_3_content_hash_is_golden() {
    let spec = BenchmarkSpec::iccad16_3().scaled(0.05);
    assert_golden(&spec, 1, 0x05df_5818_a45e_b163);
    assert_golden(&spec, 7, 0x5c24_ccf0_3ef5_c33d);
}
