//! Integrity-layer guarantees: seeded bit-flip injection is detected in
//! 100% of injected runs, across every corruption target; and certified
//! fault-free runs are bit-identical to the unverified hot path.

use gcd_sim::Device;
use xbfs_core::{BfsRun, BitflipPlan, Certificate, Sabotage, Xbfs, XbfsConfig, XbfsError};
use xbfs_graph::Dataset;

const SHIFT: u32 = 10;

/// Everything a run reports, with float fields pinned bit-for-bit.
fn fingerprint(run: &BfsRun) -> impl PartialEq + std::fmt::Debug {
    (
        run.levels.clone(),
        run.parents.clone(),
        run.total_ms.to_bits(),
        run.traversed_edges,
        run.level_stats
            .iter()
            .map(|l| {
                (
                    l.strategy.to_string(),
                    l.frontier_count,
                    l.time_ms.to_bits(),
                )
            })
            .collect::<Vec<_>>(),
    )
}

fn engine<'a>(dev: &'a Device, g: &xbfs_graph::Csr) -> Xbfs<&'a Device> {
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::default()
    };
    Xbfs::new(dev, g, cfg).unwrap()
}

/// One run through the verified pipeline, optionally sabotaged.
fn certified(
    xbfs: &Xbfs<&Device>,
    source: u32,
    sabotage: Option<&Sabotage<'_>>,
) -> Result<(BfsRun, Certificate), XbfsError> {
    let (run, cert, _) = xbfs.run_with(source, sabotage, None, true)?;
    Ok((run, cert.expect("verify yields a certificate")))
}

/// The acceptance property: a single seeded bit flip into any target —
/// status, parents, CSR, or a parked pool buffer — is detected by the
/// verified path for every one of 64 seeds. The target kind rotates with
/// the seed so all four detection mechanisms (certificate, certificate
/// parent checks, CSR checksum, pool checksum) are each exercised 16
/// times.
#[test]
fn injected_bitflips_detected_for_64_seeds() {
    let g = Dataset::Rmat23.generate(SHIFT, 3);
    for seed in 0..64u64 {
        let dev = Device::mi250x();
        // Give the pool-corruption seeds a parked victim. Its length is
        // deliberately unlike any engine buffer so state acquisition
        // cannot adopt (and thereby validate-and-drain) it.
        let scratch = dev.alloc_u32(97);
        dev.pool_release_u32(scratch);
        let xbfs = engine(&dev, &g);
        let mut plan = BitflipPlan::none();
        match seed % 4 {
            0 => plan.status = 1,
            1 => plan.parents = 1,
            2 => plan.csr = 1,
            _ => plan.pool = 1,
        }
        plan.seed = seed;
        let sab = Sabotage {
            plan: &plan,
            salt: 0,
        };
        let source = (seed % 16) as u32;
        let got = certified(&xbfs, source, Some(&sab));
        match got {
            Err(XbfsError::Integrity(_)) => {}
            other => panic!(
                "seed {seed} ({}): injection must be detected, got {other:?}",
                plan.to_spec()
            ),
        }
    }
}

/// Certified fault-free runs take the exact hot path `run` takes: levels,
/// parents, modeled time and per-level stats agree bit for bit, and the
/// certificate's aggregates agree with the run they certify.
#[test]
fn certified_runs_bit_identical_to_unverified_runs() {
    let g = Dataset::Rmat23.generate(SHIFT, 7);
    for source in [0u32, 3, 11, 42] {
        let dev = Device::mi250x();
        let xbfs = engine(&dev, &g);
        let plain = xbfs.run(source).unwrap();
        // Fresh engine so the epoch/pool state matches run-for-run.
        let dev2 = Device::mi250x();
        let xbfs2 = engine(&dev2, &g);
        let (certified, cert) = certified(&xbfs2, source, None).unwrap();
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&certified),
            "source {source}"
        );
        assert_eq!(cert.depth as usize + 1, certified.level_stats.len());
        assert_eq!(
            cert.visited,
            certified
                .levels
                .iter()
                .filter(|&&l| l != xbfs_core::UNVISITED)
                .count() as u64
        );
    }
}

/// The pooled throughput path stays certifiable: one engine, many
/// sources, every run verified — the epoch reset and buffer reuse never
/// produce a false positive.
#[test]
fn pooled_reruns_stay_certified() {
    let g = Dataset::Rmat23.generate(SHIFT, 5);
    let dev = Device::mi250x();
    let xbfs = engine(&dev, &g);
    for source in 0..24u32 {
        certified(&xbfs, source, None)
            .unwrap_or_else(|e| panic!("source {source}: clean pooled run must certify: {e}"));
    }
}

/// A flip into a parked pool buffer is caught even when the victim parked
/// *before* the run began — the post-run pool sweep checks every parked
/// entry, not just ones the run touched.
#[test]
fn parked_buffer_corruption_is_caught_by_the_pool_sweep() {
    let g = Dataset::Rmat23.generate(SHIFT, 9);
    let dev = Device::mi250x();
    let scratch = dev.alloc_u32(131);
    dev.pool_release_u32(scratch);
    let xbfs = engine(&dev, &g);
    let plan = BitflipPlan {
        pool: 1,
        seed: 99,
        ..BitflipPlan::none()
    };
    let sab = Sabotage {
        plan: &plan,
        salt: 1,
    };
    let err = certified(&xbfs, 2, Some(&sab)).unwrap_err();
    assert!(
        matches!(
            &err,
            XbfsError::Integrity(xbfs_core::IntegrityError::Pool(_))
        ),
        "expected a pool integrity error, got {err:?}"
    );
}
