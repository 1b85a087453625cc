//! `Device::launch_split` hands independent waves to as many workers as it
//! is lent scratch sets (functional mode) or runs them in order (timing
//! mode). Either way the kernel report — every counter, the runtime bits —
//! and the memory the kernel leaves must be the ones `Device::launch`
//! gives, whatever the worker count.

use gcd_sim::{splitmix64, ArchProfile, BufU32, BufU64, Device, ExecMode, LaunchCfg, WaveCtx};

/// 38 waves, the last one short. Prime, so `g * 7 % ITEMS` is a permutation.
const ITEMS: usize = 64 * 37 + 13;
const TABLE: usize = 5000;

struct Mem {
    idx: BufU32,
    vals: BufU64,
    out: BufU32,
    bits: BufU64,
}

fn upload(dev: &Device) -> Mem {
    let mut rng = 0x34u64;
    // A quarter of the lanes share eight hot entries: atomics conflict.
    let idx: Vec<u32> = (0..ITEMS)
        .map(|g| (splitmix64(&mut rng) % if g % 4 == 0 { 8 } else { TABLE as u64 }) as u32)
        .collect();
    let vals: Vec<u64> = (0..TABLE).map(|_| splitmix64(&mut rng)).collect();
    Mem {
        idx: dev.upload_u32(&idx),
        vals: dev.upload_u64(&vals),
        out: dev.alloc_u32(ITEMS),
        bits: dev.alloc_u64(TABLE),
    }
}

#[derive(Default)]
struct Scratch {
    idx: Vec<u32>,
    vals: Vec<u64>,
    live: Vec<(usize, u64)>,
}

/// Range loads, gathers, a divergent `vor64` loop (a lane runs `val % 7`
/// rounds, so waves differ in length) and a scatter. Reads only what no
/// wave writes; writes disjoint words or through `atomicOr`.
fn kernel(w: &mut WaveCtx, m: &Mem, s: &mut Scratch) {
    let lanes = w.lanes();
    s.idx.clear();
    w.vload32_range(&m.idx, lanes.start, lanes.len(), &mut s.idx);
    s.vals.clear();
    w.vload64(&m.vals, s.idx.iter().map(|&i| i as usize), &mut s.vals);
    for k in 0.. {
        s.live.clear();
        let live = lanes.clone().zip(&s.vals).filter(|&(_, &v)| v % 7 > k);
        s.live.extend(live.map(|(g, &v)| (g, v)));
        if s.live.is_empty() {
            break;
        }
        let ops = s.live.iter().map(|&(g, v)| {
            let word = ((v >> 8) as usize + k as usize) % TABLE;
            (word, 1u64 << (g % 64))
        });
        w.vor64(&m.bits, ops);
    }
    w.alu(3);
    let scatter = lanes.clone().zip(&s.idx).map(|(g, &i)| (g * 7 % ITEMS, i));
    w.vstore32(&m.out, scatter);
    s.vals.clear();
    w.vload64_range(&m.vals, lanes.start % 64, lanes.len(), &mut s.vals);
}

/// Two launches on a fresh device (the second sees the first's L2 in
/// timing mode): each report's `Debug` text, which prints every field and
/// round-trips every float, then the memory written. `None` is
/// `Device::launch`, `Some(k)` is `launch_split` lent `k` scratch sets.
fn observe(mode: ExecMode, workers: Option<usize>) -> (Vec<String>, Vec<u32>, Vec<u64>) {
    let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
    let m = upload(&dev);
    let mut reports = Vec::new();
    for name in ["split_a", "split_b"] {
        let cfg = LaunchCfg::new(name, ITEMS).with_registers(48);
        let report = match workers {
            None => dev.launch(0, cfg, |w| kernel(w, &m, &mut Scratch::default())),
            Some(k) => {
                let mut scratch: Vec<Scratch> = (0..k).map(|_| Scratch::default()).collect();
                dev.launch_split(0, cfg, &mut scratch, |w, s| kernel(w, &m, s))
            }
        };
        reports.push(format!("{report:?}"));
    }
    (reports, m.out.to_host(), m.bits.to_host())
}

#[test]
fn split_launches_match_the_serial_launch_at_any_worker_count() {
    for mode in [ExecMode::Functional, ExecMode::Timing] {
        let serial = observe(mode, None);
        let conflicts = !serial.0[0].contains("atomic_conflicts: 0,");
        assert!(conflicts, "{mode:?}: no atomic conflicted: {}", serial.0[0]);
        assert!(
            serial.2.iter().any(|&b| b != 0),
            "{mode:?}: no vor64 landed"
        );
        for workers in [1, 2, 3, 7] {
            assert!(
                observe(mode, Some(workers)) == serial,
                "{mode:?} with {workers} workers differs from the serial launch"
            );
        }
    }
}
