//! Criterion microbenches for the `gcd-sim` substrate itself — the cost of
//! the machinery behind Tables III–V (cache models, wave ops, kernel
//! dispatch) as host wall-clock.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gcd_sim::coalescer::Coalescer;
use gcd_sim::l2::L2Model;
use gcd_sim::{ArchProfile, Device, ExecMode, LaunchCfg};

fn bench_l2(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_model");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("sequential_lines", |b| {
        b.iter(|| {
            let mut l2 = L2Model::new(8 << 20, 16, 64);
            for line in 0..n {
                std::hint::black_box(l2.access_line(line));
            }
        })
    });
    group.bench_function("random_lines", |b| {
        b.iter(|| {
            let mut l2 = L2Model::new(8 << 20, 16, 64);
            let mut x = 0x12345678u64;
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                std::hint::black_box(l2.access_line(x >> 40));
            }
        })
    });
    group.finish();
}

fn bench_coalescer(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalescer");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("streaming_access", |b| {
        b.iter(|| {
            let mut co = Coalescer::new(128, 64);
            for i in 0..n {
                let line = co.line_of(i * 4);
                std::hint::black_box(co.touch(line));
            }
        })
    });
    group.finish();
}

fn bench_launch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_dispatch");
    for (label, mode) in [
        ("functional", ExecMode::Functional),
        ("timing", ExecMode::Timing),
    ] {
        let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
        let buf = dev.alloc_u32(1 << 16);
        group.throughput(Throughput::Elements(1 << 16));
        group.bench_function(format!("fill_64k_{label}"), |b| {
            b.iter(|| std::hint::black_box(dev.fill_u32(0, &buf, 1)))
        });
        group.bench_function(format!("gather_scan_{label}"), |b| {
            b.iter(|| {
                dev.launch(0, LaunchCfg::new("scan", buf.len()), |w| {
                    let idxs: Vec<usize> = w.lanes().collect();
                    let mut out = Vec::with_capacity(idxs.len());
                    w.vload32(&buf, &idxs, &mut out);
                    std::hint::black_box(out.len());
                })
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_l2, bench_coalescer, bench_launch
}
criterion_main!(benches);
