//! Wavelet transform throughput benchmarks.

use aging_fractal::generate;
use aging_wavelet::{dwt, Wavelet, WaveletLeaders};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_transforms(c: &mut Criterion) {
    let signal = generate::fgn(4096, 0.7, 1).unwrap();
    let mut group = c.benchmark_group("wavelet");
    group.throughput(Throughput::Elements(4096));
    for w in [Wavelet::Haar, Wavelet::Daubechies4, Wavelet::Daubechies12] {
        group.bench_with_input(BenchmarkId::new("dwt6", w.to_string()), &w, |b, &w| {
            b.iter(|| dwt(std::hint::black_box(&signal), w, 6).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("leaders6", w.to_string()), &w, |b, &w| {
            b.iter(|| WaveletLeaders::compute(std::hint::black_box(&signal), w, 6).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transforms);
criterion_main!(benches);
