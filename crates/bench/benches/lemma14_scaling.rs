//! E-L14: the Lemma 14 bound `O((|d_in| · |T|^{CK} · |d_out|^{CK})^α)`,
//! swept per parameter over [`LEMMA14_SWEEPS`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use typecheck_core::typecheck;
use xmlta_bench::LEMMA14_SWEEPS;

fn sweeps(c: &mut Criterion) {
    for sweep in &LEMMA14_SWEEPS {
        let mut group = c.benchmark_group(sweep.name);
        group.sample_size(10);
        for &param in sweep.params {
            let w = (sweep.family)(param);
            group.bench_with_input(BenchmarkId::from_parameter(param), &w, |b, w| {
                b.iter(|| assert!(typecheck(&w.instance).unwrap().type_checks()))
            });
        }
        group.finish();
    }
}

criterion_group!(lemma14, sweeps);
criterion_main!(lemma14);
