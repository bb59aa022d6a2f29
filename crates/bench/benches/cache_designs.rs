//! Per-design access-path cost: how expensive one demand access is in
//! each cache model (functional state machines only, no DRAM timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fc_cache::{
    BlockBasedCache, DramCacheModel, HotPageCache, IdealCache, PageBasedCache, SubBlockCache,
};
use fc_sim::DesignModel;
use fc_types::{MemAccess, PageGeometry, Pc, PhysAddr};
use footprint_cache::{FootprintCache, FootprintCacheConfig};

fn designs() -> Vec<(&'static str, DesignModel)> {
    let geom = PageGeometry::default();
    vec![
        ("block", BlockBasedCache::new(64 << 20).into()),
        ("page", PageBasedCache::new(64 << 20, geom).into()),
        ("subblock", SubBlockCache::new(64 << 20, geom).into()),
        (
            "hotpage",
            HotPageCache::new(64 << 20, PageGeometry::new(4096), 2).into(),
        ),
        (
            "footprint",
            FootprintCache::new(FootprintCacheConfig::new(64 << 20)).into(),
        ),
        ("ideal", IdealCache::new().into()),
    ]
}

fn bench_design_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("design_access_path");
    for (name, mut cache) in designs() {
        group.bench_with_input(BenchmarkId::new("mixed_stream", name), &(), |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                // A stream with page locality: 8 touches per page.
                let page = i / 8;
                let off = (i % 8) * 3 % 32;
                let addr = PhysAddr::new(page * 2048 + off * 64);
                let plan = cache.access(MemAccess::read(Pc::new(0x400 + (i % 7) * 4), addr, 0));
                black_box(plan)
            });
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_design_access
);
criterion_main!(benches);
