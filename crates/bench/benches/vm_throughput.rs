//! VM microbenchmarks: raw interpretation speed with and without tracing.

use bomblab_rt::link_program;
use bomblab_vm::{Machine, MachineConfig};
use criterion::{criterion_group, criterion_main, Criterion};

const LOOP: &str = r#"
    .global _start
_start:
    li t0, 0
    li t1, 100000
loop:
    addi t0, t0, 1
    bne t0, t1, loop
    li a0, 0
    li sv, 0
    sys
"#;

fn bench(c: &mut Criterion) {
    let image = link_program(LOOP).expect("builds");
    let mut group = c.benchmark_group("vm");
    group.sample_size(20);
    group.bench_function("loop_200k_steps", |b| {
        b.iter(|| {
            let mut m = Machine::load(&image, None, MachineConfig::default()).unwrap();
            m.run().steps
        });
    });
    group.bench_function("loop_200k_steps_traced", |b| {
        b.iter(|| {
            let config = MachineConfig {
                trace: true,
                ..MachineConfig::default()
            };
            let mut m = Machine::load(&image, None, config).unwrap();
            m.run().steps
        });
    });
    // A/B ablation: the same loops with the predecoded block cache off,
    // byte-decoding every step. The `loop_200k_steps` / `nocache` ratio is
    // the dispatch speedup the cache buys.
    group.bench_function("loop_200k_steps_nocache", |b| {
        b.iter(|| {
            let config = MachineConfig {
                bbcache: false,
                ..MachineConfig::default()
            };
            let mut m = Machine::load(&image, None, config).unwrap();
            m.run().steps
        });
    });
    group.bench_function("loop_200k_steps_traced_nocache", |b| {
        b.iter(|| {
            let config = MachineConfig {
                trace: true,
                bbcache: false,
                ..MachineConfig::default()
            };
            let mut m = Machine::load(&image, None, config).unwrap();
            m.run().steps
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
