//! Criterion micro-benchmarks of the accelerator models against their
//! software baselines, plus end-to-end request throughput of the simulator
//! itself. These measure the *simulator's* wall-clock speed (useful for
//! keeping experiments fast); the paper's performance claims are evaluated
//! by the `fig*` binaries in simulated cycles.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use accel_htable::HwHashTable;
use accel_regex::{regexp_shadow, regexp_sieve};
use accel_string::StringAccel;
use php_runtime::array::{ArrayKey, PhpArray};
use php_runtime::strfuncs::scalar_find;
use php_runtime::value::PhpValue;
use regex_engine::Regex;
use workloads::{AppKind, LoadGen};

fn bench_htable(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash-table");
    let keys: Vec<String> = (0..64).map(|i| format!("post_meta_key_{i}")).collect();

    g.bench_function("software-phparray-get", |b| {
        let mut arr = PhpArray::new();
        for (i, k) in keys.iter().enumerate() {
            arr.insert(ArrayKey::from(k.as_str()), PhpValue::from(i as i64));
        }
        let lookup: Vec<ArrayKey> = keys.iter().map(|k| ArrayKey::from(k.as_str())).collect();
        b.iter(|| {
            for k in &lookup {
                black_box(arr.get_with_cost(k));
            }
        })
    });

    g.bench_function("hw-htable-get", |b| {
        let mut ht = HwHashTable::default();
        for (i, k) in keys.iter().enumerate() {
            ht.set(0x1000, k.as_bytes(), i as u64);
        }
        b.iter(|| {
            for k in &keys {
                black_box(ht.get(0x1000, k.as_bytes()));
            }
        })
    });
    g.finish();
}

fn bench_string(c: &mut Criterion) {
    let mut g = c.benchmark_group("string-find");
    let mut hay = vec![b'a'; 4096];
    hay.extend_from_slice(b"needle");

    g.bench_function("scalar", |b| {
        b.iter(|| black_box(scalar_find(&hay, b"needle")))
    });
    g.bench_function("accel-model", |b| {
        let mut a = StringAccel::default();
        b.iter(|| black_box(a.find(&hay, b"needle", 0).unwrap()))
    });
    g.finish();
}

/// The matching matrix over a 2 KB page of plain text that holds none of
/// the searched bytes, so every op scans the whole page: ns per KB is half
/// the printed ns/iter.
fn bench_string_page(c: &mut Criterion) {
    let mut g = c.benchmark_group("string-accel-2kb-page");
    let page: Vec<u8> = b"plenty of plain, regular words in this block-of text. "
        .iter()
        .copied()
        .cycle()
        .take(2048)
        .collect();
    let mut a = StringAccel::default();
    g.bench_function("find-7-byte-miss", |b| {
        b.iter(|| black_box(a.find(&page, b"zqxjkvw", 0).unwrap()))
    });
    g.bench_function("find-byte-set-5", |b| {
        b.iter(|| black_box(a.find_byte_set(&page, b"&<>\"'", 0).unwrap()))
    });
    g.bench_function("sift-special", |b| {
        b.iter(|| black_box(a.sift_special(&page, 32)))
    });
    g.finish();
}

fn bench_regex(c: &mut Criterion) {
    let mut g = c.benchmark_group("regex-pipeline");
    let mut content = Vec::new();
    for i in 0..40 {
        content.extend_from_slice(b"plenty of plain regular words in this block ");
        if i % 8 == 0 {
            content.extend_from_slice(b"with 'quotes' here ");
        }
    }
    let sieve_re = Regex::new("'").unwrap();
    let shadow_re = Regex::new("\"").unwrap();

    g.bench_function("full-scan", |b| {
        b.iter(|| {
            black_box(sieve_re.find_all(&content));
            black_box(shadow_re.find_all(&content));
        })
    });
    g.bench_function("sieve+shadow", |b| {
        b.iter_batched(
            StringAccel::default,
            |mut accel| {
                let s = regexp_sieve(&sieve_re, &content, 32, &mut accel);
                black_box(regexp_shadow(&shadow_re, &content, &s.hv));
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_endtoend(c: &mut Criterion) {
    let mut g = c.benchmark_group("end-to-end");
    g.sample_size(10);
    for kind in [AppKind::WordPress, AppKind::Drupal] {
        for (label, spec) in [("baseline", false), ("specialized", true)] {
            g.bench_function(format!("{}-{label}", kind.label()), |b| {
                b.iter_batched(
                    || {
                        let app = kind.build(1);
                        let m = if spec {
                            phpaccel_core::PhpMachine::specialized()
                        } else {
                            phpaccel_core::PhpMachine::baseline()
                        };
                        (app, m)
                    },
                    |(mut app, mut m)| {
                        let lg = LoadGen {
                            warmup: 0,
                            measured: 3,
                            context_switch_every: 0,
                        };
                        black_box(lg.run(app.as_mut(), &mut m));
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_htable,
    bench_string,
    bench_string_page,
    bench_regex,
    bench_endtoend
);
criterion_main!(benches);
