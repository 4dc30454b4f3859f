//! Benchmarks for the memory model: WWS sampling throughput, the
//! Table 4-1 fitter, and dirty-bit bookkeeping.

use vbench::bench_case;
use vmem::{AddressSpace, SpaceId, SpaceLayout, WwsParams, WwsSampler};
use vsim::{DetRng, SimDuration};
use vworkload::profiles::TABLE_4_1;

fn space() -> AddressSpace {
    AddressSpace::new(
        SpaceId(0),
        SpaceLayout {
            code_bytes: 0,
            init_data_bytes: 0,
            heap_bytes: 768 * 1024,
            stack_bytes: 0,
        },
    )
}

fn main() {
    bench_case("wws/advance_one_simulated_second", 2, 20, || {
        let mut rng = DetRng::seed(3);
        let params = WwsParams {
            hot_kb: 96.0,
            hot_write_kb_per_sec: 550.0,
            cold_kb_per_sec: 15.0,
        };
        let mut sp = space();
        let mut sampler = WwsSampler::new(params, &sp, &mut rng);
        for _ in 0..100 {
            sampler.advance(SimDuration::from_millis(10), &mut sp, &mut rng);
        }
        sp.dirty_pages()
    });

    // Calls the grid search directly: `Table41Row::fit` is memoized, so
    // timing it would time a cache lookup.
    let page_kb = vsim::calib::PAGE_BYTES as f64 / 1024.0;
    bench_case("wws/fit_quantized_table_4_1", 2, 50, || {
        TABLE_4_1
            .iter()
            .map(|r| WwsParams::fit_quantized(&r.points(), page_kb).hot_kb)
            .sum::<f64>()
    });

    bench_case("space/take_dirty_all_pages", 2, 50, || {
        let mut sp = space();
        for p in sp.writable_pages() {
            sp.write_page(p);
        }
        sp.take_dirty().len()
    });
}
