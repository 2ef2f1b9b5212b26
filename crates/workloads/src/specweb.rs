//! SPECWeb2005-style microbenchmarks (banking, e-commerce).
//!
//! These exist as Figure 1's contrast: "the SPECWeb2005 workloads contain
//! significant hotspots — with very few functions responsible for about 90%
//! of their execution time," and they "spend most of their time in
//! JIT-generated compiled code, contrary to the real-world PHP
//! applications."

use crate::loadgen::Workload;
use php_runtime::array::ArrayKey;
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use php_runtime::{Category, Leaf};
use phpaccel_core::PhpMachine;

static BANK_VALIDATE_SESSION: Leaf = Leaf::new("bank_validate_session", Category::Other);
static BANK_FORMAT_STATEMENT: Leaf = Leaf::new("bank_format_statement", Category::Other);
static SHOP_RENDER_CATALOG: Leaf = Leaf::new("shop_render_catalog", Category::Other);
static SHOP_PRICE_FORMAT: Leaf = Leaf::new("shop_price_format", Category::Other);

/// Which SPECWeb-like benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecVariant {
    /// Banking: transaction loop hotspot.
    Banking,
    /// E-commerce: catalog formatting hotspot.
    Ecommerce,
}

/// The SPECWeb-like microbenchmark.
pub struct SpecWeb {
    variant: SpecVariant,
    accounts: Vec<i64>,
}

impl SpecWeb {
    /// Builds the chosen variant.
    pub fn new(variant: SpecVariant) -> Self {
        SpecWeb {
            variant,
            accounts: (0..64).map(|i| i * 100).collect(),
        }
    }
}

impl Workload for SpecWeb {
    fn name(&self) -> &'static str {
        match self.variant {
            SpecVariant::Banking => "specweb-banking",
            SpecVariant::Ecommerce => "specweb-ecommerce",
        }
    }

    fn handle_request(&mut self, m: &mut PhpMachine, req: u64) {
        match self.variant {
            SpecVariant::Banking => {
                // One giant hot function: the transaction-processing loop.
                m.ctx().charge_jit(9_000);
                m.ctx().charge_other(&BANK_VALIDATE_SESSION, 900);
                m.ctx().charge_other(&BANK_FORMAT_STATEMENT, 700);
                // A small, static-key account table: IC-friendly accesses.
                let mut accounts = m.new_array();
                for (i, bal) in self.accounts.iter().enumerate().take(16) {
                    m.array_set(&mut accounts, ArrayKey::Int(i as i64), PhpValue::from(*bal));
                }
                let _ = m.array_get(&accounts, &ArrayKey::Int((req % 16) as i64));
                m.array_free(&accounts);
            }
            SpecVariant::Ecommerce => {
                m.ctx().charge_jit(7_500);
                m.ctx().charge_other(&SHOP_RENDER_CATALOG, 2_200);
                m.ctx().charge_other(&SHOP_PRICE_FORMAT, 650);
                let price = PhpStr::from(format!("{}.99", 10 + req % 90));
                let formatted = m.sprintf(
                    &PhpStr::from("item %s: $%s"),
                    &[PhpValue::from(req as i64), PhpValue::str(price)],
                );
                let _v = m.transient_str(formatted);
            }
        }
        m.end_request();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_hotspot_shaped() {
        let mut app = SpecWeb::new(SpecVariant::Banking);
        let mut m = PhpMachine::baseline();
        for r in 0..20 {
            app.handle_request(&mut m, r);
        }
        // Figure 1: very few functions cover ~90 % of cycles.
        let top3 = m.ctx().profiler().cumulative_share(3);
        assert!(top3 > 0.85, "top-3 share {top3}");
    }

    #[test]
    fn ecommerce_also_hotspots() {
        let mut app = SpecWeb::new(SpecVariant::Ecommerce);
        let mut m = PhpMachine::baseline();
        for r in 0..20 {
            app.handle_request(&mut m, r);
        }
        let top5 = m.ctx().profiler().cumulative_share(5);
        assert!(top5 > 0.85, "top-5 share {top5}");
    }
}
