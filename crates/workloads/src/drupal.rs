//! Drupal-like CMS workload.
//!
//! Drupal in the paper shows "the least opportunity" (Figure 5) and
//! benefits least from the accelerators (Figure 14): its profile is
//! dominated by configuration/routing hash traffic and entity assembly,
//! with comparatively little string/regexp processing. Its famously long
//! machine names also exceed the hardware hash table's 24-byte inline key
//! limit more often, pushing some accesses back to software.

use crate::corpus::{Corpus, CorpusConfig};
use crate::loadgen::Workload;
use crate::vmtail::VmTail;
use php_runtime::array::ArrayKey;
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use phpaccel_core::PhpMachine;
use regex_engine::Regex;

/// The Drupal-like application.
pub struct Drupal {
    corpus: Corpus,
    routes: Vec<String>,
    config_keys: Vec<String>,
    field_names: Vec<String>,
    nodes: Vec<PhpStr>,
    /// The text-filter pipeline of a filter-cache miss: the tag strip, then
    /// the escapes.
    filter_rules: Vec<(Regex, Vec<u8>)>,
    tail: VmTail,
}

impl Drupal {
    /// Builds the application.
    pub fn new(seed: u64) -> Self {
        let mut corpus = Corpus::new(CorpusConfig {
            special_density: 0.03,
            words_per_paragraph: 40,
            paragraphs_per_post: 3,
            seed,
        });
        let routes = (0..12).map(|i| format!("node/{i}")).collect();
        let config_keys = (0..8).map(|i| format!("sys.perf.cache.max_{i}")).collect();
        // Drupal field machine names: long, often > 24 bytes.
        let field_names = (0..8)
            .map(|i| format!("field_node_article_body_with_summary_{i}"))
            .collect();
        let nodes = (0..12).map(|_| corpus.post_body()).collect();
        Drupal {
            corpus,
            routes,
            config_keys,
            field_names,
            nodes,
            filter_rules: vec![
                (Regex::new("<[a-z]+>").unwrap(), b"".to_vec()),
                (Regex::new("'").unwrap(), b"&#039;".to_vec()),
                (Regex::new("\"").unwrap(), b"&quot;".to_vec()),
                (Regex::new("\n").unwrap(), b"<br>".to_vec()),
            ],
            tail: VmTail {
                scale: 215,
                refcount_ops: 1250,
                type_checks: 1050,
            },
        }
    }
}

impl Workload for Drupal {
    fn name(&self) -> &'static str {
        "drupal"
    }

    fn handle_request(&mut self, m: &mut PhpMachine, req: u64) {
        // 1. Bootstrap: load configuration into a hash map, read it a lot.
        let mut config = m.new_array();
        for k in &self.config_keys {
            m.array_set(
                &mut config,
                ArrayKey::from(k.as_str()),
                PhpValue::from(1i64),
            );
        }
        for _pass in 0..2 {
            for k in &self.config_keys {
                m.array_get(&config, &ArrayKey::from(k.as_str()));
            }
        }

        // 2. Routing: match the request path against the route table.
        let mut router = m.new_array();
        for (i, r) in self.routes.iter().enumerate() {
            m.array_set(
                &mut router,
                ArrayKey::from(r.as_str()),
                PhpValue::from(i as i64),
            );
        }
        let picked = self.corpus.zipf_pick(self.routes.len());
        let path = self.routes[picked].clone();
        let _route = m.array_get(&router, &ArrayKey::from(path.as_str()));

        // 3. Entity assembly: one array per field, nested into a node array
        //    (allocation-heavy, hash-heavy).
        let mut node = m.new_array();
        for f in &self.field_names {
            let mut field = m.new_array();
            m.array_set(
                &mut field,
                ArrayKey::from("value"),
                PhpValue::from(req as i64),
            );
            m.array_set(
                &mut field,
                ArrayKey::from("format"),
                PhpValue::from("basic_html"),
            );
            let b = m.alloc(64); // field item object
            m.free(b);
            m.array_set(
                &mut node,
                ArrayKey::from(f.as_str()),
                PhpValue::array(field),
            );
        }
        // Render traversal.
        let pairs = m.foreach(&node);
        for (_k, v) in &pairs {
            if let PhpValue::Array(rc) = v {
                let field = rc.borrow();
                m.array_get(&field, &ArrayKey::from("value"));
            }
        }

        // 4. Light text handling: check_plain on the body (single pass) and
        //    one tag-strip regexp — Drupal spends little time here.
        let body = self.nodes[picked].clone();
        let escaped = m.htmlspecialchars(&body);
        if req.is_multiple_of(8) {
            // Filter-cache miss: run the full text-filter pipeline.
            let _clean = m.texturize(&escaped, &self.filter_rules);
        }

        // 5. Cache write: render-cache entry keyed by cid (alloc + hash set).
        let mut cache = m.new_array();
        let cid = format!("entity_view:node:{picked}:full");
        let tv = m.transient_str(PhpStr::from("cached-render-output"));
        m.array_set(&mut cache, ArrayKey::from(cid), tv);

        // 6. Object churn: entity/typed-data objects allocated and dropped.
        for i in 0..18u64 {
            let b = m.alloc(24 + (i as usize % 7) * 16);
            m.free(b);
        }

        // The VM tail (Drupal's hook system and service container are huge).
        self.tail.charge(m);

        m.array_free(&cache);
        m.array_free(&node);
        m.array_free(&router);
        m.array_free(&config);
        m.end_request();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_runtime::Category;

    #[test]
    fn hash_dominates_drupal() {
        let mut app = Drupal::new(1);
        let mut m = PhpMachine::baseline();
        for r in 0..16 {
            app.handle_request(&mut m, r);
        }
        let cats = m.ctx().profiler().category_breakdown();
        let hash = cats[&Category::HashMap];
        let string = cats.get(&Category::String).copied().unwrap_or(0);
        let regex = cats.get(&Category::Regex).copied().unwrap_or(0);
        assert!(hash > string, "drupal is hash-heavy: {hash} vs {string}");
        assert!(hash > regex, "hash {hash} vs regex {regex}");
    }

    #[test]
    fn long_field_names_fall_back_to_software() {
        let mut app = Drupal::new(2);
        let mut m = PhpMachine::specialized();
        for r in 0..3 {
            app.handle_request(&mut m, r);
        }
        assert!(
            m.core().htable.stats().key_too_long > 0,
            "Drupal's long machine names should exceed the 24-byte inline key"
        );
    }

    #[test]
    fn no_leaks() {
        let mut app = Drupal::new(3);
        let mut m = PhpMachine::specialized();
        for r in 0..3 {
            app.handle_request(&mut m, r);
        }
        assert_eq!(m.ctx().with_allocator(|a| a.live_block_count()), 0);
    }
}
