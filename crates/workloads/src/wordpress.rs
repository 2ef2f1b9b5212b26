//! WordPress-like blog workload.
//!
//! Mirrors the behaviours the paper measured on WordPress: symbol-table
//! `extract`s with dynamic keys, heavy small-object churn while assembling
//! HTML tags, `wptexturize`-style consecutive regexps over the same content
//! (Figure 11), author-URL parsing with near-identical content (Figure 13),
//! and a mini-PHP page template, compiled once and run on the VM per request.

use crate::corpus::{Corpus, CorpusConfig};
use crate::loadgen::Workload;
use crate::php_corpus;
use crate::vmtail::VmTail;
use php_interp::{CompiledUnit, Vm};
use php_runtime::array::ArrayKey;
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use phpaccel_core::PhpMachine;
use regex_engine::Regex;
use std::sync::Arc;

struct Post {
    title: PhpStr,
    body: PhpStr,
    author: PhpStr,
    tags: Vec<PhpStr>,
    comments: Vec<PhpStr>,
}

/// The WordPress-like application.
pub struct WordPress {
    corpus: Corpus,
    posts: Vec<Post>,
    texturize_rules: Vec<(Regex, Vec<u8>)>,
    author_re: Regex,
    /// [`TEMPLATE`] compiled with its facts and fused: the unit the corpus
    /// serves as its `page-template` entry.
    template: Arc<CompiledUnit>,
    tail: VmTail,
    requests_handled: u64,
}

/// Number of posts in the synthetic database.
const POST_COUNT: usize = 40;

/// The page template (mini-PHP), executed on every request.
pub const TEMPLATE: &str = r#"
function render_header($title) {
    return '<header><h1>' . htmlspecialchars($title) . '</h1></header>';
}
function render_tags($tags) {
    $out = '<ul class="tags">';
    foreach ($tags as $tag) {
        $out .= '<li>' . strtolower(trim($tag)) . '</li>';
    }
    return $out . '</ul>';
}
function render_meta($meta) {
    $out = '';
    foreach ($meta as $k => $v) {
        $out .= '<span data-' . $k . '="' . $v . '"></span>';
    }
    return $out;
}
$page = render_header($title) . render_tags($tags) . render_meta($meta);
echo $page;
"#;

impl WordPress {
    /// Builds the application with a deterministic content database.
    pub fn new(seed: u64) -> Self {
        let mut corpus = Corpus::new(CorpusConfig {
            special_density: 0.05,
            words_per_paragraph: 70,
            paragraphs_per_post: 4,
            seed,
        });
        let posts = (0..POST_COUNT)
            .map(|_| {
                let tags = (0..3 + corpus.pick(4)).map(|_| corpus.title()).collect();
                let comments = (0..2 + corpus.pick(5)).map(|_| corpus.comment()).collect();
                Post {
                    title: corpus.title(),
                    body: corpus.post_body(),
                    author: corpus.author(),
                    tags,
                    comments,
                }
            })
            .collect();
        // Figure 11: consecutive regexps all seeking special characters —
        // apostrophe, double quote, newline, opening angle bracket.
        let texturize_rules = vec![
            (Regex::new("'").unwrap(), b"&#8217;".to_vec()),
            (Regex::new("\"").unwrap(), b"&#8221;".to_vec()),
            (Regex::new("\\n").unwrap(), b"<br/>".to_vec()),
            (Regex::new("<br>").unwrap(), b"<br/>".to_vec()),
        ];
        let author_re = Regex::new("https://localhost/\\?author=[a-z]+").unwrap();
        let template = php_corpus::ENTRIES
            .iter()
            .find(|e| e.source == TEMPLATE)
            .map(|e| Arc::clone(php_corpus::prepare(e).unit()))
            .expect("the corpus holds the page template");
        WordPress {
            corpus,
            posts,
            texturize_rules,
            author_re,
            template,
            tail: VmTail {
                scale: 155,
                refcount_ops: 1500,
                type_checks: 900,
            },
            requests_handled: 0,
        }
    }

    /// Binds post `idx`'s title, tags and meta into the template's slots
    /// and runs the unit on the VM. Returns the rendered page.
    fn render_template(&self, m: &mut PhpMachine, idx: usize) -> Vec<u8> {
        let vars = template_vars(m, &self.posts[idx], idx);
        let mut vm = Vm::new(m, Arc::clone(&self.template));
        for (name, v) in vars {
            vm.set_var_public(name, v);
        }
        vm.run().expect("template runs");
        vm.take_output()
    }
}

impl Workload for WordPress {
    fn name(&self) -> &'static str {
        "wordpress"
    }

    fn handle_request(&mut self, m: &mut PhpMachine, req: u64) {
        self.requests_handled += 1;
        let idx = self.corpus.zipf_pick(self.posts.len());
        let post = &self.posts[idx];

        // 1. Materialize the post row as a hash map with dynamic keys and
        //    import it into a symbol table (extract).
        let mut row = m.new_array();
        m.array_set(
            &mut row,
            ArrayKey::from("title"),
            PhpValue::str(post.title.clone()),
        );
        m.array_set(
            &mut row,
            ArrayKey::from("body"),
            PhpValue::str(post.body.clone()),
        );
        m.array_set(
            &mut row,
            ArrayKey::from("author"),
            PhpValue::str(post.author.clone()),
        );
        m.array_set(
            &mut row,
            ArrayKey::from("status"),
            PhpValue::from("publish"),
        );
        m.array_set(
            &mut row,
            ArrayKey::from("comment_count"),
            PhpValue::from(post.comments.len() as i64),
        );
        let mut symtab = m.new_array();
        m.extract(&mut symtab, &row);

        // 2. Post meta: short-lived hash map keyed by dynamic names.
        let mut meta = m.new_array();
        for k in 0..6 {
            let key = format!("meta_{}_{}", idx % 7, k);
            m.array_set(&mut meta, ArrayKey::from(key), PhpValue::from(k as i64));
        }
        for _pass in 0..2 {
            for k in 0..6 {
                let key = format!("meta_{}_{}", idx % 7, k);
                m.array_get(&meta, &ArrayKey::from(key));
            }
        }
        // Templates re-read post fields repeatedly.
        {
            for f in ["title", "author", "status", "comment_count"] {
                m.array_get(&row, &ArrayKey::from(f));
            }
        }

        // 3. Texturize: the excerpt every request; the full body only on a
        //    texturize-cache miss (1 in 5), like production object caching.
        let excerpt = m.ctx().strlib().substr(&post.body, 0, Some(96));
        let textured = if req.is_multiple_of(24) {
            m.texturize(&post.body, &self.texturize_rules)
        } else {
            m.texturize(&excerpt, &self.texturize_rules)
        };

        // 4. Page template on the VM: header, tags, meta spans.
        let _page = self.render_template(m, idx);

        // 5. Comments: normalize, escape, line-break — each comment churns
        //    several short-lived strings (the paper's HTML-tag pattern).
        for c in &post.comments {
            let trimmed = m.trim(c);
            let lowered = m.strtolower(&trimmed);
            let _pos = m.strpos(&lowered, b"the", 0);
            let escaped = m.htmlspecialchars(&trimmed);
            let broken = m.nl2br(&escaped);
            let _v = m.transient_str(broken);
        }

        // 5b. Tag-assembly allocation churn: attribute strings are built
        //     and recycled constantly (§4.3's strong memory reuse).
        for i in 0..17u64 {
            let b = m.alloc(16 + (i as usize % 8) * 16);
            m.free(b);
        }

        // 5c. Slug + search-highlight string work.
        let upper = m.strtoupper(&post.title);
        let slug = m.strtolower(&upper);
        let (slug, _) = m.str_replace(b" ", b"-", &slug);
        let _v = m.transient_str(slug);
        let _ = m.strpos(&post.body, b"content", 0);
        let _ = m.strpos(&post.body, b"article", 0);
        let _cmp = m.strcmp(&post.title, &upper);

        // 6. Author URL parsed repeatedly — content reuse opportunity.
        let url = self.corpus.author_url(&post.author);
        let _ = m.match_with_reuse(0x4010_0000, &self.author_re, &url);

        // 7. Assemble the final page: tag-churn allocations.
        let mut page = PhpStr::from("<article>");
        page.push_bytes(textured.as_bytes());
        page.push_bytes(b"</article>");
        let _v = m.transient_str(page);

        // 8. The VM tail: request plumbing, DB driver, autoloader, session.
        self.tail.charge(m);

        // 9. Teardown: free the short-lived maps.
        m.array_free(&meta);
        m.array_free(&symtab);
        m.array_free(&row);
        m.end_request();
    }
}

/// The page template's request variables for post `idx`: its title, its
/// tags as a list, and a two-entry meta map.
fn template_vars(m: &mut PhpMachine, post: &Post, idx: usize) -> [(&'static str, PhpValue); 3] {
    let mut tags = m.new_array();
    for t in &post.tags {
        m.array_push(&mut tags, PhpValue::str(t.clone()));
    }
    let mut meta = m.new_array();
    m.array_set(
        &mut meta,
        ArrayKey::from("views"),
        PhpValue::from(idx as i64 * 7),
    );
    m.array_set(
        &mut meta,
        ArrayKey::from("likes"),
        PhpValue::from(idx as i64),
    );
    [
        ("title", PhpValue::str(post.title.clone())),
        ("tags", PhpValue::array(tags)),
        ("meta", PhpValue::array(meta)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_interp::{parse, Interp};
    use php_runtime::Category;

    /// The served unit (facts, fusion, VM) on a warm specialized machine
    /// prints what a fact-free tree walk of the same source prints on the
    /// baseline machine, for every post of four databases.
    #[test]
    fn template_on_the_vm_matches_the_tree_walk() {
        let program = parse(TEMPLATE).expect("template parses");
        for seed in 1..=4 {
            let mut app = WordPress::new(seed);
            let mut spec = PhpMachine::specialized();
            let mut base = PhpMachine::baseline();
            for r in 0..100 {
                app.handle_request(&mut spec, r);
            }
            for (idx, post) in app.posts.iter().enumerate() {
                let served = app.render_template(&mut spec, idx);
                spec.end_request();

                let vars = template_vars(&mut base, post, idx);
                let mut interp = Interp::new(&mut base);
                for (name, v) in vars {
                    interp.set_var_public(name, v);
                }
                interp.run_program(&program).expect("template walks");
                let walked = interp.take_output();
                base.end_request();

                assert!(!served.is_empty(), "seed {seed} post {idx}: no output");
                assert_eq!(
                    String::from_utf8_lossy(&served),
                    String::from_utf8_lossy(&walked),
                    "seed {seed} post {idx}"
                );
            }
        }
    }

    #[test]
    fn request_exercises_all_categories() {
        let mut app = WordPress::new(1);
        let mut m = PhpMachine::baseline();
        for r in 0..3 {
            app.handle_request(&mut m, r);
        }
        let cats = m.ctx().profiler().category_breakdown();
        for cat in [
            Category::HashMap,
            Category::Heap,
            Category::String,
            Category::Regex,
            Category::JitCode,
        ] {
            assert!(cats.get(&cat).copied().unwrap_or(0) > 0, "missing {cat:?}");
        }
    }

    #[test]
    fn specialized_runs_identically_and_cheaper() {
        let mut base_app = WordPress::new(2);
        let mut spec_app = WordPress::new(2);
        let mut base = PhpMachine::baseline();
        let mut spec = PhpMachine::specialized();
        for r in 0..5 {
            base_app.handle_request(&mut base, r);
            spec_app.handle_request(&mut spec, r);
        }
        let b = base.ctx().profiler().total_uops();
        let s = spec.ctx().profiler().total_uops();
        assert!(s < b, "specialized {s} vs baseline {b}");
        assert!(spec.core().htable.stats().hit_rate() > 0.5);
        assert!(spec.core().regex_stats.bytes_skipped_sift > 0);
        assert!(spec.core().reuse.stats().lookups > 0);
    }

    #[test]
    fn no_leaks_across_requests() {
        let mut app = WordPress::new(3);
        let mut m = PhpMachine::specialized();
        for r in 0..4 {
            app.handle_request(&mut m, r);
        }
        let live = m.ctx().with_allocator(|a| a.live_block_count());
        assert_eq!(live, 0, "request-scoped memory must be recycled");
    }
}
