//! # rescomm-proptest — an offline, dependency-free subset of `proptest`
//!
//! The workspace's property tests were written against the real
//! [`proptest`](https://docs.rs/proptest) crate, but the build environment
//! is fully offline, so this shim re-implements exactly the API surface
//! those tests use and is wired in via a Cargo dependency rename
//! (`proptest = { path = "crates/proptest-shim", package = "rescomm-proptest" }`).
//!
//! Covered: the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! integer range strategies, tuples, [`collection::vec`], [`Just`](strategy::Just),
//! `any::<bool>()`, `prop_map` / `prop_flat_map` / `prop_filter`,
//! [`prop_oneof!`], regex-flavoured string strategies (the small subset the
//! parser fuzz tests use), and the `prop_assert*` family.
//!
//! Deliberately NOT covered: shrinking. A failing case reports the test
//! name, the case index and the deterministic seed; cases are reproducible
//! because every test derives its RNG seed from its own path.

pub mod test_runner {
    /// Deterministic split-mix RNG; every test gets a seed derived from
    /// its module path, so failures are reproducible run over run.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Seed from a test path (FNV-1a), optionally perturbed by the
        /// `PROPTEST_SEED` environment variable.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(extra) = s.parse::<u64>() {
                    h ^= extra.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                }
            }
            TestRng(h | 1)
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }

        /// Uniform boolean.
        pub fn gen_bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }

    /// The subset of `proptest::test_runner::Config` the tests touch.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        /// Construct a config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A value generator: the shim collapses proptest's strategy/value-tree
    /// split into direct generation (no shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Generate an intermediate value, then generate from the strategy
        /// it selects.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        /// Reject values failing `pred` (regenerates; gives up after 1000
        /// attempts).
        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason,
                pred,
            }
        }

        /// Type-erase the strategy (used by [`prop_oneof!`](crate::prop_oneof)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone)]
    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter: no value satisfied `{}`", self.reason);
        }
    }

    /// Always produce a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between type-erased strategies ([`prop_oneof!`](crate::prop_oneof)).
    #[derive(Clone)]
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from the (non-empty) alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty strategy range");
                    let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (*self.start() as i128 + off as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::sample_pattern(self, rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Generate a value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.gen_bool()
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    /// Strategy form of [`Arbitrary`].
    #[derive(Debug, Clone)]
    pub struct AnyStrategy<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for AnyStrategy<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// `any::<T>()` — the canonical strategy of `T`.
    pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive length bounds for [`vec`](fn@vec).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing vectors of values of `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec` — a vector whose length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod string {
    //! A tiny regex-flavoured *generator* covering the patterns the
    //! workspace's fuzz tests use: literals, escapes, `\PC`, `\d`, `\w`,
    //! `\s`, `.`-any, character classes with ranges and negation, groups
    //! with alternation, and `{m,n}` / `{n}` / `?` / `*` / `+` repetition.

    use crate::test_runner::TestRng;

    enum Node {
        Seq(Vec<Node>),
        Alt(Vec<Node>),
        Class(Vec<char>),
        Rep(Box<Node>, u32, u32),
    }

    fn printable_pool() -> Vec<char> {
        let mut pool: Vec<char> = (' '..='~').collect();
        pool.extend(['é', 'λ', '→', '°', '\u{2028}']);
        pool
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<char> {
            let c = self.peek();
            if c.is_some() {
                self.pos += 1;
            }
            c
        }

        fn parse_alt(&mut self) -> Node {
            let mut arms = vec![self.parse_seq()];
            while self.peek() == Some('|') {
                self.bump();
                arms.push(self.parse_seq());
            }
            if arms.len() == 1 {
                arms.pop().unwrap()
            } else {
                Node::Alt(arms)
            }
        }

        fn parse_seq(&mut self) -> Node {
            let mut items = Vec::new();
            while let Some(c) = self.peek() {
                if c == ')' || c == '|' {
                    break;
                }
                let atom = self.parse_atom();
                items.push(self.parse_quantifier(atom));
            }
            Node::Seq(items)
        }

        fn parse_atom(&mut self) -> Node {
            match self.bump().expect("pattern atom") {
                '(' => {
                    let inner = self.parse_alt();
                    assert_eq!(self.bump(), Some(')'), "unbalanced group");
                    inner
                }
                '[' => self.parse_class(),
                '\\' => self.parse_escape(),
                '.' => Node::Class(printable_pool()),
                c => Node::Class(vec![c]),
            }
        }

        fn parse_escape(&mut self) -> Node {
            match self.bump().expect("escape") {
                // Unicode category escapes: only the "control" category is
                // used (`\PC` = NOT control = printable).
                'P' | 'p' => {
                    let cat = self.bump().expect("category");
                    assert_eq!(cat, 'C', "only the C category is supported");
                    Node::Class(printable_pool())
                }
                'd' => Node::Class(('0'..='9').collect()),
                'w' => {
                    let mut pool: Vec<char> = ('a'..='z').collect();
                    pool.extend('A'..='Z');
                    pool.extend('0'..='9');
                    pool.push('_');
                    Node::Class(pool)
                }
                's' => Node::Class(vec![' ', '\t', '\n']),
                c => Node::Class(vec![c]),
            }
        }

        fn parse_class(&mut self) -> Node {
            let negate = if self.peek() == Some('^') {
                self.bump();
                true
            } else {
                false
            };
            let mut set = Vec::new();
            loop {
                let c = self.bump().expect("unterminated class");
                if c == ']' {
                    break;
                }
                let lo = if c == '\\' {
                    self.bump().expect("class escape")
                } else {
                    c
                };
                // A range `a-z` (a `-` before `]` is a literal dash).
                if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                    self.bump();
                    let hi = {
                        let h = self.bump().expect("range end");
                        if h == '\\' {
                            self.bump().expect("class escape")
                        } else {
                            h
                        }
                    };
                    set.extend(lo..=hi);
                } else {
                    set.push(lo);
                }
            }
            if negate {
                let pool: Vec<char> = printable_pool()
                    .into_iter()
                    .filter(|c| !set.contains(c))
                    .collect();
                Node::Class(pool)
            } else {
                Node::Class(set)
            }
        }

        fn parse_quantifier(&mut self, atom: Node) -> Node {
            match self.peek() {
                Some('{') => {
                    self.bump();
                    let mut lo = String::new();
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        lo.push(self.bump().unwrap());
                    }
                    let lo: u32 = lo.parse().expect("repetition bound");
                    let hi = if self.peek() == Some(',') {
                        self.bump();
                        let mut hi = String::new();
                        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                            hi.push(self.bump().unwrap());
                        }
                        hi.parse().expect("repetition bound")
                    } else {
                        lo
                    };
                    assert_eq!(self.bump(), Some('}'), "unterminated repetition");
                    Node::Rep(Box::new(atom), lo, hi)
                }
                Some('?') => {
                    self.bump();
                    Node::Rep(Box::new(atom), 0, 1)
                }
                Some('*') => {
                    self.bump();
                    Node::Rep(Box::new(atom), 0, 8)
                }
                Some('+') => {
                    self.bump();
                    Node::Rep(Box::new(atom), 1, 8)
                }
                _ => atom,
            }
        }
    }

    fn sample(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Seq(items) => items.iter().for_each(|n| sample(n, rng, out)),
            Node::Alt(arms) => {
                let i = rng.below(arms.len() as u64) as usize;
                sample(&arms[i], rng, out);
            }
            Node::Class(pool) => {
                assert!(!pool.is_empty(), "empty character class");
                out.push(pool[rng.below(pool.len() as u64) as usize]);
            }
            Node::Rep(inner, lo, hi) => {
                let n = lo + rng.below((hi - lo + 1) as u64) as u32;
                for _ in 0..n {
                    sample(inner, rng, out);
                }
            }
        }
    }

    /// Generate one string matching `pattern`.
    pub fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut parser = Parser {
            chars: pattern.chars().collect(),
            pos: 0,
        };
        let node = parser.parse_alt();
        assert!(
            parser.pos == parser.chars.len(),
            "trailing pattern input in {pattern:?}"
        );
        let mut out = String::new();
        sample(&node, rng, &mut out);
        out
    }
}

/// Everything a property test needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// The test-definition macro. Supports an optional leading
/// `#![proptest_config(<expr>)]` followed by `#[test]` functions whose
/// parameters are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let __name = concat!(module_path!(), "::", stringify!($name));
            let mut __rng = $crate::test_runner::TestRng::for_test(__name);
            for __case in 0..__config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                let __result: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__e) = __result {
                    panic!(
                        "[{}] case {}/{} failed (rerun is deterministic):\n{}",
                        __name,
                        __case + 1,
                        __config.cases,
                        __e
                    );
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// `assert!` that reports through the proptest failure channel.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that reports through the proptest failure channel.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                        __l, __r
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err(::std::format!(
                        "{}\nassertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                        ::std::format!($($fmt)+), __l, __r
                    ));
                }
            }
        }
    };
}

/// `assert_ne!` that reports through the proptest failure channel.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if *__l == *__r {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `(left != right)`\n  both: `{:?}`",
                        __l
                    ));
                }
            }
        }
    };
}

/// Discard the current case when an assumption does not hold. (The real
/// proptest regenerates; the shim simply counts the case as passed.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("ranges");
        for _ in 0..200 {
            let v = (-5i64..=5).generate(&mut rng);
            assert!((-5..=5).contains(&v));
            let u = (1u64..512).generate(&mut rng);
            assert!((1..512).contains(&u));
        }
    }

    #[test]
    fn vec_lengths_respect_size() {
        let mut rng = crate::test_runner::TestRng::for_test("vec");
        for _ in 0..100 {
            let v = crate::collection::vec(0usize..10, 2..=5).generate(&mut rng);
            assert!((2..=5).contains(&v.len()));
            let exact = crate::collection::vec(-2i64..=2, 9).generate(&mut rng);
            assert_eq!(exact.len(), 9);
        }
    }

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = crate::test_runner::TestRng::for_test("strings");
        for _ in 0..100 {
            let s = "[a-z ]{0,20}".generate(&mut rng);
            assert!(s.chars().all(|c| c == ' ' || c.is_ascii_lowercase()));
            assert!(s.chars().count() <= 20);
            let t = "(read|write) [0-9]{1,3}".generate(&mut rng);
            let (head, tail) = t.split_once(' ').unwrap();
            assert!(head == "read" || head == "write");
            assert!(!tail.is_empty() && tail.chars().all(|c| c.is_ascii_digit()));
            let any = "\\PC{0,200}".generate(&mut rng);
            assert!(any.chars().count() <= 200);
        }
    }

    #[test]
    fn determinism_per_test_name() {
        let mut a = crate::test_runner::TestRng::for_test("same");
        let mut b = crate::test_runner::TestRng::for_test("same");
        assert_eq!(
            (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline itself: bindings, asserts, oneof, map.
        #[test]
        fn macro_roundtrip(
            x in 0usize..10,
            pair in (1i64..4, 1i64..4),
            tag in prop_oneof![Just("a"), Just("b")],
            v in crate::collection::vec(any::<bool>(), 0..6),
        ) {
            prop_assert!(x < 10);
            prop_assert_eq!(pair.0 * pair.1, pair.1 * pair.0);
            prop_assert!(tag == "a" || tag == "b");
            prop_assume!(v.len() != 5);
            prop_assert!(v.len() < 5);
        }
    }
}
